"""Span tracer for the traced benchmark run.

The tracer wraps functions of the `qwinsim` modules from outside: it replaces
a class attribute or a module global with a wrapper that records a span (name,
start, end, parent) around each call.  Nothing in `src/` knows about it.

Spans are kept in memory.  The first `keep` spans are stored whole; after
that only the per-name aggregate (calls, total and self time) grows, so a
long run costs bounded memory.  A span's self time is its duration minus the
part covered by its child spans; the wrapper's own bookkeeping outside the
timed interval lands in the parent's self time, which is why the run also
reports the tracer's cost per span (`span_cost_ns`).
"""

from __future__ import annotations

import functools
import json
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.spans: list[tuple] = []        # (id, parent id, name, start, end)
        self.agg: dict[str, list] = {}      # name -> [calls, total_ns, self_ns]
        self.total_spans = 0
        self._stack: list[list] = []        # open spans: [id, child_ns]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records a span called `name`."""
        stack = self._stack
        spans = self.spans
        agg = self.agg.setdefault(name, [0, 0, 0])
        keep = self.keep
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.total_spans += 1
            sid = tracer.total_spans
            frame = [sid, 0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                d = t1 - t0
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += d
                    pid = parent[0]
                else:
                    pid = 0
                if len(spans) < keep:
                    spans.append((sid, pid, name, t0, t1))

        return traced

    def patch(self, owner, attr: str, name: str):
        """Replace owner.attr (a function, method or property) by its traced wrapper."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(orig, property):
            new = property(self.wrap(name, orig.fget))
        else:
            new = self.wrap(name, orig)
        setattr(owner, attr, new)

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[0]

    def self_ns_per_call(self, name: str) -> float:
        calls, _total, self_ns = self.agg.get(name, (0, 0, 0))
        return self_ns / calls if calls else 0.0

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans_total": self.total_spans,
                       "spans_kept": len(self.spans),
                       "aggregate": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
                                     for k, v in sorted(self.agg.items())},
                       "columns": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, f)
            f.write("\n")


def span_cost_ns(n: int = 200_000) -> float:
    """Host ns the tracer adds to one call of an empty function."""
    def empty():
        return None

    traced = Tracer(keep=0).wrap("empty", empty)
    best = None
    for _ in range(3):
        t0 = _clock()
        for _ in range(n):
            empty()
        t1 = _clock()
        for _ in range(n):
            traced()
        t2 = _clock()
        cost = ((t2 - t1) - (t1 - t0)) / n
        best = cost if best is None else min(best, cost)
    return best


def self_times(spans):
    """Self ns per span id, from raw (id, parent, name, start, end) spans.

    The reference form of what Tracer.wrap computes online; the tests check
    it on hand-worked nested spans.
    """
    child = {}
    for sid, pid, _name, t0, t1 in spans:
        if pid:
            child[pid] = child.get(pid, 0) + (t1 - t0)
    return {sid: (t1 - t0) - child.get(sid, 0) for sid, _pid, _n, t0, t1 in spans}
