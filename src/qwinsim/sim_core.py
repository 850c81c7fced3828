"""Discrete-event engine: virtual time, an ordered event queue, seeded RNG streams.

Time is integer nanoseconds throughout the simulator.  Events fire in
(fire_at, seq) order, where seq is a monotone insertion counter, so two events
scheduled for the same instant are handled in the order they were scheduled.
That single rule is what makes whole runs replayable bit-for-bit.
"""

from __future__ import annotations

import random
from enum import IntEnum
from heapq import heappop, heappush

import numpy as np

# Handy unit multipliers for integer-ns times.
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


class EventKind(IntEnum):
    REQUEST_ARRIVAL = 0
    IO_COMPLETE = 1
    METRIC_TICK = 2
    POLICY_PROBE = 3


# Plain-int kinds for the schedulers on the hot path: looking up an IntEnum
# member costs far more than a module global, and indexing by_kind with one
# is slower than with an int.
REQUEST_ARRIVAL = int(EventKind.REQUEST_ARRIVAL)
IO_COMPLETE = int(EventKind.IO_COMPLETE)


class SimStats:
    """Bookkeeping for the no-event-loss invariant: scheduled == processed + pending.

    The engine counts each kind but IO_COMPLETE, the most frequent one;
    that kind's count is what the processed total leaves over.
    """

    __slots__ = ("_engine", "processed", "_counted")

    def __init__(self, engine):
        self._engine = engine
        self.processed = 0
        self._counted = [0] * len(EventKind)   # the IO_COMPLETE slot stays 0

    @property
    def scheduled(self) -> int:
        return self._engine._seq  # one seq number per scheduled event

    @property
    def by_kind(self) -> list:
        counts = list(self._counted)
        counts[IO_COMPLETE] = self.processed - sum(counts)
        return counts

    def as_dict(self):
        return {
            "scheduled": self.scheduled,
            "processed": self.processed,
            "by_kind": {EventKind(k).name: n for k, n in enumerate(self.by_kind) if n},
        }


class Engine:
    """Minimal event loop.  Handlers are called as fn(payload, now)."""

    def __init__(self):
        self.now = 0
        self.stats = SimStats(self)
        self._heap: list[tuple] = []
        self._seq = 0

    def schedule(self, fire_at: int, kind: int, fn, payload=None):
        """Queue fn(payload, now) to run at fire_at.

        An event is the plain tuple (fire_at, seq, kind, payload, fn): the
        heap orders by fire_at, then by seq, the insertion counter, and
        never compares further.
        """
        if fire_at < self.now:
            raise ValueError(f"cannot schedule event at {fire_at} ns; now is {self.now} ns")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (fire_at, seq, kind, payload, fn))

    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, end: int) -> SimStats:
        """Process every event with fire_at <= end; leave later events queued.

        Nothing is counted per event but the kinds other than IO_COMPLETE:
        the events processed are those scheduled during the call, less the
        growth of the queue.
        """
        heap = self._heap
        pop = heappop
        stats = self.stats
        counted = stats._counted
        io = IO_COMPLETE
        seq0 = self._seq
        len0 = len(heap)
        while heap:
            fire_at, seq, kind, payload, fn = pop(heap)
            if fire_at > end:
                heappush(heap, (fire_at, seq, kind, payload, fn))
                break
            self.now = fire_at
            if kind != io:
                counted[kind] += 1
            fn(payload, fire_at)
        stats.processed += (self._seq - seq0) - (len(heap) - len0)
        if end > self.now:
            self.now = end
        return stats


def make_stream(seed: int, stream_id: int) -> random.Random:
    """Derive an independent, reproducible RNG stream from (seed, stream_id).

    Key derivation goes through numpy's SeedSequence so distinct stream ids
    give statistically independent streams even for adjacent seeds.  The
    returned generator is a stdlib random.Random (C-speed variate methods).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    derived = int.from_bytes(ss.generate_state(4).tobytes(), "little")
    return random.Random(derived)


def make_np_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Same key derivation as make_stream, but a numpy Generator.

    Used where variates are consumed in bulk (the device draws a block of
    normals/uniforms at a time); PCG64 keyed by the identical SeedSequence
    keeps the stream independent of every make_stream() stream.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))
