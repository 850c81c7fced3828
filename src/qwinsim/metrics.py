"""Latency histograms, per-interval statistics, and CSV emission.

All latency accounting uses one geometric bucket layout (about 5% relative
width from 1us to 10s); each completion is counted once, in its tenant's
live histogram (TenantMetrics.record logs it, and numpy folds the log in).
Quantiles follow the rule "smallest bucket upper edge whose cumulative
fraction reaches q", which bounds the error by one bucket width.  Core
counts have one record, the alloc trace: each interval's mean_cores is
integrated from its rows.  Each trace artifact is a Trace: its file name,
header and rows, held as columns at the width their cells need.  The csv
module writes every cell, so a cell that holds ',', '"' or a newline is quoted.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from bisect import bisect_left
from itertools import accumulate, chain

import numpy as np

from .sim_core import SEC, US

# ---------------------------------------------------------------------------
# Shared bucket layout
# ---------------------------------------------------------------------------

_RATIO = 1.05


def _build_edges():
    edges = []
    v = 1.0 * US
    while True:
        edges.append(round(v))
        if edges[-1] >= 10 * SEC:
            break
        v *= _RATIO
    return tuple(edges)


EDGES = _build_edges()
N_BUCKETS = len(EDGES)
_LAST = N_BUCKETS - 1
_EDGES = np.array(EDGES, dtype=np.int64)


def quantile_need(q: float, n: int) -> int:
    """Samples at or below the q-quantile of n: ceil(q*n), at least 1."""
    # The epsilon guards against float dust on exact multiples.
    need = math.ceil(q * n - 1e-9)
    return need if need > 1 else 1


def quantile_from_counts(counts, n: int, q: float):
    """Smallest bucket upper edge with cumulative fraction >= q; None if empty."""
    if n <= 0:
        return None
    need = min(quantile_need(q, n), n)
    return EDGES[min(bisect_left(list(accumulate(counts)), need), _LAST)]


# ---------------------------------------------------------------------------
# Runtime per-tenant metrics
# ---------------------------------------------------------------------------


_FOLD_NS = 1 << 27   # record() folds a latency log at least this often (ns)


def _minus(counts, base):
    """The histogram counts - base, as a list, and the completions in it."""
    diff = (counts - base).tolist()
    return diff, sum(diff)


class TenantMetrics:
    """Interval, cumulative and since-mark accounting for one tenant.

    record() runs once per completion, logs its latency and counts its bytes
    (`nbytes`).  The log is folded into one live histogram (`counts`) before
    any view is read.  Every view is the difference from a snapshot:

    - the interval: from the snapshot taken at the last flush, whose
      count and bytes are the run totals up to it, `t_n` and `t_bytes`, so
      interval rows sum to them exactly;
    - the cumulative, the measurement the SLO verdict is judged on: from the
      snapshot taken just before the first completion at or past the warmup
      boundary, up to now;
    - since the last mark(): what the adaptive policy refresh and the
      interval feedback allocator read, each marking when it consumes.
    """

    __slots__ = ("lc", "slo_q", "warmup_ns", "_due_at", "on_fold",
                 "_log", "counts", "nbytes", "_t_counts", "t_n", "t_bytes",
                 "_w_counts", "_w_bytes", "_m_counts")

    def __init__(self, lc: bool, slo_q: float, warmup_ns: int):
        self.lc = lc
        self.slo_q = slo_q
        self.warmup_ns = warmup_ns
        self._due_at = min(warmup_ns, _FOLD_NS)   # the next fold in record()
        self.on_fold = None   # called at each fold in record(), if set
        self._log = array("q")          # latencies not yet folded into counts
        self.counts = np.zeros(N_BUCKETS, dtype=np.int64)
        self.nbytes = 0
        self._t_counts = self.counts.copy()
        self.t_n = 0
        self.t_bytes = 0
        self._w_counts = None
        self._w_bytes = 0
        self._m_counts = self.counts.copy()

    def record(self, latency_ns: int, size: int, now: int):
        if now >= self._due_at:
            self._due(now)
        self._log.append(latency_ns)
        self.nbytes += size

    def _due(self, now: int):
        """Fold the log; take the warmup snapshot before logging the first
        completion at or past the boundary."""
        self._fold()
        if self.on_fold is not None:
            self.on_fold()
        if self._w_counts is None and now >= self.warmup_ns:
            self._w_counts = self.counts.copy()
            self._w_bytes = self.nbytes
        due = now + _FOLD_NS
        self._due_at = due if self._w_counts is not None else min(due, self.warmup_ns)

    def _fold(self):
        """Count each logged latency x in bucket min(bisect_left(EDGES, x), _LAST)."""
        log = self._log
        if log:
            self._log = array("q")
            b = np.searchsorted(_EDGES, np.frombuffer(log, np.int64), side="left")
            np.minimum(b, _LAST, out=b)
            self.counts += np.bincount(b, minlength=N_BUCKETS)

    def flush_interval(self, now: int):
        """Close the interval ending at `now`; returns its counts/n/bytes."""
        self._fold()
        counts, n = _minus(self.counts, self._t_counts)
        interval = (counts, n, self.nbytes - self.t_bytes)
        self._t_counts = self.counts.copy()
        self.t_n += n
        self.t_bytes = self.nbytes
        return interval

    def _cumulative(self):
        """Post-warmup counts/n/bytes, from the warmup snapshot up to now."""
        if self._w_counts is None:
            return None, 0, 0
        self._fold()
        return (*_minus(self.counts, self._w_counts), self.nbytes - self._w_bytes)

    @property
    def c_bytes(self) -> int:
        return self._cumulative()[2]

    def cumulative_quantile(self, q: float):
        counts, n, _ = self._cumulative()
        return quantile_from_counts(counts, n, q)

    def since_mark(self, q: float):
        """(completions since the last mark, their q-quantile or None)."""
        self._fold()
        counts, n = _minus(self.counts, self._m_counts)
        return n, quantile_from_counts(counts, n, q)

    def mark(self):
        self._fold()
        self._m_counts = self.counts.copy()


class Trace:
    """One CSV artifact: its file, header and rows, as columns at the width they need.

    `append` is the C-level append of `pending`, a list of row tuples.
    fold() moves them into the columns.  An int column (named in `ints`) is
    an array at the narrowest typecode in _WIDTHS that holds every cell
    folded so far: it starts at 'b', and a fold widens it as needed.  A name
    column (named in `names`) keeps a table (name -> code) and each cell's
    code, in an int column.  Any other column is a list.  A read never folds:
    it gives the folded rows, decoded, then the pending ones.  A row of the
    wrong width, or a cell its column cannot hold, fails the fold and leaves
    the trace as it was.
    """

    __slots__ = ("file", "header", "append", "pending", "_cols", "_tables")
    _WIDTHS = "bhiq"   # int column typecodes, narrowest first: 1, 2, 4 and 8 bytes

    def __init__(self, file: str, header: str, *ints: str, names=()):
        self.file, self.header = file, header
        cols = header.split(",")
        assert set(ints) | set(names) <= set(cols) and not set(ints) & set(names)
        self.pending: list[tuple] = []
        self.append = self.pending.append
        self._cols = [array("b") if c in ints or c in names else [] for c in cols]
        self._tables = [{} if c in names else None for c in cols]

    def fold(self):
        pending, cols, tables = self.pending, self._cols, self._tables
        if not pending:
            return
        # Stage every chunk, grown table and widened column, then commit.
        # Each zip is strict: a row of the wrong width raises ValueError.
        staged = []
        for col, table, cells in zip(cols, tables, zip(*pending, strict=True), strict=True):
            if table is not None:
                seen = dict.fromkeys(chain(table, cells))
                if len(seen) > len(table):
                    table = dict(zip(seen, range(len(seen))))
                cells = tuple(map(table.__getitem__, cells))
            if type(col) is array:   # at col's width or the narrowest wider one that holds them
                for tc in self._WIDTHS[self._WIDTHS.index(col.typecode):]:
                    try:
                        cells = array(tc, cells)   # TypeError on a cell that is not an int
                        break
                    except OverflowError:
                        if tc == "q":
                            raise
                if tc != col.typecode:
                    col = array(tc, col)
            staged.append((col, table, cells))
        for i, (col, table, cells) in enumerate(staged):
            col.extend(cells)
            cols[i], tables[i] = col, table
        pending.clear()   # in place: `append` stays bound to this list

    def __iter__(self):
        cols = [col if table is None else map(list(table).__getitem__, col)
                for col, table in zip(self._cols, self._tables)]
        return chain(zip(*cols), self.pending)

    def __len__(self):
        return len(self._cols[0]) + len(self.pending)


class MetricsHub:
    """Owns per-tenant metrics and the trace artifacts; the code behind each
    decision appends its row, in its trace's header order."""

    def __init__(self, run_id: str, warmup_ns: int, pool_total: int):
        self.run_id = run_id
        self.warmup_ns = warmup_ns
        self.pool_total = pool_total
        self.tenants: dict[str, TenantMetrics] = {}
        # Int columns hold counts and times, which config keeps below 2**62 ns
        # by bounding duration_s; slack_ns and tail_io_ns stay plain, because
        # an SLO latency or a device setting has no upper bound.
        self.traces = (
            Trace("intervals.csv",
                  "run_id,interval,tenant,tail_ns,bandwidth_bytes_per_s,mean_cores",
                  "interval", names=("run_id", "tenant")),
            Trace("alloc_trace.csv", "time_ns,tenant,old_num,new_num,trigger",
                  "time_ns", "old_num", "new_num", names=("tenant", "trigger")),
            Trace("windows.csv", "tenant,wid,ql,tw_ns,granted_cores,policy",
                  "wid", "ql", "tw_ns", "granted_cores", names=("tenant", "policy")),
            Trace("policy_trace.csv", "time_ns,tenant,old_policy,new_policy,slack_ns",
                  "time_ns", names=("tenant", "old_policy", "new_policy")),
            Trace("transfers.csv", "core,from_owner,to_owner,marked_ns,effective_ns,initiator",
                  "core", "marked_ns", "effective_ns",
                  names=("from_owner", "to_owner", "initiator")),
            Trace("estimators.csv", "time_ns,tenant,t_io_avg_ns,tail_io_ns",
                  "time_ns", names=("tenant",)),
        )
        (self.interval_rows, self.alloc_rows, self.window_rows, self.policy_rows,
         self.transfer_rows, self.estimator_rows) = self.traces
        self._interval_idx = 0
        self._interval_start = 0
        self._cores: dict[str, int] = {}   # LC core counts at _interval_start

    def register_tenant(self, label: str, lc: bool, slo_q: float) -> TenantMetrics:
        tm = TenantMetrics(lc, slo_q, self.warmup_ns)
        self.tenants[label] = tm
        if lc:
            self._cores[label] = 0
        return tm

    def start_cores(self, counts: dict):
        """Take the LC core counts at t=0, before any alloc row."""
        self._cores.update(counts)

    def lc_cores(self) -> dict:
        """Each LC tenant's core count, replayed from the alloc rows."""
        cores = dict(self._cores)
        for _, label, old, new, _ in self.alloc_rows.pending:
            cores[label] += new - old
        return cores

    # -- interval machinery -----------------------------------------------------

    def flush_interval(self, now: int):
        """Close the interval ending at `now`, fold the trace rows and emit
        one row per tenant.  An empty interval does nothing, so the alloc
        rows pending at a flush are those written since the last interval."""
        length = now - self._interval_start
        if length <= 0:
            return
        # Integrate each LC count from its value at the interval start and
        # the alloc rows written since; the BE pool holds the rest.
        cores = self._cores
        area = {label: num * length for label, num in cores.items()}
        for t, label, old, new, _ in self.alloc_rows.pending:
            area[label] += (new - old) * (now - t)
            cores[label] += new - old
        for trace in self.traces:
            trace.fold()
        be_mean = (self.pool_total * length - sum(area.values())) / length
        secs = length / SEC
        for label, tm in self.tenants.items():
            counts, n, nbytes = tm.flush_interval(now)
            if tm.lc:
                tail = quantile_from_counts(counts, n, tm.slo_q)
                mean_cores = area[label] / length
            else:
                tail = None
                mean_cores = be_mean
            self.interval_rows.append((self.run_id, self._interval_idx, label, tail,
                                       nbytes / secs, mean_cores))
        self._interval_idx += 1
        self._interval_start = now

    # -- end-of-run reporting ------------------------------------------------

    def latency_rows(self):
        rows = []
        for label, tm in self.tenants.items():
            qs = {*LATENCY_QUANTILES, tm.slo_q} if tm.lc else LATENCY_QUANTILES
            for q in sorted(qs):
                rows.append((self.run_id, label, "lc" if tm.lc else "be",
                             q, tm.cumulative_quantile(q)))
        return rows


# ---------------------------------------------------------------------------
# Writing a run directory
# ---------------------------------------------------------------------------

LATENCY_QUANTILES = (0.5, 0.9, 0.99, 0.999)   # an LC tenant adds its SLO's
LATENCY_HEADER = "run_id,tenant,class,quantile,cumulative_tail_ns"


def _write_csv(path, header: str, rows):
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        csv.writer(f, lineterminator="\n").writerows(rows)


def write_all(hub: MetricsHub, out_dir, report: dict) -> dict:
    """Write one run into the directory out_dir: latency.csv, each trace's
    CSV, then report.json last, so a directory without it did not finish.
    Returns {file name: path}."""
    paths = {}
    for file, header, rows in (("latency.csv", LATENCY_HEADER, hub.latency_rows()),
                               *((t.file, t.header, t) for t in hub.traces)):
        paths[file] = os.path.join(out_dir, file)
        _write_csv(paths[file], header, rows)
    paths["report.json"] = os.path.join(out_dir, "report.json")
    with open(paths["report.json"], "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return paths
