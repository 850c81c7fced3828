"""Latency histograms, interval/cumulative accounting, CSV layouts."""

import csv
import gc
import math
import random
import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwinsim import MetricsHub, TenantMetrics, parse_config, quantile_from_counts, scenario
from qwinsim.harness import _start_metric_ticks, build
from qwinsim.metrics import (_FOLD_NS, ALLOC_HEADER, EDGES, ESTIMATORS_HEADER,
                             INTERVALS_HEADER, LATENCY_HEADER, N_BUCKETS,
                             POLICY_HEADER, TRANSFERS_HEADER, WINDOWS_HEADER,
                             Trace, _write_csv, write_all)


def _bucket(x):
    """The bucket a latency falls in: the first edge at or above it."""
    return min(bisect_left(EDGES, x), N_BUCKETS - 1)


# ---------------------------------------------------------------------------
# Buckets and quantiles
# ---------------------------------------------------------------------------


def test_edges_are_strictly_increasing_and_cover_range():
    assert EDGES[0] == 1_000
    assert EDGES[-1] >= 10_000_000_000
    assert all(a < b for a, b in zip(EDGES, EDGES[1:]))
    # ~5% geometric growth
    for a, b in list(zip(EDGES, EDGES[1:]))[::500]:
        assert 1.03 < b / a < 1.07 or a < 2_000


def test_record_bucket_equals_bisect_at_every_transition():
    # The bucket changes only at edges, so each edge and its neighbours
    # cover every transition without an exhaustive loop.
    tm = TenantMetrics(True, 0.999, warmup_ns=0)
    points = {0}
    for e in EDGES:
        points.update((e - 1, e, e + 1))
    # A flush folds the log, and its interval holds the one latency
    # recorded since the last, in the bucket record chose.
    def bucket_recorded(x, want):
        tm.record(x, 0, 0)
        counts, n, _ = tm.flush_interval(0)
        assert n == 1 and counts[want] == 1, x

    for x in sorted(points):
        bucket_recorded(x, _bucket(x))
    for x in (10_000_000_001, EDGES[-1] + 1, 20_000_000_000, 1 << 45):
        bucket_recorded(x, N_BUCKETS - 1)
    assert tm.t_n == len(points) + 4


def test_log_is_folded_at_least_once_per_fold_period():
    # With no view read (interval_s past the end of the run), record()
    # folds the log itself, so it never holds more than one period's worth.
    step = _FOLD_NS // 100
    tm = TenantMetrics(False, 0.999, warmup_ns=150 * step)
    for k in range(1_000):
        tm.record(50_000, 1, k * step)
        assert len(tm._log) <= 101
    tm.flush_interval(1_000 * step)
    assert (tm.t_n, tm.t_bytes) == (1_000, 1_000)
    assert tm._cumulative()[1:] == (850, 850)         # past the warmup snapshot


def test_quantile_from_counts_known_small_case():
    counts = [0] * N_BUCKETS
    # ten samples: 9 in bucket of 100us, 1 in bucket of 10ms
    b_lo, b_hi = _bucket(100_000), _bucket(10_000_000)
    counts[b_lo] = 9
    counts[b_hi] = 1
    assert quantile_from_counts(counts, 10, 0.5) == EDGES[b_lo]
    assert quantile_from_counts(counts, 10, 0.9) == EDGES[b_lo]
    # ceil(0.91 * 10) = 10th sample -> the spike bucket
    assert quantile_from_counts(counts, 10, 0.91) == EDGES[b_hi]
    assert quantile_from_counts(counts, 10, 1.0) == EDGES[b_hi]
    assert quantile_from_counts(counts, 0, 0.9) is None


def test_quantile_exact_multiple_has_no_float_dust():
    counts = [0] * N_BUCKETS
    counts[_bucket(1_000)] = 900
    counts[_bucket(50_000)] = 100
    # 0.9 * 1000 = 900 exactly -> the 900th sample, still the low bucket
    assert quantile_from_counts(counts, 1000, 0.9) == EDGES[_bucket(1_000)]


def test_histogram_within_one_bucket_of_exact_quantile():
    rng = random.Random(55)
    tm = TenantMetrics(True, 0.999, warmup_ns=0)
    samples = []
    for _ in range(30_000):
        x = int(rng.lognormvariate(math.log(200_000), 0.5))
        if rng.random() < 0.002:
            x *= 25
        samples.append(x)
        tm.record(x, 4096, 0)
    tm.flush_interval(1)
    xs = sorted(samples)
    for q in (0.9, 0.99, 0.999):
        exact = xs[math.ceil(q * len(xs)) - 1]
        b = _bucket(exact)
        width = EDGES[b] - (EDGES[b - 1] if b else 0)
        assert abs(tm.cumulative_quantile(q) - exact) <= width


# ---------------------------------------------------------------------------
# TenantMetrics: warmup and interval folding
# ---------------------------------------------------------------------------


def test_cumulative_counts_only_post_warmup():
    tm = TenantMetrics(True, 0.999, warmup_ns=1_000)
    tm.record(10_000, 4096, now=500)      # pre-warmup
    tm.record(10_000, 4096, now=999)      # pre-warmup
    tm.record(20_000, 4096, now=1_000)    # at the boundary: counts
    tm.record(20_000, 4096, now=1_500)
    tm.flush_interval(2_000)
    assert tm.c_bytes == 2 * 4096
    assert tm.t_n == 4                     # totals see everything
    assert tm.cumulative_quantile(1.0) == EDGES[_bucket(20_000)]


def test_interval_totals_sum_to_run_totals():
    tm = TenantMetrics(True, 0.999, warmup_ns=2_500)
    rng = random.Random(2)
    now = 0
    per_interval = []
    for k in range(5):
        n = rng.randrange(3, 30)
        for _ in range(n):
            now += 7
            tm.record(rng.randrange(1_000, 1_000_000), 4096, now)
        _, i_n, i_bytes = tm.flush_interval((k + 1) * 1_000)
        per_interval.append((i_n, i_bytes))
        now = (k + 1) * 1_000
    assert sum(n for n, _ in per_interval) == tm.t_n
    assert sum(b for _, b in per_interval) == tm.t_bytes
    # cumulative only saw intervals at/after the warmup boundary
    assert tm.c_bytes <= tm.t_bytes


def test_fold_flag_toggles_at_warmup_and_totals_stay_exact():
    # warmup at 1500 cuts the second interval [1000, 2000) in half
    tm = TenantMetrics(True, 0.999, warmup_ns=1_500)
    tm.record(5_000, 100, now=200)
    tm.flush_interval(1_000)
    assert tm.c_bytes == 0                 # nothing recorded past warmup yet
    tm.record(5_000, 100, now=1_400)       # pre-warmup: cumulative skips it
    tm.record(5_000, 100, now=1_600)       # post-warmup: cumulative takes it
    assert tm.c_bytes == 100               # as soon as it is recorded
    tm.flush_interval(2_000)
    tm.record(5_000, 100, now=2_700)
    assert tm.c_bytes == 200               # also inside a later interval
    tm.flush_interval(3_000)               # and a flush changes nothing
    assert tm.c_bytes == 200 and tm.t_n == 4
    assert tm.t_bytes == 400


def test_zero_warmup_folds_from_the_start():
    tm = TenantMetrics(True, 0.999, warmup_ns=0)
    tm.record(5_000, 50, now=1)
    assert tm.c_bytes == 50                # counted as soon as it is recorded
    tm.flush_interval(1_000)
    assert tm.c_bytes == 50 and tm.t_n == 1


# ---------------------------------------------------------------------------
# MetricsHub rows and CSV files
# ---------------------------------------------------------------------------


def _mini_hub():
    hub = MetricsHub("run-x", warmup_ns=0, pool_total=8)
    hub.register_tenant("lc0", True, 0.999)
    hub.register_tenant("be0", False, 0.999)
    hub.start_cores({"lc0": 1})
    return hub


def test_interval_rows_shape_and_be_pool_mean():
    hub = _mini_hub()
    hub.tenants["lc0"].record(40_000, 4096, 100)
    hub.tenants["be0"].record(90_000, 65536, 200)
    hub.flush_interval(1_000)
    rows = hub.interval_rows
    assert len(rows) == 2
    lc_row = next(r for r in rows if r[2] == "lc0")
    be_row = next(r for r in rows if r[2] == "be0")
    assert lc_row[0] == "run-x" and lc_row[1] == 0
    assert lc_row[3] == EDGES[_bucket(40_000)]
    assert float(lc_row[4]) == pytest.approx(4096 / 1e-6)   # bytes over 1us-long... 1000ns
    assert be_row[3] == ""                                   # BE has no tail column
    assert float(be_row[5]) == pytest.approx(7.0)            # pool-wide mean cores
    assert float(lc_row[5]) == pytest.approx(1.0)


def test_alloc_window_policy_transfer_estimator_rows():
    hub = _mini_hub()
    hub.alloc_rows.append((500, "lc0", 1, 3, "window_start"))
    hub.window_rows.append(("lc0", 1, 12, 2_000, 3, "slo_aware"))
    hub.policy_rows.append((700, "lc0", "aggressive", "slo_aware", 450_000))
    hub.transfer_rows.append((4, "__be__", "lc0", 500, 750, "lc0"))
    hub.estimator_rows.append((1_000, "lc0", 105_333.5, 260_000))
    assert list(hub.alloc_rows) == [(500, "lc0", 1, 3, "window_start")]
    assert list(hub.window_rows) == [("lc0", 1, 12, 2_000, 3, "slo_aware")]
    assert list(hub.policy_rows) == [(700, "lc0", "aggressive", "slo_aware", 450_000)]
    assert list(hub.transfer_rows) == [(4, "__be__", "lc0", 500, 750, "lc0")]
    assert list(hub.estimator_rows) == [(1_000, "lc0", 105_333.5, 260_000)]


_ROWS = st.lists(st.tuples(
    st.integers(-2**63, 2**63 - 1), st.text(max_size=3), st.floats(allow_nan=False),
    st.one_of(st.just(""), st.integers()), st.integers(-2**63, 2**63 - 1)))


@given(_ROWS, st.sets(st.integers(0, 30)))
@settings(max_examples=200, deadline=None)
def test_trace_gives_back_its_rows_across_folds(rows, folds):
    trace = Trace("a,b,c,d,e", "a", "e")
    for i, row in enumerate(rows):
        trace.append(row)
        if i in folds:
            trace.fold()
    assert list(trace) == rows
    assert len(trace) == len(rows)
    for i in range(len(rows) + 1):
        assert list(trace.since(i)) == rows[i:]


@pytest.mark.parametrize("bad, error", [
    ((1.5, "x"), TypeError), ((2**63, "x"), OverflowError), ((-2**63 - 1, "x"), OverflowError),
    (("7", "x"), TypeError), ((None, "x"), TypeError), ((1,), ValueError), ((1, "x", 2), ValueError),
], ids=["float", "2**63", "-2**63-1", "str", "None", "short row", "long row"])
def test_trace_fold_fails_on_a_cell_it_cannot_hold_and_writes_nothing(bad, error):
    trace = Trace("n,s", "n")
    trace.append((1, "a"))
    trace.fold()
    trace.append((2, "b"))
    trace.append(bad)
    with pytest.raises(error):
        trace.fold()
    with pytest.raises(error):   # the row stays pending: every read fails
        list(trace)
    assert [len(col) for col in trace._cols] == [1, 1]


def test_trace_rows_are_held_in_columns_not_tuples():
    # A 3 s burst-duo/qwin run holds 94 B per window, alloc and transfer
    # row, fixed run state included, against 185 B with a tuple per row.
    cfg = parse_config({**scenario("burst-duo"), "duration_s": 3.0})
    sim = build(cfg)
    _start_metric_ticks(sim)
    sim.backend.start()
    gc.collect()
    tracemalloc.start(1)
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim.engine.run_until(cfg.duration_ns)
        sim.hub.flush_interval(cfg.duration_ns)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    hub = sim.hub
    rows = len(hub.window_rows) + len(hub.alloc_rows) + len(hub.transfer_rows)
    assert rows > 5_000
    assert held / rows < 125


def test_headers_are_pinned():
    assert LATENCY_HEADER == "run_id,tenant,class,quantile,cumulative_tail_ns"
    assert INTERVALS_HEADER == "run_id,interval,tenant,tail_ns,bandwidth_bytes_per_s,mean_cores"
    assert ALLOC_HEADER == "time_ns,tenant,old_num,new_num,trigger"
    assert WINDOWS_HEADER == "tenant,wid,ql,tw_ns,granted_cores,policy"
    assert POLICY_HEADER == "time_ns,tenant,old_policy,new_policy,slack_ns"
    assert TRANSFERS_HEADER == "core,from_owner,to_owner,marked_ns,effective_ns,initiator"
    assert ESTIMATORS_HEADER == "time_ns,tenant,t_io_avg_ns,tail_io_ns"


def test_write_all_emits_seven_csvs_with_headers(tmp_path):
    hub = _mini_hub()
    hub.tenants["lc0"].record(40_000, 4096, 100)
    hub.flush_interval(1_000)
    paths = write_all(hub, tmp_path / "run")
    assert sorted(paths) == ["alloc_trace.csv", "estimators.csv", "intervals.csv",
                             "latency.csv", "policy_trace.csv", "transfers.csv",
                             "windows.csv"]
    for name, p in paths.items():
        first = open(p).readline().rstrip("\n")
        assert "," in first and first[0].isalpha() or first.startswith("time_ns")
    lat = open(paths["latency.csv"]).read().splitlines()
    assert lat[0] == LATENCY_HEADER
    # lc0 rows at the standard quantiles (slo_q 0.999 already included)
    lc_rows = [l for l in lat[1:] if l.split(",")[1] == "lc0"]
    assert [r.split(",")[3] for r in lc_rows] == ["0.5", "0.9", "0.99", "0.999"]


def test_write_csv_quotes_a_cell_only_when_it_must(tmp_path):
    rows = [("a,b", 'say "hi"', "two\nlines", 1.5, 7, ""), ("plain", 0.1, 2, 3, "", "x")]
    _write_csv(tmp_path / "t.csv", "a,b,c,d,e,f", rows)
    text = (tmp_path / "t.csv").read_text()
    assert text.endswith("\nplain,0.1,2,3,,x\n")
    with open(tmp_path / "t.csv", newline="") as f:
        assert list(csv.reader(f)) == [["a", "b", "c", "d", "e", "f"],
                                       [str(x) for x in rows[0]], [str(x) for x in rows[1]]]


def test_latency_rows_add_slo_quantile_when_nonstandard():
    hub = MetricsHub("run-y", warmup_ns=0, pool_total=8)
    hub.register_tenant("lc0", True, 0.95)
    hub.tenants["lc0"].record(40_000, 4096, 100)
    hub.flush_interval(1_000)
    rows = hub.latency_rows()
    qs = [r[3] for r in rows]
    assert qs == sorted(qs)
    assert 0.95 in qs and 0.999 in qs


def test_mean_cores_is_time_weighted():
    hub = MetricsHub("run-z", warmup_ns=0, pool_total=8)
    hub.register_tenant("lc0", True, 0.999)
    hub.start_cores({"lc0": 0})
    hub.alloc_rows.append((250, "lc0", 0, 4, "window_start"))  # 0 cores for 250ns, then 4
    hub.tenants["lc0"].record(1_000, 1, 10)
    hub.flush_interval(1_000)
    row = list(hub.interval_rows)[0]
    assert float(row[5]) == pytest.approx((0 * 250 + 4 * 750) / 1_000)


# ---------------------------------------------------------------------------
# One live histogram against the two-histogram bookkeeping it replaced
# ---------------------------------------------------------------------------


class _TwoHistogramOracle:
    """The accounting one live histogram replaced, kept as the reference:
    interval counts in a histogram reset at each flush, a separate
    cumulative histogram counted per completion at or past the warmup
    boundary, and a probe histogram counted per completion and reset when
    read."""

    def __init__(self, warmup_ns):
        self.warmup_ns = warmup_ns
        self.i_counts, self.i_n, self.i_bytes = [0] * N_BUCKETS, 0, 0
        self.c_counts, self.c_n, self.c_bytes = [0] * N_BUCKETS, 0, 0
        self.t_n = self.t_bytes = 0
        self.probe_counts, self.probe_n = [0] * N_BUCKETS, 0

    def record(self, latency_ns, size, now):
        b = _bucket(latency_ns)
        self.i_counts[b] += 1
        self.i_n += 1
        self.i_bytes += size
        if now >= self.warmup_ns:
            self.c_counts[b] += 1
            self.c_n += 1
            self.c_bytes += size
        self.probe_counts[b] += 1
        self.probe_n += 1

    def flush_interval(self, now):
        counts, n, nbytes = self.i_counts, self.i_n, self.i_bytes
        self.t_n += n
        self.t_bytes += nbytes
        self.i_counts, self.i_n, self.i_bytes = [0] * N_BUCKETS, 0, 0
        return counts, n, nbytes

    def cumulative_quantile(self, q):
        return quantile_from_counts(self.c_counts, self.c_n, q)

    def since_mark(self, q):
        return self.probe_n, quantile_from_counts(self.probe_counts, self.probe_n, q)

    def mark(self):
        self.probe_counts, self.probe_n = [0] * N_BUCKETS, 0


@st.composite
def _metric_scripts(draw):
    """(warmup_ns, ops): completions, marks and the flushes at every
    interval edge, in time order; ties at one instant in any order."""
    interval = draw(st.integers(1, 40))
    n_intervals = draw(st.integers(1, 5))
    end = draw(st.integers(interval * (n_intervals - 1) + 1, interval * n_intervals))
    edges = [min(k * interval, end) for k in range(1, n_intervals + 1)]
    warmup = draw(st.one_of(st.just(0), st.sampled_from(edges),
                            st.integers(0, end + 2 * interval)))  # may pass the end
    near = sorted({t for e in edges + [warmup, 0] for t in (e - 1, e, e + 1)
                   if 0 <= t <= end})
    when = st.one_of(st.sampled_from(near), st.integers(0, end))
    latency = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 * EDGES[-1]))
    op = st.one_of(
        st.tuples(st.just("record"), latency, st.integers(0, 1 << 20)),
        st.tuples(st.just("mark")))
    timed = draw(st.lists(st.tuples(when, st.integers(0, 3), op), max_size=60))
    timed += [(e, draw(st.integers(0, 3)), ("flush",)) for e in edges]
    timed.sort(key=lambda x: (x[0], x[1]))
    return warmup, [(t, o) for t, _tie, o in timed]


@given(_metric_scripts())
@settings(max_examples=400, deadline=None)
def test_one_live_histogram_matches_the_two_histogram_oracle(script):
    warmup, ops = script
    tm = TenantMetrics(True, 0.999, warmup_ns=warmup)
    oracle = _TwoHistogramOracle(warmup)
    qs = (0.5, 0.9, 0.999, 1.0)
    for now, op in ops:
        if op[0] == "record":
            tm.record(op[1], op[2], now)
            oracle.record(op[1], op[2], now)
        elif op[0] == "flush":
            counts, n, nbytes = tm.flush_interval(now)
            want = oracle.flush_interval(now)
            assert (counts, n, nbytes) == want
            assert quantile_from_counts(counts, n, 0.999) == \
                quantile_from_counts(want[0], want[1], 0.999)
        else:
            assert tm.since_mark(0.999) == oracle.since_mark(0.999)
            tm.mark()
            oracle.mark()
        # Sizes may be 0, so the post-warmup count is read beside the bytes.
        assert (tm._cumulative()[1], tm.c_bytes, tm.t_n, tm.t_bytes) == \
            (oracle.c_n, oracle.c_bytes, oracle.t_n, oracle.t_bytes)
        assert [tm.cumulative_quantile(q) for q in qs] == \
            [oracle.cumulative_quantile(q) for q in qs]
        assert tm.since_mark(0.9) == oracle.since_mark(0.9)


# ---------------------------------------------------------------------------
# The folded latency log against the per-completion bucket lookup it replaced
# ---------------------------------------------------------------------------


_CELL_SHIFT = 12
_CELL_LIMIT = 16_384 << _CELL_SHIFT
_CELL_FIRST = [bisect_left(EDGES, k << _CELL_SHIFT)
               for k in range(_CELL_LIMIT >> _CELL_SHIFT)]
_NEVER = 1 << 63


def _minus(counts, base):
    return [a - b for a, b in zip(counts, base)]


def _loop_quantile(counts, n, q):
    """quantile_from_counts as a loop over the buckets, as it was."""
    if n <= 0:
        return None
    need = min(max(1, math.ceil(q * n - 1e-9)), n)
    cum = 0
    for idx, c in enumerate(counts):
        if c:
            cum += c
            if cum >= need:
                return EDGES[idx]
    return EDGES[-1]


class _DirectIndexOracle:
    """The TenantMetrics the latency log replaced, kept as the reference:
    record() finds each latency's bucket at once, from a direct-index table
    over 4 us cells below about 67 ms and by bisection above, and counts it
    in a Python-list live histogram; quantiles come from a loop."""

    def __init__(self, warmup_ns):
        self.warmup_ns = warmup_ns
        self._warm_at = warmup_ns
        self.counts = [0] * N_BUCKETS
        self.n = self.nbytes = 0
        self._t_counts = [0] * N_BUCKETS
        self.t_n = self.t_bytes = 0
        self._w_counts = None
        self._w_n = self._w_bytes = 0
        self._m_counts = [0] * N_BUCKETS
        self._m_n = 0

    def record(self, latency_ns, size, now):
        if now >= self._warm_at:
            self._warm_at = _NEVER
            self._w_counts = self.counts[:]
            self._w_n = self.n
            self._w_bytes = self.nbytes
        if latency_ns < _CELL_LIMIT:
            b = _CELL_FIRST[latency_ns >> _CELL_SHIFT]
            while EDGES[b] < latency_ns:
                b += 1
        else:
            b = bisect_left(EDGES, latency_ns)
            if b >= N_BUCKETS:
                b = N_BUCKETS - 1
        self.counts[b] += 1
        self.n += 1
        self.nbytes += size

    def flush_interval(self, now):
        counts = self.counts
        interval = (_minus(counts, self._t_counts), self.n - self.t_n,
                    self.nbytes - self.t_bytes)
        self._t_counts = counts[:]
        self.t_n = self.n
        self.t_bytes = self.nbytes
        return interval

    def _cumulative(self):
        if self._w_counts is None:
            return None, 0, 0
        return (_minus(self.counts, self._w_counts), self.n - self._w_n,
                self.nbytes - self._w_bytes)

    @property
    def c_bytes(self):
        return self._cumulative()[2]

    def cumulative_quantile(self, q):
        counts, n, _ = self._cumulative()
        return _loop_quantile(counts, n, q)

    def since_mark(self, q):
        n = self.n - self._m_n
        return n, _loop_quantile(_minus(self.counts, self._m_counts), n, q)

    def mark(self):
        self._m_counts = self.counts[:]
        self._m_n = self.n


_EDGE_NEIGHBOURS = sorted({x for e in EDGES for x in (e - 1, e, e + 1)})
_QS = (0.5, 0.9, 0.999, 1.0)


@st.composite
def _log_scripts(draw):
    """(warmup_ns, ops): completions and every view, at non-decreasing times
    that step within one fold period and across several."""
    step = st.one_of(st.just(0), st.integers(1, 5_000),
                     st.integers(_FOLD_NS - 2, _FOLD_NS + 2),
                     st.integers(1, 3 * _FOLD_NS))
    latency = st.one_of(st.sampled_from(_EDGE_NEIGHBOURS),
                        st.integers(0, 2 * EDGES[-1]))
    op = st.one_of(
        st.tuples(st.just("record"), latency, st.integers(0, 1 << 20)),
        st.tuples(st.sampled_from(["flush", "mark", "c_bytes"])),
        st.tuples(st.sampled_from(["since_mark", "cumulative_quantile"]),
                  st.sampled_from(_QS)))
    now, ops = 0, []
    for dt, o in draw(st.lists(st.tuples(step, op), max_size=80)):
        now += dt
        ops.append((now, o))
    times = [t for t, _ in ops] or [0]
    warmup = draw(st.one_of(st.just(0), st.sampled_from(times),
                            st.integers(0, times[-1] + _FOLD_NS)))
    return warmup, ops


@given(_log_scripts())
@settings(max_examples=400, deadline=None)
def test_folded_log_matches_the_direct_index_oracle(script):
    warmup, ops = script
    tm = TenantMetrics(True, 0.999, warmup_ns=warmup)
    oracle = _DirectIndexOracle(warmup)
    for now, op in ops:
        kind = op[0]
        if kind == "record":
            tm.record(op[1], op[2], now)
            oracle.record(op[1], op[2], now)
        elif kind == "flush":
            counts, n, nbytes = tm.flush_interval(now)
            assert (counts, n, nbytes) == oracle.flush_interval(now)
            assert quantile_from_counts(counts, n, 0.999) == \
                _loop_quantile(counts, n, 0.999)
        elif kind == "mark":
            tm.mark()
            oracle.mark()
        elif kind == "c_bytes":
            assert tm.c_bytes == oracle.c_bytes
        else:
            assert getattr(tm, kind)(op[1]) == getattr(oracle, kind)(op[1])
    end = ops[-1][0] if ops else 0
    assert tm.flush_interval(end) == oracle.flush_interval(end)
    assert (tm._cumulative(), tm.t_n, tm.t_bytes) == \
        (oracle._cumulative(), oracle.t_n, oracle.t_bytes)


# ---------------------------------------------------------------------------
# mean_cores from the alloc trace against the shadow integral it replaced
# ---------------------------------------------------------------------------


class _AreaOracle:
    """The per-count shadow integral mean_cores was read from before the
    alloc trace became its one record: every count change applied as it
    happens, the area taken and reset at each flush."""

    def __init__(self, num):
        self.num, self.last_t, self.area = num, 0, 0

    def change(self, new_num, now):
        self.area += self.num * (now - self.last_t)
        self.num, self.last_t = new_num, now

    def take(self, now):
        self.change(self.num, now)
        area, self.area = self.area, 0
        return area


@st.composite
def _core_scripts(draw):
    """(pool, t=0 counts, ops): groups of count changes at one instant and
    the flushes at every interval edge, in time order; ties at one instant
    in any order.  A change draws a raw value the test maps onto the cores
    the pool can spare, so a group may hold old == new rows.  lc0 may be
    held at 0 cores throughout, as the priority allocator holds LC tenants."""
    n_lc = draw(st.integers(1, 3))
    held = n_lc > 1 and draw(st.booleans())
    pool = draw(st.integers(n_lc, 8))
    counts = {}
    for i in range(n_lc):
        free = pool - sum(counts.values())
        counts[f"lc{i}"] = 0 if held and i == 0 else draw(st.integers(0, free))
    interval = draw(st.integers(1, 40))
    n_intervals = draw(st.integers(1, 5))
    end = draw(st.integers(interval * (n_intervals - 1) + 1, interval * n_intervals))
    edges = [min(k * interval, end) for k in range(1, n_intervals + 1)]
    near = sorted({t for e in edges + [0] for t in (e - 1, e, e + 1) if 0 <= t <= end})
    when = st.one_of(st.sampled_from(near), st.integers(0, end))
    change = st.tuples(st.integers(1 if held else 0, n_lc - 1), st.integers(0, 8))
    group = st.tuples(st.just("change"), st.lists(change, min_size=1, max_size=3),
                      st.booleans())
    timed = draw(st.lists(st.tuples(when, st.integers(0, 3), group), max_size=40))
    timed += [(e, draw(st.integers(0, 3)), ("flush",)) for e in edges]
    timed.sort(key=lambda x: (x[0], x[1]))
    return pool, counts, [(t, o) for t, _tie, o in timed]


@given(_core_scripts())
@settings(max_examples=300, deadline=None)
def test_mean_cores_from_alloc_rows_matches_the_shadow_integral(script):
    pool, counts, ops = script
    hub = MetricsHub("run-c", warmup_ns=0, pool_total=pool)
    for label in counts:
        hub.register_tenant(label, True, 0.999)
    hub.register_tenant("be0", False, 0.999)
    hub.start_cores(dict(counts))
    oracle = {label: _AreaOracle(num) for label, num in counts.items()}
    be = _AreaOracle(pool - sum(counts.values()))
    labels = list(counts)
    want = []
    last_flush = 0
    for now, op in ops:
        if op[0] == "flush":
            hub.flush_interval(now)
            length = now - last_flush
            if length > 0:
                want += [repr(oracle[label].take(now) / length) for label in labels]
                want.append(repr(be.take(now) / length))
                last_flush = now
            continue
        _, changes, reverse = op
        rows = []
        for i, raw in changes:
            label = labels[i]
            old = counts[label]
            new = raw % (pool - sum(counts.values()) + old + 1)
            counts[label] = new
            oracle[label].change(new, now)
            be.change(pool - sum(counts.values()), now)
            rows.append((now, label, old, new, "probe"))
        # A grant's row follows the rows its woken cores' first steps write
        # at the same instant, so rows at one instant may come in any order.
        for row in reversed(rows) if reverse else rows:
            hub.alloc_rows.append(row)
    assert [r[5] for r in hub.interval_rows] == want
    assert hub.lc_cores() == counts
