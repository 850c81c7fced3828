"""Device model: analytic helpers, sampling, capacity/FIFO, online estimators."""

import math
import random
import statistics
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwinsim import (Backend, Device, DeviceParams, Engine, EventKind,
                     MetricsHub, ServiceEstimator, Tenant, WorkloadSource,
                     WorkloadSpec, make_np_stream, make_stream)
from qwinsim.device import (DRAW_BLOCK, _LINEAR_LIMIT_NS, _N_BUCKETS,
                            _VACANT, _service_bucket, _service_bucket_edge,
                            sample_service_time)
from qwinsim.metrics import _FOLD_NS, TenantMetrics
from qwinsim.sim_core import SEC, US
from qwinsim.workload import OPEN, Request


def _req(is_read=True, size=4096, params=DeviceParams()):
    mu = math.log(params.median_ns(is_read, size))
    return Request("t", size, arrive_at=0, mu=mu)


# ---------------------------------------------------------------------------
# Parameters and analytic values
# ---------------------------------------------------------------------------


def test_median_scales_with_block_size():
    p = DeviceParams(read_median_us=100.0, size_exponent=0.5, ref_block_bytes=4096)
    assert p.median_ns(True, 4096) == pytest.approx(100_000.0)
    # 16x the block size at exponent 0.5 -> 4x the median
    assert p.median_ns(True, 65536) == pytest.approx(400_000.0)
    q = DeviceParams(read_median_us=100.0, write_median_us=150.0)
    assert q.median_ns(False, 4096) == pytest.approx(150_000.0)


def test_nominal_mean_matches_lognormal_closed_form():
    p = DeviceParams(read_median_us=100.0, sigma=0.3, p_spike=0.001, m_spike=20.0)
    # lognormal mean = median * exp(sigma^2/2), then the spike mixture
    want = 100_000.0 * math.exp(0.09 / 2) * (1 + 0.001 * 19.0)
    assert p.nominal_mean_ns(True, 4096) == pytest.approx(want)


def test_nominal_quantile_brackets_the_spike():
    p = DeviceParams(read_median_us=100.0, sigma=0.3, p_spike=0.001, m_spike=20.0)
    inv = statistics.NormalDist().inv_cdf
    assert p.nominal_quantile_ns(True, 4096, 0.5) == pytest.approx(100_000.0)
    # spike mass occupies the top p_spike of the distribution: quantiles
    # strictly above 1 - p_spike carry the multiplier, the boundary does not
    q9995 = p.nominal_quantile_ns(True, 4096, 0.9995)
    assert q9995 == pytest.approx(100_000.0 * math.exp(0.3 * inv(0.9995)) * 20.0)
    q999 = p.nominal_quantile_ns(True, 4096, 0.999)
    assert q999 == pytest.approx(100_000.0 * math.exp(0.3 * inv(0.999)))
    q99 = p.nominal_quantile_ns(True, 4096, 0.99)
    assert q99 == pytest.approx(100_000.0 * math.exp(0.3 * inv(0.99)))


def test_sampler_median_within_three_percent():
    p = DeviceParams(read_median_us=100.0, sigma=0.3, p_spike=0.001, m_spike=20.0)
    rng = random.Random(1234)
    xs = sorted(sample_service_time(p, True, 4096, rng) for _ in range(100_000))
    med = xs[len(xs) // 2]
    assert abs(med - 100_000) / 100_000 < 0.03


def test_sampler_spike_rate_matches_p_spike():
    p = DeviceParams(read_median_us=100.0, sigma=0.0, p_spike=0.01, m_spike=20.0)
    rng = random.Random(8)
    n = 100_000
    spikes = sum(sample_service_time(p, True, 4096, rng) > 1_000_000 for _ in range(n))
    # expected 1000 +- ~3 sigma (sigma ~= 31)
    assert abs(spikes - n * 0.01) < 120


# ---------------------------------------------------------------------------
# Runtime device: capacity, FIFO, determinism
# ---------------------------------------------------------------------------


def _device(seed=5, **kw):
    # Requests go straight to _start(), which draws a service time whatever
    # the occupancy; the completion callback only records.
    eng = Engine()
    dev = Device(DeviceParams(**kw), make_np_stream(seed, 0), eng)
    done = []
    dev.on_complete_fn = lambda req, now: done.append((req, now))
    return eng, dev, done


def test_capacity_bounds_concurrency_and_fifo_spills():
    # The backend owns the slot accounting, so drive the device through it:
    # five requests on five idle cores, a device with two slots.
    eng = Engine()
    dev = Device(DeviceParams(capacity=2), make_np_stream(5, 0), eng)
    backend = Backend(eng, dev, 5, MetricsHub("dev", warmup_ns=0, pool_total=5))
    src = WorkloadSource(WorkloadSpec(mode=OPEN, rate_per_s=1.0),
                         make_stream(5, 1), dev.params)
    t = backend.add_tenant(Tenant("be0", False), src)
    started = []
    start = dev._start

    def spy(req, now):
        start(req, now)
        started.append((req, now, dev.in_service))

    dev._start = spy
    reqs = [src.make_request(0) for _ in range(5)]
    for r in reqs:
        backend.enqueue(r, 0)
    assert dev.in_service == 2 and list(dev.fifo) == reqs[2:]
    eng.run_until(10 * SEC)
    assert backend.completed == 5 and dev.in_service == 0 and not dev.fifo
    # the spilled requests start in arrival order, each at the completion
    # that freed its slot, and never more than two are in service
    assert [r for r, _, _ in started] == reqs
    finishes = {r.finish_at for r in reqs}
    assert all(now in finishes for _, now, _ in started[2:])
    assert max(n for _, _, n in started) == 2


def test_started_counts_every_start_across_block_refills():
    eng, dev, done = _device(seed=3)
    assert dev.started == 0
    for calls in range(1, 2 * DRAW_BLOCK + 3):
        dev._start(_req(), 0)
        assert dev.started == calls


def test_completed_equals_the_completions_handled():
    from qwinsim.config import parse_config, scenario
    from qwinsim.harness import build
    sim = build(parse_config(scenario("duo")))
    handled = []
    on_complete = sim.device.on_complete_fn

    def counted(req, now):
        handled.append(now)
        on_complete(req, now)

    sim.device.on_complete_fn = counted
    sim.backend.start()
    for k in range(1, 6):
        sim.engine.run_until(k * 10_000 * US)
        assert sim.backend.completed == len(handled) > 0
        assert sim.engine.stats.by_kind[EventKind.IO_COMPLETE] == len(handled)


def test_device_empirical_median_within_three_percent():
    # drive one request at a time so completion - submit == pure service time
    eng, dev, done = _device(seed=78)
    subs = []
    at = 0
    for _ in range(20_000):
        dev._start(_req(), at)
        subs.append(at)
        eng.run_until(eng._heap[0][0])  # exactly the pending completion
        at = eng.now
    svc = sorted(t - s for (_, t), s in zip(done, subs))
    med = svc[len(svc) // 2]
    assert abs(med - 100_000) / 100_000 < 0.03


@pytest.mark.parametrize("sigma, p_spike, m_spike", [
    pytest.param(0.0, 0.01, 20.0, id="0.0"),
    pytest.param(0.3, 0.01, 20.0, id="0.3"),
    pytest.param(2.5, 0.01, 20.0, id="2.5"),
    # The spike multiplier at its edges: never, always, and a spike of 1x.
    pytest.param(0.3, 0.0, 20.0, id="0.3-never"),
    pytest.param(0.3, 1.0, 20.0, id="0.3-always"),
    pytest.param(0.3, 0.01, 1.0, id="0.3-m1"),
])
def test_service_times_equal_the_scalar_draw(sigma, p_spike, m_spike):
    # Reference: the unscaled normal block, scaled by sigma one draw at a
    # time in Python, and the spike as a branch on the uniform.  Scaling the
    # block in numpy and multiplying by the precomputed spike multiplier
    # must give the same ints.
    params = DeviceParams(sigma=sigma, p_spike=p_spike, m_spike=m_spike)
    eng, dev, done = _device(seed=17, sigma=sigma, p_spike=p_spike, m_spike=m_spike)
    ref = make_np_stream(17, 0)
    got, want = [], []
    for i in range(DRAW_BLOCK + 500):   # crosses a block refill
        if i % DRAW_BLOCK == 0:
            z = ref.standard_normal(DRAW_BLOCK).tolist()
            u = ref.random(DRAW_BLOCK).tolist()
        is_read, size = i % 3 != 0, 4096 if i % 2 else 65536
        req = _req(is_read, size)
        dev._start(req, 0)
        got.append(req.finish_at)
        t = math.exp(math.log(params.median_ns(is_read, size))
                     + sigma * z[i % DRAW_BLOCK])
        if u[i % DRAW_BLOCK] < params.p_spike:
            t *= params.m_spike
        want.append(max(1, round(t)))
    assert got == want


def test_device_replay_is_bit_identical():
    out = []
    for _ in range(2):
        eng, dev, done = _device(seed=11)
        for i in range(1_000):
            dev._start(_req(is_read=i % 3 != 0, size=4096 if i % 2 else 65536), 0)
        eng.run_until(1 << 60)
        out.append([t for _, t in done])
    assert out[0] == out[1]


def test_service_times_are_positive_integers():
    eng, dev, done = _device(seed=3, sigma=2.5)
    for _ in range(2_000):
        dev._start(_req(), 0)
    eng.run_until(1 << 60)
    for req, t in done:
        assert isinstance(t, int) and t >= 1


# ---------------------------------------------------------------------------
# Service-time histogram buckets
# ---------------------------------------------------------------------------


def test_service_bucket_edges_are_monotone_and_bracket():
    from qwinsim.device import _N_BUCKETS

    prev = 0
    for idx in range(0, _N_BUCKETS, 97):
        edge = _service_bucket_edge(idx)
        assert edge > prev
        prev = edge
    for ns in (1, 999, 1_000, 55_123, 99_999_999, 100_000_000,
               1_234_567_890, 9_999_999_999, 10_000_000_000, 1 << 40):
        b = _service_bucket(ns)
        assert 0 <= b < _N_BUCKETS
        hi = _service_bucket_edge(b)
        lo = _service_bucket_edge(b - 1) if b > 0 else 0
        if b < _N_BUCKETS - 1:
            # buckets are lower-edge-inclusive: [lo, hi); allow the rounded
            # upper edge itself in the geometric region (float-dust boundary)
            assert lo <= ns < hi or (b >= 100_000 and ns == hi)
        else:
            assert ns >= lo  # everything huge lands in the final bucket


# ---------------------------------------------------------------------------
# Online estimator
# ---------------------------------------------------------------------------


def test_estimator_nominal_fallbacks_before_any_sample():
    e = ServiceEstimator(nominal_mean_ns=123_456.0, nominal_tail_ns=654_321)
    assert e.mean_ns == 123_456.0
    assert e.tail_ns == 654_321


def test_ewma_seeds_with_first_sample():
    e = ServiceEstimator(alpha=0.01)
    e.update(200_000)
    assert e.mean_ns == 200_000.0
    e.update(100_000)
    assert e.mean_ns == pytest.approx(200_000 + 0.01 * (100_000 - 200_000))


def test_ewma_tracks_level_shift():
    e = ServiceEstimator(alpha=0.05)
    for _ in range(400):
        e.update(100_000)
    assert e.mean_ns == pytest.approx(100_000)
    for _ in range(400):
        e.update(300_000)
    assert abs(e.mean_ns - 300_000) < 5_000


def test_estimator_tail_matches_full_rescan_on_random_data():
    rng = random.Random(99)
    e = ServiceEstimator(window=500, quantile=0.99)
    samples = []
    for i in range(3_000):
        x = int(rng.lognormvariate(math.log(100_000), 0.4))
        if rng.random() < 0.01:
            x *= 15
        e.update(x)
        samples.append(x)
        if i % 251 == 0:
            window = samples[-500:]
            # recompute the same bucket-edge quantile from scratch
            counts = {}
            for v in window:
                counts[_service_bucket(v)] = counts.get(_service_bucket(v), 0) + 1
            need = math.ceil(0.99 * len(window) - 1e-9)
            cum = 0
            for b in sorted(counts):
                cum += counts[b]
                if cum >= need:
                    assert e.tail_ns == _service_bucket_edge(b)
                    break


def test_estimator_tail_within_one_bucket_of_exact_quantile():
    rng = random.Random(4)
    e = ServiceEstimator(window=10_000, quantile=0.999)
    xs = []
    for _ in range(10_000):
        x = int(rng.lognormvariate(math.log(100_000), 0.3))
        e.update(x)
        xs.append(x)
    xs.sort()
    exact = xs[math.ceil(0.999 * len(xs)) - 1]
    b = _service_bucket(exact)
    width = _service_bucket_edge(b) - (_service_bucket_edge(b - 1) if b else 0)
    assert abs(e.tail_ns - exact) <= width


def test_estimator_window_slides():
    e = ServiceEstimator(window=100, quantile=0.5)
    for _ in range(100):
        e.update(100_000)
    assert e.tail_ns == _service_bucket_edge(_service_bucket(100_000))
    # push the whole window to a new level; the old samples must age out
    for _ in range(100):
        e.update(900_000)
    assert e.tail_ns == _service_bucket_edge(_service_bucket(900_000))
    assert sum(e._counts[:_VACANT]) == 100     # the vacant slot is not a bucket


class _DequeEstimator:
    """Oracle: the sliding window kept in a deque, popped from the left once
    full, with the same EWMA and incremental tail pointer."""

    def __init__(self, alpha, window, quantile):
        self.alpha, self.window, self.quantile = alpha, window, quantile
        self.mean = 0.0
        self.samples = 0
        self.counts = [0] * _N_BUCKETS
        self.ring = deque()
        self.tail_idx = 0
        self.cum = 0

    def update(self, service_ns):
        if self.samples == 0:
            self.mean = float(service_ns)
        else:
            self.mean += self.alpha * (service_ns - self.mean)
        self.samples += 1
        b = (service_ns // US) if service_ns < _LINEAR_LIMIT_NS else _service_bucket(service_ns)
        if len(self.ring) >= self.window:
            old = self.ring.popleft()
            self.counts[old] -= 1
            if old <= self.tail_idx:
                self.cum -= 1
        self.ring.append(b)
        self.counts[b] += 1
        if b <= self.tail_idx:
            self.cum += 1

    def tail_ns(self, nominal):
        n = len(self.ring)
        if n == 0:
            return nominal
        need = max(1, math.ceil(self.quantile * n - 1e-9))
        idx, cum = self.tail_idx, self.cum
        while cum < need:
            idx += 1
            cum += self.counts[idx]
        while idx > 0 and cum - self.counts[idx] >= need:
            cum -= self.counts[idx]
            idx -= 1
        self.tail_idx, self.cum = idx, cum
        return _service_bucket_edge(idx)


_SERVICE_NS = st.one_of(st.integers(1, 2_000_000),                   # linear
                        st.integers(_LINEAR_LIMIT_NS - 1_000, 20 * SEC))  # geometric


@settings(max_examples=150, deadline=None)
@given(window=st.one_of(st.just(1), st.integers(2, 40), st.just(10_000)),
       quantile=st.sampled_from([0.01, 0.5, 0.9, 0.99, 0.999, 1.0]),
       steps=st.lists(st.lists(_SERVICE_NS, min_size=0, max_size=25),
                      min_size=1, max_size=60))
@example(window=1, quantile=1.0,
         steps=[[], [5_000], [20 * SEC, 1], [], [_LINEAR_LIMIT_NS] * 3, [1]])
@example(window=1, quantile=0.01, steps=[[x] for x in (1, 20 * SEC, 1, 999, 1)])
# The tail index stays at 0 (the edge kept since construction), moves away,
# and comes back to 0.
@example(window=1, quantile=1.0, steps=[[1], [999], [5_000], [1], [1]])
@example(window=3, quantile=0.5, steps=[[1, 1, 1], [_LINEAR_LIMIT_NS] * 3, [999] * 3])
# Reads repeat with no update between them, before and after the first sample.
@example(window=4, quantile=0.9, steps=[[], [], [200_000], [], [], [300_000, 1], [], []])
# Once the window has filled, a sample far above the histogram's top bucket.
@example(window=3, quantile=0.5, steps=[[1_000, 2_000, 3_000], [], [20 * SEC], [7_000], [1]])
def test_ring_estimator_matches_deque_reference(window, quantile, steps):
    # Each step is a run of updates followed by a read, so tail reads fall
    # between updates at every spacing (none, or several in a row), short
    # windows wrap many times, and a long one keeps vacant entries.
    e = ServiceEstimator(alpha=0.05, window=window, quantile=quantile,
                         nominal_mean_ns=7.0, nominal_tail_ns=9)
    ref = _DequeEstimator(0.05, window, quantile)
    for step in steps:
        for x in step:
            e.update(x)
            ref.update(x)
            assert e.mean_ns == ref.mean
        tail = e.tail_ns
        assert tail == ref.tail_ns(9)
        if e.samples:
            # The kept edge is the edge of the index the read left.
            assert tail == _service_bucket_edge(e._tail_idx)
        assert e.mean_ns == (ref.mean if ref.samples else 7.0)


@pytest.mark.parametrize("quantile", [0.5, 1.0])
def test_histogram_grows_to_a_sample_far_above_its_top(quantile):
    # The histogram holds the buckets up to the highest sample so far: a
    # sample far above its top extends it to that sample's bucket, and the
    # reads agree with the deque oracle as the sample enters the full
    # window and leaves it.
    e = ServiceEstimator(window=4, quantile=quantile, nominal_tail_ns=9)
    ref = _DequeEstimator(0.01, 4, quantile)
    assert e._counts == [0]
    last = _service_bucket(20 * SEC)
    for step, length in (([2_000] * 4, 3), ([], 3), ([20 * SEC], last + 1),
                         ([5 * SEC], last + 1), ([3_000] * 4, last + 1)):
        for x in step:
            e.update(x)
            ref.update(x)
        assert e.tail_ns == ref.tail_ns(9)
        assert len(e._counts) == length
    assert last == _N_BUCKETS - 1 and e._counts == ref.counts


# Service times at the layout's edges: below 1 us, either side of the
# 100 ms linear/geometric boundary, and past the last bucket at 10 s.
_EDGE_NS = st.one_of(st.integers(1, 999),
                     st.integers(_LINEAR_LIMIT_NS - 3_000, _LINEAR_LIMIT_NS + 6_000_000),
                     st.integers(10 * SEC - 1_000, 30 * SEC),
                     st.integers(1, 2_000_000))
# A step is runs of (sample, repeat count) followed by a read; the long runs
# let a 10,000-sample window wrap several times without drawing every sample.
_RUNS = st.lists(st.tuples(_EDGE_NS, st.one_of(st.integers(1, 3), st.integers(1, 12_000))),
                 min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(window=st.one_of(st.just(1), st.just(2), st.integers(3, 30), st.just(10_000)),
       quantile=st.one_of(st.sampled_from([1e-9, 1e-4, 0.01, 0.5, 0.999, 1.0]),
                          st.floats(0.0, 1.0, exclude_min=True)),
       steps=st.lists(_RUNS, min_size=1, max_size=12))
# Reads before any sample, repeated reads, and a window of one that wraps on
# every sample.
@example(window=1, quantile=1.0, steps=[[], [], [(999, 1)], [], [(20 * SEC, 2), (1, 1)], []])
# Every sample in a geometric bucket, the window wrapping between reads.
@example(window=3, quantile=0.5,
         steps=[[(_LINEAR_LIMIT_NS, 2)], [(_LINEAR_LIMIT_NS + 5_000_000, 4)], [(11 * SEC, 3)]])
# A 10,000-sample window read while it fills, then after several wraps, and
# more than 65,536 samples between two reads, all settled by the second.
@example(window=10_000, quantile=0.999,
         steps=[[(300_000, 4_000)], [(1, 9_000)], [(_LINEAR_LIMIT_NS - 1, 40_000)], [],
                [(150_000, 60_000), (2_000, 10_000)]])
def test_deferred_estimator_matches_incremental_and_deque_reference(window, quantile, steps):
    # The deferred schedule logs each sample through its intake and takes
    # the tail from the raw window at each read; the incremental one walks
    # its pointer.  Both must give the same edge as the deque oracle at every
    # read, and the read settles the same EWMA.
    deferred = ServiceEstimator(alpha=0.05, window=window, quantile=quantile,
                                nominal_mean_ns=7.0, nominal_tail_ns=9, deferred=True)
    incremental = ServiceEstimator(alpha=0.05, window=window, quantile=quantile,
                                   nominal_mean_ns=7.0, nominal_tail_ns=9)
    ref = _DequeEstimator(0.05, window, quantile)
    for runs in steps:
        for x, n in runs:
            for _ in range(n):
                deferred.log_sample(x)
                incremental.update(x)
                ref.update(x)
        tail = deferred.tail_ns
        assert tail == incremental.tail_ns == ref.tail_ns(9) and type(tail) is int
        assert deferred.mean_ns == incremental.mean_ns
        assert deferred.samples == incremental.samples
        assert len(deferred._win) <= window and not deferred._log


def test_deferred_estimator_log_stays_bounded_between_reads():
    # A run whose only reader ticks rarely must not keep every sample since
    # the last read: the tenant's metrics fold settles the log, as
    # Backend.add_tenant wires it, so across 20 fold periods with no read it
    # never holds more than one period's samples.
    e = ServiceEstimator(window=10, deferred=True)
    ref = ServiceEstimator(window=10)
    tm = TenantMetrics(True, 0.999, warmup_ns=0)
    tm.on_fold = e.settle
    step = -(-_FOLD_NS // 1_000)   # a fold every 1,000 samples
    for i in range(20_000):
        x = 1_000 + i % 7
        tm.record(x, 0, i * step)   # the completion handler's order
        e.log_sample(x)
        ref.update(x)
        assert len(e._log) <= 1_000 and len(e._win) <= 10
    assert e.samples == 19_000   # settled at the last fold, before its sample
    assert e.tail_ns == ref.tail_ns == _service_bucket_edge(_service_bucket(1_006))
    assert (e.samples, e.mean_ns) == (20_000, ref.mean_ns)
