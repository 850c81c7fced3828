"""Workload sources: presets, closed-loop recycling, open-loop arrivals, bursts."""

import bisect
import dataclasses
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwinsim import (Backend, Burst, Device, DeviceParams, Engine, EventKind,
                     MetricsHub, PRESETS, PRESET_CLASS, Tenant, WorkloadSpec,
                     WorkloadSource, make_np_stream, make_stream)
from qwinsim.config import ExperimentConfig, SloSpec, TenantConfig, parse_config, read_yaml
from qwinsim.workload import CLOSED, NOT_SCHEDULED, OPEN
from qwinsim.sim_core import MS, SEC


# ---------------------------------------------------------------------------
# Specs and presets
# ---------------------------------------------------------------------------


def test_in_flight_cap():
    assert WorkloadSpec(iodepth=16, numjobs=8).in_flight_cap == 128
    assert WorkloadSpec(mode=OPEN, rate_per_s=10.0).in_flight_cap == 0


def test_presets_cover_table_and_validate():
    for name in "ABCDEFGH":
        assert name in PRESETS
    for name in ("J", "K", "P"):
        assert name in PRESETS
    for name, spec in PRESETS.items():
        assert PRESET_CLASS[name] in ("lc", "be")
        # Each preset passes the checks an inline workload takes.
        slo = SloSpec(4 * MS) if PRESET_CLASS[name] == "lc" else None
        text = ExperimentConfig(tenants=(TenantConfig("t", PRESET_CLASS[name], spec, slo),)).to_yaml()
        assert parse_config(read_yaml(text)).tenants[0].workload == spec
    # the 4KB latency presets descend in read ratio
    assert [PRESETS[n].read_ratio for n in "ABCD"] == [1.00, 0.95, 0.90, 0.85]
    assert all(PRESETS[n].sizes == ((4096, 1.0),) for n in "ABCD")
    # the 64KB throughput presets
    assert [PRESETS[n].read_ratio for n in "EFGH"] == [1.00, 0.99, 0.95, 0.90]
    assert all(PRESETS[n].sizes == ((65536, 1.0),) for n in "EFGH")
    assert all(PRESETS[n].in_flight_cap == 128 for n in "ABCD")
    assert all(PRESETS[n].in_flight_cap == 32 for n in "EFGH")


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


def _drive(spec, seed=1, label="t0", device=DeviceParams()):
    eng = Engine()
    src = WorkloadSource(spec, make_stream(seed, 1), device)
    src.tenant = label
    arrived = []
    src.start(eng, lambda req, now: arrived.append((req, now)))
    return eng, src, arrived


# Read and write medians differ and sizes scale at a non-default exponent, so
# a mu looked up under the wrong op or size shows, and the op a request
# carries in its mu can be read back.
_MU_DEVICE = DeviceParams(read_median_us=80.0, write_median_us=150.0,
                          size_exponent=0.7)


def _op(req):
    """The op (True for a read) whose log median under _MU_DEVICE, at the
    request's size, is the request's mu; there must be exactly one."""
    ops = [op for op in (True, False)
           if req.mu == math.log(_MU_DEVICE.median_ns(op, req.size))]
    assert len(ops) == 1, (req.size, req.mu)
    return ops[0]


class _RecordingDevice(Device):
    """Records (request, op, size, mu, arrive_at, finish_at, now) as it
    starts each request, before drawing its service time."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []

    def _start(self, req, now):
        self.seen.append((req, _op(req), req.size, req.mu, req.arrive_at,
                          req.finish_at, now))
        super()._start(req, now)


def _closed_loop_starts(spec, n, seed=1):
    """Start records of a closed loop's first n requests on _MU_DEVICE, the
    replacements drawn by the backend's completion handler.  The source is a
    BE tenant's, served by one core and one device slot, so requests start
    one at a time in arrival order: the t=0 population first, then the
    replacements."""
    eng = Engine()
    dev = _RecordingDevice(dataclasses.replace(_MU_DEVICE, capacity=1),
                           make_np_stream(seed, 0), eng)
    backend = Backend(eng, dev, 1, MetricsHub("run", 0, 1))
    backend.add_tenant(Tenant("t0", False),
                       WorkloadSource(spec, make_stream(seed, 1), _MU_DEVICE))
    backend.start()
    while len(dev.seen) < n:
        eng.run_until(eng.now + 100 * MS)
    return dev.seen[:n]


def _closed_loop_replacements(spec, n, seed=1):
    """Start records of a closed loop's first n replacements."""
    cap = spec.in_flight_cap
    return _closed_loop_starts(spec, cap + n, seed)[cap:]


def test_closed_loop_emits_exactly_iodepth_x_numjobs_at_t0():
    spec = WorkloadSpec(mode=CLOSED, iodepth=4, numjobs=3)
    eng, src, arrived = _drive(spec)
    eng.run_until(0)
    assert len(arrived) == 12
    assert all(now == 0 for _, now in arrived)
    eng.run_until(10 * SEC)
    assert len(arrived) == 12  # closed loop generates nothing on its own


def test_closed_loop_recycles_on_completion():
    # Two in flight on one core: the first request completes as the second
    # starts, and its replacement starts when the second completes.
    spec = WorkloadSpec(mode=CLOSED, iodepth=2, numjobs=1, read_ratio=0.5)
    first, second, repl = _closed_loop_starts(spec, 3, seed=3)
    assert repl[0] is first[0]              # the object is recycled
    assert repl[4] == second[6] > 0         # it arrived as the first completed
    assert repl[5] == NOT_SCHEDULED
    assert repl[2] in (4096,)
    assert repl[1] in (True, False)


def test_open_loop_never_recycles():
    spec = WorkloadSpec(mode=OPEN, rate_per_s=1000.0)
    eng, src, arrived = _drive(spec)
    eng.run_until(5_000_000)
    req, now = arrived[0]
    in_flight = src.in_flight
    assert src.on_completion(req) is None
    assert src.in_flight == in_flight - 1
    assert src.make_request(now + 200) is req


def test_closed_loop_read_fraction_within_one_percent():
    spec = WorkloadSpec(mode=CLOSED, iodepth=1, numjobs=1, read_ratio=0.9)
    n = 50_000
    reads = sum(r[1] for r in _closed_loop_replacements(spec, n, seed=11))
    assert abs(reads / n - 0.9) < 0.01


def test_size_mix_matches_weights():
    spec = WorkloadSpec(mode=CLOSED, iodepth=1, numjobs=1,
                        sizes=((2048, 0.25), (8192, 0.75)), read_ratio=1.0)
    n = 40_000
    sizes = [r[2] for r in _closed_loop_replacements(spec, n, seed=21)]
    assert abs(sizes.count(2048) / n - 0.25) < 0.01
    assert all(s in (2048, 8192) for s in sizes)


def test_pure_read_and_pure_write_specs_are_constant():
    for ratio, want in ((1.0, True), (0.0, False)):
        spec = WorkloadSpec(mode=CLOSED, iodepth=2, numjobs=1, read_ratio=ratio)
        for r in _closed_loop_replacements(spec, 200, seed=5):
            assert r[1] is want


@pytest.mark.parametrize("spec", [
    PRESETS["C"], PRESETS["K"], PRESETS["J"],
    WorkloadSpec(mode=CLOSED, sizes=((4096, 0.5), (65536, 0.5)), read_ratio=0.0,
                 iodepth=4, numjobs=1),
], ids=["C", "K", "J", "write-only"])
def test_every_request_carries_the_log_median_of_its_op_and_size(spec):
    # _op checks that each mu is the log median of one op at its size.
    want = {(op, s) for s, _ in spec.sizes for op in (True, False)
            if (spec.read_ratio > 0 if op else spec.read_ratio < 1)}
    # open loop: make_request
    src = WorkloadSource(dataclasses.replace(spec, mode=OPEN, rate_per_s=1.0),
                         make_stream(9, 1), _MU_DEVICE)
    reqs = [src.make_request(0) for _ in range(3_000)]
    assert {(_op(r), r.size) for r in reqs} == want
    # closed loop: the t=0 population, then the completion handler's
    # replacements
    starts = _closed_loop_starts(spec, spec.in_flight_cap + 3_000, seed=9)
    assert {(op, size) for _req, op, size, *_ in starts} == want


def test_requests_carry_identity_fields():
    spec = WorkloadSpec(mode=CLOSED, iodepth=2, numjobs=1)
    eng, src, arrived = _drive(spec, seed=5, label="lcX")
    eng.run_until(0)
    req = arrived[0][0]
    assert req.tenant == "lcX"
    assert req.size == 4096 and req.arrive_at == 0


# ---------------------------------------------------------------------------
# Open loop and bursts
# ---------------------------------------------------------------------------


def test_open_loop_rate_within_five_percent():
    spec = WorkloadSpec(mode=OPEN, rate_per_s=20_000.0)
    eng, src, arrived = _drive(spec, seed=31)
    eng.run_until(5 * SEC)
    got = len(arrived) / 5.0
    assert abs(got - 20_000) / 20_000 < 0.05


def test_open_loop_arrival_times_strictly_ordered_and_positive():
    spec = WorkloadSpec(mode=OPEN, rate_per_s=5_000.0)
    eng, src, arrived = _drive(spec, seed=17)
    eng.run_until(SEC)
    times = [now for _, now in arrived]
    assert times == sorted(times)
    assert times[0] > 0  # first arrival is drawn, not at t=0


def test_burst_phases_start_with_off():
    # off 100ms at 1k/s, then on 100ms at 50k/s, repeating
    burst = Burst(on_ns=100_000_000, off_ns=100_000_000, rate_per_s=50_000.0)
    spec = WorkloadSpec(mode=OPEN, rate_per_s=1_000.0, burst=burst)
    eng, src, arrived = _drive(spec, seed=13)
    eng.run_until(SEC)
    # count arrivals per 100ms phase
    per_phase = [0] * 10
    for _, now in arrived:
        idx = min(9, now // 100_000_000)
        per_phase[idx] += 1
    off_phases = per_phase[0::2]
    on_phases = per_phase[1::2]
    # off phases run at ~100 arrivals, on phases at ~5000
    assert all(c < 300 for c in off_phases), per_phase
    assert all(c > 3_000 for c in on_phases), per_phase


def test_burst_rate_accuracy_in_on_phase():
    burst = Burst(on_ns=SEC, off_ns=SEC, rate_per_s=30_000.0)
    spec = WorkloadSpec(mode=OPEN, rate_per_s=100.0, burst=burst)
    eng, src, arrived = _drive(spec, seed=23)
    eng.run_until(2 * SEC)  # one off + one on phase
    on = [now for _, now in arrived if now > SEC]
    assert abs(len(on) - 30_000) / 30_000 < 0.05


def test_open_loop_reproducible_across_rebuilds():
    spec = WorkloadSpec(mode=OPEN, rate_per_s=9_000.0)
    runs = []
    for _ in range(2):
        eng, src, arrived = _drive(spec, seed=41, device=_MU_DEVICE)
        eng.run_until(SEC)
        runs.append([(now, r.size, r.mu) for r, now in arrived])
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Open-loop arrival stream against a reference generator
# ---------------------------------------------------------------------------


def _reference_arrivals(spec, seed, n):
    """The first n open-loop arrivals as (time, is_read, size), drawn the
    straightforward way: random.expovariate at the rate of the phase holding
    t, with the rate and phase end recomputed from t on every draw.  Also
    returns how often a gap landed exactly on a phase end and how many draws
    crossed one.
    """
    rng = make_stream(seed, 1)
    burst = spec.burst

    def rate_at(t):
        if burst is None or t % (burst.on_ns + burst.off_ns) < burst.off_ns:
            return spec.rate_per_s / SEC
        return burst.rate_per_s / SEC

    def phase_end(t):
        cycle = burst.on_ns + burst.off_ns
        pos = t % cycle
        return t - pos + (burst.off_ns if pos < burst.off_ns else cycle)

    sizes = [s for s, _ in spec.sizes]
    total = sum(w for _, w in spec.sizes)
    cum = list(itertools.accumulate(w / total for _, w in spec.sizes))
    cum[-1] = 1.0
    out, landed, crossed = [], 0, 0
    t = 0
    for _ in range(n):
        if burst is None:
            t += round(rng.expovariate(rate_at(t)))
        else:
            while True:
                gap = rng.expovariate(rate_at(t))
                end = phase_end(t)
                if t + gap <= end:
                    t += round(gap)
                    landed += t == end
                    break
                crossed += 1
                t = end
        # The op is drawn after the gaps, the size after the op.
        rr = spec.read_ratio
        op = True if rr >= 1.0 else False if rr <= 0.0 else rng.random() < rr
        size = sizes[0] if len(sizes) == 1 else sizes[bisect.bisect_left(cum, rng.random())]
        out.append((t, op, size))
    return out, landed, crossed


class _OneShotEngine:
    """Holds the one pending arrival a source schedules at a time."""

    def __init__(self):
        self.pending = None

    def schedule(self, t, kind, fn, payload):
        assert self.pending is None and kind == EventKind.REQUEST_ARRIVAL
        self.pending = (t, fn, payload)

    def fire(self):
        t, fn, payload = self.pending
        self.pending = None
        fn(payload, t)


def _source_arrivals(spec, seed, n, lag):
    """The first n arrivals of a WorkloadSource; each request completes once
    `lag` later ones have arrived, so completed requests get reused."""
    eng = _OneShotEngine()
    src = WorkloadSource(spec, make_stream(seed, 1), _MU_DEVICE)
    src.tenant = "t0"
    out, live = [], []

    def enqueue(req, now):
        assert req.arrive_at == now and req.finish_at == NOT_SCHEDULED
        assert req.tenant == "t0"
        out.append((now, _op(req), req.size))   # _op checks mu
        live.append(req)
        if len(live) > lag:
            done = live.pop(0)
            assert src.on_completion(done) is None

    src.start(eng, enqueue)
    while len(out) < n:
        eng.fire()
    # n arrived and one more is drawn; every arrival completed but the
    # last `lag`.
    drawn = len(out) + (eng.pending is not None)
    assert drawn == n + 1 and src.in_flight == drawn - max(0, n - lag)
    return out


_SIZE_MIXES = (((4096, 1.0),), ((2048, 0.5), (8192, 0.5)),
               ((4096, 0.35), (16384, 0.40), (65536, 0.25)))


@st.composite
def _open_specs(draw):
    """Open-loop specs whose mean gaps run from 1/1000 of a burst cycle to 20
    cycles, so draws both stay inside phases and cross several of them."""
    sizes = draw(st.sampled_from(_SIZE_MIXES))
    read_ratio = draw(st.sampled_from([1.0, 0.0]) | st.floats(0.0, 1.0))
    gap_factor = st.floats(-3.0, 1.3).map(lambda e: 10.0 ** e)
    if draw(st.booleans()):
        mean_gap_ns = draw(st.floats(-3.0, 7.0).map(lambda e: 10.0 ** e))
        return WorkloadSpec(mode=OPEN, sizes=sizes, read_ratio=read_ratio,
                            rate_per_s=SEC / mean_gap_ns)
    on_ns = draw(st.integers(1, 10 ** 6))
    off_ns = draw(st.sampled_from([0]) | st.integers(0, 10 ** 6))
    cycle = on_ns + off_ns
    burst = Burst(on_ns=on_ns, off_ns=off_ns,
                  rate_per_s=SEC / (draw(gap_factor) * cycle))
    return WorkloadSpec(mode=OPEN, sizes=sizes, read_ratio=read_ratio,
                        rate_per_s=SEC / (draw(gap_factor) * cycle), burst=burst)


@settings(max_examples=250, deadline=None)
@given(spec=_open_specs(), seed=st.integers(0, 2 ** 16), lag=st.integers(0, 8))
@example(spec=WorkloadSpec(mode=OPEN, rate_per_s=9_000.0), seed=1, lag=0)
@example(spec=WorkloadSpec(mode=OPEN, rate_per_s=1e9,
                           burst=Burst(on_ns=3, off_ns=0, rate_per_s=5e8)),
         seed=2, lag=3)
def test_open_loop_arrivals_match_the_reference(spec, seed, lag):
    n = 150
    want, _, _ = _reference_arrivals(spec, seed, n)
    assert _source_arrivals(spec, seed, n, lag) == want


# Named cases, each checked to reach the situation it is named after.
_NAMED = {
    "no-burst": WorkloadSpec(mode=OPEN, rate_per_s=20_000.0),
    "phases-shorter-than-a-gap": WorkloadSpec(
        mode=OPEN, rate_per_s=10_000.0,
        burst=Burst(on_ns=7_000, off_ns=13_000, rate_per_s=40_000.0)),
    "off-zero": WorkloadSpec(
        mode=OPEN, rate_per_s=1_000.0,
        burst=Burst(on_ns=5_000, off_ns=0, rate_per_s=1e6)),
    "lands-on-phase-end": WorkloadSpec(
        mode=OPEN, rate_per_s=2e9,
        burst=Burst(on_ns=5, off_ns=3, rate_per_s=1e9)),
    "size-and-op-mix": WorkloadSpec(
        mode=OPEN, rate_per_s=50_000.0, read_ratio=0.7, sizes=_SIZE_MIXES[2],
        burst=Burst(on_ns=100_000, off_ns=400_000, rate_per_s=200_000.0)),
}


@pytest.mark.parametrize("name", list(_NAMED))
def test_open_loop_arrivals_match_the_reference_on_named_cases(name):
    spec = _NAMED[name]
    n = 3_000
    want, landed, crossed = _reference_arrivals(spec, 7, n)
    assert _source_arrivals(spec, 7, n, lag=4) == want
    if name == "phases-shorter-than-a-gap":
        assert crossed > n
    if name == "lands-on-phase-end":
        assert landed > 0
    if name == "size-and-op-mix":
        assert {(op, size) for _, op, size in want} == {
            (op, s) for op in (True, False) for s, _ in spec.sizes}
