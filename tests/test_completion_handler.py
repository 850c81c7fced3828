"""The completion handler against the handler it replaced, on whole runs.

`Backend._on_io_complete` draws a closed loop's replacement itself and steps
the core it frees itself, whoever owns it.  `_OracleBackend` keeps the
handler as it was before: the source's `on_completion` returned the refreshed
replacement, and every freed core went through `core_step`.  Both must write
byte-identical artifacts on any config.  On the same drawn configs, a run
checked every half interval keeps the backend's invariants and its event
and byte accounting, and writes the bytes of an unchecked run.
"""

import csv
import os
import tempfile
from bisect import bisect_left
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, reject, settings
from hypothesis import strategies as st

from qwinsim import harness
from qwinsim.backend import BE, Backend
from qwinsim.baselines import CongestionParams, FeedbackParams, StaticParams
from qwinsim.config import (ALLOCATORS, SCHEMA, AllocatorConfig, ConfigError, EstimatorConfig,
                            ExperimentConfig, SloSpec, TenantConfig, parse_config, scenario)
from qwinsim.device import DeviceParams
from qwinsim.qwin_allocator import PolicyParams
from qwinsim.sim_core import SEC, Engine
from qwinsim.workload import CLOSED, NOT_SCHEDULED, OPEN, PRESET_CLASS, Burst, WorkloadSpec
from test_golden import first_differing_rows


def _oracle_on_completion(src, req, now):
    """WorkloadSource.on_completion as it was: a closed loop refreshes the
    completed request as its replacement and returns it; an open loop keeps
    it and returns None."""
    if not src.closed:
        src.on_completion(req)
        return None
    op = src.op_const
    if op is None:
        op = src.rng.random() < src.read_ratio
    cum = src.size_cum
    i = 0 if cum is None else bisect_left(cum, src.rng.random())
    req.size = src.size_vals[i]
    req.mu = src.mu_table[op][i]
    req.arrive_at = now
    req.finish_at = NOT_SCHEDULED
    return req


class _OracleBackend(Backend):
    def _on_io_complete(self, req, now):
        dev = self.device
        dev.in_service -= 1
        if dev.fifo:
            dev._start(dev.fifo.popleft(), now)
        core = req.core
        t = req.tenant
        t.metrics.record(now - req.arrive_at, req.size, now)
        if t.lc:
            t.log_sample(now - req.dequeued_at)
            win = t.win
            seq = req.seq
            if seq > t.prev_boundary:
                t.completed_gap += 1
            elif win is not None and seq >= win.boundary_lo:
                win.outstanding -= 1
                if win.outstanding == 0 and t.end_on_complete:
                    t.win = None
        repl = _oracle_on_completion(t.source, req, now)
        if repl is not None:
            t.arrivals += 1
            repl.seq = t.arrivals
            t.queue.append(repl)
            idle = t.wake_idle
            if idle:
                other = self.cores[idle.pop(0)]
                self.core_step(other, now)
        core.busy = None
        if core.pending_marks is not None:
            for from_l, to_l, marked, initiator in core.pending_marks:
                self.hub.transfer_rows.append((core.cid, from_l, to_l, marked, now, initiator))
            core.pending_marks = None
        self.core_step(core, now)


class _WitnessBackend(Backend):
    """The program's handler, counting completions whose freed LC core its
    own step yielded to the BE pool and which then took a BE request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.yielded = []
        self.yield_then_be = 0

    def yield_core(self, core, tenant, now):
        self.yielded.append(core)
        super().yield_core(core, tenant, now)

    def _on_io_complete(self, req, now):
        core = req.core
        self.yielded.clear()
        super()._on_io_complete(req, now)
        if core in self.yielded and core.busy is not None and not core.busy.tenant.lc:
            self.yield_then_be += 1


def _artifacts(cfg, backend_cls):
    """Every artifact's bytes, and the simulation, of one run with backend_cls."""
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(harness, "Backend", backend_cls):
        res = harness.run_experiment(replace(cfg, out_dir=out))
        files = {}
        for name, path in res.paths.items():
            with open(path, "rb") as f:
                files[os.path.basename(path)] = f.read()
    return files, res.sim


def _assert_same_as_oracle(cfg):
    want, _ = _artifacts(cfg, _OracleBackend)
    got, sim = _artifacts(cfg, _WitnessBackend)
    assert len(got) == 8
    assert got == want, "\n".join(first_differing_rows(want, got))
    return sim


_SIZE_MIXES = ([[4096, 1.0]], [[65536, 1.0]], [[2048, 0.5], [8192, 0.5]],
               [[4096, 0.35], [16384, 0.40], [65536, 0.25]])


def _section(cls, **keys):
    """A mapping for the SCHEMA section of `cls`: each named key drawn from
    its strategy (None leaves it at its default)."""
    unknown = set(keys) - {k.name for k in SCHEMA[cls]}
    assert not unknown, f"not a {cls.__name__} key: {unknown}"
    return st.fixed_dictionaries(keys)


def _choices(cls, name):
    """One of the choices SCHEMA gives the key `name` of section `cls`."""
    return st.sampled_from(next(k.type for k in SCHEMA[cls] if k.name == name))


def _maybe(strategy):
    return st.none() | strategy


def _ms(lo, hi):
    return st.integers(lo, hi).map(lambda ms: ms / 1000)


@st.composite
def _workloads(draw, tenant_class):
    """A preset of the tenant's class, or an inline closed or open loop
    (with or without a burst)."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([p for p, c in PRESET_CLASS.items() if c == tenant_class]))
    common = {"sizes": st.sampled_from(_SIZE_MIXES),
              "read_ratio": _maybe(st.sampled_from([1.0, 0.9, 0.5, 0.0]))}
    if draw(_choices(WorkloadSpec, "mode")) == CLOSED:
        return draw(_section(WorkloadSpec, mode=st.just(CLOSED), **common,
                             iodepth=_maybe(st.integers(1, 16)),
                             numjobs=_maybe(st.integers(1, 4))))
    burst = _section(Burst, on_s=_ms(5, 100), off_s=_ms(0, 100),
                     rate_per_s=st.integers(10_000, 80_000).map(float))
    return draw(_section(WorkloadSpec, mode=st.just(OPEN), **common,
                         rate_per_s=st.integers(1_000, 60_000).map(float),
                         burst=_maybe(burst)))


# Each allocator's section, drawn small enough that policies switch and the
# baselines act within a 0.3 s run; `static` takes its counts from the tenants.
_ALLOCATOR_SECTIONS = {
    PolicyParams: _section(
        PolicyParams, policy_window=_maybe(st.integers(1, 50)),
        slack_low_us=_maybe(st.integers(0, 500)), slack_high_us=_maybe(st.integers(500, 3000)),
        min_tail_samples=_maybe(st.integers(1, 300)), pin=_maybe(_choices(PolicyParams, "pin"))),
    CongestionParams: _section(CongestionParams, probe_interval_us=_maybe(st.integers(5, 500))),
    FeedbackParams: _section(
        FeedbackParams, interval_s=_maybe(_ms(5, 100)), step=_maybe(st.integers(1, 3)),
        headroom=_maybe(st.sampled_from([0.3, 0.7, 1.0])),
        min_samples=_maybe(st.integers(1, 200))),
}


@st.composite
def _configs(draw):
    """Short runs of 1-6 LC and BE tenants under any allocator with its own
    section, drawn key by key from config.SCHEMA; a draw that parse_config
    rejects is dropped."""
    tenants = []
    for i, tenant_class in enumerate(draw(st.lists(_choices(TenantConfig, "class"),
                                                   min_size=1, max_size=6))):
        t = {"label": f"{tenant_class}{i}", "class": tenant_class,
             "workload": draw(_workloads(tenant_class))}
        if tenant_class == "lc":
            t["slo"] = draw(_section(SloSpec, quantile=_maybe(st.sampled_from([0.99, 0.999])),
                                     latency_ms=st.sampled_from([0.5, 2.0, 4.0])))
        tenants.append(t)
    lc = [t["label"] for t in tenants if t["class"] == "lc"]
    pool = draw(st.integers(1, 16))
    kind = draw(_choices(AllocatorConfig, "kind"))
    alloc = {"kind": kind}
    params = ALLOCATORS[kind].Params
    if params is StaticParams:
        spare, counts = pool - len(lc), {}
        for label in lc:
            counts[label] = 1 + draw(st.integers(0, max(spare, 0)))
            spare -= counts[label] - 1
        alloc[kind] = {"counts": counts}
    elif params is not None:
        alloc[kind] = draw(_ALLOCATOR_SECTIONS[params])
    duration = draw(_ms(50, 300))
    d = draw(_section(
        ExperimentConfig, name=st.just("drawn"), duration_s=st.just(duration),
        warmup_s=_maybe(st.integers(0, 9).map(lambda tenths: duration * tenths / 10)),
        interval_s=_maybe(_ms(5, 400)), window_end=_maybe(_choices(ExperimentConfig, "window_end")),
        pool=st.just({"total": pool}),
        device=_section(DeviceParams, capacity=st.integers(1, 16)),
        estimators=_section(EstimatorConfig, scope=_maybe(_choices(EstimatorConfig, "scope")),
                            hist_window=_maybe(st.integers(1, 20_000))),
        allocator=st.just(alloc), tenants=st.just(tenants)))
    try:
        return parse_config(d)
    except ConfigError:
        reject()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs())
@example(cfg=parse_config({**scenario("duo"), "duration_s": 0.2,
                           "device": {"capacity": 4}}))
def test_fused_handler_writes_the_oracles_bytes(cfg):
    _assert_same_as_oracle(cfg)


def _files(run_dir):
    return {name: (run_dir / name).read_bytes() for name in os.listdir(run_dir)}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs())
# At 127,245,050 ns a probe grants 1 -> 9 cores, and a woken core's window
# releases 9 -> 7 while the other granted cores have not stepped yet.
@example(cfg=parse_config({
    "name": "drawn", "duration_s": 0.128, "window_end": "dequeue", "pool": {"total": 14},
    "device": {"capacity": 10},
    "tenants": [{"label": "lc0", "class": "lc",
                 "workload": {"mode": CLOSED, "sizes": [[2048, 0.5], [8192, 0.5]],
                              "read_ratio": 1.0, "iodepth": 16, "numjobs": 1},
                 "slo": {"quantile": 0.999, "latency_ms": 2.0}}]}))
def test_a_drawn_run_keeps_its_invariants_and_writes_the_same_bytes(cfg):
    # The run goes in half-interval run_until slices, checked after each;
    # stopping at a slice boundary changes no event's order, so a second,
    # unsliced run must write the same bytes.
    sims, build, run_until = [], harness.build, Engine.run_until
    step = max(cfg.interval_ns // 2, 1)

    def building(c):
        sims.append(build(c))
        return sims[-1]

    def sliced(engine, end):
        while engine.now + step < end:
            run_until(engine, engine.now + step)
            sims[-1].backend.check_invariants()
        return run_until(engine, end)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with mock.patch.object(harness, "build", building), \
                mock.patch.object(Engine, "run_until", sliced):
            res = harness.run_experiment(replace(cfg, out_dir=str(out / "sliced")))
        harness.run_experiment(replace(cfg, out_dir=str(out / "plain")))
        run_dir = out / "sliced" / res.run_id
        sliced, plain = _files(run_dir), _files(out / "plain" / res.run_id)
        assert sliced == plain, "\n".join(first_differing_rows(plain, sliced))
        for name in os.listdir(run_dir):
            if name.endswith(".csv"):
                with open(run_dir / name, newline="") as f:
                    header, *rows = csv.reader(f)
                assert all(len(row) == len(header) for row in rows), name

    sim = res.sim
    events = res.report["events"]
    assert events["scheduled"] == events["processed"] + sim.engine.pending()
    # Each tenant's interval bytes (bandwidth x length) sum to its run total.
    end, interval = cfg.duration_ns, cfg.interval_ns
    for label, tm in sim.hub.tenants.items():
        total = sum(bw * (min((i + 1) * interval, end) - i * interval) / SEC
                    for _, i, tenant, _, bw, _ in sim.hub.interval_rows if tenant == label)
        assert total == pytest.approx(tm.t_bytes, rel=1e-9, abs=1e-6), label
    for trigger in sorted({row[4] for row in sim.hub.alloc_rows}):
        event(f"alloc_trace trigger: {trigger}")


def test_lc_core_yielding_at_completion_then_serving_be():
    # The open-loop LC queue drains between arrivals, so a freed LC core
    # often finds nothing to do and yields to a BE pool that always has work.
    cfg = parse_config({**scenario("burst-duo"), "duration_s": 0.3})
    sim = _assert_same_as_oracle(cfg)
    assert sim.backend.yield_then_be > 0


def _run_guarded(cfg):
    """Run cfg with a core_step that fails on the core a completion is
    freeing; return the simulation and, per completion, the freed core's
    owner and whether the request was an LC tenant's."""
    real_handler, real_step = Backend._on_io_complete, Backend.core_step
    freeing = []
    owners = []

    def handler(self, req, now):
        freeing.append(req.core)
        owners.append((req.core.owner, req.tenant.lc))
        try:
            real_handler(self, req, now)
        finally:
            freeing.pop()

    def step(self, core, now):
        assert not freeing or core is not freeing[-1], \
            f"the handler stepped its freed core {core.cid} through core_step"
        real_step(self, core, now)

    with mock.patch.object(Backend, "_on_io_complete", handler), \
            mock.patch.object(Backend, "core_step", step):
        res = harness.run_experiment(cfg, write=False)
    return res.sim, owners


def test_the_handler_steps_a_freed_be_core_itself():
    # Open-loop LC beside a BE tenant: many completions free a BE core, and
    # LC cores yield to the pool when their queue drains.
    sim, owners = _run_guarded(parse_config({**scenario("burst-duo"), "duration_s": 0.3}))
    assert owners.count((BE, False)) > 1000
    assert any(r[4] == "yield" for r in sim.backend.hub.alloc_rows)


def test_the_handler_steps_a_freed_core_of_the_priority_pool_itself():
    # Under priority the BE pool serves the LC group first (pool_tiers).
    cfg = parse_config({**scenario("group2"), "duration_s": 0.3,
                        "allocator": {"kind": "priority"}})
    sim, owners = _run_guarded(cfg)
    assert sim.backend.pool_tiers[0][0] == sim.backend.lc_tenants
    assert owners.count((BE, True)) > 1000
