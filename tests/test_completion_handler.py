"""The completion handler against the handler it replaced, on whole runs.

`Backend._on_io_complete` draws a closed loop's replacement itself and steps
the core it frees itself, whoever owns it.  `_OracleBackend` keeps the
handler as it was before: the source's `on_completion` returned the refreshed
replacement, and every freed core went through `core_step`.  Both must write
byte-identical artifacts on any config.
"""

import os
import tempfile
from bisect import bisect_left
from dataclasses import replace
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qwinsim import harness
from qwinsim.backend import BE, Backend
from qwinsim.config import ALLOCATORS, SCENARIOS, parse_config, scenario
from qwinsim.workload import NOT_SCHEDULED


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
    for name in want:
        assert got[name] == want[name], name
    return sim


_SIZE_MIXES = ([[4096, 1.0]], [[65536, 1.0]], [[2048, 0.5], [8192, 0.5]],
               [[4096, 0.35], [16384, 0.40], [65536, 0.25]])


@st.composite
def _workloads(draw):
    w = {"sizes": draw(st.sampled_from(_SIZE_MIXES)),
         "read_ratio": draw(st.sampled_from([1.0, 0.9, 0.5, 0.0]))}
    if draw(st.booleans()):
        w.update(mode="closed_loop", iodepth=draw(st.integers(1, 16)),
                 numjobs=draw(st.integers(1, 4)))
        return w
    w.update(mode="open_loop", rate_per_s=float(draw(st.integers(1_000, 60_000))))
    if draw(st.booleans()):
        w["burst"] = {"on_s": 0.02, "off_s": 0.03,
                      "rate_per_s": float(draw(st.integers(10_000, 80_000)))}
    return w


@st.composite
def _configs(draw):
    """Short runs of a built-in scenario, or of one LC and one BE tenant
    on drawn closed or open loops, under any allocator."""
    d = scenario(draw(st.sampled_from(SCENARIOS)))
    if draw(st.booleans()):
        d["tenants"] = [
            {"label": "lc0", "class": "lc", "workload": draw(_workloads()),
             "slo": {"quantile": 0.999, "latency_ms": draw(st.sampled_from([0.5, 2.0, 4.0]))}},
            {"label": "be0", "class": "be", "workload": draw(_workloads())}]
    n_lc = sum(t["class"] == "lc" for t in d["tenants"])
    kind = draw(st.sampled_from(list(ALLOCATORS)))
    alloc = {"kind": kind}
    if kind == "static":
        alloc["static"] = {"counts": {t["label"]: 1 for t in d["tenants"]
                                      if t["class"] == "lc"}}
    d.update(duration_s=draw(st.integers(50, 300)) / 1000,
             pool={"total": draw(st.integers(max(2, n_lc), 8))},
             device={"capacity": draw(st.integers(1, 8))},
             window_end=draw(st.sampled_from(["complete", "dequeue"])),
             allocator=alloc)
    return parse_config(d)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs())
@example(cfg=parse_config({**scenario("duo"), "duration_s": 0.2,
                           "device": {"capacity": 4}}))
def test_fused_handler_writes_the_oracles_bytes(cfg):
    _assert_same_as_oracle(cfg)


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
