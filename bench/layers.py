"""Which `qwinsim` functions the traced run wraps, and the per-layer metrics.

Layers are the modules under `src/qwinsim/`.  A `.calls` metric counts spans,
a `.ns` metric is self time per call in host ns, and the remaining metrics
are counts or simulated quantities read at the same boundaries.
"""

from __future__ import annotations

import importlib

# (span name, module, class or None for a module function, attribute).
# Module functions are wrapped where their caller looks them up:
# qwin_allocator imports new_window by name.
SPANS = (
    ("sim_core.schedule", "sim_core", "Engine", "schedule"),
    ("sim_core.run_until", "sim_core", "Engine", "run_until"),
    ("device.start", "device", "Device", "_start"),
    ("device.estimator.update", "device", "ServiceEstimator", "update"),
    ("device.estimator.tail", "device", "ServiceEstimator", "tail_ns"),
    ("workload.on_completion", "workload", "WorkloadSource", "on_completion"),
    ("workload.arrival", "workload", "WorkloadSource", "_open_arrive"),
    ("window_runtime.new_window", "qwin_allocator", None, "new_window"),
    ("backend.on_io_complete", "backend", "Backend", "_on_io_complete"),
    ("backend.core_step", "backend", "Backend", "core_step"),
    ("backend.enqueue", "backend", "Backend", "enqueue"),
    ("backend.grant_cores", "backend", "Backend", "grant_cores"),
    ("backend.release_cores", "backend", "Backend", "release_cores"),
    ("backend.yield_core", "backend", "Backend", "yield_core"),
    ("qwin_allocator.lc_step", "qwin_allocator", "QwinAllocator", "lc_step"),
    ("qwin_allocator.adjust_cores", "qwin_allocator", "QwinAllocator", "adjust_cores"),
    ("baselines.lc_step", "baselines", "_PlainLcStep", "lc_step"),
    ("metrics.record", "metrics", "TenantMetrics", "record"),
    ("metrics.flush_interval", "metrics", "MetricsHub", "flush_interval"),
)

# Per-layer metrics in output order, with their units.
UNITS = {
    "sim_core.events": "count",
    "sim_core.schedule.calls": "count",
    "sim_core.schedule.ns": "ns",
    "sim_core.dispatch.ns": "ns",
    "device.start.calls": "count",
    "device.start.ns": "ns",
    "device.estimator.update.calls": "count",
    "device.estimator.update.ns": "ns",
    "device.estimator.tail.calls": "count",
    "device.estimator.tail.ns": "ns",
    "device.busy_share": "share",
    "workload.on_completion.calls": "count",
    "workload.on_completion.ns": "ns",
    "workload.arrival.calls": "count",
    "workload.arrival.ns": "ns",
    "window_runtime.new_window.calls": "count",
    "window_runtime.new_window.ns": "ns",
    "backend.on_io_complete.calls": "count",
    "backend.on_io_complete.ns": "ns",
    "backend.core_step.calls": "count",
    "backend.core_step.ns": "ns",
    "backend.enqueue.calls": "count",
    "backend.enqueue.ns": "ns",
    "backend.grant_cores.calls": "count",
    "backend.grant_cores.ns": "ns",
    "backend.release_cores.calls": "count",
    "backend.yield_core.calls": "count",
    "backend.transfers": "count",
    "backend.handoff_wait_us": "us_sim",
    "qwin_allocator.lc_step.calls": "count",
    "qwin_allocator.lc_step.ns": "ns",
    "qwin_allocator.adjust_cores.calls": "count",
    "qwin_allocator.windows": "count",
    "qwin_allocator.probes": "count",
    "qwin_allocator.probe_grow_share": "share",
    "qwin_allocator.policy_switches": "count",
    "baselines.lc_step.calls": "count",
    "baselines.lc_step.ns": "ns",
    "metrics.record.calls": "count",
    "metrics.record.ns": "ns",
    "metrics.flush_interval.calls": "count",
    "metrics.flush_interval.ns": "ns",
    "metrics.trace_rows": "count",
    "metrics.write_all.ms": "ms",
    "config.parse_config.ms": "ms",
    "harness.import.ms": "ms",
    "harness.build.ms": "ms",
    "harness.make_report.ms": "ms",
    "trace.overhead": "ratio",
    "trace.span_cost_ns": "ns",
}

# Metrics that are host times; the rest repeat exactly for a fixed seed.
HOST_METRICS = frozenset(k for k, u in UNITS.items() if u in ("ns", "ms", "ratio"))


class Counters:
    """What the traced run counts beside the spans."""

    def __init__(self):
        self.probe_frames: list[list] = []
        self.probes = 0
        self.probe_grows = 0
        self.busy_ns = 0


def install(tracer) -> Counters:
    """Wrap every function in SPANS; count probes and device busy time."""
    for name, module, cls, attr in SPANS:
        owner = importlib.import_module(f"qwinsim.{module}")
        tracer.patch(owner if cls is None else getattr(owner, cls), attr, name)
    from qwinsim.device import Device
    from qwinsim.qwin_allocator import QwinAllocator as qa

    c = Counters()
    lc_step, adjust_cores = qa.lc_step, qa.adjust_cores
    dev_start = Device._start

    # A probe is decided after the dequeue.  When it grows the allocation the
    # lc_step calls adjust_cores(..., "probe"); otherwise nothing nested ran
    # after the decision, so the tenant's state on return is the state the
    # decision saw, and the probe rule can be evaluated on it.
    def counted_lc_step(self, core, t, now):
        frame = [False]
        c.probe_frames.append(frame)
        try:
            req = lc_step(self, core, t, now)
        finally:
            c.probe_frames.pop()
        if req is not None:
            b = t.budget
            if frame[0] or (b and t.wcnt % b == 0 and t.win is not None):
                c.probes += 1
        return req

    def counted_adjust_cores(self, t, target, now, origin):
        before = t.num
        num = adjust_cores(self, t, target, now, origin)
        if origin == "probe":
            c.probe_frames[-1][0] = True
            c.probe_grows += num > before
        return num

    def counted_start(self, req, now):
        dev_start(self, req, now)
        c.busy_ns += req.finish_at - now

    qa.lc_step = counted_lc_step
    qa.adjust_cores = counted_adjust_cores
    Device._start = counted_start
    return c


def run_facts(sim) -> dict:
    """Per-run program state the per-layer metrics and cross-checks need."""
    from qwinsim.sim_core import EventKind

    cfg, hub, engine = sim.cfg, sim.hub, sim.engine
    end = cfg.duration_ns
    # Device time booked past the end of the run belongs to no measured span.
    overhang = sum(ev[0] - end for ev in engine._heap
                   if ev[2] == EventKind.IO_COMPLETE)
    waits = [eff - marked for _c, _f, _t, marked, eff, _i in hub.transfer_rows
             if eff > marked]
    lcs = sim.backend.lc_tenants
    return {
        "pending": engine.pending(),
        "processed": engine.stats.processed,
        "started": sim.device.started,
        "probes_attempted": sum(t.probes_attempted for t in lcs),
        "windows": sum(t.windows_established for t in lcs),
        "busy_overhang_ns": overhang,
        "device_ns": sim.device.capacity * end,
        "transfers": len(hub.transfer_rows),
        "handoff_waits": len(waits),
        "handoff_wait_ns": sum(waits),
        "policy_switches": len(hub.policy_rows),
        "trace_rows": sum(len(rows) for rows in (
            hub.interval_rows, hub.alloc_rows, hub.window_rows,
            hub.policy_rows, hub.transfer_rows, hub.estimator_rows)),
    }


def per_call_ms(phase) -> float:
    """Mean host ms per call from a [total seconds, calls] phase timer."""
    total_s, n = phase
    return total_s / n * 1e3 if n else 0.0


def per_layer(tracer, c: Counters, facts: list, phases: dict,
              span_cost: float) -> tuple[dict, list]:
    """Per-layer metric values for one traced round, and failed cross-checks."""
    total = {k: sum(f[k] for f in facts) for k in facts[0]}
    calls, ns = tracer.calls, tracer.self_ns_per_call
    events = calls("sim_core.schedule") - total["pending"]
    m = {
        "sim_core.events": events,
        "sim_core.schedule.calls": calls("sim_core.schedule"),
        "sim_core.schedule.ns": ns("sim_core.schedule"),
        "sim_core.dispatch.ns": tracer.agg["sim_core.run_until"][2] / max(events, 1),
        "device.busy_share": (c.busy_ns - total["busy_overhang_ns"]) / total["device_ns"],
        "backend.transfers": total["transfers"],
        "backend.handoff_wait_us": (total["handoff_wait_ns"] / total["handoff_waits"] / 1e3
                                    if total["handoff_waits"] else 0.0),
        "qwin_allocator.windows": total["windows"],
        "qwin_allocator.probes": c.probes,
        "qwin_allocator.probe_grow_share": c.probe_grows / c.probes if c.probes else 0.0,
        "qwin_allocator.policy_switches": total["policy_switches"],
        "metrics.trace_rows": total["trace_rows"],
        "metrics.write_all.ms": per_call_ms(phases["write_all"]),
        "config.parse_config.ms": per_call_ms(phases["parse_config"]),
        "harness.import.ms": per_call_ms(phases["import"]),
        "harness.build.ms": per_call_ms(phases["build"]),
        "harness.make_report.ms": per_call_ms(phases["make_report"]),
        "trace.span_cost_ns": span_cost,
    }
    for name, *_where in SPANS:
        if name == "sim_core.run_until":
            continue
        for key, val in ((f"{name}.calls", calls(name)), (f"{name}.ns", ns(name))):
            if key in UNITS and key not in m:
                m[key] = val
    problems = []
    for what, got, want in (
            ("sim_core.events vs stats.processed", events, total["processed"]),
            ("device.start.calls vs Device.started", m["device.start.calls"], total["started"]),
            ("qwin_allocator.probes vs Tenant.probes_attempted", c.probes,
             total["probes_attempted"]),
            ("window_runtime.new_window.calls vs Tenant.windows_established",
             m["window_runtime.new_window.calls"], total["windows"])):
        if got != want:
            problems.append(f"{what}: {got} != {want}")
    return m, problems
