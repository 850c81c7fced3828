"""One round of one workload, in a fresh process: `qwinsim` through harness.main.

run.py starts this script once per round and reads the JSON it writes to
--result.  `Engine.run_until` runs in slices of simulated time, each timed
and followed by one timed pass of a fixed calibration loop, so run.py can
scale host times by the machine's speed at that moment; the artifacts stay
byte-identical to a plain `qwinsim` run (`run.py --digests` shows it).  With
--trace 1 the span tracer of tracer.py also wraps the functions listed in
layers.py, and phase timers wrap `harness.parse_config`, `build`,
`make_report` and `write_all`, each called once per simulation run.  With
--setup-only the process stops at the first simulated event.

    python3 bench/worker.py --workload duo-qwin --seed 1 --out DIR --result FILE
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

SLICE_NS = 100_000_000   # 0.1 simulated seconds
CALIBRATION_STEPS = 3000


class SetupDone(Exception):
    """Ends a --setup-only process at its first simulated event."""


def calibration(steps=CALIBRATION_STEPS) -> int:
    """A fixed pure-Python priority-queue loop: what one pass costs tracks
    how fast this machine runs interpreted code right now (about 1.5 ms).  It
    queues plain ints, which the garbage collector does not track, so a pass
    never sets off a collection whose cost would depend on the simulator's
    heap."""
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, x)
        if len(heap) > 64:
            pop(heap)
    return x


def _timed(phases, name, fn):
    phase = phases.setdefault(name, [0.0, 0])

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phase[0] += time.perf_counter() - t0
            phase[1] += 1

    return timed


def _run_summary(res, loop_s) -> dict:
    """What the output checks need beside the artifacts."""
    sim = res.sim
    cfg = sim.cfg
    tenants = []
    for tc, t in zip(cfg.tenants, sim.backend.tenants):
        spec = tc.spec()
        burst = spec.burst
        tenants.append({
            "label": t.label, "lc": t.lc, "mode": spec.mode,
            "sizes": [list(sw) for sw in spec.sizes],
            "read_ratio": spec.read_ratio, "rate_per_s": spec.rate_per_s,
            "burst": None if burst is None else
            [burst.on_ns, burst.off_ns, burst.rate_per_s],
            "arrivals": t.arrivals, "t_bytes": t.metrics.t_bytes,
        })
    return {
        "run_id": res.run_id,
        "run_dir": os.path.dirname(res.paths["report.json"]),
        "loop_s": loop_s,
        "duration_ns": cfg.duration_ns,
        "warmup_ns": cfg.effective_warmup_ns,
        "interval_ns": cfg.interval_ns,
        "pool_total": cfg.pool_total,
        "allocator": cfg.allocator.kind,
        "static_counts": dict(cfg.allocator.static.counts),
        "device": {k: getattr(cfg.device, k) for k in (
            "read_median_us", "write_median_us", "sigma", "p_spike",
            "m_spike", "capacity", "ref_block_bytes", "size_exponent")},
        "completed": sim.backend.completed,
        "pending": sim.engine.pending(),
        "tenants": tenants,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="where the traced run writes its spans")
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first simulated event")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]

    phases: dict = {}
    t0 = time.perf_counter()
    from qwinsim import harness, sim_core
    phases["import"] = [time.perf_counter() - t0, 1]

    tracer = counters = None
    span_cost = 0.0
    if args.trace:
        import layers
        from tracer import Tracer, span_cost_ns
        span_cost = span_cost_ns()
        tracer = Tracer()
        counters = layers.install(tracer)
        for name in ("parse_config", "build", "make_report", "write_all"):
            setattr(harness, name, _timed(phases, name, getattr(harness, name)))

    # The event loop runs in slices of SLICE_NS simulated time.  After each
    # slice one calibration pass runs, timed apart from the loop: other
    # tenants of a shared machine slow both alike, so the ratio of loop time
    # to calibration time holds still while either alone drifts over minutes.
    # Stopping at a slice boundary and going on changes no event's order.
    first_event = []
    slices: list[float] = []
    calibrations: list[float] = []
    run_until = sim_core.Engine.run_until

    def timed_run_until(self, end):
        if not first_event:
            first_event.append(time.monotonic())
            if args.setup_only:
                raise SetupDone
        t = self.now
        while True:
            stop = min(t + SLICE_NS, end)
            t0 = time.perf_counter()
            stats = run_until(self, stop)
            t1 = time.perf_counter()
            calibration()
            calibrations.append(time.perf_counter() - t1)
            slices.append(t1 - t0)
            if stop >= end:
                return stats
            t = stop

    runs, facts = [], []
    run_experiment = harness.run_experiment

    def captured_run_experiment(*a, **k):
        first = len(slices)
        res = run_experiment(*a, **k)
        runs.append(_run_summary(res, sum(slices[first:])))
        if tracer is not None:
            facts.append(layers.run_facts(res.sim))
        return res

    sim_core.Engine.run_until = timed_run_until
    harness.run_experiment = captured_run_experiment

    try:
        rc = harness.main(w.argv(args.seed, args.out))
    except SetupDone:
        rc = 0
    result = {
        "first_event_mono": first_event[0] if first_event else None,
        "runs": runs,
        "calibration_s": calibrations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None and facts:
        result["layers"], result["cross_check_problems"] = layers.per_layer(
            tracer, counters, facts, phases, span_cost)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
