"""Build simulations from configs, run them, report results.  CLI entry point.

One run writes a directory of CSVs and a report.json summarizing SLO verdicts
and bandwidth (metrics.write_all).  A sweep runs seeds one after another.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import dataclass, replace

from .backend import Backend, Tenant
from .config import (ALLOCATORS, PIN_KEY, ConfigError, ExperimentConfig, SCENARIOS,
                     parse_config, read_yaml, scenario)
from .device import Device, ServiceEstimator
from .metrics import MetricsHub, write_all
from .qwin_allocator import POLICIES
from .sim_core import SEC, Engine, EventKind, make_np_stream, make_stream
from .workload import WorkloadSource

# RNG stream layout: one device stream, then one stream per tenant in config
# order.  Fixed ids (not hashes) keep runs byte-reproducible.
DEVICE_STREAM = 0
FIRST_TENANT_STREAM = 1


@dataclass
class Simulation:
    """A fully wired, not-yet-started run."""

    cfg: ExperimentConfig
    engine: Engine
    device: Device
    hub: MetricsHub
    backend: Backend
    allocator: object


def build(cfg: ExperimentConfig) -> Simulation:
    """Wire engine, device, tenants, and allocator for one run."""
    seed = cfg.seed
    engine = Engine()
    device = Device(cfg.device, make_np_stream(seed, DEVICE_STREAM), engine)
    hub = MetricsHub(cfg.run_id(), cfg.effective_warmup_ns, cfg.pool_total)
    backend = Backend(engine, device, cfg.pool_total, hub)
    shared_est = None
    for i, tc in enumerate(cfg.tenants):
        source = WorkloadSource(tc.spec(), make_stream(seed, FIRST_TENANT_STREAM + i), cfg.device)
        if tc.tenant_class == "be":
            backend.add_tenant(Tenant(tc.label, False), source)
            continue
        est = shared_est
        if est is None:
            # Until real completions arrive, it answers with its seed.
            q, mean, tail = cfg.estimator_seed(tc)
            est = ServiceEstimator(
                alpha=cfg.estimators.ewma_alpha, window=cfg.estimators.hist_window,
                quantile=q, nominal_mean_ns=mean, nominal_tail_ns=round(tail),
                deferred=not ALLOCATORS[cfg.allocator.kind].reads_estimators)
            if cfg.estimators.scope == "device":
                shared_est = est
        tenant = Tenant(tc.label, True, slo_q=tc.slo.quantile, slo_ns=tc.slo.latency_ns,
                        end_on_complete=cfg.window_end == "complete")
        backend.add_tenant(tenant, source, est)
    kind = cfg.allocator.kind
    allocator = ALLOCATORS[kind](getattr(cfg.allocator, kind, None), backend)
    return Simulation(cfg, engine, device, hub, backend, allocator)


def _start_metric_ticks(sim: Simulation):
    """Periodic tick: snapshot estimators, then close the interval."""
    engine, hub, cfg = sim.engine, sim.hub, sim.cfg
    interval = cfg.interval_ns
    end = cfg.duration_ns
    lc_tenants = sim.backend.lc_tenants

    def tick(_payload, now):
        for t in lc_tenants:
            est = t.estimator
            tail = est.tail_ns   # first: a deferred estimator settles its mean here
            hub.estimator_rows.append((now, t.label, est.mean_ns, tail))
        # A tick at the end runs before completions due at that instant, so
        # the last interval is left for run_experiment to close.
        if now < end:
            hub.flush_interval(now)
        nxt = now + interval
        if nxt <= end:
            engine.schedule(nxt, EventKind.METRIC_TICK, tick)

    engine.schedule(min(interval, end), EventKind.METRIC_TICK, tick)


def make_report(sim: Simulation) -> dict:
    """Summarize a finished run: SLO verdicts, bandwidth, event accounting."""
    cfg, hub, backend = sim.cfg, sim.hub, sim.backend
    warm = cfg.effective_warmup_ns
    span_s = (cfg.duration_ns - warm) / SEC
    tenants = {}
    all_met = True
    for t in backend.tenants:
        tm = hub.tenants[t.label]
        entry = {
            "class": "lc" if t.lc else "be",
            "requests": tm.t_n,
            "bandwidth_bytes_per_s": (tm.c_bytes / span_s) if span_s > 0 else 0.0,
        }
        if t.lc:
            tail = tm.cumulative_quantile(t.slo_q)
            met = tail is not None and tail <= t.slo_ns
            entry["slo_quantile"] = t.slo_q
            entry["slo_ns"] = t.slo_ns
            entry["tail_ns"] = tail
            entry["slo_met"] = met
            entry["windows"] = t.windows_established
            all_met = all_met and met
        tenants[t.label] = entry
    return {
        "run_id": hub.run_id,
        "name": cfg.name,
        "allocator": cfg.allocator_id(),
        "seed": cfg.seed,
        "duration_s": cfg.duration_ns / SEC,
        "warmup_s": warm / SEC,
        "pool_total": cfg.pool_total,
        "completed": backend.completed,
        "events": sim.engine.stats.as_dict(),
        "slo_met_all": all_met,
        "tenants": tenants,
    }


@dataclass
class RunResult:
    run_id: str
    report: dict
    paths: dict          # file name -> path ({} when nothing was written)
    sim: Simulation | None  # for in-memory inspection; None in sweep results


def run_experiment(cfg: ExperimentConfig, write: bool = True) -> RunResult:
    """Run one configuration to completion and (optionally) write artifacts
    into `cfg.out_dir`/`cfg.run_id()`.  With `write`, that run directory is
    made first: an unusable one raises OSError before anything is simulated."""
    run_dir = os.path.join(cfg.out_dir, cfg.run_id())
    if write:
        os.makedirs(run_dir, exist_ok=True)
    sim = build(cfg)
    _start_metric_ticks(sim)
    sim.backend.start()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim.engine.run_until(cfg.duration_ns)
    finally:
        if was_enabled:
            gc.enable()
    sim.hub.flush_interval(cfg.duration_ns)
    sim.backend.check_invariants()
    report = make_report(sim)
    paths = write_all(sim.hub, run_dir, report) if write else {}
    return RunResult(run_id=report["run_id"], report=report, paths=paths, sim=sim)


def check_seeds(seeds) -> list:
    """`seeds` as a list, checked for a sweep: a negative or a repeated seed
    (which would run into the same run directory) is a ConfigError."""
    seeds = list(seeds)
    if min(seeds, default=0) < 0:
        raise ConfigError([f"seeds must be non-negative, got {min(seeds)}"])
    if len(set(seeds)) < len(seeds):
        raise ConfigError([f"seeds must be distinct, got {seeds}"])
    return seeds


def sweep(cfg: ExperimentConfig, seeds, write: bool = True) -> list[RunResult]:
    """Run the config with each seed in turn; each result keeps its report
    and paths but not its Simulation."""
    results = []
    for s in check_seeds(seeds):
        r = run_experiment(replace(cfg, seed=s), write=write)
        # A Simulation is a reference cycle (the device calls back into the
        # backend that owns it), so dropping it frees nothing until a
        # collection runs; without one, memory grows with the seed count.
        r.sim = None
        gc.collect()
        results.append(r)
    return results


def _override(d: dict, path: tuple, value) -> dict:
    """A copy of `d` with the key at `path` set to `value`.  A section on the
    way that is not a mapping is left as it is for parse_config to report."""
    if len(path) == 1:
        return {**d, path[0]: value}
    sub = d.get(path[0]) or {}
    if not isinstance(sub, dict):
        return d
    return {**d, path[0]: _override(sub, path[1:], value)}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse_seeds(text: str):
    if ".." in text:
        lo, hi = map(int, text.split("..", 1))
        if hi < lo:
            raise argparse.ArgumentTypeError("seed range must be low..high")
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _build_arg_parser():
    p = argparse.ArgumentParser(
        prog="qwinsim",
        description="Discrete-event simulator of SLO-aware core allocation "
                    "for a shared storage backend.")
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--scenario", choices=SCENARIOS,
                   help="start from a named built-in scenario")
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, help="single run seed")
    seed.add_argument("--seeds", type=_parse_seeds,
                      help="seed sweep: N..M (inclusive) or comma list")
    # The config schema checks both values, so a bad one is listed with the
    # config's other problems.
    p.add_argument("--allocator", metavar="KIND",
                   help=f"core allocation policy to run: {', '.join(ALLOCATORS)}")
    p.add_argument("--pin", metavar="POLICY",
                   help="pin every LC tenant's adaptive policy (adaptive allocator "
                        f"only): {', '.join(POLICIES)}")
    p.add_argument("--duration", type=float, metavar="S",
                   help="simulated seconds")
    p.add_argument("--warmup", type=float, metavar="S",
                   help="seconds excluded from cumulative stats")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--validate-only", action="store_true",
                   help="parse and validate, run nothing")
    return p


# Command-line flag -> the config key it sets.
_FLAG_KEYS = (("seed", ("seed",)), ("duration", ("duration_s",)),
              ("warmup", ("warmup_s",)), ("out", ("out_dir",)),
              ("allocator", ("allocator", "kind")), ("pin", PIN_KEY))


def _assemble_config(args) -> ExperimentConfig:
    """Precedence: scenario defaults < config file < command-line flags."""
    base: dict = {}
    if args.scenario:
        base = scenario(args.scenario)
    if args.config:
        with open(args.config, "rb") as f:
            base.update(read_yaml(f))
    if not base:
        raise ConfigError(["nothing to run: pass --config and/or --scenario"])
    for flag, path in _FLAG_KEYS:
        value = getattr(args, flag)
        if value is not None:
            base = _override(base, path, value)
    return parse_config(base)


def _print_report(report: dict, stream):
    print(f"run {report['run_id']}: allocator={report['allocator']} "
          f"seed={report['seed']} completed={report['completed']}", file=stream)
    for label, t in report["tenants"].items():
        if t["class"] == "lc":
            tail = t["tail_ns"]
            tail_ms = "n/a" if tail is None else f"{tail / 1e6:.3f}ms"
            verdict = "MET" if t["slo_met"] else "MISSED"
            print(f"  {label} (lc): p{t['slo_quantile'] * 100:g} = {tail_ms} "
                  f"vs SLO {t['slo_ns'] / 1e6:g}ms -> {verdict}", file=stream)
        else:
            mbs = t["bandwidth_bytes_per_s"] / 1e6
            print(f"  {label} (be): {mbs:.1f} MB/s post-warmup", file=stream)


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        cfg = _assemble_config(args)
        if args.seeds:   # rejected before --validate-only says OK or anything runs
            check_seeds(args.seeds)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 2
    if args.validate_only:
        n_lc = len(cfg.lc_tenants())
        print(f"config OK: {cfg.run_id()} "
              f"({n_lc} lc + {len(cfg.tenants) - n_lc} be tenants, "
              f"{cfg.pool_total} cores)")
        return 0
    try:
        results = sweep(cfg, args.seeds) if args.seeds else [run_experiment(cfg)]
    except OSError as e:
        print(f"cannot write results under {cfg.out_dir}: {e}", file=sys.stderr)
        return 2
    for r in results:
        _print_report(r.report, sys.stdout)
    if args.seeds:
        for tc in cfg.lc_tenants():
            met = sum(r.report["tenants"][tc.label]["slo_met"] for r in results)
            print(f"{tc.label}: SLO met in {met}/{len(results)} seeds")
    else:
        print(f"artifacts: {os.path.dirname(results[0].paths['report.json'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
