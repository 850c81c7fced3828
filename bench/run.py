"""The qwinsim benchmark: host cost and simulated outcome of one workload.

    python3 bench/run.py --workload duo-qwin --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload duo-qwin --seed 1 --digests

Each round runs the workload once in a fresh `qwinsim` process (worker.py)
and checks every simulation run's output (checks.py).  Rounds repeat while
the next one fits in --seconds.  Host times are scaled to a reference machine
speed (see run_round) and host metrics are medians over the rounds; simulated
metrics and artifacts must repeat exactly in every round.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 each round is an untraced
and a traced process, and the JSON holds the per-layer metrics.  --digests prints the SHA-256 of every artifact
of two benchmark rounds and of a plain `python3 -m qwinsim` run with the same
arguments, and fails unless all three agree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0     # the whole invocation, rounds and checks included
MAX_SHOWN = 10           # failed checks printed per simulation run
REF_CALIBRATION_S = 1.5e-3  # one calibration pass at the reference speed
SETUP_ONLY_PER_ROUND = 2  # extra processes per round that stop at the first event

sys.path.insert(0, str(BENCH))
from checks import check_run, digests as run_digests  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_per_sim_s": "s/s",
    "completions_per_s": "1/s",
    "total_wall_s": "s",
    "peak_rss_MB": "MB",
    "lc_tail_us": "us_sim",
    "be_MBps": "MB/s",
    "lc_cores": "cores",
}
SIMULATED = ("lc_tail_us", "be_MBps", "lc_cores")


def _worker(w, seed, trace, tmp, deadline, setup_only=False):
    """Run one round in a fresh process; return (t_start, t_end, result or None)."""
    result_path = os.path.join(tmp, "result.json")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", w.name,
           "--seed", str(seed), "--out", os.path.join(tmp, "runs"),
           "--result", result_path, "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{w.name}-s{seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(tmp, "stderr.txt"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
        t1 = time.monotonic()
    result = None
    if rc == 0:
        with open(result_path) as f:
            result = json.load(f)
    else:
        with open(os.path.join(tmp, "stderr.txt")) as f:
            tail = f.read()[-2000:]
        why = "timed out" if rc is None else f"exited with {rc}"
        print(f"worker for {w.name} seed {seed} {why}; output kept in {tmp}\n{tail}",
              file=sys.stderr)
    return t0, t1, result


def setup_round(w, seed, deadline):
    """A process that stops at its first simulated event: its set-up time,
    or None if it failed."""
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{w.name}-setup-", dir=OUT)
    t0, _t1, result = _worker(w, seed, 0, tmp, deadline, setup_only=True)
    if result is None:
        return None
    shutil.rmtree(tmp)
    return result["first_event_mono"] - t0


def run_round(w, seed, trace, deadline) -> dict:
    """One round: its host metrics, per-run problems, simulated metrics, digests.

    Host time from the first event on is scaled to the reference speed, at
    which one pass of the worker's calibration loop takes REF_CALIBRATION_S:
    it is multiplied by REF_CALIBRATION_S over the mean pass the worker timed
    between the event loop's slices.  Other tenants of a shared machine slow
    the host by up to half for minutes at a time; they slow the calibration
    loop alike, so the scaled times hold still where the raw ones drift.  A
    change that makes the simulator itself faster or slower moves them as
    much as the raw ones.  Set-up time is left raw: it is over in a quarter
    second, and passes timed later do not track the speed it ran at.
    """
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    t0, t1, result = _worker(w, seed, trace, tmp, deadline)
    rnd = {"attempted": w.n_seeds, "failed": w.n_seeds, "problems": [],
           "sim": None, "digests": None, "host": None, "layers": None}
    if result is None:
        return rnd
    sims, digests = [], {}
    failed = 0
    for run in result["runs"]:
        problems, sim, dig = check_run(run)
        sims.append(sim)
        digests[run["run_id"]] = dig
        if problems:
            failed += 1
            rnd["problems"] += [f"{run['run_id']}: {p}" for p in problems[:MAX_SHOWN]]
            if len(problems) > MAX_SHOWN:
                rnd["problems"].append(f"{run['run_id']}: and {len(problems) - MAX_SHOWN} more")
    failed += w.n_seeds - len(result["runs"])
    rnd["problems"] += result.get("cross_check_problems", [])
    calibration = result["calibration_s"]
    scale = REF_CALIBRATION_S / statistics.fmean(calibration)
    loop_s = sum(r["loop_s"] for r in result["runs"])
    rnd.update(
        failed=failed,
        sim={k: statistics.fmean(s[k] for s in sims) for k in SIMULATED},
        digests=digests,
        layers=result.get("layers"),
        host={
            "setup_s": result["first_event_mono"] - t0,
            "loop_s": loop_s * scale,
            "total_s": (result["first_event_mono"] - t0
                        + (t1 - result["first_event_mono"] - sum(calibration)) * scale),
            "raw_loop_s": loop_s,
            "peak_rss_MB": result["maxrss_kb"] / 1024.0,
            "sim_s": sum(r["duration_ns"] for r in result["runs"]) / 1e9,
            "completions": sum(r["completed"] for r in result["runs"]),
        })
    if not rnd["problems"]:
        shutil.rmtree(tmp)
    return rnd


def median_loop_s(hosts) -> float:
    return statistics.median(h["loop_s"] for h in hosts)


def host_metrics(hosts, setups) -> dict:
    """End-to-end host metrics of the rounds of one invocation: medians of
    the rounds' scaled times (see run_round).  Set-up time is the median over
    the rounds and the set-up-only processes."""
    loop_s = median_loop_s(hosts)
    return {
        "setup_s": statistics.median([h["setup_s"] for h in hosts] + setups),
        "wall_per_sim_s": loop_s / hosts[0]["sim_s"],
        "completions_per_s": hosts[0]["completions"] / loop_s,
        "total_wall_s": statistics.median(h["total_s"] for h in hosts),
        "peak_rss_MB": statistics.median(h["peak_rss_MB"] for h in hosts),
    }


def _same(rounds, key) -> bool:
    vals = [r[key] for r in rounds if r[key] is not None]
    return all(v == vals[0] for v in vals)


def benchmark(w, seed, seconds, trace) -> int:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    untraced, traced, setups = [], [], []
    problems = []
    while True:
        t = time.monotonic()
        if not trace:
            for _ in range(SETUP_ONLY_PER_ROUND):
                setup = setup_round(w, seed, deadline)
                if setup is None:
                    problems.append("a set-up-only process failed")
                else:
                    setups.append(setup)
        untraced.append(run_round(w, seed, 0, deadline))
        if trace:
            traced.append(run_round(w, seed, 1, deadline))
        took = time.monotonic() - t
        if time.monotonic() - start + took > min(seconds, TIME_LIMIT_S - 10):
            break
    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems += [p for r in rounds for p in r["problems"]]
    # Every round simulates the same seeds, traced or not: outputs must repeat.
    if not _same(rounds, "digests"):
        problems.append("artifact digests differ between rounds")
    if not _same(rounds, "sim"):
        problems.append("simulated metrics differ between rounds")
    ok = [r for r in untraced if r["host"] is not None]
    ok_traced = [r for r in traced if r["layers"] is not None]
    metrics = {}
    if trace and ok and ok_traced:
        from layers import HOST_METRICS, UNITS
        for name, unit in UNITS.items():
            if name == "trace.overhead":
                value = (median_loop_s([r["host"] for r in ok_traced])
                         / median_loop_s([r["host"] for r in ok]))
            elif name in HOST_METRICS:
                value = statistics.median(r["layers"][name] for r in ok_traced)
            else:
                value = ok_traced[0]["layers"][name]
                if any(r["layers"][name] != value for r in ok_traced):
                    problems.append(f"{name} differs between traced rounds")
            metrics[name] = {"value": value, "unit": unit}
    elif not trace and ok:
        values = dict(host_metrics([r["host"] for r in ok], setups), **ok[0]["sim"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"{w.name} seed {seed}: {len(untraced)} rounds, {attempted} simulation runs "
          f"attempted, {failed} failed")
    if ok:
        print("  set-up s: " + " ".join(f"{r['host']['setup_s']:.3f}" for r in ok)
              + "; set-up-only processes: " + " ".join(f"{x:.3f}" for x in setups))
        print("  event loop host s per round, raw:    "
              + " ".join(f"{r['host']['raw_loop_s']:.3f}" for r in ok))
        print("  event loop host s per round, scaled: "
              + " ".join(f"{r['host']['loop_s']:.3f}" for r in ok))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


def digests(w, seed) -> int:
    """Print artifact digests of two benchmark rounds and one plain qwinsim run."""
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    sets = []
    for label in ("round 1", "round 2"):
        rnd = run_round(w, seed, 0, deadline)
        if rnd["digests"] is None:
            return 1
        sets.append((label, rnd["digests"]))
    tmp = tempfile.mkdtemp(prefix=f"{w.name}-plain-", dir=OUT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = os.path.join(tmp, "runs")
    subprocess.run([sys.executable, "-m", "qwinsim", *w.argv(seed, out)], cwd=ROOT,
                   env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    sets.append(("plain qwinsim", {d: run_digests(os.path.join(out, d))
                                   for d in sorted(os.listdir(out))}))
    shutil.rmtree(tmp)
    for label, dig in sets:
        for run_id, files in sorted(dig.items()):
            for name, h in files.items():
                print(f"{label:14s} {run_id:28s} {name:17s} {h}")
    same = all(dig == sets[0][1] for _label, dig in sets)
    print("digests identical" if same else "DIGESTS DIFFER")
    return 0 if same else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--digests", action="store_true",
                   help="print and compare artifact digests instead of timing")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "qwinsim" / "harness.py").is_file():
        print(f"no qwinsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.digests:
        return digests(w, args.seed)
    return benchmark(w, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
