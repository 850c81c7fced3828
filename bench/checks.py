"""Output checks on one simulation run, computed apart from the program.

Each check reads the run's artifacts (the seven CSVs and report.json) and the
summary worker.py writes, and returns a list of problems; an empty list means
the run's output is correct.  The formulas here are the benchmark's own: the
mean service time and the arrival integral are derived from the parameters,
not taken from `qwinsim`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter

ARTIFACTS = ("latency.csv", "intervals.csv", "alloc_trace.csv", "windows.csv",
             "policy_trace.csv", "transfers.csv", "estimators.csv", "report.json")

UTILIZATION_TOL = 0.01     # |sum of busy time / device time - 1|
ARRIVAL_SIGMAS = 5.0       # allowed distance from the expected Poisson count
SEC = 1_000_000_000


def mean_service_ns(device: dict, sizes, read_ratio: float) -> float:
    """Mean device service time of one request of a tenant, in ns.

    A request of `size` bytes has a lognormal service time with median
    median_us * (size / ref_block_bytes) ** size_exponent and shape sigma,
    multiplied by m_spike with probability p_spike.
    """
    total_w = sum(w for _s, w in sizes)
    spike = 1.0 + device["p_spike"] * (device["m_spike"] - 1.0)
    shape = math.exp(device["sigma"] ** 2 / 2.0)
    mean = 0.0
    for size, w in sizes:
        scale = (size / device["ref_block_bytes"]) ** device["size_exponent"]
        op_us = (read_ratio * device["read_median_us"]
                 + (1.0 - read_ratio) * device["write_median_us"])
        mean += w / total_w * op_us * 1000.0 * scale
    return mean * shape * spike


def utilization(device: dict, tenants, completions: dict, duration_ns: int) -> float:
    """Utilization law: sum of completions x mean service over capacity x duration."""
    busy = sum(completions[t["label"]] * mean_service_ns(device, t["sizes"], t["read_ratio"])
               for t in tenants)
    return busy / (device["capacity"] * duration_ns)


def expected_arrivals(rate_per_s: float, burst, duration_ns: int) -> float:
    """Integral of the open-loop rate schedule over [0, duration].

    burst is None or (on_ns, off_ns, burst_rate_per_s); each cycle starts
    with off_ns at the base rate, then on_ns at the burst rate.
    """
    if burst is None:
        return rate_per_s * duration_ns / SEC
    on_ns, off_ns, burst_rate = burst
    cycles, rem = divmod(duration_ns, on_ns + off_ns)
    off_time = cycles * off_ns + min(rem, off_ns)
    on_time = cycles * on_ns + max(0, rem - off_ns)
    return (rate_per_s * off_time + burst_rate * on_time) / SEC


def digests(run_dir) -> dict:
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(run_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def _rows(run_dir, name):
    with open(os.path.join(run_dir, name), newline="") as f:
        return list(csv.DictReader(f))


def _initial_owners(run) -> list:
    """Core owner labels at t=0: LC tenants take the lowest core ids in order."""
    lcs = [t["label"] for t in run["tenants"] if t["lc"]]
    owners = []
    for label in lcs:
        n = run["static_counts"][label] if run["allocator"] == "static" else 1
        owners += [label] * n
    return owners + ["be"] * (run["pool_total"] - len(owners))


def _interval_spans(run, intervals):
    """{interval index: (start_ns, length_ns)}."""
    step, end = run["interval_ns"], run["duration_ns"]
    return {i: (i * step, min((i + 1) * step, end) - i * step)
            for i in {int(r["interval"]) for r in intervals}}


def check_identities(run, report, intervals) -> list:
    p = []
    tenants = report["tenants"]
    ev = report["events"]
    total = sum(t["requests"] for t in tenants.values())
    io = ev["by_kind"].get("IO_COMPLETE", 0)
    if not report["completed"] == total == io:
        p.append(f"completed {report['completed']}, tenant requests {total}, "
                 f"IO_COMPLETE events {io} differ")
    if ev["scheduled"] != ev["processed"] + run["pending"]:
        p.append(f"scheduled {ev['scheduled']} != processed {ev['processed']} "
                 f"+ pending {run['pending']}")
    for label, t in tenants.items():
        if t["class"] == "lc":
            met = t["tail_ns"] is not None and t["tail_ns"] <= t["slo_ns"]
            if t["slo_met"] != met:
                p.append(f"{label}: slo_met {t['slo_met']} but tail {t['tail_ns']} "
                         f"vs slo {t['slo_ns']}")
    spans = _interval_spans(run, intervals)
    warm = run["warmup_ns"]
    post_s = (run["duration_ns"] - warm) / SEC
    for t in run["tenants"]:
        rows = [r for r in intervals if r["tenant"] == t["label"]]
        nbytes = [round(float(r["bandwidth_bytes_per_s"]) * spans[int(r["interval"])][1] / SEC)
                  for r in rows]
        if sum(nbytes) != t["t_bytes"]:
            p.append(f"{t['label']}: interval bytes sum to {sum(nbytes)}, "
                     f"run total is {t['t_bytes']}")
        post = sum(b for r, b in zip(rows, nbytes) if spans[int(r["interval"])][0] >= warm)
        bw = tenants[t["label"]]["bandwidth_bytes_per_s"]
        if not math.isclose(post / post_s, bw, rel_tol=1e-9, abs_tol=1e-6):
            p.append(f"{t['label']}: post-warmup interval bytes give {post / post_s} B/s, "
                     f"report says {bw}")
    return p


def check_laws(run, report) -> list:
    p = []
    completions = {label: t["requests"] for label, t in report["tenants"].items()}
    u = utilization(run["device"], run["tenants"], completions, run["duration_ns"])
    if abs(u - 1.0) > UTILIZATION_TOL:
        p.append(f"utilization law gives {u:.4f}, not 1 within {UTILIZATION_TOL}")
    for t in run["tenants"]:
        if t["mode"] != "open_loop":
            continue
        want = expected_arrivals(t["rate_per_s"], t["burst"], run["duration_ns"])
        if abs(t["arrivals"] - want) > ARRIVAL_SIGMAS * math.sqrt(want):
            p.append(f"{t['label']}: {t['arrivals']} arrivals, expected {want:.0f} "
                     f"+- {ARRIVAL_SIGMAS:g} sigma")
    return p


def check_replay(run, run_dir) -> list:
    """Replay alloc_trace, transfers and windows rows and check their properties."""
    p = []
    owners = _initial_owners(run)
    nums = Counter(o for o in owners if o != "be")
    pool = run["pool_total"]
    yields = Counter()
    for r in _rows(run_dir, "alloc_trace.csv"):
        label, old, new = r["tenant"], int(r["old_num"]), int(r["new_num"])
        if nums[label] != old:
            p.append(f"alloc row at {r['time_ns']}: {label} old_num {old}, held {nums[label]}")
        nums[label] = new
        if new < 1:
            p.append(f"alloc row at {r['time_ns']}: {label} left with {new} cores")
        if sum(nums.values()) > pool:
            p.append(f"alloc row at {r['time_ns']}: LC tenants hold {sum(nums.values())} "
                     f"of {pool} cores")
        if r["trigger"] == "probe" and new <= old:
            p.append(f"alloc row at {r['time_ns']}: probe shrank {label} {old} -> {new}")
        if r["trigger"] == "yield":
            yields[(int(r["time_ns"]), label)] += 1
    transfers = _rows(run_dir, "transfers.csv")
    yielded = Counter()
    for i, r in sorted(enumerate(transfers), key=lambda ir: (int(ir[1]["marked_ns"]), ir[0])):
        core, src, dst = int(r["core"]), r["from_owner"], r["to_owner"]
        marked, eff = int(r["marked_ns"]), int(r["effective_ns"])
        if eff < marked:
            p.append(f"transfer of core {core} effective at {eff} before marked at {marked}")
        if owners[core] != src:
            p.append(f"core {core} moved from {src} at {marked} but {owners[core]} owned it")
        owners[core] = dst
        if dst == "be" and r["initiator"] == src and marked == eff:
            yielded[(marked, src)] += 1
    missing = yields - yielded
    if missing:
        p.append(f"{sum(missing.values())} yields have no transfer from the owner to the pool")
    wids = {}
    for r in _rows(run_dir, "windows.csv"):
        want = wids.get(r["tenant"], 0) + 1
        if int(r["wid"]) != want:
            p.append(f"{r['tenant']}: window id {r['wid']} follows {want - 1}")
        wids[r["tenant"]] = int(r["wid"])
    return p


def simulated_metrics(run, report, intervals) -> dict:
    """lc_tail_us, be_MBps and lc_cores of one run."""
    tenants = report["tenants"]
    lc = [label for label, t in tenants.items() if t["class"] == "lc"]
    spans = _interval_spans(run, intervals)
    warm = run["warmup_ns"]
    area = sum(float(r["mean_cores"]) * spans[int(r["interval"])][1]
               for r in intervals
               if r["tenant"] in lc and spans[int(r["interval"])][0] >= warm)
    return {
        "lc_tail_us": max(tenants[label]["tail_ns"] or 0 for label in lc) / 1e3,
        "be_MBps": sum(t["bandwidth_bytes_per_s"] for t in tenants.values()
                       if t["class"] == "be") / 1e6,
        "lc_cores": area / (run["duration_ns"] - warm),
    }


def check_run(run) -> tuple[list, dict, dict]:
    """(problems, simulated metrics, digests) of one finished run."""
    run_dir = run["run_dir"]
    with open(os.path.join(run_dir, "report.json")) as f:
        report = json.load(f)
    intervals = _rows(run_dir, "intervals.csv")
    problems = (check_identities(run, report, intervals) + check_laws(run, report)
                + check_replay(run, run_dir))
    return problems, simulated_metrics(run, report, intervals), digests(run_dir)
