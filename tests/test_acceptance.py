"""Acceptance gate for the simulator.

Eleven checks, each printing one visible `acceptance NN: PASS/FAIL` line:

 01  core-demand and probe-budget formulas against hand-evaluated tuples
 02  windows partition the arrival sequence (randomized traces, 10 seeds)
 03  probe-triggered allocation changes never shrink (full run matrix)
 04  cores never leave a tenant involuntarily; busy-core grants land at
     the exact completion timestamp of the in-flight request
 05  core conservation and the >=1-core floor at every allocation event
 06  slack thresholds pick conservative / slo_aware / aggressive exactly
 07  adaptive allocation meets the tail SLO while beating the pinned
     always-aggressive configuration on best-effort bandwidth
 08  best-effort bandwidth is non-decreasing as the SLO loosens
 09  interval-feedback baseline violates the SLO at burst onsets where
     the windowed allocator does not
 10  identical config+seed reproduces byte-identical CSVs
 11  histogram quantiles stay within one bucket of exact sample quantiles

The heavyweight experiment matrix (criteria 3-5 and 7-9) is built once per
session and scanned from its emitted CSV artifacts, same format as real runs.
"""

import csv
import gc
import hashlib
import math
import time
from bisect import bisect_left

import numpy as np
import pytest

from test_formula_oracles import BUDGET_ORACLE, DEMAND_ORACLE

import qwinsim.qwin_allocator as qa
from qwinsim import (AGGRESSIVE, CONSERVATIVE, SLO_AWARE, Backend, Device,
                     DeviceParams, Engine, MetricsHub, PolicyParams, QwinAllocator,
                     ServiceEstimator, Tenant, TenantMetrics, WorkloadSpec,
                     WorkloadSource, calculate_cores, compute_budget,
                     make_np_stream, make_stream, select_policy)
from qwinsim.config import parse_config, scenario
from qwinsim.harness import build, run_experiment
from qwinsim.metrics import EDGES, N_BUCKETS, _write_csv
from qwinsim.sim_core import MS, SEC
from qwinsim.workload import OPEN

SLO_NS = 4_000_000
POOL = 8
LC_LABEL = "lc0"


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# The experiment matrix (built once, scanned by several criteria)
# ---------------------------------------------------------------------------


def _matrix_run(d, seed, out_root, tag):
    """One full run; keep the report plus the CSVs the scans need."""
    res = run_experiment(parse_config({**d, "seed": seed}), write=False)
    rd = out_root / tag / res.run_id
    rd.mkdir(parents=True)
    hub = res.sim.hub
    for trace in (hub.alloc_rows, hub.transfer_rows, hub.interval_rows):
        _write_csv(rd / trace.file, trace.header, trace)
    report = res.report
    del res
    gc.collect()
    return {"run_id": report["run_id"], "dir": rd, "report": report}


@pytest.fixture(scope="session")
def matrix(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrix")
    out = {"runs": []}

    def run(d, seed, tag):
        r = _matrix_run(d, seed, root, tag)
        out["runs"].append(r)
        print(f"[matrix] {tag}/{r['run_id']} done", flush=True)
        return r

    # -- SLO-vs-pinned-aggressive duo, 60 s, 5 seeds --------------------------
    t0 = time.perf_counter()
    duo = scenario("duo")
    pinned = scenario("duo")
    pinned["allocator"] = {"kind": "qwin", "qwin": {"pin": "aggressive"}}
    out["adaptive"] = [run(duo, s, "duo") for s in range(1, 6)]
    out["pinned"] = [run(pinned, s, "duo") for s in range(1, 6)]
    out["duo_secs"] = time.perf_counter() - t0

    # -- SLO looseness sweep: 3 / 4.5 / 6 ms, 3 seeds -------------------------
    t0 = time.perf_counter()
    out["slo_sweep"] = {}
    for slo_ms in (3.0, 4.5, 6.0):
        d = scenario("duo")
        d["name"] = f"duo{slo_ms:g}"
        d["tenants"][0]["slo"]["latency_ms"] = slo_ms
        out["slo_sweep"][slo_ms] = [run(d, s, "slo") for s in range(1, 4)]
    out["slo_secs"] = time.perf_counter() - t0

    # -- burst contrast: windowed vs interval feedback, 25 s, 5 seeds ---------
    t0 = time.perf_counter()
    burst = scenario("burst-duo")
    burst["duration_s"] = 25.0
    cake = scenario("burst-duo")
    cake["duration_s"] = 25.0
    cake["allocator"] = {"kind": "cake"}
    out["burst_qwin"] = [run(burst, s, "burst") for s in range(1, 6)]
    out["burst_cake"] = [run(cake, s, "burst") for s in range(1, 6)]
    out["burst_secs"] = time.perf_counter() - t0
    return out


def _alloc_rows(run):
    with open(run["dir"] / "alloc_trace.csv") as f:
        return list(csv.DictReader(f))


def _transfer_rows(run):
    with open(run["dir"] / "transfers.csv") as f:
        return list(csv.DictReader(f))


def _lc_interval_tails(run):
    tails = {}
    with open(run["dir"] / "intervals.csv") as f:
        for row in csv.DictReader(f):
            if row["tenant"] == LC_LABEL and row["tail_ns"] != "":
                tails[int(row["interval"])] = int(row["tail_ns"])
    return tails


def _be_bw(run):
    return run["report"]["tenants"]["be0"]["bandwidth_bytes_per_s"]


# ---------------------------------------------------------------------------
# 01: formula oracles
# ---------------------------------------------------------------------------


def test_01_core_math_matches_hand_evaluated_oracles(capsys):
    t0 = time.perf_counter()
    checked = 0
    for ql, tw, slo, tail, avg, pool, want in DEMAND_ORACLE:
        assert calculate_cores(ql, tw, slo, tail, avg, pool) == want, \
            (ql, tw, slo, tail, avg, pool, want)
        checked += 1
    for slo, tail, tw, avg, want in BUDGET_ORACLE:
        assert compute_budget(slo, tail, tw, avg) == want, \
            (slo, tail, tw, avg, want)
        checked += 1
    # both degenerate branches are exercised by the tables
    assert any(slo - tail - tw <= 0
               for _, tw, slo, tail, _, _, _ in DEMAND_ORACLE)
    assert any(slo - tail - tw > 0 and (slo - tail - tw) < avg and want == 1
               for slo, tail, tw, avg, want in BUDGET_ORACLE)
    secs = time.perf_counter() - t0
    ok = checked >= 20 and secs < 1.0
    _verdict(capsys, 1, ok,
             f"{checked} hand-evaluated tuples exact incl. degenerate "
             f"branches, {secs:.2f}s (< 1s)")
    assert ok


# ---------------------------------------------------------------------------
# 02: windows partition the arrival sequence
# ---------------------------------------------------------------------------


def _window_partition_trace(seed):
    """Random open-loop traffic; record every window at establishment."""
    eng = Engine()
    dev = Device(DeviceParams(read_median_us=50.0, capacity=8),
                 make_np_stream(seed, 0), eng)
    hub = MetricsHub(f"wp{seed}", warmup_ns=0, pool_total=POOL)
    backend = Backend(eng, dev, POOL, hub)
    spec = WorkloadSpec(mode=OPEN, rate_per_s=55_000.0,
                        sizes=((4096, 1.0),), read_ratio=0.9)
    t = Tenant(LC_LABEL, True, slo_ns=SLO_NS)
    backend.add_tenant(t, WorkloadSource(spec, make_stream(seed, 1), dev.params),
                       ServiceEstimator(nominal_mean_ns=52_300.0,
                                        nominal_tail_ns=200_000))
    alloc = QwinAllocator(PolicyParams(), backend)

    records = []
    orig = qa.new_window

    def spy(tenant, now):
        live_ql = len(tenant.queue)
        win = orig(tenant, now)
        records.append((win.wid, win.boundary_lo, win.boundary_hi,
                        win.ql, live_ql))
        return win

    qa.new_window = spy
    try:
        backend.start()
        eng.run_until(2 * SEC)
    finally:
        qa.new_window = orig
    return t, records


def test_02_windows_partition_randomized_arrivals(capsys):
    t0 = time.perf_counter()
    total_reqs = total_wins = 0
    for seed in range(1, 11):
        t, records = _window_partition_trace(seed)
        assert t.arrivals >= 100_000, f"seed {seed}: only {t.arrivals} arrivals"
        assert records, f"seed {seed}: no windows established"
        # contiguous ids, starting from the first window
        wids = [r[0] for r in records]
        assert wids == list(range(wids[0], wids[0] + len(wids)))
        # ranges chain with no gap and no overlap: exactly-once membership
        assert records[0][1] == 1
        for (_, _, prev_hi, _, _), (_, lo, _, _, _) in zip(records, records[1:]):
            assert lo == prev_hi + 1
        for _, lo, hi, _, _ in records:
            assert hi >= lo
        # frozen queue length equals the live queue length at establishment
        for _, _, _, ql, live_ql in records:
            assert ql == live_ql and ql >= 1
        covered = records[-1][2]
        assert covered == sum(hi - lo + 1 for _, lo, hi, _, _ in records)
        total_reqs += t.arrivals
        total_wins += len(records)
    secs = time.perf_counter() - t0
    ok = secs < 30.0
    _verdict(capsys, 2, ok,
             f"10 seeds, {total_reqs} requests in {total_wins} contiguous "
             f"windows, ql exact at establishment, {secs:.1f}s (< 30s)")
    assert ok


# ---------------------------------------------------------------------------
# 03: probe events never shrink the allocation
# ---------------------------------------------------------------------------


def test_03_probe_allocations_grow_monotonically(capsys, matrix):
    probes = 0
    violations = []
    for run in matrix["runs"]:
        for row in _alloc_rows(run):
            if row["trigger"] == "probe":
                probes += 1
                if int(row["new_num"]) < int(row["old_num"]):
                    violations.append((run["run_id"], row))
    ok = probes > 0 and not violations
    _verdict(capsys, 3, ok,
             f"{probes} probe events across {len(matrix['runs'])} runs, "
             f"{len(violations)} decreased the core count")
    assert ok, violations[:5]


# ---------------------------------------------------------------------------
# 04: no involuntary core loss; busy-core grants land on completion
# ---------------------------------------------------------------------------


def test_04_cores_move_voluntarily_and_on_completion_only(capsys, matrix):
    # (a) across the matrix: a tenant's core only ever leaves by its own hand,
    # and always back to the shared pool
    scanned = 0
    for run in matrix["runs"]:
        for row in _transfer_rows(run):
            scanned += 1
            assert int(row["effective_ns"]) >= int(row["marked_ns"]), row
            if row["from_owner"] != "be":
                assert row["to_owner"] == "be", row
                assert row["initiator"] == row["from_owner"], row

    # (b) instrumented run: every transfer of a busy pool core becomes
    # effective exactly when that core's in-flight request completes
    cfg = parse_config({**scenario("duo"), "duration_s": 5.0, "warmup_s": 0.5, "seed": 3})
    sim = build(cfg)
    completions = set()
    orig = sim.device.on_complete_fn

    def spy(req, now):
        if req.core is not None:
            completions.add((req.core.cid, now))
        return orig(req, now)

    sim.device.on_complete_fn = spy
    sim.backend.start()
    sim.engine.run_until(cfg.duration_ns)

    deferred = mismatches = 0
    for cid, frm, to, marked, eff, _ in sim.hub.transfer_rows:
        if frm == "be" and eff > marked:
            deferred += 1
            if (cid, eff) not in completions:
                mismatches += 1
    ok = scanned > 0 and deferred > 0 and mismatches == 0
    _verdict(capsys, 4, ok,
             f"{scanned} matrix transfers all voluntary; {deferred} busy-core "
             f"grants in instrumented run, {mismatches} off the in-flight "
             f"completion timestamp")
    assert ok


# ---------------------------------------------------------------------------
# 05: conservation and the one-core floor
# ---------------------------------------------------------------------------


def test_05_core_conservation_and_lc_floor(capsys, matrix):
    events = 0
    for run in matrix["runs"]:
        owned = {LC_LABEL: 1}            # every allocator starts each LC at 1
        for row in _alloc_rows(run):
            events += 1
            tenant = row["tenant"]
            old, new = int(row["old_num"]), int(row["new_num"])
            assert owned[tenant] == old, \
                (run["run_id"], row, f"tracked {owned[tenant]}")
            assert new >= 1, (run["run_id"], row)
            owned[tenant] = new
            be = POOL - sum(owned.values())
            assert 0 <= be <= POOL - len(owned), (run["run_id"], row, be)
    ok = events > 0
    _verdict(capsys, 5, ok,
             f"{events} allocation events replayed: pool always sums to "
             f"{POOL}, no tenant below 1 core")
    assert ok


# ---------------------------------------------------------------------------
# 06: slack thresholds choose the policy exactly
# ---------------------------------------------------------------------------


def test_06_policy_regions_exact(capsys):
    sim = build(parse_config(scenario("duo")))
    t = {t.label: t for t in sim.backend.tenants}[LC_LABEL]
    alloc = sim.allocator
    p = alloc.params
    # exact boundaries (non-strict edges stay slo_aware)
    assert select_policy(1_000_001, p) == CONSERVATIVE
    assert select_policy(1_000_000, p) == SLO_AWARE
    assert select_policy(300_000, p) == SLO_AWARE
    assert select_policy(299_999, p) == AGGRESSIVE

    cases = [(2_500_000, CONSERVATIVE), (3_300_000, SLO_AWARE),
             (3_950_000, AGGRESSIVE)]
    landed = []
    for synthetic_tail, want in cases:
        tm = t.metrics
        tm.mark()
        for _ in range(2000):
            tm.record(synthetic_tail, 4096, 0)
        n, measured = tm.since_mark(t.slo_q)
        assert n == 2000
        slack = t.slo_ns - measured
        if want is CONSERVATIVE:
            assert slack > 1_000_000
        elif want is SLO_AWARE:
            assert 300_000 <= slack <= 1_000_000
        else:
            assert slack < 300_000
        t.policy = CONSERVATIVE if want != CONSERVATIVE else AGGRESSIVE
        alloc._refresh_policy(t, 0)
        assert t.policy == want, (synthetic_tail, slack, t.policy)
        landed.append((slack, want))
    _verdict(capsys, 6, True,
             "thresholds 300us/1000us exact; measured-tail slacks "
             + ", ".join(f"{s / 1000:.0f}us->{w}" for s, w in landed))


# ---------------------------------------------------------------------------
# 07: SLO held while beating pinned-aggressive on BE bandwidth
# ---------------------------------------------------------------------------


def test_07_meets_slo_and_beats_pinned_aggressive_bandwidth(capsys, matrix):
    met = sum(r["report"]["tenants"][LC_LABEL]["slo_met"]
              for r in matrix["adaptive"])
    bw_adaptive = sum(map(_be_bw, matrix["adaptive"])) / 5
    bw_pinned = sum(map(_be_bw, matrix["pinned"])) / 5
    gain = (bw_adaptive / bw_pinned - 1) * 100 if bw_pinned else float("inf")
    secs = matrix["duo_secs"]
    ok = met >= 4 and bw_adaptive >= 1.05 * bw_pinned and secs < 300
    _verdict(capsys, 7, ok,
             f"SLO met {met}/5 seeds; BE bandwidth {bw_adaptive / 1e6:.1f} "
             f"vs pinned-aggressive {bw_pinned / 1e6:.1f} MB/s "
             f"(+{gain:.1f}%, need >= 5%), {secs:.0f}s (< 300s)")
    assert ok


# ---------------------------------------------------------------------------
# 08: looser SLO never costs BE bandwidth
# ---------------------------------------------------------------------------


def test_08_be_bandwidth_nondecreasing_in_slo(capsys, matrix):
    means = {slo: sum(map(_be_bw, runs)) / len(runs)
             for slo, runs in matrix["slo_sweep"].items()}
    m3, m45, m6 = means[3.0], means[4.5], means[6.0]
    # allow a 2% inversion between adjacent points
    ok = m45 >= 0.98 * m3 and m6 >= 0.98 * m45
    secs = matrix["slo_secs"]
    ok = ok and secs < 600
    _verdict(capsys, 8, ok,
             f"seed-mean BE bandwidth {m3 / 1e6:.1f} -> {m45 / 1e6:.1f} -> "
             f"{m6 / 1e6:.1f} MB/s for 3 / 4.5 / 6 ms SLOs, "
             f"{secs:.0f}s (< 600s)")
    assert ok


# ---------------------------------------------------------------------------
# 09: interval feedback misses burst onsets the windowed allocator absorbs
# ---------------------------------------------------------------------------


def test_09_feedback_baseline_violates_burst_onsets(capsys, matrix):
    # 4 s off / 1 s on at 4x the base rate: bursts start at t = 4, 9, ... s
    onsets = (4, 9, 14, 19, 24)
    contrast_seeds = 0
    detail = []
    for q_run, c_run in zip(matrix["burst_qwin"], matrix["burst_cake"]):
        q_tails = _lc_interval_tails(q_run)
        c_tails = _lc_interval_tails(c_run)
        hits = [i for i in onsets
                if i in q_tails and i in c_tails
                and c_tails[i] > SLO_NS >= q_tails[i]]
        contrast_seeds += bool(hits)
        detail.append(len(hits))
    ok = contrast_seeds >= 3
    _verdict(capsys, 9, ok,
             f"feedback baseline over SLO at a burst onset the windowed "
             f"allocator absorbs: {contrast_seeds}/5 seeds "
             f"(onset hits per seed: {detail})")
    assert ok


# ---------------------------------------------------------------------------
# 10: byte-identical reruns
# ---------------------------------------------------------------------------


def test_10_identical_seed_reproduces_identical_csvs(capsys, tmp_path):
    d = {**scenario("duo"), "duration_s": 3.0, "warmup_s": 0.3}
    digests = []
    for rep in range(3):
        res = run_experiment(parse_config({**d, "out_dir": str(tmp_path / f"rep{rep}")}))
        digests.append({
            name: hashlib.sha256(open(p, "rb").read()).hexdigest()
            for name, p in res.paths.items() if name.endswith(".csv")})
    ok = digests[0] == digests[1] == digests[2] and len(digests[0]) == 7
    _verdict(capsys, 10, ok,
             f"3 repeats, {len(digests[0])} CSVs each, all byte-identical")
    assert ok


# ---------------------------------------------------------------------------
# 11: histogram quantiles within one bucket of exact
# ---------------------------------------------------------------------------


def test_11_histogram_quantiles_within_one_bucket(capsys):
    rng = np.random.default_rng(42)
    # The per-tenant histogram a run records into, read after a flush as
    # the cumulative tail is.
    tm = TenantMetrics(True, 0.999, warmup_ns=0)
    samples = [max(1, int(ns)) for ns in
               rng.lognormal(mean=math.log(200_000), sigma=0.5, size=50_000)]
    for ns in samples:
        tm.record(ns, 4096, 0)
    tm.flush_interval(1)
    ordered = sorted(samples)
    n = len(ordered)
    worst = 0.0
    for q in (0.9, 0.99, 0.999):
        need = min(n, max(1, math.ceil(q * n - 1e-9)))
        exact = ordered[need - 1]
        approx = tm.cumulative_quantile(q)
        b = min(bisect_left(EDGES, exact), N_BUCKETS - 1)
        width = EDGES[b + 1] - EDGES[b]
        assert abs(approx - exact) <= width, (q, approx, exact, width)
        worst = max(worst, abs(approx - exact) / width)
    _verdict(capsys, 11, True,
             f"q in {{0.9, 0.99, 0.999}} within one bucket of exact on "
             f"{n} retained samples (worst offset {worst:.2f} buckets)")
