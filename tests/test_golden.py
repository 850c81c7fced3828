"""Golden output digests: every scenario under every allocator, pinned across versions.

Each case runs one built-in scenario (seed 1; 1 simulated second unless it
overrides `duration_s`) and compares the SHA-256 of its seven CSVs and
report.json with the digests in golden_digests.json, and reads each CSV back
with the csv module: every row has its header's field count.  Beside the
scenario x allocator grid, EXTRA cases change settings of a scenario to reach
a path the grid never runs, and REACHES checks from their artifacts that they
still do.
Acceptance check 10 only shows that a run repeats within one version; this
file catches a change that silently alters what the simulator outputs.  A
change that means to alter outputs regenerates the file with
`PYTHONPATH=src python tests/test_golden.py` (which first prints, for each
artifact, how many cases' digests changed) and says why.
"""

import csv
import hashlib
import json
import os
import sys
from collections import Counter

import pytest

from qwinsim.config import ALLOCATORS, SCENARIOS, parse_config, scenario
from qwinsim.harness import run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.json")
CASES = [(s, k) for s in SCENARIOS for k in ALLOCATORS]

# Inline tenants for the cases that change a scenario's workloads.
_C = {"label": "lc0", "class": "lc", "workload": "C",
      "slo": {"quantile": 0.999, "latency_ms": 4.0}}
_H = {"label": "be0", "class": "be", "workload": "H"}
_ONE_BE = {"label": "be0", "class": "be",
           "workload": {"mode": "closed_loop", "sizes": [[65536, 1.0]], "read_ratio": 0.9,
                        "iodepth": 1, "numjobs": 1}}

# case id -> (scenario, allocator, top-level config overrides); an
# "allocator" override holds the allocator's own sections.
EXTRA = {
    # Four device slots for eight cores: requests queue in the device FIFO.
    "duo-qwin-device4": ("duo", "qwin", {"device": {"capacity": 4}}),
    "burst-duo-qwin-device4": ("burst-duo", "qwin", {"device": {"capacity": 4}}),
    # Policies refresh from since_mark reads, and intervals flush mid-run.
    "duo-qwin-policy20": ("duo", "qwin", {
        "interval_s": 0.25,
        "allocator": {"qwin": {"policy_window": 20, "min_tail_samples": 200}}}),
    # Feedback grants two cores at a time and later releases some.
    "duo-cake-step2": ("duo", "cake", {
        "allocator": {"cake": {"interval_s": 0.1, "step": 2}}}),
    # Every window's budget reads the estimator's mean, and the pinned
    # policies never refresh.
    "duo-qwin-slo_aware": ("duo", "qwin", {"allocator": {"qwin": {"pin": "slo_aware"}}}),
    "duo-qwin-conservative": ("duo", "qwin", {"allocator": {"qwin": {"pin": "conservative"}}}),
    # One estimator for the device, shared by both LC tenants.
    "policy-duo-qwin-scope-device": ("policy-duo", "qwin", {"estimators": {"scope": "device"}}),
    # A window ends when its last request is dequeued, not completed.
    "duo-qwin-dequeue": ("duo", "qwin", {"window_end": "dequeue"}),
    # A baseline reads its estimator only at the metric ticks: four reads,
    # with more than a 10,000-sample window of completions between two.
    "duo-priority-interval0.25": ("duo", "priority", {"interval_s": 0.25}),
    # Every service time is far above 100 ms, so every sample lands in a
    # geometric bucket, and an 8-sample window wraps between reads.
    "duo-shenango-slow-device": ("duo", "shenango", {
        "duration_s": 3.0, "interval_s": 0.25, "estimators": {"hist_window": 8},
        "device": {"read_median_us": 500_000.0, "write_median_us": 500_000.0}}),
    # One BE request for a pool of seven cores: the pool runs dry and its
    # cores park; under qwin a grant takes a parked BE core and wakes it.
    "duo-qwin-one-be-request": ("duo", "qwin", {"tenants": [_C, _ONE_BE]}),
    "duo-static-one-be-request": ("duo", "static", {"tenants": [_C, _ONE_BE]}),
    # Four cores for two requests: a closed-loop completion wakes a parked
    # core of its own tenant for the replacement.
    "duo-static-lc-surplus": ("duo", "static", {
        "tenants": [{**_C, "workload": {"mode": "closed_loop", "sizes": [[4096, 1.0]],
                                        "read_ratio": 0.9, "iodepth": 2, "numjobs": 1}},
                    _H],
        "allocator": {"static": {"counts": {"lc0": 4}}}}),
    # Bursts of 0.1 s every 0.3 s, so the open loop steps through its
    # phases within the run; one interval per 0.1 s.
    "burst-duo-qwin-short-bursts": ("burst-duo", "qwin", {
        "interval_s": 0.1,
        "tenants": [{"label": "lc0", "class": "lc",
                     "workload": {"mode": "open_loop", "rate_per_s": 12000.0,
                                  "sizes": [[4096, 1.0]], "read_ratio": 0.9,
                                  "burst": {"on_s": 0.1, "off_s": 0.2,
                                            "rate_per_s": 48000.0}},
                     "slo": {"quantile": 0.999, "latency_ms": 4.0}},
                    _H]}),
    # An SLO quantile that latency.csv does not list by default.
    "duo-qwin-slo-q0.995": ("duo", "qwin", {
        "tenants": [{**_C, "slo": {"quantile": 0.995, "latency_ms": 4.0}},
                    _H]}),
}
ALL_CASES = {**{f"{s}-{k}": (s, k, {}) for s, k in CASES}, **EXTRA}


def _rows(paths, artifact):
    with open(paths[artifact], newline="") as f:
        return list(csv.DictReader(f))


def _short_rows(paths):
    """(artifact, row) for each CSV row whose field count is not its header's."""
    bad = []
    for artifact, path in paths.items():
        if artifact.endswith(".csv"):
            with open(path, newline="") as f:
                header, *rows = csv.reader(f)
            bad += [(artifact, row) for row in rows if len(row) != len(header)]
    return bad


def _column(paths, artifact, column):
    return Counter(row[column] for row in _rows(paths, artifact))


def _estimator_reads(paths, tenant):
    return [(r["time_ns"], r["t_io_avg_ns"], r["tail_io_ns"])
            for r in _rows(paths, "estimators.csv") if r["tenant"] == tenant]


def _in_flight(paths, tenant):
    """The tenant's mean requests in flight by Little's law: its completions
    per second over the run times its median post-warmup latency."""
    with open(paths["report.json"]) as f:
        report = json.load(f)
    p50 = next(float(r["cumulative_tail_ns"]) for r in _rows(paths, "latency.csv")
               if r["tenant"] == tenant and r["quantile"] == "0.5")
    return report["tenants"][tenant]["requests"] / report["duration_s"] * p50 / 1e9


def _parks(paths, tenant):
    """The tenant keeps more than one request fewer in flight than it has
    cores in any interval, so some of its cores sit parked."""
    return _in_flight(paths, tenant) + 1 < min(
        float(r["mean_cores"]) for r in _rows(paths, "intervals.csv") if r["tenant"] == tenant)


def _bandwidths(paths, tenant):
    return [float(r["bandwidth_bytes_per_s"]) for r in _rows(paths, "intervals.csv")
            if r["tenant"] == tenant]


# case id -> what its artifacts must show, so that an edit to the case
# cannot silently drop the path it was added for.
REACHES = {
    "duo-qwin-policy20": lambda p: (
        sum(_column(p, "policy_trace.csv", "tenant").values()) == 14
        and _column(p, "intervals.csv", "tenant") == {"lc0": 4, "be0": 4}),
    "duo-cake-step2": lambda p: (
        _column(p, "alloc_trace.csv", "trigger")
        == {"feedback_up": 4, "feedback_down": 1}),
    "duo-qwin-slo_aware": lambda p: set(_column(p, "windows.csv", "policy")) == {"slo_aware"},
    "duo-qwin-conservative": lambda p: (
        set(_column(p, "windows.csv", "policy")) == {"conservative"}),
    "policy-duo-qwin-scope-device": lambda p: (
        _estimator_reads(p, "lc0") == _estimator_reads(p, "lc1") != []),
    # duo-qwin, which ends windows on completion, writes 521 windows.
    "duo-qwin-dequeue": lambda p: sum(_column(p, "windows.csv", "tenant").values()) > 521,
    "duo-priority-interval0.25": lambda p: len(_estimator_reads(p, "lc0")) > 1,
    "duo-shenango-slow-device": lambda p: (
        min(int(tail) for _, _, tail in _estimator_reads(p, "lc0")) >= 100_000_000),
    # A transfer out of the BE pool that takes effect when marked is a
    # parked BE core, granted and woken at once.
    "duo-qwin-one-be-request": lambda p: any(
        r["from_owner"] == "be" and r["marked_ns"] == r["effective_ns"]
        for r in _rows(p, "transfers.csv")),
    "duo-static-one-be-request": lambda p: _parks(p, "be0"),
    "duo-static-lc-surplus": lambda p: _parks(p, "lc0"),
    # The burst intervals (every third from the third) carry over twice the
    # bandwidth of any other.
    "burst-duo-qwin-short-bursts": lambda p: (
        min(_bandwidths(p, "lc0")[2::3])
        > 2 * max(b for i, b in enumerate(_bandwidths(p, "lc0")) if i % 3 != 2)),
    "duo-qwin-slo-q0.995": lambda p: any(
        r["tenant"] == "lc0" and r["quantile"] == "0.995" for r in _rows(p, "latency.csv")),
}


def _config(name, kind, overrides=None):
    d = scenario(name)
    d["duration_s"] = 1.0
    overrides = dict(overrides or {})
    alloc = {"kind": kind, **overrides.pop("allocator", {})}
    d.update(overrides)
    if kind == "static":
        # One core per LC tenant; the rest stay in the BE pool.
        alloc.setdefault("static", {"counts": {t["label"]: 1 for t in d["tenants"]
                                               if t["class"] == "lc"}})
    d["allocator"] = alloc
    return parse_config(d)


def run_digests(name, kind, out_dir, overrides=None) -> tuple[dict, dict]:
    """(artifact -> SHA-256, artifact -> path) of one case's run."""
    res = run_experiment(_config(name, kind, {**(overrides or {}), "out_dir": out_dir}))
    digests = {}
    for artifact, path in sorted(res.paths.items()):
        with open(path, "rb") as f:
            digests[artifact] = hashlib.sha256(f.read()).hexdigest()
    return digests, res.paths


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("case", list(ALL_CASES))
def test_artifacts_match_golden_digests(case, golden, tmp_path):
    digests, paths = run_digests(*ALL_CASES[case][:2], str(tmp_path), ALL_CASES[case][2])
    assert len(digests) == 8
    assert digests == golden[case]
    assert _short_rows(paths) == []
    if case in REACHES:
        assert REACHES[case](paths), f"{case} no longer reaches its path"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {case: run_digests(s, k, tmp, o)[0] for case, (s, k, o) in ALL_CASES.items()}
    with open(GOLDEN) as f:
        committed = json.load(f)
    # How many cases' digests of each artifact this rewrite changes.
    for artifact in sorted({a for d in table.values() for a in d}):
        changed = sum(committed.get(case, {}).get(artifact) != d.get(artifact)
                      for case, d in table.items())
        print(f"{artifact}: {changed} changed", file=sys.stderr)
    with open(GOLDEN, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(table)} cases to {GOLDEN}", file=sys.stderr)
