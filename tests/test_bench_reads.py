"""What the benchmark reads of a finished run must be there.

`bench/worker.py` sums up each run from its `RunResult` and `Simulation`
(`res.sim`, `res.run_id`, `res.paths`, the config, backend, tenants and
engine), `bench/layers.py` takes the traced run's facts from the same
objects, and `bench/checks.py` checks the artifacts against that summary.
These tests call the three as the benchmark does, on short runs of its three
workloads, so a change to a name they read fails here first.
"""

import sys
from pathlib import Path

import pytest

from qwinsim.config import parse_config, read_yaml, scenario
from qwinsim.harness import run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))   # the bench scripts import each other by name

import checks  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402


def _group2_static():
    with open(BENCH / "group2-static.yaml", "rb") as f:
        return read_yaml(f)


# Each benchmark workload's config, cut to 1 s.  The default warmup (10%)
# then starts an interval, as the checks' post-warmup sums need.
WORKLOADS = {
    "duo-qwin": lambda: scenario("duo"),
    "burst-qwin": lambda: scenario("burst-duo"),
    "group2-static-sweep": _group2_static,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_the_benchmark_reads_a_run_and_finds_no_problem(name, tmp_path):
    cfg = parse_config({**WORKLOADS[name](), "seed": 1, "duration_s": 1.0,
                        "interval_s": 0.1, "out_dir": str(tmp_path)})
    res = run_experiment(cfg)
    run = worker._run_summary(res, 0.0)
    facts = layers.run_facts(res.sim)
    problems, metrics, digests = checks.check_run(run)
    assert problems == []
    assert set(digests) == set(checks.ARTIFACTS)
    assert metrics["lc_tail_us"] > 0 and metrics["be_MBps"] > 0
    events = res.report["events"]
    assert facts["processed"] == events["processed"]
    assert facts["pending"] == run["pending"] == events["scheduled"] - events["processed"]
    assert facts["started"] == res.report["completed"] + res.sim.device.in_service
