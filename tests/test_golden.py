"""Golden output digests: every scenario under every allocator, pinned across versions.

Each case runs one built-in scenario for 1 simulated second (seed 1) and
compares the SHA-256 of its seven CSVs and report.json with the digests in
golden_digests.json.  Acceptance check 10 only shows that a run repeats within
one version; this file catches a change that silently alters what the
simulator outputs.  A change that means to alter outputs regenerates the file
with `PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import hashlib
import json
import os
import sys

import pytest

from qwinsim.config import ALLOCATORS, SCENARIOS, parse_config, scenario
from qwinsim.harness import run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.json")
CASES = [(s, k) for s in SCENARIOS for k in ALLOCATORS]


def _config(name, kind):
    d = scenario(name)
    d["duration_s"] = 1.0
    alloc = {"kind": kind}
    if kind == "static":
        # One core per LC tenant; the rest stay in the BE pool.
        alloc["static"] = {"counts": {t["label"]: 1 for t in d["tenants"]
                                      if t["class"] == "lc"}}
    d["allocator"] = alloc
    return parse_config(d)


def run_digests(name, kind, out_dir) -> dict:
    res = run_experiment(_config(name, kind), out_dir=out_dir)
    digests = {}
    for artifact, path in sorted(res.paths.items()):
        with open(path, "rb") as f:
            digests[artifact] = hashlib.sha256(f.read()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name,kind", CASES, ids=[f"{s}-{k}" for s, k in CASES])
def test_artifacts_match_golden_digests(name, kind, golden, tmp_path):
    digests = run_digests(name, kind, str(tmp_path))
    assert len(digests) == 8
    assert digests == golden[f"{name}-{kind}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{s}-{k}": run_digests(s, k, tmp) for s, k in CASES}
    with open(GOLDEN, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(table)} cases to {GOLDEN}", file=sys.stderr)
