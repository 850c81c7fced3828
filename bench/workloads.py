"""The benchmark's workloads: the `qwinsim` command line each one runs.

Each workload is a closed loop with one client: the benchmark starts one
`qwinsim` process and waits for it to finish.  A round of a workload is one
such process; every round of one benchmark invocation runs the same
arguments and seeds, so simulated results repeat exactly between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple          # qwinsim arguments, without the seed and --out
    n_seeds: int         # runs per round: seeds s .. s + n_seeds - 1

    def argv(self, seed: int, out: str) -> list:
        if self.n_seeds == 1:
            sel = ["--seed", str(seed)]
        else:
            sel = ["--seeds", f"{seed}..{seed + self.n_seeds - 1}"]
        return [*self.args, *sel, "--out", out]


WORKLOADS = {w.name: w for w in (
    # The paper's headline case: closed-loop 4 KiB LC (preset C, 4 ms p99.9)
    # beside closed-loop 64 KiB BE (preset H); every completion walks the
    # whole closed-loop hot path, and the open-loop generator stays idle.
    Workload("duo-qwin",
             ("--scenario", "duo", "--allocator", "qwin", "--duration", "20"), 1),
    # Open-loop Poisson LC at 12k/s bursting to 48k/s one second in five:
    # windows open and close often; cores are granted, yielded, handed over.
    Workload("burst-qwin",
             ("--scenario", "burst-duo", "--allocator", "qwin", "--duration", "20"), 1),
    # Six tenants under a fixed static partition, a YAML config and a seed
    # sweep: bypasses the qwin allocator, windows and open-loop generator.
    Workload("group2-static-sweep",
             ("--config", str(BENCH_DIR / "group2-static.yaml")), 3),
)}
