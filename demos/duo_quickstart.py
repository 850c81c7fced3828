"""Smallest end-to-end run: one latency-critical tenant next to one
best-effort tenant on an 8-core backend, 10 simulated seconds.

The latency-critical tenant (4 KiB reads, closed loop) carries a 4 ms p99.9
objective; the best-effort tenant (64 KiB mixed, deep queue) soaks up every
core the allocator dares to lend out.  The run prints the same summary the
CLI emits, then peeks at the interval trace.
"""

from qwinsim.config import parse_config, scenario
from qwinsim.harness import run_experiment

cfg = parse_config({**scenario("duo"), "duration_s": 10.0, "warmup_s": 1.0})
print(f"running {cfg.run_id()}: pool of {cfg.pool_total} cores, "
      f"{cfg.duration_ns / 1e9:g}s simulated ...\n")

result = run_experiment(cfg, write=False)
rep = result.report

print(f"completed {rep['completed']} requests "
      f"({rep['events']['processed']} events)")
for label, t in rep["tenants"].items():
    if t["class"] == "lc":
        tail_ms = t["tail_ns"] / 1e6
        verdict = "MET" if t["slo_met"] else "MISSED"
        print(f"  {label}: p{t['slo_quantile'] * 100:g} = {tail_ms:.3f}ms vs "
              f"{t['slo_ns'] / 1e6:g}ms -> {verdict} "
              f"({t['windows']} windows)")
    else:
        print(f"  {label}: {t['bandwidth_bytes_per_s'] / 1e6:.1f} MB/s "
              f"post-warmup")

print("\nper-second intervals (tail vs cores kept):")
print("  sec  lc0 p99.9    lc0 cores   be pool cores")
hub = result.sim.hub
rows = {(r[2], r[1]): r for r in hub.interval_rows}
n_intervals = 1 + max(idx for _, idx in rows)
for i in range(n_intervals):
    lc = rows[("lc0", i)]
    be = rows[("be0", i)]
    tail = f"{lc[3] / 1e6:8.3f}ms" if lc[3] is not None else "      n/a"
    print(f"  {i:3d}  {tail}   {lc[5]:9.2f}   {be[5]:13.2f}")

print("\nSame run from the shell:")
print("  python3 -m qwinsim --scenario duo --duration 10 --warmup 1 "
      "--out results")
