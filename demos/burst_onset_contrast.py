"""Why windows beat interval feedback when load arrives in bursts.

The open-loop tenant idles at 12k requests/s for four seconds, then slams
48k/s for one second.  An interval-feedback controller only reacts after the
interval in which a burst landed has already been measured -- by then the
tail is blown.  Window establishment sees the queue grow the moment the burst
arrives and sizes the allocation from the queue itself, inside the interval.

Runs the same 15 simulated seconds twice (same seed): once with the windowed
allocator, once with the interval-feedback baseline.
"""

from qwinsim.config import parse_config, scenario
from qwinsim.harness import run_experiment

SLO_NS = 4_000_000
DURATION = 15.0
ONSETS = (4, 9, 14)      # 4s off / 1s on -> a burst starts at these seconds


def interval_tails(allocator_kind):
    d = scenario("burst-duo")
    d["duration_s"] = DURATION
    if allocator_kind != "qwin":
        d["allocator"] = {"kind": allocator_kind}
    cfg = parse_config(d)
    print(f"running {cfg.run_id()} ...")
    result = run_experiment(cfg, write=False)
    tails = {}
    for row in result.sim.hub.interval_rows:
        _, idx, label, tail, _, _ = row
        if label == "lc0" and tail is not None:
            tails[idx] = tail
    return tails


windowed = interval_tails("qwin")
feedback = interval_tails("cake")

print(f"\nper-second p99.9 of the bursty tenant (SLO {SLO_NS / 1e6:g}ms):")
print("  sec   windowed     feedback")
for i in sorted(windowed):
    w, f = windowed[i], feedback.get(i)
    mark = "  <- burst onset" if i in ONSETS else ""
    w_s = f"{w / 1e6:7.2f}ms" + ("!" if w > SLO_NS else " ")
    f_s = (f"{f / 1e6:7.2f}ms" + ("!" if f > SLO_NS else " ")) if f else "   n/a"
    print(f"  {i:3d}  {w_s}   {f_s}{mark}")

violations = [i for i in ONSETS if feedback.get(i, 0) > SLO_NS >= windowed[i]]
print(f"\nonsets where feedback blows the SLO but the windowed allocator "
      f"holds it: {violations or 'none'}")
print("('!' marks an interval whose tail exceeded the objective)")
