"""Python frames the simulation loop runs: a deterministic guard on the hot path.

`sys.setprofile` sees one "call" event per Python frame entered.  Counted
inside `Engine.run_until` over 0.2 s of a seed-1 run, the total depends only on
the code and the config, not on the host, so a change that puts a frame back
on the completion path fails here before any timing shows it.  A change that
removes frames lowers the budget to the new count.
"""

import gc
import sys

import pytest

from qwinsim.config import parse_config, scenario
from qwinsim.harness import _start_metric_ticks, build

# case -> (config, start of the 0.2 s counted, completions, most call events)
# at seed 1.
BUDGET = {
    # 9.72 frames per completion under qwin: every freed core is stepped in
    # the completion handler, estimator reads enter only tail_ns, and the
    # busy cores a transfer takes are sorted without a Python key function.
    "burst-duo": (scenario("burst-duo"), 0.0, 5_535, 53_778),
    # 11.30 frames per completion in the burst phase, where 9,682 of the
    # 20,666 events are arrivals: an open-loop arrival admits its request,
    # then draws and schedules the next one in its own frame.
    "burst-duo-burst": (scenario("burst-duo"), 4.4, 10_984, 124_111),
    # 7.24 frames per completion under qwin.
    "duo": (scenario("duo"), 0.0, 14_338, 103_805),
    # 5.07 frames per completion under static: a deferred estimator takes
    # each LC sample with one C-level append, so no frame runs for it.
    "group2-static": ({**scenario("group2"),
                       "allocator": {"kind": "static", "static": {
                           "counts": {"lc0": 2, "lc1": 2, "lc2": 1}}}},
                      0.0, 5_799, 29_423),
}


def _count_frames(cfg, start_s):
    sim = build(parse_config({**cfg, "duration_s": start_s + 0.2, "seed": 1}))
    _start_metric_ticks(sim)
    sim.backend.start()
    if start_s:
        sim.engine.run_until(round(start_s * 1e9))
    completed = sim.backend.completed
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection inside the run would call the collector's callbacks (the
    # test session's Hypothesis registers one) and the finalizers of earlier
    # garbage, so collect first and pause the collector, as run_experiment
    # does.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        sim.engine.run_until(sim.cfg.duration_ns)
    finally:
        sys.setprofile(None)
        gc.enable()
    return sim.backend.completed - completed, calls


@pytest.mark.parametrize("name", list(BUDGET))
def test_frames_per_run_stay_within_budget(name):
    cfg, start_s, want_completions, budget = BUDGET[name]
    completions, calls = _count_frames(cfg, start_s)
    assert completions == want_completions
    assert calls <= budget, (f"{name}: {calls} Python frames for {completions} "
                             f"completions, budget {budget}")
