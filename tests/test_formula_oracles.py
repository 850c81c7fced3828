"""Hand-evaluated oracles for the core-demand and probe-budget formulas.

Every expected value below was computed by hand from the definitions:

    slack  = slo - tail_io - tw
    demand = pool                      if slack <= 0
             clamp(ceil(ql * t_io_avg / slack), 1, pool)   otherwise
    budget = 1                         if slack <= 0
             max(1, floor(slack / t_io_avg))               otherwise
"""

import math

from qwinsim import calculate_cores, compute_budget


# (ql, tw_ns, slo_ns, tail_io_ns, t_io_avg_ns, pool, expected)
DEMAND_ORACLE = [
    # plain mid-range case: slack 2ms, 100 * 100us / 2ms = 5
    (100, 500_000, 3_000_000, 500_000, 100_000.0, 16, 5),
    # same demand clamped by a smaller pool
    (100, 500_000, 3_000_000, 500_000, 100_000.0, 4, 4),
    # single queued request, lots of slack -> floor of one core
    (1, 0, 1_000_000, 100_000, 50_000.0, 8, 1),
    # empty queue still demands one core (lower clamp)
    (0, 0, 1_000_000, 100_000, 50_000.0, 8, 1),
    # slack exactly zero -> whole pool
    (10, 100_000, 600_000, 500_000, 100_000.0, 8, 8),
    # negative slack -> whole pool
    (10, 0, 400_000, 500_000, 100_000.0, 8, 8),
    # exact division: 10 * 100us / 0.5ms = 2.0 -> 2
    (10, 0, 600_000, 100_000, 100_000.0, 8, 2),
    # barely above an integer -> next core up: 1_000_010 / 500_000 = 2.00002
    (10, 0, 600_000, 100_000, 100_001.0, 8, 3),
    # huge backlog clamps to the pool
    (10_000, 0, 1_100_000, 100_000, 100_000.0, 64, 64),
    # fraction just under one core: 3 * 333_333 / 1ms = 0.999999 -> 1
    (3, 0, 1_100_000, 100_000, 333_333.0, 8, 1),
    # tiny service time: 50 * 1us / 0.9ms -> ceil(0.0555) = 1
    (50, 0, 1_000_000, 100_000, 1_000.0, 8, 1),
    # waited-out window: slack 40us, 8 * 100us / 40us = 20 -> pool clamp 8
    (8, 3_700_000, 4_000_000, 260_000, 100_000.0, 8, 8),
    # iodepth-sized queue under the default device: 32 * 106.6us / 3.74ms -> 1
    (32, 0, 4_000_000, 260_000, 106_600.0, 8, 1),
    # ten times that queue: 9.12 -> 10 -> pool clamp 8
    (320, 0, 4_000_000, 260_000, 106_600.0, 8, 8),
    # same but a 16-core pool keeps the unclamped ceil of 10
    (320, 0, 4_000_000, 260_000, 106_600.0, 16, 10),
]

# (slo_ns, tail_io_ns, tw_ns, t_io_avg_ns, expected)
BUDGET_ORACLE = [
    # slack 2ms over 100us -> 20 dequeues between probes
    (3_000_000, 500_000, 500_000, 100_000.0, 20),
    # slack 2ms over 300us -> floor(6.66) = 6
    (3_000_000, 500_000, 500_000, 300_000.0, 6),
    # slack 50us under 100us service -> floor(0.5) = 0 -> clamp to 1
    (1_000_000, 900_000, 50_000, 100_000.0, 1),
    # tail already past the SLO -> probe every dequeue
    (1_000_000, 1_200_000, 0, 100_000.0, 1),
    # slack exactly zero -> probe every dequeue
    (1_000_000, 900_000, 100_000, 100_000.0, 1),
    # exact division: 1ms / 250us = 4
    (1_250_000, 250_000, 0, 250_000.0, 4),
    # float service mean: floor(1ms / 333_333.3333) = 3
    (1_333_333, 333_333, 0, 333_333.3333, 3),
    # default duo numbers: floor(3.74ms / 106.6us) = 35
    (4_000_000, 260_000, 0, 106_600.0, 35),
    # degenerate 1ns service -> budget equals the whole slack
    (4_000_000, 260_000, 0, 1.0, 3_740_000),
]


def test_demand_oracle_table():
    assert len(DEMAND_ORACLE) + len(BUDGET_ORACLE) >= 20
    for ql, tw, slo, tail, avg, pool, want in DEMAND_ORACLE:
        got = calculate_cores(ql, tw, slo, tail, avg, pool)
        assert got == want, (ql, tw, slo, tail, avg, pool, got, want)


def test_budget_oracle_table():
    for slo, tail, tw, avg, want in BUDGET_ORACLE:
        got = compute_budget(slo, tail, tw, avg)
        assert got == want, (slo, tail, tw, avg, got, want)


def test_demand_never_leaves_bounds():
    # sweep a grid; every result must stay inside [1, pool]
    for ql in (0, 1, 7, 100, 10_000):
        for slack_target in (-50_000, 0, 1, 100_000, 5_000_000):
            slo = 1_000_000
            tail = 200_000
            tw = slo - tail - slack_target
            for pool in (1, 2, 8):
                n = calculate_cores(ql, tw, slo, tail, 100_000.0, pool)
                assert 1 <= n <= pool
                if slack_target <= 0:
                    assert n == pool


def test_budget_never_below_one():
    for slo in (100_000, 1_000_000, 10_000_000):
        for tail in (0, 99_999, 5_000_000):
            for avg in (1.0, 80_000.0, 10_000_000.0):
                assert compute_budget(slo, tail, 0, avg) >= 1


def test_demand_matches_manual_ceil_identity():
    # cross-check the implementation against the direct expression
    for ql in (1, 3, 17, 120):
        for avg in (1_000.0, 97_531.0):
            for slack in (1, 12_345, 2_000_000):
                slo, tail, tw = 3_000_000, 500_000, 3_000_000 - 500_000 - slack
                want = min(8, max(1, math.ceil(ql * avg / slack)))
                assert calculate_cores(ql, tw, slo, tail, avg, 8) == want

