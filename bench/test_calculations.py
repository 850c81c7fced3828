"""Hand-worked checks of the benchmark's own calculations.

    python3 -m pytest bench/test_calculations.py -q
"""

import math

import pytest

import checks
import tracer

DEVICE = {"read_median_us": 100.0, "write_median_us": 200.0, "sigma": 0.0,
          "p_spike": 0.0, "m_spike": 20.0, "capacity": 2,
          "ref_block_bytes": 4096, "size_exponent": 0.5}


def test_mean_service_of_a_size_and_read_mix():
    # 3:1 mix of 4 KiB (median 100 us) and 64 KiB (median 100 * 16**0.5 =
    # 400 us), all reads: 0.75 * 100 + 0.25 * 400 = 175 us before the shape
    # factor exp(0.3**2 / 2) and the spike factor 1 + 0.001 * (20 - 1).
    dev = dict(DEVICE, sigma=0.3, p_spike=0.001)
    want = 175_000.0 * math.exp(0.045) * 1.019
    assert checks.mean_service_ns(dev, [[4096, 3], [65536, 1]], 1.0) == pytest.approx(want)


def test_utilization_law_sum():
    # Tenant a: 4 KiB reads, 100 us each.  Tenant b: 16 KiB (scale 2), half
    # reads at 100 us and half writes at 200 us: 2 * 150 = 300 us each.
    # 40k * 100 us + 20k * 300 us = 10 s of device time = 2 slots * 5 s.
    tenants = [{"label": "a", "sizes": [[4096, 1.0]], "read_ratio": 1.0},
               {"label": "b", "sizes": [[16384, 1.0]], "read_ratio": 0.5}]
    u = checks.utilization(DEVICE, tenants, {"a": 40_000, "b": 20_000}, 5 * checks.SEC)
    assert u == pytest.approx(1.0)
    half = checks.utilization(DEVICE, tenants, {"a": 20_000, "b": 10_000}, 5 * checks.SEC)
    assert half == pytest.approx(0.5)


@pytest.mark.parametrize("duration_s, want", [
    (2.0, 2 * 12_000),                     # inside the first off phase
    (4.5, 4 * 12_000 + 0.5 * 48_000),      # ends half a second into the burst
    (10.0, 2 * (4 * 12_000 + 48_000)),     # two whole cycles: 192,000
    (9.25, 96_000 + 4 * 12_000 + 0.25 * 48_000),
])
def test_expected_arrivals_of_on_off_schedule(duration_s, want):
    burst = (1 * checks.SEC, 4 * checks.SEC, 48_000.0)   # on 1 s, off 4 s
    got = checks.expected_arrivals(12_000.0, burst, round(duration_s * checks.SEC))
    assert got == pytest.approx(want)


def test_expected_arrivals_without_burst():
    assert checks.expected_arrivals(12_000.0, None, 2_500_000_000) == pytest.approx(30_000)


def test_self_time_of_nested_spans(monkeypatch):
    # a [0, 100] calls b [10, 40] and d [50, 70]; b calls c [15, 25].
    # Self times: a = 100 - 30 - 20 = 50, b = 30 - 10 = 20, c = 10, d = 20.
    ticks = iter([0, 10, 15, 25, 40, 50, 70, 100])
    monkeypatch.setattr(tracer, "_clock", lambda: next(ticks))
    t = tracer.Tracer()
    c = t.wrap("c", lambda: None)
    b = t.wrap("b", lambda: c())
    d = t.wrap("d", lambda: None)
    a = t.wrap("a", lambda: (b(), d()))
    a()
    assert {k: v[2] for k, v in t.agg.items()} == {"a": 50, "b": 20, "c": 10, "d": 20}
    assert {k: v[1] for k, v in t.agg.items()} == {"a": 100, "b": 30, "c": 10, "d": 20}
    by_name = {name: sid for sid, _p, name, _t0, _t1 in t.spans}
    parents = {name: pid for _s, pid, name, _t0, _t1 in t.spans}
    assert parents == {"a": 0, "b": by_name["a"], "c": by_name["b"], "d": by_name["a"]}
    offline = tracer.self_times(t.spans)
    assert {name: offline[sid] for name, sid in by_name.items()} == \
        {"a": 50, "b": 20, "c": 10, "d": 20}


def test_tracer_keeps_aggregating_past_its_span_limit():
    t = tracer.Tracer(keep=2)
    f = t.wrap("f", lambda: None)
    for _ in range(5):
        f()
    assert len(t.spans) == 2 and t.total_spans == 5 and t.calls("f") == 5
