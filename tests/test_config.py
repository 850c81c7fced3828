"""Config schema: defaults, validation with full error collection, round-trips."""

import copy
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import qwinsim
from qwinsim import harness
from qwinsim.config import (ALLOCATORS, SCHEMA, AllocatorConfig, ConfigError,
                            ExperimentConfig, SCENARIOS,
                            parse_config, read_yaml, scenario)
from qwinsim.workload import CLOSED, OPEN, PRESETS

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def _minimal(**over):
    d = {"tenants": [
        {"label": "lc0", "class": "lc", "workload": "C",
         "slo": {"quantile": 0.999, "latency_ms": 4.0}},
    ]}
    d.update(over)
    return d


# ---------------------------------------------------------------------------
# Defaults and derived values
# ---------------------------------------------------------------------------


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config(_minimal())
    assert cfg.name == "run"
    assert cfg.seed == 1
    assert cfg.duration_ns == 60_000_000_000
    assert cfg.interval_ns == 1_000_000_000
    assert cfg.window_end == "complete"
    assert cfg.pool_total == 8
    assert cfg.out_dir == "results"
    assert cfg.device.read_median_us == 100.0
    assert cfg.device.capacity == 8
    assert cfg.estimators.ewma_alpha == 0.01
    assert cfg.estimators.hist_window == 10_000
    assert cfg.estimators.scope == "tenant"
    assert cfg.allocator.kind == "qwin"
    assert cfg.allocator.qwin.policy_window == 2000
    assert cfg.allocator.qwin.slack_low_ns == 300_000
    assert cfg.allocator.qwin.slack_high_ns == 1_000_000


def test_warmup_defaults_to_a_tenth_of_duration():
    cfg = parse_config(_minimal(duration_s=30.0))
    assert cfg.warmup_ns is None
    assert cfg.effective_warmup_ns == 3_000_000_000
    cfg = parse_config(_minimal(duration_s=30.0, warmup_s=2.0))
    assert cfg.effective_warmup_ns == 2_000_000_000


def test_time_keys_normalize_to_integer_nanoseconds():
    cfg = parse_config(_minimal(duration_s=1.5, interval_s=0.25, warmup_s=0.1))
    assert (cfg.duration_ns, cfg.interval_ns, cfg.warmup_ns) == \
        (1_500_000_000, 250_000_000, 100_000_000)
    t = cfg.tenants[0]
    assert t.slo.latency_ns == 4_000_000 and isinstance(t.slo.latency_ns, int)


def test_preset_name_implies_tenant_class():
    cfg = parse_config({"tenants": [
        {"label": "x", "workload": "C", "slo": {"latency_ms": 4.0}},
        {"label": "y", "workload": "H"},
    ]})
    assert cfg.tenants[0].tenant_class == "lc"
    assert cfg.tenants[1].tenant_class == "be"
    assert cfg.tenants[1].spec() == PRESETS["H"]


# ---------------------------------------------------------------------------
# Validation: every problem is reported, not just the first
# ---------------------------------------------------------------------------


def test_all_errors_are_collected_in_one_raise():
    bad = {"seed": -1, "duration_s": 0, "interval_s": 0,
           "window_end": "sideways", "pool": {"total": 0}, "tenants": []}
    with pytest.raises(ConfigError) as ei:
        parse_config(bad)
    msgs = "\n".join(ei.value.errors)
    assert len(ei.value.errors) >= 6
    for frag in ("seed", "duration_s", "interval_s", "window_end",
                 "pool: total must be in [1, 4096]", "at least one tenant"):
        assert frag in msgs


_NINE_LC = [{"label": f"lc{i}", "class": "lc", "workload": "C", "slo": {"latency_ms": 4.0}}
            for i in range(9)]


@pytest.mark.parametrize("over,error", [
    ({"pool": {"total": 0}, "tenants": _NINE_LC}, "pool: total must be in [1, 4096]"),
    ({"duration_s": "abc", "warmup_s": 100.0}, "duration_s must be a number"),
    ({"pool": {"total": "x"}, "allocator": {"kind": "static", "static": {"counts": {"lc0": 9}}}},
     "pool: total must be a number"),
    # Judged at the default 1 s or 60 s, each would be more than 10**6 intervals.
    ({"duration_s": 2e6, "interval_s": "x"}, "interval_s must be a number"),
    ({"duration_s": "x", "interval_s": 1e-6}, "duration_s must be a number"),
], ids=["pool-total", "duration", "static-sum", "intervals-interval", "intervals-duration"])
def test_a_cross_section_rule_skips_a_key_already_reported(over, error):
    # Judged at its default, the rejected key would add a line naming a
    # value the config never set ("pool has 8", a 60 s duration).
    with pytest.raises(ConfigError) as ei:
        parse_config(_minimal(**over))
    assert ei.value.errors == [error]


def test_a_static_count_rule_is_listed_beside_another_sections_problem():
    with pytest.raises(ConfigError) as ei:
        parse_config(_minimal(device={"sigma": -1},
                              allocator={"kind": "static", "static": {"counts": {}}}))
    assert ei.value.errors == ["device: sigma must be >= 0",
                               "allocator.static: static counts missing LC tenants: ['lc0']"]


def test_lc_tenant_requires_an_slo():
    with pytest.raises(ConfigError, match="LC tenants need slo"):
        parse_config({"tenants": [{"label": "lc0", "class": "lc",
                                   "workload": "C"}]})


def test_be_tenant_rejects_an_slo():
    with pytest.raises(ConfigError, match="BE tenants take no SLO"):
        parse_config({"tenants": [{"label": "be0", "class": "be", "workload": "H",
                                   "slo": {"latency_ms": 4.0}}]})


def test_label_be_is_reserved_for_the_pool():
    with pytest.raises(ConfigError, match="reserved"):
        parse_config({"tenants": [{"label": "be", "class": "be",
                                   "workload": "H"}]})


def test_duplicate_labels_rejected():
    d = _minimal()
    d["tenants"].append(dict(d["tenants"][0]))
    with pytest.raises(ConfigError, match="duplicate tenant label"):
        parse_config(d)


def test_unknown_preset_lists_known_ones():
    with pytest.raises(ConfigError, match="unknown workload preset"):
        parse_config({"tenants": [{"label": "lc0", "class": "lc", "workload": "Z",
                                   "slo": {"latency_ms": 4.0}}]})


def test_warmup_must_fit_inside_duration():
    with pytest.raises(ConfigError, match="smaller than duration"):
        parse_config(_minimal(duration_s=10.0, warmup_s=10.0))
    with pytest.raises(ConfigError, match="warmup_s must be >= 0"):
        parse_config(_minimal(warmup_s=-1.0))


def test_unknown_allocator_kind_rejected():
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config(_minimal(allocator={"kind": "magic"}))


def test_invalid_pin_rejected():
    with pytest.raises(ConfigError, match="unknown pin 'yolo'"):
        parse_config(_minimal(allocator={"kind": "qwin",
                                         "qwin": {"pin": "yolo"}}))


@pytest.mark.parametrize("kind", [k for k in ALLOCATORS if k != "qwin"])
def test_a_pin_beside_another_allocator_is_rejected(kind):
    # Only qwin reads the pin, so beside another kind it would be ignored.
    alloc = {"kind": kind, "qwin": {"pin": "aggressive"}, "static": {"counts": {"lc0": 1}}}
    with pytest.raises(ConfigError) as ei:
        parse_config(_minimal(allocator=alloc))
    assert ei.value.errors == [
        f"allocator.qwin.pin: only the qwin allocator pins a policy, not {kind!r}"]
    del alloc["qwin"]
    parse_config(_minimal(allocator=alloc))


def test_static_counts_validated_against_pool():
    ok = parse_config(_minimal(allocator={"kind": "static",
                                          "static": {"counts": {"lc0": 3}}}))
    assert ok.allocator.static.counts == {"lc0": 3}
    with pytest.raises(ConfigError, match="allocator.static"):
        parse_config(_minimal(allocator={"kind": "static",
                                         "static": {"counts": {"lc0": 9}}}))


def test_static_counts_name_lc_tenants_only(tmp_path):
    # The BE pool keeps the cores the LC tenants leave; "be" is no tenant.
    static = {"kind": "static", "static": {"counts": {"lc0": 2, "be": 3}}}
    with pytest.raises(ConfigError) as ei:
        parse_config(_minimal(allocator=static))
    assert ei.value.errors == ["allocator.static: static counts name unknown LC tenants: ['be']"]
    r = _cli(tmp_path, yaml.safe_dump(_minimal(allocator=static)))
    assert r.returncode == 2
    assert "allocator.static" in r.stderr and "Traceback" not in r.stderr


def test_more_lc_tenants_than_cores_rejected():
    d = {"pool": {"total": 2}, "tenants": [
        {"label": f"lc{i}", "class": "lc", "workload": "C",
         "slo": {"latency_ms": 4.0}} for i in range(3)]}
    with pytest.raises(ConfigError, match="LC tenants need at least"):
        parse_config(d)


def test_estimator_bounds_checked():
    with pytest.raises(ConfigError, match="ewma_alpha"):
        parse_config(_minimal(estimators={"ewma_alpha": 0.0}))
    with pytest.raises(ConfigError, match="scope"):
        parse_config(_minimal(estimators={"scope": "galaxy"}))


@pytest.mark.parametrize("key", ["read_median_us", "write_median_us", "sigma",
                                 "p_spike", "m_spike", "size_exponent"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_device_values_rejected(key, value):
    with pytest.raises(ConfigError, match=f"device: {key} must be finite"):
        parse_config(_minimal(device={key: value}))


def test_nan_sigma_from_yaml_rejected():
    text = (
        "tenants:\n"
        "  - {label: lc0, class: lc, workload: C, slo: {latency_ms: 4.0}}\n"
        "device:\n"
        "  sigma: .nan\n")
    with pytest.raises(ConfigError, match="sigma must be finite"):
        parse_config(read_yaml(text))


def test_bad_slo_quantile_and_latency_reported():
    d = {"tenants": [{"label": "lc0", "class": "lc", "workload": "C",
                      "slo": {"quantile": 1.5, "latency_ms": 0}}]}
    with pytest.raises(ConfigError) as ei:
        parse_config(d)
    msgs = "\n".join(ei.value.errors)
    assert "quantile" in msgs and "latency" in msgs


# One key of the duo scenario changed to a malformed value; each must be
# reported as a ConfigError whose message names the key path.
MALFORMED = [
    (("duration_s",), "abc", "duration_s must be a number"),
    (("duration_s",), float("nan"), "duration_s must be finite"),
    (("duration_s",), float("inf"), "duration_s must be finite"),
    (("warmup_s",), "x", "warmup_s must be a number"),
    (("tenants", 0, "slo", "quantile"), "high",
     "tenants[0] (lc0).slo: quantile must be a number"),
    (("tenants", 0, "slo", "latency_ms"), float("nan"),
     "tenants[0] (lc0).slo: latency_ms must be finite"),
    (("allocator", "static", "counts"), [1, 2], "allocator.static.counts must map"),
    (("allocator", "qwin"), "x", "allocator.qwin must be a mapping"),
    (("pool",), "x", "pool must be a mapping"),
    (("device",), [1], "device must be a mapping"),
    (("estimators",), "x", "estimators must be a mapping"),
    (("name",), "../../etc/x", "name must be a plain file name"),
    (("name",), "", "name must be a plain file name"),
    (("name",), "a\0b", "name must be a plain file name"),
    (("name",), "a\nb", "name must be a plain file name"),
    (("seed",), True, "seed must be a number"),
    (("pool", "total"), True, "pool: total must be a number"),
    (("device", "capacity"), 2.7, "device: capacity must be an integer"),
    (("tenants", 0, "workload"), {"mode": CLOSED, "iodepth": 1.5},
     "tenants[0] (lc0).workload: iodepth must be an integer"),
    (("duraton_s",), 30.0, "unknown key 'duraton_s'"),
    (("device", "sigmaa"), 0.3, "device: unknown key 'sigmaa'"),
]


def _set(tree, path, value):
    for key in path[:-1]:
        if isinstance(tree, dict):
            tree = tree.setdefault(key, {})
        else:
            tree = tree[key]
    tree[path[-1]] = value


@pytest.mark.parametrize("path,value,message", MALFORMED,
                         ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v, _ in MALFORMED])
def test_malformed_value_is_a_config_error_naming_its_key(path, value, message):
    d = scenario("duo")
    _set(d, path, value)
    with pytest.raises(ConfigError) as ei:
        parse_config(d)
    assert any(message in e for e in ei.value.errors), ei.value.errors


# Each bounded key given a value past each end it is bounded at, and every
# other rule broken once: one key of BASE changed, and the one error line it
# gives.  BASE is burst-duo (lc0 an inline open loop with a burst) under a
# static allocator whose counts are valid.
LC0 = "tenants[0] (lc0)"
BASE = {**scenario("burst-duo"), "allocator": {"kind": "static", "static": {"counts": {"lc0": 2}}}}
REJECTED = [
    (("seed",), -1, "seed must be >= 0"),
    (("duration_s",), 0, "duration_s must be in (0, 2**62 ns)"),
    (("duration_s",), 5e9, "duration_s must be in (0, 2**62 ns)"),
    (("warmup_s",), -1.0, "warmup_s must be >= 0"),
    (("interval_s",), 0, "interval_s must be > 0"),
    (("pool", "total"), 0, "pool: total must be in [1, 4096]"),
    (("pool", "total"), 4097, "pool: total must be in [1, 4096]"),
    (("device", "read_median_us"), 0, "device: read_median_us must be > 0"),
    (("device", "write_median_us"), 0, "device: write_median_us must be > 0"),
    (("device", "sigma"), -0.1, "device: sigma must be >= 0"),
    (("device", "p_spike"), -0.1, "device: p_spike must be in [0, 1]"),
    (("device", "p_spike"), 1.5, "device: p_spike must be in [0, 1]"),
    (("device", "m_spike"), 0.5, "device: m_spike must be >= 1"),
    (("device", "capacity"), 0, "device: capacity must be in [1, 4096]"),
    (("device", "capacity"), 4097, "device: capacity must be in [1, 4096]"),
    (("device", "ref_block_bytes"), 0, "device: ref_block_bytes must be > 0"),
    (("estimators", "ewma_alpha"), 0.0, "estimators: ewma_alpha must be in (0, 1]"),
    (("estimators", "ewma_alpha"), 1.5, "estimators: ewma_alpha must be in (0, 1]"),
    (("estimators", "hist_window"), 0, "estimators: hist_window must be in [1, 10**7]"),
    (("estimators", "hist_window"), 10**7 + 1, "estimators: hist_window must be in [1, 10**7]"),
    (("estimators", "hist_window"), 10**12, "estimators: hist_window must be in [1, 10**7]"),
    (("allocator", "qwin", "policy_window"), 0, "allocator.qwin: policy_window must be >= 1"),
    (("allocator", "qwin", "min_tail_samples"), 0,
     "allocator.qwin: min_tail_samples must be >= 1"),
    (("allocator", "qwin", "slack_low_us"), 2000,
     "allocator.qwin: slack_low_us must be <= slack_high_us"),
    (("allocator", "qwin", "pin"), "bogus",
     "allocator.qwin: unknown pin 'bogus' (known: conservative, aggressive, slo_aware)"),
    (("allocator", "shenango", "probe_interval_us"), 0,
     "allocator.shenango: probe_interval_us must be > 0"),
    (("allocator", "cake", "interval_s"), 0, "allocator.cake: interval_s must be > 0"),
    (("allocator", "cake", "step"), 0, "allocator.cake: step must be >= 1"),
    (("allocator", "cake", "headroom"), 0.0, "allocator.cake: headroom must be in (0, 1]"),
    (("allocator", "cake", "headroom"), 1.5, "allocator.cake: headroom must be in (0, 1]"),
    (("allocator", "cake", "min_samples"), 0, "allocator.cake: min_samples must be >= 1"),
    (("allocator", "static", "counts"), {"lc0": 2, "nope": 2},
     "allocator.static: static counts name unknown LC tenants: ['nope']"),
    (("allocator", "static", "counts"), {},
     "allocator.static: static counts missing LC tenants: ['lc0']"),
    (("allocator", "static", "counts"), {"lc0": 0},
     "allocator.static: every static count must be >= 1"),
    (("allocator", "static", "counts"), {"lc0": 9},
     "allocator.static: static counts sum to 9 > pool total 8"),
    (("tenants", 0, "slo", "quantile"), 0.0, f"{LC0}.slo: quantile must be in (0, 1)"),
    (("tenants", 0, "slo", "quantile"), 1.0, f"{LC0}.slo: quantile must be in (0, 1)"),
    (("tenants", 0, "slo", "latency_ms"), 0, f"{LC0}.slo: latency_ms must be > 0"),
    (("tenants", 0, "workload", "mode"), "weird",
     f"{LC0}.workload: unknown mode 'weird' (known: closed_loop, open_loop)"),
    (("tenants", 0, "workload", "read_ratio"), -0.1,
     f"{LC0}.workload: read_ratio must be in [0, 1]"),
    (("tenants", 0, "workload", "read_ratio"), 1.2,
     f"{LC0}.workload: read_ratio must be in [0, 1]"),
    *((("tenants", 0, "workload", "sizes"), sizes,
       f"{LC0}.workload.sizes must be [[bytes, weight], ...]: not empty, each > 0")
      for sizes in ([], [[0, 1.0]], [[4096, 0.0]])),
    (("tenants", 0, "workload", "iodepth"), 0, f"{LC0}.workload: iodepth must be >= 1"),
    (("tenants", 0, "workload", "numjobs"), 0, f"{LC0}.workload: numjobs must be >= 1"),
    (("tenants", 0, "workload", "rate_per_s"), 0.0,
     f"{LC0}.workload: open loop needs rate_per_s > 0"),
    (("tenants", 0, "workload", "rate_per_s"), 1e15,
     f"{LC0}.workload: rate_per_s must be <= 10**9"),
    (("tenants", 1, "workload"), {"mode": CLOSED, "iodepth": 10**6, "numjobs": 10**6},
     "tenants[1] (be0).workload: iodepth * numjobs must be <= 10**5"),
    (("tenants", 1, "workload"), {"mode": CLOSED, "iodepth": 1_001, "numjobs": 100},
     "tenants[1] (be0).workload: iodepth * numjobs must be <= 10**5"),
    (("tenants", 0, "workload", "burst", "on_s"), 0, f"{LC0}.workload.burst: on_s must be > 0"),
    (("tenants", 0, "workload", "burst", "off_s"), -1,
     f"{LC0}.workload.burst: off_s must be >= 0"),
    (("tenants", 0, "workload", "burst", "rate_per_s"), 0,
     f"{LC0}.workload.burst: rate_per_s must be in (0, 10**9]"),
    (("tenants", 0, "workload", "burst", "rate_per_s"), 1e15,
     f"{LC0}.workload.burst: rate_per_s must be in (0, 10**9]"),
]


@pytest.mark.parametrize("path,value,line", REJECTED, ids=[
    f"{'.'.join(map(str, p))}={v!r}".replace(" ", "") for p, v, _ in REJECTED])
def test_bad_value_gives_its_error(path, value, line):
    d = copy.deepcopy(BASE)
    _set(d, path, value)
    with pytest.raises(ConfigError) as ei:
        parse_config(d)
    assert ei.value.errors == [line]


def test_a_value_at_an_upper_bound_parses():
    d = {**scenario("duo"), "duration_s": 4.6e9, "interval_s": 4.6e3, "pool": {"total": 4096},
         "device": {"capacity": 4096}, "estimators": {"hist_window": 10**7}}
    cfg = parse_config(d)
    assert (cfg.pool_total, cfg.device.capacity, cfg.estimators.hist_window) == (4096, 4096, 10**7)
    assert cfg.duration_ns == 4_600_000_000 * 10**9
    d = scenario("burst-duo")
    d["tenants"][0]["workload"]["rate_per_s"] = 1e9
    d["tenants"][0]["workload"]["burst"]["rate_per_s"] = 1e9
    d["tenants"][1]["workload"] = {"mode": CLOSED, "iodepth": 1_000, "numjobs": 100}
    lc, be = (t.spec() for t in parse_config(d).tenants)
    assert (lc.rate_per_s, lc.burst.rate_per_s, be.in_flight_cap) == (1e9, 1e9, 10**5)


def test_a_run_holds_at_most_a_million_metric_intervals():
    # Each interval writes a row per tenant and an estimator row per LC
    # tenant, whether or not anything happened in it.
    cfg = parse_config(_minimal(duration_s=1.0, interval_s=1e-6))
    assert (cfg.duration_ns, cfg.interval_ns) == (10**9, 10**3)
    with pytest.raises(ConfigError) as ei:
        parse_config(_minimal(duration_s=1.000001, interval_s=1e-6))
    assert ei.value.errors == [
        "duration_s / interval_s must be <= 10**6 metric intervals, got 1000001"]


@pytest.mark.parametrize("text, key, line, column", [
    ("seed: 1\nname: dup\nseed: 2\n", "seed", 3, 1),
    ("device:\n  sigma: 0.3\n  capacity: 4\n  sigma: 0.5\n", "sigma", 4, 3),
], ids=["top-level", "nested"])
def test_read_yaml_rejects_a_repeated_key(text, key, line, column):
    # The later value would silently win, as a mistyped key would silently default.
    with pytest.raises(ConfigError) as ei:
        read_yaml(text)
    [error] = ei.value.errors
    assert error.startswith(f"not valid YAML: duplicate key {key!r}\n")
    assert f"line {line}, column {column}" in error


def test_every_bound_in_the_schema_is_in_the_rejection_table():
    need = Counter()
    for keys in SCHEMA.values():
        for k in (sub for k in keys for sub in (k.type if k.attr is None else (k,))):
            if k.bound:   # one end, or both ends of an interval
                need[f"{k.name} must be {k.bound}"] += 2 if k.bound.startswith("in") else 1
    have = Counter(line.rsplit(": ", 1)[-1] for _, _, line in REJECTED)
    assert not need - have, need - have


def test_every_problem_in_a_section_is_listed():
    d = {**scenario("duo"), "device": {"sigma": -1, "p_spike": 2, "capacity": 0}}
    with pytest.raises(ConfigError) as ei:
        parse_config(d)
    assert ei.value.errors == ["device: sigma must be >= 0",
                               "device: p_spike must be in [0, 1]",
                               "device: capacity must be in [1, 4096]"]


def test_errors_name_the_keys_a_user_writes():
    d = scenario("burst-duo")
    d["allocator"] = {"qwin": {"slack_low_us": 2000, "slack_high_us": 1000},
                      "shenango": {"probe_interval_us": 0.0004},   # 0.4 ns rounds to 0
                      "cake": {"interval_s": 0}}
    d["tenants"][0]["workload"]["burst"].update(on_s=0, off_s=-1)
    with pytest.raises(ConfigError) as ei:
        parse_config(d)
    assert ei.value.errors == [
        "allocator.qwin: slack_low_us must be <= slack_high_us",
        "allocator.shenango: probe_interval_us must be > 0",
        "allocator.cake: interval_s must be > 0",
        f"{LC0}.workload.burst: on_s must be > 0",
        f"{LC0}.workload.burst: off_s must be >= 0",
    ]


@pytest.mark.parametrize("setting", [
    {"burst": {"on_s": 1.0, "off_s": 4.0, "rate_per_s": 48000.0}},
    {"rate_per_s": 100.0},
], ids=["burst", "rate_per_s"])
def test_closed_loop_rejects_an_open_loop_setting(tmp_path, setting):
    # A closed loop's arrivals are its completions, so either would be ignored.
    d = scenario("duo")
    d["tenants"][0]["workload"] = {"mode": CLOSED, **setting}
    with pytest.raises(ConfigError) as ei:
        parse_config(d)
    assert ei.value.errors == [f"{LC0}.workload: closed loop takes no rate_per_s or burst"]
    r = _cli(tmp_path, yaml.safe_dump(d))
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert "closed loop takes no rate_per_s or burst" in r.stderr


def test_integral_floats_are_accepted_where_an_integer_is_expected():
    cfg = parse_config(_minimal(pool={"total": 4.0}, device={"capacity": 2.0}))
    assert (cfg.pool_total, cfg.device.capacity) == (4, 2)
    assert isinstance(cfg.pool_total, int)


def _cli(tmp_path, text, flags=("--validate-only",)):
    p = tmp_path / "bad.yaml"
    p.write_text(text)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(qwinsim.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [pkg_root, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "qwinsim", "--config", str(p), *flags],
        capture_output=True, text=True, env=env)


@pytest.mark.parametrize("text,message", [
    ("tenants: [\n  - a\n", "not valid YAML"),
    ("duration_s: abc\n", "duration_s must be a number"),
    ("tenants: " + "[" * 3000 + "]" * 3000 + "\n", "not valid YAML"),
])
def test_cli_reports_a_bad_config_file_without_a_traceback(tmp_path, text, message):
    r = _cli(tmp_path, text)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert message in r.stderr


# Device curves whose derived service times leave the float range, and the
# duo tenants each one breaks (lc0 reads 4 KiB, be0 64 KiB).
CURVE_OVERFLOWS = {
    "sigma": ({"sigma": 40}, ["lc0"]),                 # nominal mean: exp(800)
    "size_exponent": ({"size_exponent": 300}, ["be0"]),  # median: 16 ** 300
    "ref_block_bytes": ({"ref_block_bytes": 10 ** 360},  # size / ref: 0.0
                        ["lc0", "be0"]),
}


@pytest.mark.parametrize("case", list(CURVE_OVERFLOWS))
def test_device_curve_out_of_the_float_range_is_a_config_error(tmp_path, case):
    device, broken = CURVE_OVERFLOWS[case]
    d = {**scenario("duo"), "duration_s": 0.1, "device": device}
    with pytest.raises(ConfigError) as ei:
        parse_config(d)
    assert ei.value.errors == [f"device: a service time of tenant {t} is not "
                               f"finite and > 0" for t in broken]
    out = tmp_path / "out"
    for flags in (("--validate-only",), ("--out", str(out))):
        r = _cli(tmp_path, yaml.safe_dump(d), flags)
        assert r.returncode == 2 and "Traceback" not in r.stderr
        assert f"device: a service time of tenant {broken[0]}" in r.stderr
    assert not out.exists()


def _paths(tree, prefix=()):
    yield prefix
    items = tree.items() if isinstance(tree, dict) else \
        enumerate(tree) if isinstance(tree, list) else ()
    for key, sub in items:
        yield from _paths(sub, prefix + (key,))


JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, -10**400]),
    st.integers(), st.floats(),
    st.lists(st.one_of(st.integers(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.one_of(st.text(max_size=3), st.integers(), st.none()),
                    st.one_of(st.integers(), st.text(max_size=2), st.none()),
                    max_size=2))
# Values at and beside the edges of the bounds in BOUNDS, and one of each other YAML kind.
BOUNDARY = st.sampled_from([0, 1, 1e-10, -0.1, 10**400, float("nan"), "x", [1],
                            {"x": 1}, None])

# The keys a user writes, and the attributes they are stored under that no
# user writes (duration_ns, pool_total, tenant_class, ...).
USER_KEYS = {k.name for keys in SCHEMA.values() for k in keys}
USER_KEYS |= {sub.name for keys in SCHEMA.values() for k in keys if k.attr is None
              for sub in k.type}
INTERNAL = {f.name for cls in SCHEMA for f in fields(cls)} - USER_KEYS


def _names_a_user_key(line):
    words = set(re.findall(r"[A-Za-z_]\w*", line))
    return not words & INTERNAL and (
        bool(words & USER_KEYS) or "unknown key " in line
        or line == "config root must be a mapping")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_any_mangled_config_parses_or_raises_config_error(data):
    # Start from a scenario's full serialised tree, so every section is there,
    # and set 1-3 of its paths (the root included) to a boundary or junk value.
    name = data.draw(st.sampled_from(SCENARIOS))
    tree = yaml.safe_load(parse_config(scenario(name)).to_yaml())
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(tree))))
        # A copy: a later path may lie inside it, and BOUNDARY's list and
        # mapping are the same objects in every example.
        value = copy.deepcopy(data.draw(st.one_of(BOUNDARY, JUNK)))
        if path:
            _set(tree, path, value)
        else:
            tree = value
    # The only outcomes: a ConfigError whose every line names a key the user
    # writes, or a config that reads back from its own YAML unchanged.
    try:
        cfg = parse_config(tree)
    except ConfigError as e:
        assert e.errors
        bad = [line for line in e.errors if not _names_a_user_key(line)]
        assert not bad, bad
        return
    assert parse_config(read_yaml(cfg.to_yaml())) == cfg


def test_readme_config_block_parses():
    with open(README) as f:
        text = f.read().split("\n## Configuration\n", 1)[1]
    block = text.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(read_yaml(block))
    assert parse_config(read_yaml(cfg.to_yaml())) == cfg
    # Every value shown is the default, but the static counts and the tenants.
    shown_defaults = replace(cfg, tenants=(), allocator=replace(
        cfg.allocator, static=AllocatorConfig().static))
    assert shown_defaults == ExperimentConfig()
    # The block lists every key the schema accepts.
    shown = {k for p in _paths(yaml.safe_load(block)) for k in p if isinstance(k, str)}
    assert USER_KEYS <= shown, sorted(USER_KEYS - shown)


# ---------------------------------------------------------------------------
# Serialization round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SCENARIOS)
def test_yaml_round_trip_is_lossless(name):
    cfg = parse_config(scenario(name))
    again = parse_config(read_yaml(cfg.to_yaml()))
    assert again == cfg


def test_inline_open_loop_burst_round_trips():
    d = _minimal()
    d["tenants"][0]["workload"] = {
        "mode": OPEN, "rate_per_s": 9000.0, "sizes": [[4096, 0.5], [8192, 0.5]],
        "read_ratio": 0.75,
        "burst": {"on_s": 0.5, "off_s": 2.0, "rate_per_s": 36000.0}}
    cfg = parse_config(d)
    spec = cfg.tenants[0].spec()
    assert spec.mode == OPEN and spec.burst.rate_per_s == 36000.0
    assert spec.burst.on_ns == 500_000_000 and spec.burst.off_ns == 2_000_000_000
    assert parse_config(read_yaml(cfg.to_yaml())) == cfg


def test_read_yaml_reads_a_plain_exponent_as_a_float():
    # YAML 1.1 reads a float only with a dot; 1e-1 would be the string '1e-1'.
    assert read_yaml("a: 1e-1\nb: 2E+0\nc: 1.5e+20\nd: -3e2\ne: '1e-1'\nf: 1e\n") == {
        "a": 0.1, "b": 2.0, "c": 1.5e20, "d": -300.0, "e": "1e-1", "f": "1e"}


@pytest.mark.parametrize("text, ns", [("1e-1", 100_000_000), ("2E+0", 2_000_000_000),
                                      ("1.5e+0", 1_500_000_000)])
def test_a_config_file_may_write_a_number_in_exponent_form(text, ns):
    cfg = parse_config(read_yaml(yaml.safe_dump(_minimal()) + f"duration_s: {text}\n"))
    assert cfg.duration_ns == ns
    with pytest.raises(ConfigError, match="duration_s must be a number"):
        parse_config(read_yaml(yaml.safe_dump(_minimal()) + f"duration_s: '{text}'\n"))


def test_read_yaml_reads_yaml_files(tmp_path):
    cfg = parse_config(scenario("duo"))
    p = tmp_path / "duo.yaml"
    p.write_text(cfg.to_yaml())
    with open(p, "rb") as f:
        assert parse_config(read_yaml(f)) == cfg


# ---------------------------------------------------------------------------
# Scenarios and identifiers
# ---------------------------------------------------------------------------


def test_scenario_catalog():
    duo = parse_config(scenario("duo"))
    assert [t.label for t in duo.tenants] == ["lc0", "be0"]
    assert duo.tenants[0].workload == "C"
    assert duo.tenants[0].slo.latency_ns == 4_000_000
    assert duo.tenants[1].workload == "H"

    g1 = parse_config(scenario("group1"))
    assert len(g1.tenants) == 6
    assert len(g1.lc_tenants()) == 3
    assert sum(t.tenant_class == "be" for t in g1.tenants) == 3

    burst = parse_config(scenario("burst-duo"))
    spec = burst.tenants[0].spec()
    assert spec.mode == OPEN and spec.rate_per_s == 12000.0
    assert spec.burst.on_ns == 1_000_000_000
    assert spec.burst.off_ns == 4_000_000_000
    assert spec.burst.rate_per_s == 48000.0

    with pytest.raises(KeyError):
        scenario("nope")


def test_run_and_allocator_identifiers():
    cfg = parse_config(scenario("duo"))
    assert cfg.allocator_id() == "qwin"
    assert cfg.run_id() == "duo-qwin-s1"
    assert parse_config({**scenario("duo"), "seed": 5}).run_id() == "duo-qwin-s5"
    pinned = parse_config(scenario("duo") |
                          {"seed": 3, "allocator": {"kind": "qwin",
                                                    "qwin": {"pin": "aggressive"}}})
    assert pinned.allocator_id() == "qwin-aggressive"
    assert pinned.run_id() == "duo-qwin-aggressive-s3"
    cake = parse_config(scenario("duo") | {"allocator": {"kind": "cake"}})
    assert cake.allocator_id() == "cake"


def test_readme_registry_and_cli_name_the_same_allocator_kinds():
    with open(README) as f:
        text = f.read().split("\n## Allocators\n", 1)[1].split("\n## ", 1)[0]
    table = [line.split("|")[1].strip().strip("`") for line in text.splitlines()
             if line.startswith("| `")]
    assert table == list(ALLOCATORS)
    # The schema alone checks --allocator; its help names the same kinds.
    help_text = next(a.help for a in harness._build_arg_parser()._actions
                     if a.dest == "allocator")
    assert help_text.endswith(": " + ", ".join(table))
    # one params section per kind that takes params, named after the kind
    sections = [f.name for f in fields(AllocatorConfig) if f.name != "kind"]
    assert sections == [k for k, cls in ALLOCATORS.items() if cls.Params]


def test_configs_are_frozen():
    cfg = parse_config(_minimal())
    with pytest.raises(AttributeError):
        cfg.seed = 9
