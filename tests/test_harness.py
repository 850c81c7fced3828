"""Experiment harness: wiring, artifact emission, sweeps, and the CLI."""

import argparse
import csv
import json
import os
import subprocess
import sys
from collections import deque

import pytest

import qwinsim
from qwinsim.backend import Backend
from qwinsim.config import ALLOCATORS, ConfigError, parse_config, scenario
from qwinsim.device import _N_BUCKETS, ServiceEstimator, _service_bucket, _service_bucket_edge
from qwinsim.harness import (_assemble_config, _build_arg_parser, _parse_seeds,
                             build, main, run_experiment, sweep)
from qwinsim.sim_core import Engine
from qwinsim.workload import CLOSED

ARTIFACTS = {"latency.csv", "intervals.csv", "alloc_trace.csv", "windows.csv",
             "policy_trace.csv", "transfers.csv", "estimators.csv",
             "report.json"}


def _short_duo(**over):
    d = scenario("duo")
    d.update({"duration_s": 0.4, "warmup_s": 0.1})
    d.update(over)
    return parse_config(d)


def _by_label(sim):
    return {t.label: t for t in sim.backend.tenants}


# ---------------------------------------------------------------------------
# build(): wiring
# ---------------------------------------------------------------------------


def test_build_wires_tenants_estimators_and_allocator():
    cfg = parse_config({**scenario("duo"), "seed": 5})
    sim = build(cfg)
    assert sim.hub.run_id == "duo-qwin-s5"
    lc = _by_label(sim)["lc0"]
    be = _by_label(sim)["be0"]
    assert lc.lc and not be.lc
    assert be.estimator is None
    # the estimator starts from the device's analytic curve at the tenant's
    # dominant request shape (preset C: 4 KiB reads, tail at the SLO quantile)
    est = lc.estimator
    assert est.mean_ns == cfg.device.nominal_mean_ns(True, 4096)
    assert est.tail_ns == round(cfg.device.nominal_quantile_ns(True, 4096, 0.999))
    assert type(sim.allocator).__name__ == "QwinAllocator"
    assert sim.backend.pool_total == 8


def test_build_seeds_nominals_from_dominant_size_and_direction():
    d = scenario("duo")
    d["tenants"][0] = {
        "label": "lc0", "class": "lc",
        "workload": {"mode": CLOSED, "iodepth": 4, "numjobs": 1,
                     "sizes": [[4096, 0.25], [65536, 0.75]],
                     "read_ratio": 0.4},
        "slo": {"quantile": 0.999, "latency_ms": 4.0}}
    cfg = parse_config(d)
    est = _by_label(build(cfg))["lc0"].estimator
    # mostly-write 64 KiB mix: nominals come from the write curve at 64 KiB
    assert est.mean_ns == cfg.device.nominal_mean_ns(False, 65536)
    assert est.tail_ns == round(cfg.device.nominal_quantile_ns(False, 65536, 0.999))


@pytest.mark.parametrize("window_end", ["complete", "dequeue"])
def test_build_sets_each_lc_tenants_window_end(window_end):
    sim = build(_short_duo(window_end=window_end))
    assert _by_label(sim)["lc0"].end_on_complete == (window_end == "complete")
    # The tenant holds the rule; the backend takes no copy of it.
    with pytest.raises(TypeError):
        Backend(sim.engine, sim.device, 8, sim.hub, window_end=window_end)


def test_estimator_scope_tenant_vs_device():
    d = scenario("group1")
    per_tenant = build(parse_config(d))
    ids = {id(_by_label(per_tenant)[f"lc{i}"].estimator) for i in range(3)}
    assert len(ids) == 3
    d["estimators"] = {"scope": "device"}
    shared = build(parse_config(d))
    ids = {id(_by_label(shared)[f"lc{i}"].estimator) for i in range(3)}
    assert len(ids) == 1


# Allocator kind -> whether its LC estimators defer the tail to the reads:
# only qwin reads them between metric ticks.
DEFERRED = {"qwin": False, "static": True, "priority": True, "shenango": True,
            "cake": True}


@pytest.mark.parametrize("kind", sorted(DEFERRED))
def test_only_allocators_that_never_read_estimators_defer_them(kind, monkeypatch):
    assert set(DEFERRED) == set(ALLOCATORS)
    # Each estimator's highest sample bucket; log_sample binds the patched update.
    top = {}
    update = ServiceEstimator.update

    def tracked(est, x):
        top[id(est)] = max(top.get(id(est), 0), _service_bucket(x))
        update(est, x)

    monkeypatch.setattr(ServiceEstimator, "update", tracked)
    d = scenario("group1")
    d.update({"duration_s": 0.2, "interval_s": 0.1,
              "estimators": {"hist_window": 50},
              "allocator": {"kind": kind,
                            "static": {"counts": {"lc0": 2, "lc1": 2, "lc2": 1}}}})
    sim = run_experiment(parse_config(d), write=False).sim
    for t in sim.backend.lc_tenants:
        est = t.estimator
        assert est.samples > est.window
        tail = est.tail_ns
        if DEFERRED[kind]:
            # No histogram and no ring; a read leaves the last window of samples.
            assert est._counts is None and est._ring is None and id(est) not in top
            assert len(est._win) == est.window and not est._log
            assert tail == _service_bucket_edge(_service_bucket(sorted(est._win)[est._need_full - 1]))
        else:
            assert est._log is None and est._win is None and isinstance(est._ring, deque)
            # The histogram ends at the highest bucket any sample has reached,
            # though that sample may have left the window since.
            assert len(est._counts) == top[id(est)] + 1 < _N_BUCKETS
            assert max(est._ring) < len(est._counts) and sum(est._counts) == est.window


# ---------------------------------------------------------------------------
# run_experiment(): artifacts and report
# ---------------------------------------------------------------------------


def test_run_experiment_writes_every_artifact(tmp_path):
    res = run_experiment(_short_duo(out_dir=str(tmp_path)))
    assert set(res.paths) == ARTIFACTS
    run_dir = tmp_path / "duo-qwin-s1"
    for name, p in res.paths.items():
        assert p == str(run_dir / name)
        assert os.path.getsize(p) > 0
    rep = json.loads((run_dir / "report.json").read_text())
    assert rep == res.report
    assert rep["run_id"] == "duo-qwin-s1"
    assert rep["completed"] > 0
    assert set(rep["tenants"]) == {"lc0", "be0"}
    assert rep["slo_met_all"] == rep["tenants"]["lc0"]["slo_met"]
    assert rep["tenants"]["be0"]["bandwidth_bytes_per_s"] > 0


def test_run_without_write_leaves_no_files(tmp_path):
    res = run_experiment(_short_duo(out_dir=str(tmp_path)), write=False)
    assert res.paths == {}
    assert list(tmp_path.iterdir()) == []
    assert res.report["completed"] > 0


def test_slo_verdict_recomputable_from_latency_csv(tmp_path):
    res = run_experiment(_short_duo(out_dir=str(tmp_path)))
    with open(res.paths["latency.csv"]) as f:
        rows = [r for r in csv.DictReader(f) if r["tenant"] == "lc0"]
    assert [r["quantile"] for r in rows] == ["0.5", "0.9", "0.99", "0.999"]
    assert all(r["class"] == "lc" for r in rows)
    tail = int(rows[-1]["cumulative_tail_ns"])
    rep = res.report["tenants"]["lc0"]
    assert tail == rep["tail_ns"]
    assert (tail <= rep["slo_ns"]) == rep["slo_met"]


def test_completion_at_the_end_instant_is_counted_when_intervals_divide_the_run():
    # The duration is three whole intervals and a completion lands exactly at
    # the end, after the last metric tick has run: it must still reach the
    # tenant's requests and the last interval row.
    cfg = _short_duo(warmup_s=0, duration_s=0.250024125, interval_s=0.083341375)
    assert cfg.duration_ns == 3 * cfg.interval_ns
    res = run_experiment(cfg, write=False)
    hub, rep = res.sim.hub, res.report
    assert rep["completed"] == 17817
    assert sum(t["requests"] for t in rep["tenants"].values()) == 17817
    assert {r[1] for r in hub.interval_rows} == {0, 1, 2}
    secs = cfg.interval_ns / 1e9
    for label, tm in hub.tenants.items():
        interval_bytes = sum(float(r[4]) * secs for r in hub.interval_rows if r[2] == label)
        assert interval_bytes == pytest.approx(tm.c_bytes, rel=1e-9, abs=0)


def test_a_label_and_name_holding_a_comma_give_well_formed_csvs(tmp_path):
    d = scenario("duo")
    d["name"] = "duo,x"
    d["tenants"][0]["label"] = "lc,0"
    res = run_experiment(parse_config({**d, "duration_s": 0.4, "out_dir": str(tmp_path)}))
    for name, path in res.paths.items():
        if name.endswith(".csv"):
            with open(path, newline="") as f:
                header, *rows = csv.reader(f)
            assert all(len(row) == len(header) for row in rows), name
    with open(res.paths["intervals.csv"], newline="") as f:
        rows = list(csv.DictReader(f))
    assert {r["tenant"] for r in rows} == {"lc,0", "be0"}
    assert {r["run_id"] for r in rows} == {"duo,x-qwin-s1"}


def test_interval_rows_cover_each_tenant_per_interval(tmp_path):
    cfg = _short_duo(duration_s=2.0, warmup_s=0.5, interval_s=0.5, out_dir=str(tmp_path))
    res = run_experiment(cfg)
    with open(res.paths["intervals.csv"]) as f:
        rows = list(csv.DictReader(f))
    # 4 intervals x 2 tenants
    assert len(rows) == 8
    assert sorted({r["interval"] for r in rows}) == ["0", "1", "2", "3"]
    for r in rows:
        if r["tenant"] == "lc0":
            assert r["tail_ns"] != ""
        else:
            assert r["tail_ns"] == ""
        assert float(r["bandwidth_bytes_per_s"]) >= 0.0
        assert float(r["mean_cores"]) >= 0.0


# ---------------------------------------------------------------------------
# sweep()
# ---------------------------------------------------------------------------


def test_sweep_returns_one_run_per_seed_in_order():
    results = sweep(_short_duo(), seeds=[2, 1], write=False)
    assert [r.run_id for r in results] == ["duo-qwin-s2", "duo-qwin-s1"]
    assert [r.report["seed"] for r in results] == [2, 1]
    assert all(r.paths == {} for r in results)
    assert all(r.sim is None for r in results)


@pytest.mark.parametrize("seeds,message", [([1, 1], "seeds must be distinct"),
                                           ([2, 3, 2], "seeds must be distinct"),
                                           ([-1], "seeds must be non-negative")])
def test_sweep_rejects_a_bad_seed_before_running(tmp_path, seeds, message):
    with pytest.raises(ConfigError, match=message):
        sweep(_short_duo(duration_s=0.2, out_dir=str(tmp_path)), seeds)
    assert list(tmp_path.iterdir()) == []


def test_sweep_results_keep_no_simulation():
    # Each Simulation is dropped (and collected) once its report is taken,
    # so a sweep's memory does not grow with the seed count.
    results = sweep(_short_duo(duration_s=0.2), seeds=[1, 2, 3], write=False)
    assert len(results) == 3
    assert all(r.sim is None for r in results)
    assert run_experiment(_short_duo(duration_s=0.2), write=False).sim is not None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_parse_seeds_forms():
    assert _parse_seeds("3..6") == [3, 4, 5, 6]
    assert _parse_seeds("1,5,9") == [1, 5, 9]
    assert _parse_seeds("4") == [4]
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_seeds("6..3")


def test_cli_validate_only(capsys):
    assert main(["--scenario", "duo", "--validate-only"]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out and "duo-qwin-s1" in out


def test_cli_pin_and_allocator_flags(capsys):
    assert main(["--scenario", "duo", "--pin", "aggressive",
                 "--validate-only"]) == 0
    assert "duo-qwin-aggressive-s1" in capsys.readouterr().out
    assert main(["--scenario", "duo", "--allocator", "cake",
                 "--validate-only"]) == 0
    assert "duo-cake-s1" in capsys.readouterr().out


def test_cli_rejects_a_pin_beside_another_allocator(tmp_path, capsys):
    assert main(["--scenario", "duo", "--allocator", "cake", "--pin", "aggressive",
                 "--validate-only"]) == 2
    p = tmp_path / "pinned.yaml"
    p.write_text("allocator: {kind: priority, qwin: {pin: slo_aware}}\n")
    assert main(["--scenario", "duo", "--config", str(p), "--validate-only"]) == 2
    assert capsys.readouterr() == ("", (
        "invalid config:\n"
        "  - allocator.qwin.pin: only the qwin allocator pins a policy, not 'cake'\n"
        "invalid config:\n"
        "  - allocator.qwin.pin: only the qwin allocator pins a policy, not 'priority'\n"))


def test_cli_lists_a_bad_flag_with_the_config_files_problems(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("device: {sigma: -1}\n")
    assert main(["--scenario", "duo", "--config", str(p), "--allocator", "bogus",
                 "--pin", "never", "--validate-only"]) == 2
    assert capsys.readouterr().err == (
        "invalid config:\n"
        "  - device: sigma must be >= 0\n"
        "  - allocator: unknown kind 'bogus' (known: qwin, static, priority, shenango, cake)\n"
        "  - allocator.qwin: unknown pin 'never' (known: conservative, aggressive, slo_aware)\n")


def test_validate_only_rejects_a_repeated_key(tmp_path, capsys):
    p = tmp_path / "dup.yaml"
    p.write_text("seed: 1\nseed: 2\n")
    assert main(["--scenario", "duo", "--config", str(p), "--validate-only"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:\n  - not valid YAML: duplicate key 'seed'\n")
    assert f'in "{p}", line 2, column 1' in err


def test_cli_rejects_invalid_config(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("tenants: []\n")
    assert main(["--config", str(p)]) == 2
    assert "at least one tenant" in capsys.readouterr().err


def test_cli_flag_reports_a_section_that_is_not_a_mapping(tmp_path, capsys):
    # --allocator sets a key inside the allocator section; a section that is
    # not a mapping is left for parse_config to report.
    p = tmp_path / "bad.yaml"
    p.write_text("allocator: x\n")
    assert main(["--scenario", "duo", "--config", str(p), "--allocator", "cake",
                 "--validate-only"]) == 2
    assert "allocator must be a mapping" in capsys.readouterr().err


def test_cli_requires_scenario_or_config(capsys):
    assert main([]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_cli_reports_unreadable_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.yaml")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_single_run_writes_artifacts(tmp_path, capsys):
    rc = main(["--scenario", "duo", "--duration", "0.3", "--warmup", "0.05",
               "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "artifacts:" in out
    assert ("MET" in out) or ("MISSED" in out)
    run_dir = tmp_path / "duo-qwin-s2"
    assert {p.name for p in run_dir.iterdir()} == ARTIFACTS


def test_cli_seed_sweep(tmp_path, capsys):
    # At 0.3 s group3 meets lc0's SLO in fewer seeds than lc1's and lc2's,
    # so the lines are checked in order, not only as a set.
    rc = main(["--scenario", "group3", "--duration", "0.3", "--warmup", "0.05",
               "--seeds", "1..3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    reports = [json.loads((tmp_path / f"group3-qwin-s{s}" / "report.json").read_text())
               for s in (1, 2, 3)]
    # One verdict line per LC tenant, in config order, counting the seeds
    # whose report.json says the tenant met its SLO.
    met = {label: sum(r["tenants"][label]["slo_met"] for r in reports)
           for label in ("lc0", "lc1", "lc2")}
    assert [line for line in out.splitlines() if "SLO met in" in line] == [
        f"{label}: SLO met in {k}/3 seeds" for label, k in met.items()]


def test_cli_precedence_scenario_then_file_then_flags(tmp_path):
    p = tmp_path / "o.yaml"
    p.write_text("duration_s: 0.25\nseed: 7\n")
    parser = _build_arg_parser()
    cfg = _assemble_config(parser.parse_args(
        ["--scenario", "duo", "--config", str(p)]))
    assert cfg.duration_ns == 250_000_000 and cfg.seed == 7
    cfg = _assemble_config(parser.parse_args(
        ["--scenario", "duo", "--config", str(p), "--seed", "9"]))
    assert cfg.seed == 9


def _child_env():
    # A child may start in "/", where a relative PYTHONPATH entry (such as
    # PYTHONPATH=src) would resolve against "/" instead; hand it absolute
    # paths, led by the directory the imported package came from.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        qwinsim.__file__)))
    inherited = [os.path.abspath(e) for e in
                 os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([pkg_root, *inherited])}


def test_module_entry_point_runs_from_anywhere():
    r = subprocess.run(
        [sys.executable, "-m", "qwinsim", "--scenario", "duo",
         "--validate-only"],
        capture_output=True, text=True, cwd="/", env=_child_env())
    assert r.returncode == 0
    assert "config OK" in r.stdout


DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs_from_anywhere(tmp_path, demo):
    r = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                       capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()


@pytest.mark.parametrize("seeds", ["--seeds=1,-2", "--seeds=-3..-1"])
def test_cli_rejects_a_negative_seed_before_running(tmp_path, seeds):
    r = subprocess.run(
        [sys.executable, "-m", "qwinsim", "--scenario", "duo", seeds,
         "--duration", "0.01", "--out", str(tmp_path)],
        capture_output=True, text=True, env=_child_env())
    assert r.returncode == 2
    assert "seeds must be non-negative, got" in r.stderr
    assert "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["--seeds=1,1", "--seeds=2,3,2"])
def test_cli_rejects_a_repeated_seed_before_running(tmp_path, seeds):
    # Each repeat would run into the same run directory and count twice.
    r = subprocess.run(
        [sys.executable, "-m", "qwinsim", "--scenario", "duo", seeds,
         "--duration", "0.01", "--out", str(tmp_path)],
        capture_output=True, text=True, env=_child_env())
    assert r.returncode == 2
    assert "seeds must be distinct, got" in r.stderr
    assert "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\tb", "a\x1bb"])
def test_cli_rejects_a_name_holding_a_control_character(tmp_path, name):
    # It would split run_id cells and the run directory's name.
    cfg = tmp_path / "run.yaml"
    cfg.write_text(json.dumps({"name": name}))
    out = tmp_path / "out"
    r = subprocess.run(
        [sys.executable, "-m", "qwinsim", "--scenario", "duo", "--config", str(cfg),
         "--duration", "0.01", "--out", str(out)],
        capture_output=True, text=True, env=_child_env())
    assert r.returncode == 2
    assert "name must be a plain file name" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("seeds", [("--seed", "1"), ("--seeds", "1,2")], ids=["seed", "seeds"])
def test_cli_rejects_an_out_that_is_a_file_before_running(tmp_path, seeds):
    # The output directory is made before any run, so a file there costs no
    # simulation and gives no traceback.
    out = tmp_path / "taken"
    out.write_text("keep\n")
    r = subprocess.run(
        [sys.executable, "-m", "qwinsim", "--scenario", "duo", *seeds,
         "--duration", "0.01", "--out", str(out)],
        capture_output=True, text=True, env=_child_env())
    assert r.returncode == 2
    assert f"cannot write results under {out}:" in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("run", [run_experiment, lambda cfg: sweep(cfg, [1, 2])],
                         ids=["run_experiment", "sweep"])
def test_an_unusable_run_directory_fails_before_simulating(tmp_path, monkeypatch, run):
    out = tmp_path / "taken"
    out.write_text("keep\n")
    calls = []
    monkeypatch.setattr(Engine, "run_until", lambda self, end: calls.append(end))
    with pytest.raises(NotADirectoryError):
        run(parse_config({**scenario("duo"), "duration_s": 0.01, "out_dir": str(out)}))
    assert calls == [] and out.read_text() == "keep\n"


def _burst_duo_workloads(lc=None, burst=None, be=None):
    """burst-duo's tenant list with lc0's workload, its burst and be0's workload updated."""
    tenants = scenario("burst-duo")["tenants"]
    tenants[0]["workload"].update(lc or {})
    tenants[0]["workload"]["burst"].update(burst or {})
    if be:
        tenants[1]["workload"] = be
    return tenants


@pytest.mark.parametrize("over, line", [
    ({"pool": {"total": 4097}}, "pool: total must be in [1, 4096]"),
    ({"device": {"capacity": 4097}}, "device: capacity must be in [1, 4096]"),
    ({"estimators": {"hist_window": 10**12}}, "estimators: hist_window must be in [1, 10**7]"),
    ({"duration_s": 5e9}, "duration_s must be in (0, 2**62 ns)"),
    # Each gap of an open loop this fast rounds to 0 ns, so time would stop.
    ({"tenants": _burst_duo_workloads(lc={"rate_per_s": 1e15})},
     "tenants[0] (lc0).workload: rate_per_s must be <= 10**9"),
    ({"tenants": _burst_duo_workloads(burst={"rate_per_s": 1e15})},
     "tenants[0] (lc0).workload.burst: rate_per_s must be in (0, 10**9]"),
    # A closed loop would make 10**12 requests at t=0.
    ({"tenants": _burst_duo_workloads(be={"mode": CLOSED, "iodepth": 10**6, "numjobs": 10**6})},
     "tenants[1] (be0).workload: iodepth * numjobs must be <= 10**5"),
    # One more interval than the bound; 10**6 at 1 s would parse.
    ({"duration_s": 1.000001, "interval_s": 1e-6},
     "duration_s / interval_s must be <= 10**6 metric intervals, got 1000001"),
], ids=["pool.total", "device.capacity", "estimators.hist_window", "duration_s",
        "rate_per_s", "burst.rate_per_s", "iodepth*numjobs", "intervals"])
def test_validate_only_rejects_a_value_past_its_upper_bound(tmp_path, capsys, over, line):
    cfg, out = tmp_path / "big.yaml", tmp_path / "out"
    cfg.write_text(json.dumps({**scenario("duo"), **over}))   # JSON text is YAML
    assert main(["--config", str(cfg), "--out", str(out), "--validate-only"]) == 2
    assert capsys.readouterr().err == f"invalid config:\n  - {line}\n"
    assert not out.exists()


def test_a_scenario_run_never_loads_pyyaml(tmp_path):
    # Only reading or writing YAML loads PyYAML; the same run from a config
    # file loads it and writes the same bytes.
    cfg = tmp_path / "duo.yaml"
    cfg.write_text(parse_config(scenario("duo")).to_yaml())
    a, b = tmp_path / "a", tmp_path / "b"
    code = "\n".join((
        "import sys",
        "from qwinsim.harness import main",
        f"main(['--scenario', 'duo', '--duration', '0.01', '--out', {str(a)!r}])",
        "print('yaml' in sys.modules, file=sys.stderr)",
        f"main(['--config', {str(cfg)!r}, '--duration', '0.01', '--out', {str(b)!r}])",
        "print('yaml' in sys.modules, file=sys.stderr)"))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd="/", env=_child_env())
    assert r.returncode == 0, r.stderr
    assert r.stderr.split() == ["False", "True"]
    written = [{p.name: p.read_bytes() for p in (d / "duo-qwin-s1").iterdir()} for d in (a, b)]
    assert set(written[0]) == ARTIFACTS
    assert written[0] == written[1]


def test_validate_only_accepts_a_number_in_exponent_form(tmp_path, capsys):
    cfg = tmp_path / "short.yaml"
    cfg.write_text("duration_s: 1e-1\nwarmup_s: 2E-2\n")
    assert main(["--scenario", "duo", "--config", str(cfg), "--validate-only"]) == 0
    assert capsys.readouterr().out.startswith("config OK: duo-qwin-s1")


def test_validate_only_rejects_a_repeated_seed(capsys):
    # A sweep would reject it, so --validate-only does not call it OK.
    assert main(["--scenario", "duo", "--seeds", "1,1", "--validate-only"]) == 2
    assert "seeds must be distinct" in capsys.readouterr().err


def test_cli_rejects_seed_beside_seeds_before_running(tmp_path):
    # One flag would be ignored, so the two are mutually exclusive.
    r = subprocess.run(
        [sys.executable, "-m", "qwinsim", "--scenario", "duo", "--seed", "5",
         "--seeds", "1..2", "--duration", "0.01", "--out", str(tmp_path)],
        capture_output=True, text=True, env=_child_env())
    assert r.returncode == 2
    assert "not allowed with argument" in r.stderr
    assert "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_deferred_estimator_log_stays_bounded_in_a_run_read_only_at_its_end(monkeypatch):
    # interval_s above duration_s: the metric tick reads the estimators once,
    # at the end, so only the metrics folds settle their logs before it.  A
    # settle then finds at most one fold period (2^27 ns) of one LC tenant's
    # completions, about 1,200 here; unsettled, each log would grow to all
    # of its tenant's samples.
    sizes = []
    settle = ServiceEstimator.settle

    def spy(est):
        sizes.append(len(est._log))
        settle(est)

    monkeypatch.setattr(ServiceEstimator, "settle", spy)
    d = scenario("group2")
    d.update({"duration_s": 2.0, "interval_s": 3.0,
              "allocator": {"kind": "static",
                            "static": {"counts": {"lc0": 2, "lc1": 2, "lc2": 1}}}})
    sim = run_experiment(parse_config(d), write=False).sim
    assert len(sim.hub.estimator_rows) == 3   # one read per LC tenant
    assert min(t.estimator.samples for t in sim.backend.lc_tenants) > 6 * 1_300
    assert max(sizes) <= 1_300


def test_check_invariants_holds_under_python_O():
    # -O strips assert statements; the end-of-run check must still fire.
    code = "\n".join((
        "from qwinsim.config import parse_config, scenario",
        "from qwinsim.harness import build",
        "assert False, 'asserts are on'",
        "sim = build(parse_config(scenario('duo')))",
        "sim.backend.be_count += 3",
        "sim.backend.check_invariants()"))
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True, cwd="/", env=_child_env())
    assert r.returncode == 1
    assert "asserts are on" not in r.stderr
    assert "core conservation broken: 1 LC + 10 BE != 8" in r.stderr
