import csv
import gc
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hasimoto_lab.cli import (DEFAULTS, EXPERIMENTS, SCHEMA, _fmt, _with,
                              list_experiments, main, resolve_config, validate,
                              write_csv)
import hasimoto_lab
import hasimoto_lab.cli as cli
from hasimoto_lab.fields import ConfigurationError, periodic_grid
from hasimoto_lab.heat import heat_integrate
from hasimoto_lab.llg import StepConfig
from hasimoto_lab.noise import make_noise_model
from hasimoto_lab.stochastic import history_specs, run_sllg_ensemble, spec_sizes
from hasimoto_lab.validation import (covariance_checks, holonomy_defect,
                                     identity_suite, localized_twist)
from reference import crosscheck_levels
from test_validation import standard_pairs


def run_cli(*args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_catalog_covers_all_experiments(capsys):
    assert len(EXPERIMENTS) == 7
    assert set(DEFAULTS) == set(EXPERIMENTS)
    assert run_cli("list-experiments") == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert list_experiments().startswith("available experiments:")


@pytest.mark.parametrize("argv", [["list-experiments"], ["identities"]],
                         ids=["list-experiments", "runner"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, argv):
    # stdout is a pipe whose reader is gone before the run starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(hasimoto_lab.__file__))
    out = tmp_path / "run"
    if argv[0] != "list-experiments":       # which takes no --out
        argv = [*argv, "--out", str(out)]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hasimoto_lab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
    if argv[0] != "list-experiments":
        assert read_json(out / "manifest.json")["status"] == "complete"


def console_script() -> tuple:
    """(module, function) of pyproject.toml's hasimoto-lab script."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        return re.search(r'^hasimoto-lab = "([\w.]+):(\w+)"$', fh.read(), re.M).groups()


@pytest.mark.parametrize("start", [
    "runpy.run_module('hasimoto_lab.cli', run_name='__main__', alter_sys=True)",
    "sys.exit(getattr(importlib.import_module({0!r}), {1!r})())"],
    ids=["python -m", "console script"])
def test_command_line_freezes_the_import_heap(start):
    # the process's collector skips the import heap from the start of main()
    # on, in forked workers and at shutdown
    code = ("import atexit, gc, importlib, runpy, sys\n"
            "print(gc.get_freeze_count(), file=sys.stderr)\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.argv = ['hasimoto-lab', 'list-experiments']\n"
            + start.format(*console_script()))
    src = os.path.dirname(os.path.dirname(hasimoto_lab.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stderr.split())
    assert before == 0 and after > 0


def test_main_in_process_freezes_nothing(tmp_path):
    before = gc.get_freeze_count()
    assert run_cli("identities", "--set", "n=64", "--out", str(tmp_path / "i")) == 0
    assert gc.get_freeze_count() == before


def test_llg_smoke(tmp_path):
    out = tmp_path / "llg"
    rc = run_cli("llg", "--out", str(out), "--set", "n=32",
                 "--set", "t_end=0.01")
    assert rc == 0
    report = read_json(out / "report.json")
    assert report["unit_deviation_max"] <= 1e-12
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "complete"
    assert manifest["master_seed"] is None          # a deterministic run has no seed
    assert "series_u.csv" in manifest["outputs"]
    assert (out / "series_u.csv").exists()


def test_crosscheck_smoke(tmp_path):
    out = tmp_path / "cc"
    rc = run_cli("crosscheck", "--out", str(out),
                 "--set", "grid_sizes=32,64", "--set", "x_min=-60.0",
                 "--set", "t_end=0.01")
    assert rc == 0
    report = read_json(out / "report.json")
    assert len(report["levels"]) == 2
    assert (out / "series_discrepancy.csv").exists()


def test_crosscheck_runs_one_level(tmp_path):
    out = tmp_path / "cc1"
    assert run_cli("crosscheck", "--out", str(out), "--set", "grid_sizes=32",
                   "--set", "x_min=-60.0", "--set", "t_end=0.01") == 0
    report = read_json(out / "report.json")
    assert [lv["n"] for lv in report["levels"]] == [32] and report["orders"] == []


def test_identities_smoke(tmp_path):
    out = tmp_path / "ident"
    assert run_cli("identities", "--out", str(out)) == 0
    report = read_json(out / "report.json")
    assert not report["skipped"]
    assert report["lagrange_max_rel"] <= 1e-10


def test_sllg_smoke_and_byte_determinism(tmp_path, use_cpus, no_child_left):
    # on 2 CPUs a forked child computes the weak residual while the parent
    # writes the CSV; on 1 CPU the parent does both
    args = ("sllg", "--set", "n=32", "--set", "t_end=0.002",
            "--set", "n_paths=2", "--set", "n_modes=2", "--seed", "5")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for cpus, out in ((1, out1), (2, out2)):
        use_cpus(cpus)
        assert run_cli(*args, "--out", str(out)) == 0
        no_child_left()
    for name in ("series_u.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert read_json(out1 / "manifest.json")["master_seed"] == 5
    out3 = tmp_path / "c"
    assert run_cli(*args[:-1], "6", "--out", str(out3)) == 0
    assert (out1 / "report.json").read_bytes() != (out3 / "report.json").read_bytes()


def test_failing_residual_job_fails_manifest(tmp_path, capsys, monkeypatch,
                                            use_cpus, no_child_left):
    parent = os.getpid()

    def broken(ens, phi):
        raise RuntimeError(f"residual in a child: {os.getpid() != parent}\nsecond line")

    monkeypatch.setattr(cli, "sllg_weak_residual", broken)
    use_cpus(2)
    out = tmp_path / "broken"
    assert run_cli("sllg", "--set", "n=32", "--set", "t_end=0.002",
                   "--set", "n_paths=2", "--out", str(out)) == 1
    no_child_left()
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["error_type"] == "RuntimeError"
    assert "Traceback" in manifest["traceback"]
    assert not (out / "report.json").exists()
    err = capsys.readouterr().err
    assert err == "run failed: RuntimeError: residual in a child: True second line\n"


def test_holonomy_smoke(tmp_path):
    out = tmp_path / "hol"
    rc = run_cli("holonomy", "--out", str(out), "--set", "n=64",
                 "--set", "t_end=0.01")
    assert rc == 0
    report = read_json(out / "report.json")
    assert report["separation"] > 1.0


def test_holonomy_defaults_pass_the_decay_monitor(tmp_path):
    # the default twist has decayed by x_min = -45; at -30 it was still
    # ~1e-5 of its peak there and the run reported decay_ok false
    out = tmp_path / "hol"
    assert run_cli("holonomy", "--out", str(out)) == 0
    assert read_json(out / "report.json")["decay_ok"] is True


def test_covariance_smoke(tmp_path):
    out = tmp_path / "cov"
    rc = run_cli("covariance", "--out", str(out), "--set", "n=32",
                 "--set", "t_end=0.002", "--set", "n_paths=20",
                 "--set", "n_modes=2")
    assert rc == 0
    report = read_json(out / "report.json")
    assert set(report["pairs"]) == {"phi1_phi2", "phi1_phi1", "phi2_phi3"}


# Small runs of the checks that write their report as it is returned
SMALL_CHECKS = {"identities": {"n": "64"}, "holonomy": {"n": "64", "t_end": "0.01"},
                "covariance": {"n": "32", "t_end": "0.002", "n_paths": "20",
                               "n_modes": "2"}}


def test_report_entries_are_the_library_calls_on_the_plan(tmp_path):
    reports = {}
    for experiment, sets in SMALL_CHECKS.items():
        out = tmp_path / experiment
        assert run_cli(experiment, "--out", str(out),
                       *(f"--set={key}={val}" for key, val in sets.items())) == 0
        reports[experiment] = read_json(out / "report.json")
    as_json = lambda rep: json.loads(json.dumps(rep))

    _, c = plan("identities", SMALL_CHECKS["identities"])
    assert reports["identities"] == as_json(identity_suite(c["x0"], c["g"]))

    _, c = plan("holonomy", SMALL_CHECKS["holonomy"])
    g, cfg = c["g"], c["solver"]
    q_path = np.array(heat_integrate(c["x0"], g, cfg).states)
    frozen = np.array([c["x0"]] * len(q_path))
    for key, path in (("solution", q_path), ("frozen_control", frozen)):
        assert reports["holonomy"][key] == as_json(
            holonomy_defect(path, g, cfg.alpha, cfg.beta, cfg.dt))

    _, c = plan("covariance", SMALL_CHECKS["covariance"])
    ens = run_sllg_ensemble(c["x0"], c["noise"], c["solver"], c["master_seed"],
                            c["n_paths"])
    pairs = covariance_checks(ens, standard_pairs(c["g"]))
    assert list(reports["covariance"]["pairs"].values()) == as_json(pairs)


def test_covariance_stdout_lists_each_pairs_keys_in_report_order(tmp_path, capsys):
    assert run_cli("covariance", "--out", str(tmp_path / "cov"), *(
        f"--set={key}={val}" for key, val in SMALL_CHECKS["covariance"].items())) == 0
    keys = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    for name in ("phi1_phi1", "phi1_phi2", "phi2_phi3"):
        prefix = f"pairs.{name}."
        assert [k.removeprefix(prefix) for k in keys if k.startswith(prefix)] == [
            "mc_estimate", "mc_ci3", "direct", "n_paths", "t", "within_3sigma"]


def test_unknown_key_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "bad"
    rc = run_cli("llg", "--out", str(out), "--set", "bogus=1")
    assert rc == 2
    assert not out.exists()
    assert "unknown config key" in capsys.readouterr().err


def test_unknown_key_does_not_hide_the_time_step_checks(tmp_path, capsys):
    out = tmp_path / "bad"
    assert run_cli("llg", "--out", str(out), "--set", "bogus=1", "--set", "dt=0.003",
                   "--set", "t_end=0.01") == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: unknown config key 'bogus' for experiment llg",
        "config error: dt=0.003 does not divide t_end=0.01 (3.33333 steps)"]
    assert not out.exists()


def test_all_violations_reported(tmp_path, capsys):
    out = tmp_path / "bad2"
    rc = run_cli("heat", "--out", str(out), "--set", "alpha=-1",
                 "--set", "t_end=-2", "--set", "n=32")
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha" in err and "t_end" in err
    assert not out.exists()


def test_missing_initial_file_exits_2(tmp_path):
    out = tmp_path / "bad3"
    rc = run_cli("heat", "--out", str(out), "--set", "initial_data=file",
                 "--set", "initial_file=/no/such/file.csv")
    assert rc == 2
    assert not out.exists()


def test_initial_file_heat(tmp_path):
    n = 32
    path = tmp_path / "q0.csv"
    lines = ["re,im"] + [f"0.2,0.0" for _ in range(n)]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "hf"
    rc = run_cli("heat", "--out", str(out), "--set", f"n={n}",
                 "--set", "initial_data=file",
                 "--set", f"initial_file={path}", "--set", "t_end=0.005")
    assert rc == 0


def test_great_circle_must_close_on_circle(tmp_path):
    out = tmp_path / "gc"
    rc = run_cli("llg", "--out", str(out), "--set", "k=0.5")
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("sets,refused", [
    (["k=31"], None), (["k=32"], "k=32.0 is more than n=64 nodes resolve: |k| h = 3.14159"),
    (["k=40"], "k=40.0 is more than n=64 nodes resolve: |k| h = 3.92699"),
    (["domain=line", "x_min=-1e6", "x_max=1e6"],
     "k=1.0 is more than n=64 nodes resolve: |k| h = 31746")],
    ids=["k=31", "k=32", "k=40", "line"])
def test_great_circle_must_be_resolved_by_its_nodes(tmp_path, capsys, sets, refused):
    # k = 40 on the 64-node circle samples the k = -24 circle: |k| h must stay
    # below pi, on the line too
    args = ["llg", "--set", "t_end=0", *(a for kv in sets for a in ("--set", kv))]
    if refused is None:
        assert run_cli(*args, "--out", str(tmp_path / "llg")) == 0
    else:
        assert assert_config_error(tmp_path, capsys, *args) == (
            f"config error: great-circle {refused} needs to be < pi\n")


def test_out_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HASIMOTO_LAB_OUT", str(tmp_path / "envruns"))
    rc = run_cli("identities", "--set", "n=64")
    assert rc == 0
    assert (tmp_path / "envruns" / "identities" / "report.json").exists()


@pytest.mark.parametrize("experiment", ["sllg", "covariance", "holonomy"])
def test_stochastic_zero_steps_rejected(tmp_path, capsys, experiment):
    # a check over no step would read 0 and pass vacuously
    out = tmp_path / "zero"
    rc = run_cli(experiment, "--out", str(out), "--set", "n=32",
                 "--set", "t_end=0")
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gives no time step" in err


def test_crosscheck_zero_steps_rejected(tmp_path, capsys):
    # with no step, every level's discrepancy is 0 and orders would be []
    out = tmp_path / "zero"
    assert run_cli("crosscheck", "--out", str(out), "--set", "t_end=0") == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gives no time step" in err


@pytest.mark.parametrize("experiment", ["sllg", "covariance"])
def test_stochastic_noise_on_the_line_rejected_up_front(tmp_path, capsys, experiment):
    # the spectral noise basis lives on the circle, and no mode is no noise
    out = tmp_path / "line"
    rc = run_cli(experiment, "--out", str(out), "--set", "domain=line",
                 "--set", "n=32", "--set", "t_end=0.002", "--set", "n_modes=2")
    assert rc == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(ln.startswith("config error:") for ln in lines)
    assert "spectral noise basis requires a periodic grid" in lines[0]
    assert run_cli(experiment, "--out", str(out), "--set", "domain=line",
                   "--set", "n=32", "--set", "t_end=0.002", "--set", "n_modes=0") == 2
    assert not out.exists()
    assert "n_modes='0' invalid (need int >= 1)" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["sllg", "covariance"])
def test_stochastic_needs_two_paths(tmp_path, capsys, experiment):
    # one path has no spread: its stderr and 3-sigma band would read 0
    out = tmp_path / "one"
    rc = run_cli(experiment, "--out", str(out), "--set", "n=32",
                 "--set", "t_end=0.002", "--set", "n_paths=1")
    assert rc == 2
    assert not out.exists()
    assert "n_paths" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["sllg", "covariance"])
def test_underflowed_noise_refused_after_the_run(tmp_path, capsys, experiment):
    # noise of amplitude 1e-300 moves no path's statistic: every path gives
    # the same residual or product, whose standard error would read 0
    out = tmp_path / "tiny"
    rc = run_cli(experiment, "--out", str(out), "--set", "coeff_amplitude=1e-300",
                 "--set", "n=32", "--set", "t_end=0.002", "--set", "n_paths=4")
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: all 4 paths give the same")
    assert err[0].endswith("no spread (the noise is zero or underflows)")
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["error_type"] == "ConfigurationError"
    # the manifest lists no output, and none is left: sllg removes its CSV
    assert manifest["outputs"] == [] and os.listdir(out) == ["manifest.json"]


def wrap_everywhere(monkeypatch, module, name, counted):
    """Wrap module.name in every package module that holds it; returns the
    list that each call for which counted(*args) holds appends its args to."""
    orig, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        if counted(*args):
            calls.append(args)
        return orig(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("hasimoto_lab") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_crosscheck_marches_each_initial_frame_once(tmp_path, monkeypatch):
    import hasimoto_lab.hashimoto as hashimoto
    marches = wrap_everywhere(monkeypatch, hashimoto, "reconstruct_frame",
                              lambda q, *rest: True)
    assert run_cli("crosscheck", "--out", str(tmp_path / "cc")) == 0
    sizes = [int(n) for n in DEFAULTS["crosscheck"]["grid_sizes"].split(",")]
    assert [len(q) for q, *_ in marches] == sizes


def plan(experiment, sets):
    """The resolved strings and validate's plan of experiment with sets."""
    errors = []
    raw, typed = resolve_config(experiment, list(sets.items()), errors)
    c = validate(experiment, typed, errors)
    assert errors == [] and c is not None
    return raw, c


def assert_same_levels(levels, want):
    """Equal (grid, initial data, StepConfig) levels, arrays bit for bit."""
    assert len(levels) == len(want)
    for (g, x0, cfg), (wg, wx0, wcfg) in zip(levels, want):
        assert (g.kind, g.n, g.h) == (wg.kind, wg.n, wg.h)
        assert np.array_equal(g.x, wg.x) and np.array_equal(x0, wx0)
        assert cfg == wcfg


# The defaults sample every state; the fine level here takes 59 steps
CROSSCHECK_SETS = [{}, {"grid_sizes": "64,512", "x_min": "-30.0", "alpha": "0.5"}]


@pytest.mark.parametrize("sets", CROSSCHECK_SETS, ids=["defaults", "strided"])
def test_crosscheck_levels_are_the_llg_plan_on_the_line(sets):
    raw, c = plan("crosscheck", sets)
    shared = {k: v for k, v in raw.items() if k in DEFAULTS["llg"]}
    want = []
    for n in c["grid_sizes"]:
        _, llg = plan("llg", dict(shared, n=str(n), dt="auto", output_stride="auto"))
        want.append((llg["g"], llg["x0"], llg["solver"]))
    assert_same_levels(c["levels"], want)
    assert sets == {} or max(cfg.output_stride for *_, cfg in c["levels"]) > 1


@pytest.mark.parametrize("sets", CROSSCHECK_SETS, ids=["defaults", "strided"])
def test_reference_crosscheck_levels_match_validate(sets):
    # the tests' copy of the dt and stride rules must not drift from the CLI's
    _, c = plan("crosscheck", sets)
    twist = lambda x: localized_twist(x, *(c[k] for k in ("amplitude", "width",
                                                          "center")))
    assert_same_levels(c["levels"], crosscheck_levels(
        twist, *(c[k] for k in ("x_min", "x_max", "alpha", "beta", "t_end",
                                "grid_sizes"))))


def test_sllg_builds_its_noise_model_and_initial_frame_once(tmp_path, monkeypatch):
    # the march of the paths builds its (K + 1, P) frame fields as one batch;
    # q0 alone is marched once, by validate, for its overflow refusal
    import hasimoto_lab.hashimoto as hashimoto
    import hasimoto_lab.noise as noise
    models = wrap_everywhere(monkeypatch, noise, "make_noise_model", lambda *args: True)
    marches = wrap_everywhere(monkeypatch, hashimoto, "reconstruct_frame",
                              lambda q, *rest: q.ndim == 1)
    assert run_cli("sllg", "--out", str(tmp_path / "sllg")) == 0
    assert len(models) == 1
    assert len(marches) == 1


# h q = 1.25e199 on this great circle squares to inf in the frame march's angle
OVERFLOWING_FRAME = ["--set", "domain=periodic", "--set", "initial_data=great-circle",
                     "--set", "circumference=1e200", "--set", "n=8"]


def test_heat_marches_no_frame(tmp_path, monkeypatch):
    # heat never builds a frame, so a q0 whose frame march overflows runs: q = 1
    # steps to the exact phase e^{i beta t / 2}, with a finite mass
    import hasimoto_lab.hashimoto as hashimoto
    marches = wrap_everywhere(monkeypatch, hashimoto, "reconstruct_frame",
                              lambda *args: True)
    out = tmp_path / "heat"
    assert run_cli("heat", *OVERFLOWING_FRAME, "--set", "t_end=0.01",
                   "--set", "dt=0.001", "--out", str(out)) == 0
    assert marches == []
    assert np.isfinite(read_json(out / "report.json")["mass_final"])


@pytest.mark.parametrize("experiment", ["sllg", "covariance", "holonomy"])
def test_frame_experiments_refuse_an_overflowing_frame_march_up_front(tmp_path, capsys,
                                                                      experiment):
    assert assert_config_error(tmp_path, capsys, experiment, *OVERFLOWING_FRAME) == (
        "config error: the initial frame overflows to inf or nan\n")


def test_unexpected_error_fails_manifest(tmp_path, capsys, monkeypatch):

    def broken(u, g):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "identity_suite", broken)
    out = tmp_path / "broken"
    assert run_cli("identities", "--out", str(out)) == 1
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["error_type"] == "RuntimeError"
    assert "Traceback" in manifest["traceback"]
    err = capsys.readouterr().err
    assert err == "run failed: RuntimeError: boom second line\n"


@pytest.mark.parametrize("report,key", [
    ({"x": np.nan}, "x = nan"),
    ({"a": 1.0, "levels": [{"disc": [0.5, -np.inf]}]}, "levels[0].disc[1] = -inf")])
def test_non_finite_report_fails_without_report_json(tmp_path, capsys, monkeypatch,
                                                      report, key):
    # JSON has no NaN or infinity: the run fails, and nothing it wrote is kept

    def runner(c, outdir):
        with open(os.path.join(outdir, "series_x.csv"), "w") as fh:
            fh.write("x\n")
        return report, ["series_x.csv"]

    monkeypatch.setitem(EXPERIMENTS, "identities", (runner, EXPERIMENTS["identities"][1]))
    out = tmp_path / "run"
    assert run_cli("identities", "--out", str(out)) == 1
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "failed" and manifest["outputs"] == []
    assert manifest["error"] == f"{key} is not a finite number, which JSON cannot hold"
    assert sorted(os.listdir(out)) == ["manifest.json"]
    err = capsys.readouterr().err
    assert err == f"run failed: ValueError: {manifest['error']}\n"


def test_unparsable_initial_file_exits_2(tmp_path, capsys):
    path = tmp_path / "q0.csv"
    path.write_text("re,im\n" + "foo,bar\n" * 32)
    out = tmp_path / "bad4"
    rc = run_cli("heat", "--out", str(out), "--set", "n=32",
                 "--set", "initial_data=file", "--set", f"initial_file={path}")
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: initial_file")
    assert "Traceback" not in err


def test_initial_file_with_wrong_columns_exits_2(tmp_path, capsys):
    # an initial_file holds q for every experiment: rows of unit vectors are refused
    path = tmp_path / "u0.csv"
    path.write_text("ux,uy,uz\n" + "0.0,0.0,1.0\n" * 32)
    for experiment in ("llg", "identities", "heat"):
        err = assert_config_error(tmp_path, capsys, experiment, "--set", "n=32",
                                  "--set", "initial_data=file", "--set", f"initial_file={path}")
        assert err == "config error: initial_file must have 32 rows of re,im; got (32, 3)\n"


@pytest.mark.parametrize("experiment,outputs", [
    ("llg", ["series_u.csv", "report.json"]), ("identities", ["report.json"])])
def test_u_runs_from_a_q_file_equal_their_twist_runs(tmp_path, experiment, outputs):
    # u0 is the frame march of the file's q, as it is of the twist's (both
    # experiments' default twist, on their default line at n = 64)
    q0 = localized_twist(np.linspace(-90.0, 20.0, 64), 0.25, 6.0, -15.0)
    path = tmp_path / "twist_q.csv"
    path.write_text("re,im\n" + "".join(
        f"{re!r},{im!r}\n" for re, im in zip(q0.real.tolist(), q0.imag.tolist())))
    args = [experiment, "--set", "domain=line", "--set", "n=64"]
    if experiment == "llg":
        args += ["--set", "t_end=0.01"]
    assert run_cli(*args, "--set", "initial_data=localized-twist",
                   "--out", str(tmp_path / "twist")) == 0
    assert run_cli(*args, "--set", "initial_data=file", "--set", f"initial_file={path}",
                   "--out", str(tmp_path / "file")) == 0
    for name in outputs:
        assert (tmp_path / "file" / name).read_bytes() == \
            (tmp_path / "twist" / name).read_bytes(), name


def rowwise_csv(path, header, rows):
    # the row-list writer that write_csv replaced
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def test_write_csv_matches_rowwise_writer(tmp_path):
    edge = np.array([np.nan, np.inf, -np.inf, -0.0, 1e16, 5e-324, 0.1, -2.5])
    nodes = np.arange(len(edge))
    frames = [(np.float64(0.5), nodes, edge, 3, np.int64(-7), np.float32(0.1)),
              (1e16, nodes, edge, True, np.nan, -0.0),
              (np.float64(-0.0), nodes, edge[::-1].copy(), 0, np.inf, 5e-324)]
    rows = [tuple(c[j] if np.ndim(c) else c for c in frame)
            for frame in frames for j in range(len(edge))]
    header = ["t", "node", "v", "a", "b", "c"]
    write_csv(tmp_path / "streamed.csv", header, iter(frames))
    rowwise_csv(tmp_path / "rows.csv", header, rows)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_writes_str_array_cells_as_they_are(tmp_path):
    # a str column of "node,x" cells, formatted once, writes the bytes of the
    # node and x columns formatted in every frame
    x = np.array([-0.0, 0.1, 1e16, 5e-324, -2.5])
    nodes = np.arange(len(x))
    node_x = np.array([f"{j},{v!r}" for j, v in enumerate(x.tolist())])
    u = np.linspace(0.0, 1.0, len(x))
    header = ["t", "node", "x", "u"]
    write_csv(tmp_path / "cells.csv", header,
              iter([(0.5, node_x, u), (np.float64(1.0), node_x, -u)]))
    write_csv(tmp_path / "numbers.csv", header,
              iter([(0.5, nodes, x, u), (np.float64(1.0), nodes, x, -u)]))
    assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "numbers.csv").read_bytes()


def test_sllg_csv_is_path_zero_exactly(tmp_path):
    args = ("sllg", "--set", "n=32", "--set", "t_end=0.003", "--set", "n_paths=3",
            "--set", "n_modes=3", "--set", "output_stride=2", "--seed", "9")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert (out1 / "series_u.csv").read_bytes() == (out2 / "series_u.csv").read_bytes()
    g = periodic_grid(2.0 * np.pi, 32)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=0.001, t_end=0.003)
    q0 = np.ones(g.n, complex)
    ens = run_sllg_ensemble(q0, make_noise_model(g, 3), cfg, 9, 3)
    with open(out1 / "series_u.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "node", "x", "ux", "uy", "uz"]
    data = np.array(rows[1:], dtype=float).reshape(-1, g.n, 6)
    keep = [0, 2, 3]                    # stride 2, and the final step
    assert np.array_equal(data[:, 0, 0], ens.times[keep])
    assert np.array_equal(data[:, :, 1], np.tile(np.arange(g.n), (3, 1)))
    assert np.array_equal(data[:, :, 2], np.tile(g.x, (3, 1)))
    assert np.array_equal(data[:, :, 3:], ens.u[keep, 0])


@pytest.mark.parametrize("experiment,setting", [
    (e, s) for e in ("llg", "heat", "sllg", "crosscheck", "holonomy", "covariance")
    for s in ("t_end=inf", "t_end=nan", "dt=inf", "dt=nan")])
def test_non_finite_time_rejected(tmp_path, capsys, experiment, setting):
    out = tmp_path / "inf"
    rc = run_cli(experiment, "--out", str(out), "--set", "n=32", "--set", setting)
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("experiment", ["llg", "heat", "sllg", "holonomy",
                                        "covariance"])
def test_dt_must_divide_t_end(tmp_path, capsys, experiment):
    # 0.01 / 0.003 is 3.33 steps: the run would end at t = 0.009
    out = tmp_path / "trunc"
    rc = run_cli(experiment, "--out", str(out), "--set", "n=16",
                 "--set", "dt=0.003", "--set", "t_end=0.01")
    assert rc == 2
    assert not out.exists()
    assert "does not divide" in capsys.readouterr().err


def test_unexpected_validation_error_is_a_config_error(tmp_path, capsys, monkeypatch):

    def broken(*args):
        raise OverflowError("boom\nsecond line")

    monkeypatch.setattr(cli, "auto_dt", broken)
    out = tmp_path / "broken"
    assert run_cli("llg", "--out", str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "config error: OverflowError: boom second line\n"


@pytest.mark.parametrize("experiment", ["llg", "heat", "crosscheck"])
def test_infinite_auto_dt_rejected(tmp_path, capsys, experiment):
    # no stability bound and no time span: 90% of stable_dt is inf, which
    # report.json would carry as the invalid JSON token Infinity
    out = tmp_path / "inf_dt"
    rc = run_cli(experiment, "--out", str(out), "--set", "alpha=0",
                 "--set", "beta=0", "--set", "t_end=0", "--set", "n=16")
    assert rc == 2
    assert not out.exists()
    assert "automatic dt is inf" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "dt=inf", "dt=0.001", "output_stride=7", "n=2", "n=64", "circumference=6.0",
    "basepoint_index=4", "k=3", "initial_file=q0.csv"])
def test_crosscheck_rejects_keys_it_does_not_use(tmp_path, capsys, setting):
    # crosscheck picks each level's dt and sampling stride itself, builds its
    # own line grids and has only localized-twist data
    out = tmp_path / "cc_keys"
    rc = run_cli("crosscheck", "--out", str(out), "--set", setting)
    assert rc == 2
    assert not out.exists()
    assert "unknown config key" in capsys.readouterr().err


def assert_config_error(tmp_path, capsys, *args):
    """The call exits 2 with config errors only, and creates no output directory."""
    out = tmp_path / "refused"
    assert run_cli(*args, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err and all(ln.startswith("config error: ") for ln in err.splitlines())
    return err


@pytest.mark.parametrize("experiment,setting", [
    ("identities", "alpha=1.0"), ("identities", "beta=1.0"), ("identities", "dt=0.001"),
    ("identities", "t_end=0.1"), ("identities", "output_stride=2"),
    ("holonomy", "output_stride=2"), ("covariance", "output_stride=2"),
    ("sllg", "x_min=-1e6"), ("covariance", "x_max=7.0"),
    ("llg", "basepoint_index=0"), ("heat", "basepoint_index=0")]
    + [(e, "power=3") for e in EXPERIMENTS]
    + [(e, s) for e in ("sllg", "covariance")
       for s in ("coeff_profile=flat", "coeff_decay=1.0")])
def test_experiment_rejects_keys_it_does_not_read(tmp_path, capsys, experiment, setting):
    err = assert_config_error(tmp_path, capsys, experiment, "--set", setting)
    assert "unknown config key" in err


def test_crosscheck_runs_on_the_line_only(tmp_path, capsys):
    err = assert_config_error(tmp_path, capsys, "crosscheck", "--set", "domain=periodic")
    assert "domain=line" in err


@pytest.mark.parametrize("args", [("heat", "--set", "domain=line"),
                                  ("holonomy", "--set", "initial_data=great-circle")])
def test_q_flow_on_the_line_from_a_great_circle_is_refused(tmp_path, capsys, args):
    # q = k does not decay at x_min, where the nonlocal term stands in for
    # -infinity: the run would report decay_ok false, or blow up (holonomy)
    err = assert_config_error(tmp_path, capsys, *args, "--set", "t_end=0.01")
    assert err == (f"config error: {args[0]} on the line needs data that decays at "
                   "x_min, and great-circle's q = k does not: set "
                   "initial_data=localized-twist or file\n")


def test_line_runs_from_a_great_circle_or_a_file_still_run(tmp_path, capsys):
    # the great circle is a stationary LLG solution on the line, up to the end
    # stencils; file data that does not decay is flagged only by the run
    out = tmp_path / "llg"
    assert run_cli("llg", "--set", "domain=line", "--set", "t_end=0.01",
                   "--out", str(out)) == 0
    path = tmp_path / "q0.csv"
    path.write_text("re,im\n" + "0.2,0.0\n" * 64)
    out = tmp_path / "heat"
    assert run_cli("heat", "--set", "domain=line", "--set", "t_end=0.01",
                   "--set", "initial_data=file", "--set", f"initial_file={path}",
                   "--out", str(out)) == 0
    assert read_json(out / "report.json")["decay_ok"] is False


def validate_errors(experiment, sets):
    """validate's errors for experiment with sets, which resolve_config accepts."""
    errors = []
    _, typed = resolve_config(experiment, list(sets.items()), errors)
    assert errors == []
    assert (validate(experiment, typed, errors) is None) == bool(errors)
    return errors


@pytest.mark.parametrize("experiment,sets", [
    ("llg", {"dt": "1e-300"}), ("heat", {"t_end": "1e300", "dt": "0.001"}),
    ("sllg", {"t_end": "1e6"}), ("crosscheck", {"alpha": "1e300"}),
    ("holonomy", {"t_end": "1e9", "dt": "0.01"})])
def test_validate_refuses_a_run_over_the_work_bound(experiment, sets):
    # ~1e300 steps (a tiny dt, or dt=auto at a huge alpha) used to validate
    # and then run until killed, leaving the manifest in running
    assert cli.MAX_NODE_STEPS == 1e11
    assert validate_errors(experiment, sets) == [
        "the run asks for more than 1e+11 node steps (n x steps x paths, summed over "
        "its flows)"]


@pytest.mark.parametrize("experiment,sets", [
    ("sllg", {"n_paths": "7", "t_end": "0.005"}), ("heat", {"n": "48"}),
    ("crosscheck", {"grid_sizes": "16,32,64", "t_end": "0.05"})])
def test_work_bound_counts_nodes_steps_paths_and_every_flow(monkeypatch, experiment,
                                                            sets):
    # n x steps x paths, summed over crosscheck's levels and both its flows;
    # a run at the bound runs, one node step over it is refused
    _, c = plan(experiment, sets)
    levels = c.get("levels") or [(c["g"], c["x0"], c["solver"])]
    work = (2 if experiment == "crosscheck" else c.get("n_paths", 1)) * sum(
        g.n * cfg.n_steps for g, _, cfg in levels)
    monkeypatch.setattr(cli, "MAX_NODE_STEPS", work)
    assert validate_errors(experiment, sets) == []
    monkeypatch.setattr(cli, "MAX_NODE_STEPS", work - 1)
    assert len(validate_errors(experiment, sets)) == 1


@pytest.mark.parametrize("experiment,n_paths,refused", [
    ("sllg", "473", False), ("sllg", "474", True), ("covariance", "473", False),
    ("covariance", "474", True), ("sllg", "500", True)])
def test_validate_refuses_an_ensemble_over_the_memory_bound(experiment, n_paths, refused):
    # 100 steps at n = 1024 map 88 K + 64 = 8864 bytes per node and path, so 473
    # paths fit in 2**32 bytes and 474 do not; 500 paths (~4.5 GB) once passed
    # validation and failed with ENOMEM. Through validate alone: nothing is mapped
    sets = {"n": "1024", "n_paths": n_paths, "dt": "5e-6", "t_end": "5e-4"}
    size = 1024 * int(n_paths) * 8864
    assert cli.MAX_HISTORY_BYTES == 2 ** 32
    assert validate_errors(experiment, sets) == (
        [f"the ensemble's histories would take {size} bytes, more than the "
         "4294967296 (2**32) a run may hold"] if refused else [])


def test_memory_bound_counts_the_bytes_that_an_ensemble_maps():
    g = periodic_grid(2.0 * np.pi, 16)
    ens = run_sllg_ensemble(np.ones(g.n, complex), make_noise_model(g, 2),
                            StepConfig(0.5, 0.5, 1e-3, 3e-3), 0, 3)
    mapped = sum(a.nbytes for a in (ens.q, ens.u, ens.e, ens.dW_tilde))
    assert mapped == sum(spec_sizes(history_specs(3, 3, 16))) == 16 * 3 * (88 * 3 + 64)


@pytest.mark.parametrize("experiment,value", [
    ("llg", "abc"), ("identities", "1.5"), ("crosscheck", "-1"),
    ("sllg", "abc"), ("covariance", "1.5"), ("covariance", "-1")])
def test_master_seed_validated_up_front(tmp_path, capsys, experiment, value):
    # only the stochastic experiments read a seed
    err = assert_config_error(tmp_path, capsys, experiment,
                              "--set", f"master_seed={value}")
    assert (f"config key master_seed={value!r} invalid" if experiment in _with("noise")
            else "unknown config key 'master_seed'") in err


@pytest.mark.parametrize("argv,key", [
    ([e, *flag], "master_seed") for e in ("llg", "heat", "crosscheck", "identities",
                                          "holonomy")
    for flag in (["--seed", "3"], ["--set", "master_seed=1"])]
    + [(["crosscheck", "--set", "samples=10"], "samples")],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_deterministic_experiments_take_no_seed_or_samples(tmp_path, capsys, argv, key):
    err = assert_config_error(tmp_path, capsys, *argv)
    assert f"unknown config key {key!r} for experiment {argv[0]}" in err


def test_negative_seed_flag_rejected(tmp_path, capsys):
    assert_config_error(tmp_path, capsys, "sllg", "--seed", "-1")


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
@pytest.mark.parametrize("experiment", ["llg", "heat", "sllg"])
def test_invalid_output_stride_rejected(tmp_path, capsys, experiment, value):
    err = assert_config_error(tmp_path, capsys, experiment, "--set", "n=16",
                              "--set", f"output_stride={value}")
    assert "output_stride" in err


def violating_value(kind, need):
    """A value of the row's type that breaks its constraint, or not of its type."""
    if kind in ("enum", "path"):
        return "no-such-value"          # no enum's value, and no file
    if not need:
        return "nan"                    # every float must be finite
    op, bound = need.split()
    v = float(bound) - 1 if op == ">=" else float(bound)
    return repr(int(v)) if kind.endswith("int") or kind == "ints" else repr(v)


@pytest.mark.parametrize("experiment,key", [
    (e, key) for key, row in SCHEMA.items() for e in row[3]])
def test_every_key_rejects_an_invalid_value(tmp_path, capsys, experiment, key):
    kind, need = SCHEMA[key][:2]
    value = violating_value(kind, need)
    err = assert_config_error(tmp_path, capsys, experiment, "--set", f"{key}={value}")
    assert key in err


def test_initial_file_with_non_finite_values_exits_2(tmp_path, capsys):
    path = tmp_path / "q0.csv"
    path.write_text("re,im\n" + "nan,0.0\n" * 32)
    err = assert_config_error(tmp_path, capsys, "llg", "--set", "n=32", "--set",
                              "initial_data=file", "--set", f"initial_file={path}")
    assert "non-finite" in err


def test_initial_data_file_needs_a_path(tmp_path, capsys):
    err = assert_config_error(tmp_path, capsys, "heat", "--set", "initial_data=file")
    assert "needs an initial_file" in err


@pytest.mark.parametrize("args,lines", [
    (["llg", "--set", "n=32", "--set", "n=16"], ["config key 'n' is given more than once"]),
    (["sllg", "--seed", "3", "--set", "master_seed=5"],
     ["config key 'master_seed' is given more than once"]),
    (["llg", "--set", "n=32", "--set", "bogus=1", "--set", "n=16"],
     ["unknown config key 'bogus' for experiment llg",
      "config key 'n' is given more than once"])],
    ids=["set-set", "seed-set", "with-an-unknown-key"])
def test_a_key_given_twice_exits_2(tmp_path, capsys, args, lines):
    # unchecked, one value wins: n=32 then n=16 runs at n = 16, --seed 3 on seed 3
    err = assert_config_error(tmp_path, capsys, *args)
    assert err.splitlines() == [f"config error: {line}" for line in lines]


@pytest.mark.parametrize("args,flags", [
    ([], "--out"), (["--set", "bogus=1", "--seed", "3"], "--set, --out, --seed")],
    ids=["out", "set-seed"])
def test_list_experiments_refuses_run_options(tmp_path, capsys, args, flags):
    # the catalog takes none of a run's options; it would ignore them all
    out = tmp_path / "D"
    assert run_cli("list-experiments", *args, "--out", str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr() == (
        "", f"config error: list-experiments takes no {flags}\n")


@pytest.mark.parametrize("below", [[], ["x"]], ids=["the-file", "under-the-file"])
def test_unusable_out_exits_2_and_writes_nothing(tmp_path, capsys, below):
    # --out names an existing file, or a directory below one
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker.joinpath(*below)
    assert run_cli("llg", "--set", "t_end=0.01", "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot make the output directory {str(out)!r}: "
        + ("File exists" if out == blocker else "Not a directory")]
    assert sorted(os.listdir(tmp_path)) == ["blocker"]
    assert blocker.read_text() == "kept\n"


def test_unusable_out_reported_with_the_config_errors(tmp_path, capsys):
    # every violation at once: the config's and --out's, before anything is made
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    assert run_cli("llg", "--set", "bogus=1", "--out", str(blocker)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: unknown config key 'bogus' for experiment llg",
        f"config error: cannot make the output directory {str(blocker)!r}: File exists"]
    assert sorted(os.listdir(tmp_path)) == ["blocker"]


def test_empty_out_refused(tmp_path, capsys, monkeypatch):
    # an empty --out is not the default directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HASIMOTO_LAB_OUT", str(tmp_path / "envruns"))
    assert run_cli("identities", "--set", "n=64", "--out", "") == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: --out '' names no directory"]
    assert os.listdir(tmp_path) == []


def test_reused_out_holds_only_the_new_run(tmp_path):
    # the previous run's listed outputs and manifest go; an unlisted file stays
    out = tmp_path / "d"
    assert run_cli("sllg", "--set", "n_paths=2", "--out", str(out)) == 0
    (out / "notes.txt").write_text("kept\n")
    assert run_cli("covariance", "--set", "n_paths=20", "--out", str(out)) == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "notes.txt", "report.json"]
    assert read_json(out / "manifest.json")["experiment"] == "covariance"


def test_previous_manifest_deletes_plain_file_names_only(tmp_path):
    # a listed name with a path separator, .. or a directory is left alone
    out = tmp_path / "d"
    (out / "sub").mkdir(parents=True)
    for path in (tmp_path / "x", out / "sub" / "y", out / "old.csv"):
        path.write_text("data\n")
    listed = ["../x", "sub/y", "sub", "..", ".", "manifest.json", "old.csv", "gone.csv"]
    (out / "manifest.json").write_text(json.dumps({"outputs": listed}))
    assert run_cli("identities", "--set", "n=64", "--out", str(out)) == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "report.json", "sub"]
    assert os.listdir(out / "sub") == ["y"] and (tmp_path / "x").exists()


@pytest.mark.parametrize("sizes", ["256,128", "128,128", "64,128,128"])
def test_crosscheck_grid_sizes_must_strictly_increase(tmp_path, capsys, sizes):
    # a non-increasing pair of levels gives no convergence order
    err = assert_config_error(tmp_path, capsys, "crosscheck", "--set",
                              f"grid_sizes={sizes}", "--set", "t_end=0.05")
    assert err.splitlines() == [f"config error: grid_sizes={sizes} must strictly increase"]


def readme_config_table():
    """{key: (type, constraint, default, readers)} as README's config table
    gives them, in SCHEMA's notation."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "README.md")
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| key | type | constraint | default | read by |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys, kind, need, default, readers = (
            cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
        kind = "ints" if kind == "comma list of ints" else kind.replace("auto or ", "auto|")
        need = {"an existing file": "to a file"}.get(need, need)
        need = need.removeprefix("each ").replace(", ", "|")
        readers = re.sub(r"\s*\(.*\)", "", readers)
        if readers.startswith("all"):
            readers = set(EXPERIMENTS) - set(readers.removeprefix("all but ")
                                             .removeprefix("all").split(", "))
        else:
            readers = set(readers.split(", "))
        names = keys.split(", ")
        defaults = default.split(", ") if len(names) > 1 else [default]
        for name, value in zip(names, defaults):
            value = {"empty": "", "2π": repr(2.0 * np.pi)}.get(value, value)
            rows[name] = (kind, need, value, readers)
    return rows


def test_readme_config_table_matches_schema():
    # README's table is written by hand: it must not drift from SCHEMA
    table = readme_config_table()
    assert set(table) == set(SCHEMA)
    for key, (kind, need, default, readers, _) in SCHEMA.items():
        doc_kind, doc_need, doc_default, doc_readers = table[key]
        assert (doc_kind, doc_need, doc_readers) == (kind, need, set(readers)), key
        if kind == "float":
            assert float(doc_default) == float(default), key
        else:
            assert doc_default == default, key
