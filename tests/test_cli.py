import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hasimoto_lab.cli import (DEFAULTS, EXPERIMENTS, SCHEMA, _fmt, _with,
                              list_experiments, main, read_config_file,
                              resolve_config, validate, write_csv)
import hasimoto_lab
from hasimoto_lab.fields import ConfigurationError, periodic_grid
from hasimoto_lab.hashimoto import BASEPOINT_FRAME, reconstruct_frame
from hasimoto_lab.llg import StepConfig
from hasimoto_lab.noise import make_noise_model
from hasimoto_lab.stochastic import run_sllg_ensemble
from hasimoto_lab.validation import localized_twist
from reference import crosscheck_levels


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
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hasimoto_lab.cli", *argv, "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
    if argv[0] != "list-experiments":
        assert read_json(out / "manifest.json")["status"] == "complete"


def test_read_config_file(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("# comment\n\nalpha = 2.0\nn=32\n")
    assert read_config_file(str(p)) == {"alpha": "2.0", "n": "32"}
    p.write_text("alpha 2.0\n")
    with pytest.raises(ConfigurationError):
        read_config_file(str(p))


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


def test_heat_smoke_with_config_file(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 32\nt_end = 0.01\nbeta = 0.5\n")
    out = tmp_path / "heat"
    assert run_cli("heat", "--config", str(cfg), "--out", str(out)) == 0
    report = read_json(out / "report.json")
    assert report["mass_initial"] == pytest.approx(2.0 * np.pi, rel=1e-6)


def test_crosscheck_smoke(tmp_path):
    out = tmp_path / "cc"
    rc = run_cli("crosscheck", "--out", str(out),
                 "--set", "grid_sizes=32,64", "--set", "x_min=-60.0",
                 "--set", "t_end=0.01")
    assert rc == 0
    report = read_json(out / "report.json")
    assert len(report["levels"]) == 2
    assert (out / "series_discrepancy.csv").exists()


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
    import hasimoto_lab.cli as cli
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


def test_unknown_key_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "bad"
    rc = run_cli("llg", "--out", str(out), "--set", "bogus=1")
    assert rc == 2
    assert not out.exists()
    assert "unknown config key" in capsys.readouterr().err


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
    raw, typed = resolve_config(experiment, {}, list(sets.items()), errors)
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
                                                          "center", "power")))
    assert_same_levels(c["levels"], crosscheck_levels(
        twist, *(c[k] for k in ("x_min", "x_max", "alpha", "beta", "t_end",
                                "grid_sizes"))))


def test_sllg_builds_its_noise_model_and_initial_frame_once(tmp_path, monkeypatch):
    # the march of the paths rebuilds (n, K, P) frame fields; the initial
    # frame is the one march of q0 alone
    import hasimoto_lab.hashimoto as hashimoto
    import hasimoto_lab.noise as noise
    models = wrap_everywhere(monkeypatch, noise, "make_noise_model", lambda *args: True)
    marches = wrap_everywhere(monkeypatch, hashimoto, "reconstruct_frame",
                              lambda q, *rest: q.ndim == 1)
    assert run_cli("sllg", "--out", str(tmp_path / "sllg")) == 0
    assert len(models) == 1
    assert len(marches) == 1


def test_unexpected_error_fails_manifest(tmp_path, capsys, monkeypatch):
    import hasimoto_lab.cli as cli

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
    path = tmp_path / "q0.csv"
    path.write_text("re,im\n" + "0.2,0.0\n" * 32)
    out = tmp_path / "bad5"
    rc = run_cli("llg", "--out", str(out), "--set", "n=32",
                 "--set", "initial_data=file", "--set", f"initial_file={path}")
    assert rc == 2
    assert not out.exists()
    assert "rows of ux,uy,uz" in capsys.readouterr().err


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
    ens = run_sllg_ensemble(q0, reconstruct_frame(q0, g, *BASEPOINT_FRAME),
                            make_noise_model(g, 3), cfg, 9, 3)
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
    import hasimoto_lab.cli as cli

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
    ("llg", "basepoint_index=0"), ("heat", "basepoint_index=0")])
def test_experiment_rejects_keys_it_does_not_read(tmp_path, capsys, experiment, setting):
    err = assert_config_error(tmp_path, capsys, experiment, "--set", setting)
    assert "unknown config key" in err


def test_crosscheck_runs_on_the_line_only(tmp_path, capsys):
    err = assert_config_error(tmp_path, capsys, "crosscheck", "--set", "domain=periodic")
    assert "domain=line" in err


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


@pytest.mark.parametrize("row,message", [
    ("2.0,0.0,0.0", "initial_file: field is not sphere-valued"),
    ("nan,0.0,0.0", "non-finite")])
def test_initial_file_sphere_field_checked(tmp_path, capsys, row, message):
    path = tmp_path / "u0.csv"
    path.write_text("ux,uy,uz\n" + (row + "\n") * 32)
    err = assert_config_error(tmp_path, capsys, "llg", "--set", "n=32", "--set",
                              "initial_data=file", "--set", f"initial_file={path}")
    assert message in err


def test_initial_data_file_needs_a_path(tmp_path, capsys):
    err = assert_config_error(tmp_path, capsys, "heat", "--set", "initial_data=file")
    assert "needs an initial_file" in err


def test_unreadable_config_file_reported_with_other_errors(tmp_path, capsys):
    err = assert_config_error(tmp_path, capsys, "llg", "--config",
                              str(tmp_path / "none.txt"), "--set", "bogus=1")
    assert "none.txt" in err and "unknown config key 'bogus'" in err


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
