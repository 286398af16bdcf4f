import json
import os

import numpy as np
import pytest

from hasimoto_lab.cli import (DEFAULTS, EXPERIMENTS, VALIDATING_MODULE,
                              list_experiments, main, read_config_file)
from hasimoto_lab.fields import ConfigurationError


def run_cli(*args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_catalog_covers_all_experiments(capsys):
    assert len(EXPERIMENTS) == 7
    assert set(DEFAULTS) == set(EXPERIMENTS) == set(VALIDATING_MODULE)
    assert run_cli("list-experiments") == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert list_experiments().startswith("available experiments:")


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


def test_sllg_smoke_and_byte_determinism(tmp_path):
    args = ("sllg", "--set", "n=32", "--set", "t_end=0.002",
            "--set", "n_paths=2", "--set", "n_modes=2", "--seed", "5")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("series_u.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    out3 = tmp_path / "c"
    assert run_cli(*args[:-1], "6", "--out", str(out3)) == 0
    assert (out1 / "report.json").read_bytes() != (out3 / "report.json").read_bytes()


def test_holonomy_smoke(tmp_path):
    out = tmp_path / "hol"
    rc = run_cli("holonomy", "--out", str(out), "--set", "n=64",
                 "--set", "t_end=0.01")
    assert rc == 0
    report = read_json(out / "report.json")
    assert report["separation"] > 1.0


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


@pytest.mark.parametrize("experiment", ["sllg", "covariance"])
def test_stochastic_zero_steps_rejected(tmp_path, capsys, experiment):
    out = tmp_path / "zero"
    rc = run_cli(experiment, "--out", str(out), "--set", "n=32",
                 "--set", "t_end=0")
    assert rc == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["sllg", "covariance"])
def test_stochastic_needs_two_paths(tmp_path, capsys, experiment):
    # one path has no spread: its stderr and 3-sigma band would read 0
    out = tmp_path / "one"
    rc = run_cli(experiment, "--out", str(out), "--set", "n=32",
                 "--set", "t_end=0.002", "--set", "n_paths=1")
    assert rc == 2
    assert not out.exists()
    assert "n_paths" in capsys.readouterr().err


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
