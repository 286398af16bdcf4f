"""Characterization ("golden master") test: the seven experiments' default
runs write the bytes recorded in tests/data/characterization.json.

A digest is exact only on the machine key it was recorded with (the numpy
version, its BLAS and the SIMD features numpy dispatches to), because
transcendental ufuncs and BLAS products may round differently elsewhere.
On any other key the test compares every recorded report.json value to
1e-12 relative instead; it never skips.

Record again, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_characterization.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from hasimoto_lab.cli import EXPERIMENTS, main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "characterization.json")
REL_TOL = 1e-12


def machine_key() -> dict:
    """The numpy version, its BLAS and numpy's found SIMD features."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:                                     # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):                           # numpy < 1.25
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}


def default_runs(root: str) -> dict:
    """Each experiment's default run under root: the SHA-256 of every file
    it writes but its manifest, and its report."""
    runs = {}
    for name in EXPERIMENTS:
        out = os.path.join(root, name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([name, "--out", out]) == 0, name
        digests = {}
        for f in sorted(os.listdir(out)):
            if f != "manifest.json":
                with open(os.path.join(out, f), "rb") as fh:
                    digests[f] = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out, "report.json")) as fh:
            runs[name] = {"digests": digests, "report": json.load(fh)}
    return runs


def assert_close(got, want, where: str):
    """got equals want in structure, floats to REL_TOL relative."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for k in want:
            assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, where


def test_default_runs_match_the_recording(tmp_path):
    with open(DATA) as fh:
        rec = json.load(fh)
    runs = default_runs(str(tmp_path))
    assert sorted(runs) == sorted(rec["runs"])
    if machine_key() == rec["key"]:
        for name, run in runs.items():
            assert run["digests"] == rec["runs"][name]["digests"], name
    for name, run in runs.items():
        assert_close(run["report"], rec["runs"][name]["report"], name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        record = {"key": machine_key(), "runs": default_runs(root)}
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(record['runs'])} runs in {DATA}", file=sys.stderr)
