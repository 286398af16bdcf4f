"""Characterization ("golden master") tests of the command line, against
three recordings in tests/data:

- characterization.json: the bytes that the runs of RUNS, ENSEMBLE_RUNS
  and REGIME_RUNS write: each experiment's default run, three runs on the
  line (README's crosscheck example, heat and llg from a localized twist),
  the two calls of the benchmark's ensemble workload, and three runs that
  each reach one regime of the forked workers; the last two sets are
  checked on 1 and on 2 workers. A digest is
  exact only on the machine key it was recorded with (the numpy version,
  its BLAS and the SIMD features numpy dispatches to), because
  transcendental ufuncs and BLAS products may round differently
  elsewhere. On any other key the test compares every recorded
  report.json value to 1e-12 relative instead; it never skips.
- catalog.json: the text of list-experiments and DEFAULTS, so that every
  experiment's own defaults (holonomy's n, covariance's master_seed) are
  pinned.
- refusals.json: the exit status and the exact stderr lines of every
  config that tests/test_extreme_configs.py runs and that is refused
  (exit 2): of its seeded draws (seeds 0 and 1) and of its REFUSED list.
  Refusals come from config arithmetic, so they hold on any machine key.

Record them again, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_characterization.py

which rewrites a file only when its content differs, and prints
"recorded" or "unchanged" for each.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest

from hasimoto_lab import hashimoto
from hasimoto_lab.cli import DEFAULTS, EXPERIMENTS, list_experiments, main
from test_extreme_configs import (DATA_DIR, MAX_NODE_STEPS, REFUSED, command_line,
                                  draws, node_steps)

DATA = os.path.join(DATA_DIR, "characterization.json")
CATALOG = os.path.join(DATA_DIR, "catalog.json")
REFUSALS = os.path.join(DATA_DIR, "refusals.json")
REL_TOL = 1e-12
# Each experiment's default run, and the line domain's regime
LINE_TWIST = ["--set", "domain=line", "--set", "initial_data=localized-twist"]
RUNS = {**{name: [name] for name in EXPERIMENTS},
        "crosscheck-readme": ["crosscheck", "--set", "grid_sizes=64,128",
                              "--set", "t_end=0.05"],
        "heat-line-twist": ["heat", *LINE_TWIST],
        "llg-line-twist": ["llg", *LINE_TWIST]}
# The benchmark's ensemble workload: 100 paths of 10 steps at n = 64 from the
# file initial data q0 = 0.2 + 0.06 cos x (ensemble_q0.csv, written as
# perfbench/workloads.py writes it), which on 2 workers run as two 50-path
# ranges, for the march and for each check over the paths
ENSEMBLE = [f"--set={kv}" for kv in (
    "domain=periodic", "n=64", "dt=0.001", "t_end=0.01", "n_modes=4", "n_paths=100",
    "initial_data=file", f"initial_file={os.path.join(DATA_DIR, 'ensemble_q0.csv')}")]
ENSEMBLE_RUNS = {"sllg-ensemble": ["sllg", "--seed", "2024", *ENSEMBLE],
                 "covariance-ensemble": ["covariance", "--seed", "77", *ENSEMBLE]}
# One run for each regime that the test below asserts on 1 and on 2 workers:
# - sllg-wide (CI's wide sllg at 820 paths, not 1000, to save time): a
#   march of 10 steps of 820 paths, whose worker holds 11 * 820 = 9020 or
#   11 * 410 = 4510 (step, path) columns, step 0's included, over the 4096
#   that take the march's chunks to their 4-node floor;
# - sllg-n4096: n = 4096 with few columns, 12 steps of 2 paths, so 13 * 2
#   columns and chunks of 4096 // 26 = 157 nodes on one worker, and
#   4096 // 13 = 315 on two;
# - crosscheck-n4096: crosscheck's six forked flows at n = 1024, 2048 and 4096.
REGIME_RUNS = {
    "sllg-wide": ["sllg", "--seed", "5", *[f"--set={kv}" for kv in (
        "n=64", "n_paths=820", "dt=0.001", "t_end=0.01", "output_stride=5")]],
    "sllg-n4096": ["sllg", "--seed", "11", *[f"--set={kv}" for kv in (
        "n=4096", "n_paths=2", "dt=auto", "t_end=1e-5", "output_stride=6")]],
    "crosscheck-n4096": ["crosscheck", "--set=grid_sizes=1024,2048,4096",
                         "--set=t_end=0.01"]}


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


def runs_under(root: str, argvs: dict) -> dict:
    """Each run of argvs under root: the SHA-256 of every file it writes but
    its manifest, and its report."""
    runs = {}
    for name, argv in argvs.items():
        out = os.path.join(root, name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", out]) == 0, name
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


def catalog() -> dict:
    """list-experiments' lines and every experiment's defaults."""
    return {"list_experiments": list_experiments().splitlines(), "defaults": DEFAULTS}


def refusals(root: str) -> list:
    """Each config that test_extreme_configs.py runs and that exits 2, run
    under root: its settings, exit status and stderr lines."""
    cases = [(e, sets) for seed in (0, 1) for e, sets in draws(seed)
             if (node_steps(e, sets) or 0) <= MAX_NODE_STEPS] + REFUSED
    out = []
    for i, (experiment, sets) in enumerate(cases):
        argv = command_line(experiment, sets, os.path.join(root, str(i)))
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("ignore")         # a blow-up's, never recorded
            rc = main(argv)
        if rc == 2:
            out.append({"experiment": experiment, "sets": sets, "exit": rc,
                        "stderr": err.getvalue().splitlines()})
    return out


def recorded(path: str):
    with open(path) as fh:
        return json.load(fh)


def assert_recorded(runs: dict):
    """runs match their recording: digests on its machine key, report
    values to REL_TOL anywhere."""
    rec = recorded(DATA)
    assert sorted(rec["runs"]) == sorted([*RUNS, *ENSEMBLE_RUNS, *REGIME_RUNS])
    if machine_key() == rec["key"]:
        for name, run in runs.items():
            assert run["digests"] == rec["runs"][name]["digests"], name
    for name, run in runs.items():
        assert_close(run["report"], rec["runs"][name]["report"], name)


def test_default_runs_match_the_recording(tmp_path):
    assert_recorded(runs_under(str(tmp_path), RUNS))


@pytest.mark.parametrize("cpus", [1, 2])
def test_ensemble_runs_match_the_recording_on_any_worker_count(tmp_path, use_cpus,
                                                               cpus):
    use_cpus(cpus)
    runs = runs_under(str(tmp_path), ENSEMBLE_RUNS)
    assert [run["report"]["n_paths"] for run in runs.values()] == [100, 100]
    assert_recorded(runs)


@pytest.mark.parametrize("cpus", [1, 2])
def test_regime_runs_match_the_recording_on_any_worker_count(tmp_path, monkeypatch,
                                                             use_cpus, cpus):
    use_cpus(cpus)
    # (nodes, steps, paths) of each chunk that a march in this process rotates:
    # the parent's, which marches the first and largest range of paths
    chunks = []
    node_rotations = hashimoto.node_rotations

    def spy(q0, q1, g):
        if q0.ndim == 3:
            chunks.append(q0.shape)
        return node_rotations(q0, q1, g)

    monkeypatch.setattr(hashimoto, "node_rotations", spy)
    runs, marched = {}, {}
    for name, argv in REGIME_RUNS.items():
        chunks.clear()
        runs.update(runs_under(str(tmp_path), {name: argv}))
        marched[name] = chunks[:]
    assert 11 * (820 // cpus) > hashimoto.CHUNK_ROTATIONS
    assert {c[1:] for c in marched["sllg-wide"]} == {(11, 820 // cpus)}
    assert max(c[0] for c in marched["sllg-wide"]) == 4
    assert {c[1:] for c in marched["sllg-n4096"]} == {(13, 2 // cpus)}
    assert max(c[0] for c in marched["sllg-n4096"]) == [157, 315][cpus - 1]
    assert [lv["n"] for lv in runs["crosscheck-n4096"]["report"]["levels"]] == \
        [1024, 2048, 4096]
    assert_recorded(runs)


def test_catalog_matches_the_recording():
    assert catalog() == recorded(CATALOG)


def test_refusals_match_the_recording(tmp_path):
    assert refusals(str(tmp_path)) == recorded(REFUSALS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        records = {DATA: {"key": machine_key(),
                          "runs": runs_under(root, {**RUNS, **ENSEMBLE_RUNS,
                                                   **REGIME_RUNS})},
                   CATALOG: catalog(), REFUSALS: refusals(root)}
    os.makedirs(DATA_DIR, exist_ok=True)
    for path, record in records.items():
        text = json.dumps(record, indent=1, sort_keys=True) + "\n"
        old = None
        if os.path.exists(path):
            with open(path) as fh:
                old = fh.read()
        if text != old:
            with open(path, "w") as fh:
                fh.write(text)
        print(f"{'unchanged' if text == old else 'recorded'} {path}", file=sys.stderr)
