"""Seeded invariant test of the command line on valid-but-extreme configs.

Every call either completes (exit 0), fails as a blow-up (exit 1 with one
"run failed: ... blew up" line), or is refused (exit 2 with "config error:"
lines that name no Python exception type). A refusal comes up front, with
no output directory, unless a check finds after the run that its paths
have no spread (noise that underflows): then there is one such line and a
failed manifest. No traceback reaches the terminal, no manifest is left in
"running", and only a blow-up may raise numpy warnings on the way.
"""

import builtins
import json
import re
import warnings

import numpy as np
import pytest

from hasimoto_lab.cli import DEFAULTS, EXPERIMENTS, main, resolve_config, validate

# Valid values at the bounds, tiny and huge magnitudes.
EXTREMES = {
    "domain": ["periodic", "line"],
    "n": ["4", "5", "16"],
    "circumference": ["1e-300", "1e-8", "1e300"],
    "x_min": ["-1e308", "-1e300", "-1e-300", "0.0", "1e300"],
    "x_max": ["1e308", "1e300", "1e-300", "0.0"],
    "alpha": ["0.0", "1e-300", "1e300"],
    "beta": ["0.0", "-1e-300", "1e300", "-1e300"],
    "dt": ["auto", "1e-300", "0.002", "1e300"],
    "t_end": ["0.0", "1e-300", "0.002", "1e300"],
    "output_stride": ["auto", "1", "1000000000"],
    "master_seed": ["0", "18446744073709551615", str(10 ** 40)],
    "initial_data": ["great-circle", "localized-twist"],
    "k": ["0.0", "1e-300", "1e300", "-1e308"],
    "amplitude": ["0.0", "1e-300", "1e300", "-1e300"],
    "width": ["1e-300", "1e300"],
    "center": ["-1e300", "1e300"],
    "power": ["1", "1000000000"],
    "grid_sizes": ["4", "4,5", "16,8"],
    "n_modes": ["1", "200"],
    "coeff_profile": ["flat", "power"],
    "coeff_decay": ["-1e300", "-700.0", "0.0", "1e300"],
    "coeff_amplitude": ["1e-300", "1e300"],
    "n_paths": ["2", "3"],
}

# A small run of each experiment, which the draws then push to extremes.
SMALL = {"n": "8", "dt": "0.001", "t_end": "0.002", "n_paths": "2",
         "grid_sizes": "8,16"}

# A valid config may ask for ~1e300 steps (a tiny dt, or dt=auto at a huge
# alpha); such a draw is validated but not run.
MAX_NODE_STEPS = 200_000

EXCEPTION_NAMES = re.compile(r"\b(%s)\b" % "|".join(
    [name for name, obj in vars(builtins).items()
     if isinstance(obj, type) and issubclass(obj, BaseException)]
    + ["ConfigurationError", "BlowUpError"]))

# The reproductions of faults that once slipped through as a traceback, a
# run on non-finite data, or statistics with no spread.
REFUSED = [
    ("llg", {"circumference": "1e-300"}),
    ("llg", {"domain": "line", "x_min": "-1e308", "x_max": "1e308"}),
    ("sllg", {"coeff_profile": "power", "coeff_decay": "-1e300"}),
    ("identities", {"amplitude": "1e300"}),
    ("crosscheck", {"amplitude": "1e300"}),
    ("covariance", {"coeff_amplitude": "0", "n_paths": "4"}),
    ("sllg", {"coeff_amplitude": "0"}),
    ("llg", {"k": "1e308"}),
    ("identities", {"n": "8", "x_min": "-1e-300", "x_max": "0.0"}),
]

# Valid data that overflows within the first step.
BLOWN_UP = [
    ("heat", {"initial_data": "localized-twist", "amplitude": "1e120"}),
    ("sllg", {"coeff_amplitude": "1e300"}),
]


def draws(seed, per_experiment=7):
    """(experiment, settings) pairs: SMALL, then two or three keys the
    experiment reads at values drawn from EXTREMES."""
    rng = np.random.default_rng(seed)
    out = []
    for e in EXPERIMENTS:
        keys = sorted(k for k in DEFAULTS[e] if k in EXTREMES)
        for _ in range(per_experiment):
            sets = {k: v for k, v in SMALL.items() if k in DEFAULTS[e]}
            for key in rng.choice(keys, size=rng.integers(2, 4), replace=False):
                sets[str(key)] = str(rng.choice(EXTREMES[key]))
            out.append((e, sets))
    return out


def node_steps(experiment, sets):
    """The node steps of a config that validates; None if it is refused."""
    errors = []
    _, typed = resolve_config(experiment, {}, list(sets.items()), errors)
    with np.errstate(all="ignore"):
        c = typed and validate(experiment, typed, errors)
    if c is None:
        return None
    if experiment == "crosscheck":
        return sum(2 * g.n * cfg.n_steps for g, _, cfg in c["levels"])
    steps = c["solver"].n_steps if "solver" in c else 1
    return steps * c["n"] * c.get("n_paths", 1)


def check_invariant(experiment, sets, out, capsys):
    """Run one config and check the invariant of the module docstring;
    returns the exit status."""
    argv = [experiment, "--out", str(out)]
    for key, val in sets.items():
        argv += ["--set", f"{key}={val}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    case = f"{experiment} {sets}: exit {rc}, stderr {err}"
    assert rc in (0, 1, 2), case
    if rc == 2:
        assert err and all(ln.startswith("config error: ") for ln in err), case
        assert not any(EXCEPTION_NAMES.search(ln) for ln in err), case
        assert not out.exists() or (len(err) == 1 and "no spread" in err[0]), case
    if out.exists():
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
    if rc != 1:
        assert not caught, f"{case}, warnings {[str(w.message) for w in caught]}"
    if rc == 0:
        assert err == [] and manifest["status"] == "complete", case
    elif rc == 1:
        assert len(err) == 1 and err[0].startswith("run failed: "), case
        assert "blew up" in err[0], case
        assert manifest["status"] == "failed", case
        assert manifest["error_type"] == "BlowUpError", case
    elif out.exists():
        assert manifest["status"] == "failed", case
        assert manifest["error_type"] == "ConfigurationError", case
    return rc


@pytest.mark.parametrize("experiment,sets", REFUSED,
                         ids=[f"{e}-{'-'.join(s)}" for e, s in REFUSED])
def test_reproduced_faults_are_refused_up_front(tmp_path, capsys, experiment, sets):
    assert check_invariant(experiment, sets, tmp_path / "run", capsys) == 2


@pytest.mark.parametrize("experiment,sets", BLOWN_UP,
                         ids=[f"{e}-{'-'.join(s)}" for e, s in BLOWN_UP])
def test_overflow_in_the_run_is_a_blow_up(tmp_path, capsys, experiment, sets):
    assert check_invariant(experiment, sets, tmp_path / "run", capsys) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_extreme_configs_complete_blow_up_or_are_refused(tmp_path, capsys, seed):
    ran = 0
    for i, (experiment, sets) in enumerate(draws(seed)):
        work = node_steps(experiment, sets)
        capsys.readouterr()
        if work is not None and work > MAX_NODE_STEPS:
            continue
        check_invariant(experiment, sets, tmp_path / f"run{i}", capsys)
        ran += 1
    assert ran >= 0.75 * len(draws(seed))
