"""Experiment runner.

Usage: hasimoto-lab <experiment> [--set key=value ...] [--out DIR] [--seed N]

Two tables define the command line: EXPERIMENTS, one row per experiment with
its runner and traits, and SCHEMA, one row per config key with its readers by
trait. --set gives a key its value, at most once; an experiment accepts
exactly the keys it reads. list-experiments lists them.
Outputs per run: series_*.csv (time series), report.json (structured result),
manifest.json (resolved config, seed, version, status, wall clock). The
resolved config, which holds master_seed only for the stochastic experiments
(--seed N is --set master_seed=N), fully determines every CSV byte.
"""

import argparse
import gc
import json
import os
import sys
import time
import traceback
import warnings

import numpy as np

from . import __version__
from .fields import (BlowUpError, ConfigurationError, Grid1D, line_grid,
                     periodic_grid, time_steps)
from .forks import fork_map
from .hashimoto import (BASEPOINT_FRAME, FrameField, closure_defect,
                        reconstruct_frame)
from .heat import heat_integrate, mass
from .llg import StepConfig, auto_dt, exchange_energy, llg_integrate
from .noise import make_noise_model
from .stochastic import history_specs, run_sllg_ensemble, spec_sizes
from .validation import (covariance_checks, crosscheck_deterministic,
                         holonomy_defect, identity_suite, localized_twist,
                         sllg_weak_residual)

def _parse(kind: str, need: str, text: str):
    """text as a value of type kind that meets need; ValueError if it is none."""
    if text == "auto" and kind.startswith("auto|"):
        return text
    if kind in ("enum", "path"):
        if not (text in need.split("|") if kind == "enum"
                else not text or os.path.isfile(text)):
            raise ValueError
        return text
    cast = float if kind.endswith("float") else int
    vals = [cast(s) for s in text.split(",")] if kind == "ints" else [cast(text)]
    op, bound = (need or ">= -inf").split()
    lo = float(bound)
    if not all(-np.inf < v < np.inf and (v > lo if op == ">" else v >= lo) for v in vals):
        raise ValueError
    return tuple(vals) if kind == "ints" else vals[0]


def resolve_config(experiment: str, sets: list, errors: list):
    """Defaults, then the (key, value) pairs of sets, against SCHEMA.

    Unknown keys, keys given again and values that fail their type or
    constraint go to errors. Returns (the resolved strings, their typed
    values); the typed values are None if any of them failed.
    """
    raw, given = dict(DEFAULTS[experiment]), set()
    for key, val in sets:
        if key not in raw:
            errors.append(f"unknown config key {key!r} for experiment {experiment}")
        elif key in given:
            errors.append(f"config key {key!r} is given more than once")
        else:
            raw[key] = val
            given.add(key)
    typed = {}
    for key, text in raw.items():
        kind, need = SCHEMA[key][:2]
        try:
            typed[key] = _parse(kind, need, text)
        except ValueError:
            need = f"{kind.replace('float', 'finite float')} {need}".strip()
            errors.append(f"config key {key}={text!r} invalid (need {need})")
    return raw, typed if len(typed) == len(raw) else None


def initial_q(c: dict, g: Grid1D) -> np.ndarray:
    if c["initial_data"] == "great-circle":
        return c["k"] * np.ones(g.n, dtype=complex)
    if c["initial_data"] == "localized-twist":
        return localized_twist(g.x, c["amplitude"], c["width"], c["center"])
    path = c["initial_file"]
    if not path:
        raise ConfigurationError("initial_data=file needs an initial_file")
    try:
        with warnings.catch_warnings():     # no data rows: the shape check refuses it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(
            f"initial_file {path!r} is not numeric CSV: {exc}") from None
    if data.shape != (g.n, 2):
        raise ConfigurationError(
            f"initial_file must have {g.n} rows of re,im; got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ConfigurationError(f"initial_file {path!r} holds non-finite values")
    return data[:, 0] + 1j * data[:, 1]


def initial_u(c: dict, g: Grid1D) -> np.ndarray:
    """The great circle, or else the frame march of initial_q's data."""
    if c["initial_data"] == "great-circle":
        k = c["k"]
        turns = k * g.length / (2.0 * np.pi)
        if g.periodic and not abs(turns - np.round(turns)) <= 1e-12:
            raise ConfigurationError("great-circle k must close on the periodic domain")
        if not abs(k) * g.h < np.pi:    # else its samples are another circle's
            raise ConfigurationError(f"great-circle k={k!r} is more than n={g.n} nodes "
                                     f"resolve: |k| h = {abs(k) * g.h:.6g} needs to be < pi")
        return np.stack([np.cos(k * g.x), np.sin(k * g.x), np.zeros(g.n)], axis=-1)
    return reconstruct_frame(initial_q(c, g), g, *BASEPOINT_FRAME).u


# The most node steps (n x steps x paths, summed over a run's flows) that a
# run may take: ~1e4 times the largest run in use, hours on one CPU.
MAX_NODE_STEPS = 1e11
MAX_HISTORY_BYTES = 2 ** 32     # that an ensemble maps: ~35 times the largest in use


def validate(experiment: str, c: dict, errors: list):
    """The checks that span several keys, run before any artifact exists,
    and the one construction of everything a run starts from.

    Appends every violation to errors and returns None; otherwise returns
    the run's plan. A grid experiment's is _one_grid_plan's. Crosscheck's,
    which runs only on the line from a localized twist, is c plus "levels":
    the one-grid plan's (g, x0, solver) at each of the strictly increasing
    grid sizes, with dt=auto and output_stride=auto. Levels are planned up
    to the first refused one, whose violations stand for the later levels'
    (which repeat them at another n). A plan over MAX_NODE_STEPS, or over
    MAX_HISTORY_BYTES of ensemble histories, is refused.
    """
    if experiment in _with("grid"):
        plan = _one_grid_plan(experiment, c, errors)
        flows = [plan] if plan and "solver" in plan else []   # identities evolves nothing
        copies = c.get("n_paths", 1)
    else:
        rules = (("domain", "line"), ("initial_data", "localized-twist"))
        refused = [f"{experiment} supports {k}={v} only" for k, v in rules if c[k] != v]
        errors.extend(refused)
        sizes = list(c["grid_sizes"])
        if sizes != sorted(set(sizes)):
            errors.append(f"grid_sizes={','.join(map(str, sizes))} must strictly increase")
        flows, copies = [], 2           # each level's LLG flow and heat flow
        for n in [] if refused else sizes:
            flows.append(_one_grid_plan(experiment, dict(c, n=n, dt="auto",
                                                         output_stride="auto"), errors))
            if errors:
                break
        plan = None if errors else dict(c, levels=[(p["g"], p["x0"], p["solver"])
                                                   for p in flows])
    if plan and copies * sum(p["g"].n * p["solver"].n_steps for p in flows) > MAX_NODE_STEPS:
        errors.append(f"the run asks for more than {MAX_NODE_STEPS:.0e} node steps "
                      "(n x steps x paths, summed over its flows)")
        return None
    if plan and experiment in _with("noise") and (size := sum(spec_sizes(history_specs(
            plan["solver"].n_steps, copies, plan["g"].n)))) > MAX_HISTORY_BYTES:
        errors.append(f"the ensemble's histories would take {size} bytes, more than the "
                      f"{MAX_HISTORY_BYTES} (2**32) a run may hold")
        return None
    return plan


def _one_grid_plan(experiment: str, c: dict, errors: list):
    """validate on one grid: c with dt and output_stride resolved to numbers,
    plus, by the traits of the experiment's row in EXPERIMENTS,
    - "g" and "x0": the grid and the initial data, u if u, else q;
    - "noise" (noise): the NoiseModel on g;
    - "solver" (if c has a dt): its StepConfig.
    """
    def attempt(fn, *args):
        try:
            return fn(*args)
        except ConfigurationError as exc:
            errors.append(str(exc))

    c = dict(c)
    sphere = experiment in _with("u")
    if experiment in _with("noise") and c["domain"] != "periodic":
        errors.append(f"{experiment}: the spectral noise basis requires a periodic grid")
        return None
    if not sphere and c["domain"] == "line" and c["initial_data"] == "great-circle":
        # the nonlocal heat term takes x_min for -infinity
        errors.append(f"{experiment} on the line needs data that decays at x_min, and "
                      "great-circle's q = k does not: set initial_data=localized-twist or file")
    g = c["g"] = (attempt(periodic_grid, c["circumference"], c["n"])
                  if c["domain"] == "periodic" else
                  attempt(line_grid, c["x_min"], c["x_max"], c["n"]))
    if g is None:
        return None
    x0 = c["x0"] = attempt(initial_u if sphere else initial_q, c, g)
    if x0 is not None and experiment in _with("frame"):    # refuse an overflow up front
        attempt(reconstruct_frame, x0, g, *BASEPOINT_FRAME)
    if experiment in _with("noise"):
        c["noise"] = attempt(make_noise_model, g, c["n_modes"], c["coeff_amplitude"])
    if c.get("dt") == "auto":
        c["dt"] = attempt(auto_dt, g, c["alpha"], c["beta"], c["t_end"])
    if c.get("dt") is None:             # identities evolves nothing, or auto_dt failed
        return None if errors else c
    n_steps = attempt(time_steps, c["dt"], c["t_end"])
    if n_steps is None:
        return None
    if c.get("output_stride") == "auto":
        c["output_stride"] = max(1, n_steps // 10)
    c["solver"] = StepConfig(c["alpha"], c["beta"], c["dt"], c["t_end"],
                             c.get("output_stride", 1))
    attempt(c["solver"].check_stability, g)
    if experiment in _with("checks") and n_steps < 1:
        errors.append(f"t_end={c['t_end']!r} with dt={c['dt']!r} gives no "
                      "time step (need >= 1)")
    return None if errors else c


def _fmt(v) -> str:
    # repr round-trips floats exactly, keeping outputs byte-deterministic
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header: list, frames) -> None:
    """Write a CSV one frame at a time.

    Each frame is a tuple of columns: 1-D arrays of one common length, or
    scalars that stand for a constant column. A str array holds its cells;
    other cells are the repr of Python scalars (float.__repr__ for a float
    array), which round-trips floats exactly, so output is byte-deterministic.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for frame in frames:
            cols = [np.asarray(c) for c in frame]
            rows = max((c.shape[0] for c in cols if c.ndim), default=1)
            cells = [[repr(c.item())] * rows if c.ndim == 0
                     else c.tolist() if c.dtype.kind == "U"
                     else map(float.__repr__ if c.dtype.kind == "f" else repr,
                              c.tolist()) for c in cols]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_nodes(path: str, g: Grid1D, names: list, samples) -> None:
    """A CSV of columns t, node, x, *names from (t, (n, len(names)) state) samples."""
    node_x = np.array([f"{j},{x!r}" for j, x in enumerate(g.x.tolist())])
    write_csv(path, ["t", "node", "x", *names],
              ((t, node_x, *s.T) for t, s in samples))


def _leaves(obj, key="", lists=True):
    """(key, value) of each leaf of nested dicts, keyed "a.b", and of nested
    lists, keyed "a[0]"; with lists=False a list is one leaf."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{key}.{k}" if key else str(k), lists)
    elif lists and isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{key}[{i}]", lists)
    else:
        yield key, obj


def _write_json(path: str, payload: dict) -> None:
    """payload as JSON text, made before path is opened; JSON has no NaN or
    infinity (RFC 8259), so one is refused with a ValueError naming its key."""
    for key, v in _leaves(payload):
        if isinstance(v, float) and not np.isfinite(v):
            raise ValueError(f"{key} = {v} is not a finite number, which JSON cannot hold")
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def render_report(report: dict) -> str:
    """Aligned key/value text for humans; nested dicts are flattened."""
    rows = [(k, v if isinstance(v, (int, float, bool, str)) else "...")
            for k, v in _leaves(report, lists=False)]
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k:<{width}}  {_fmt(v)}" for k, v in rows)


# --- experiment bodies ---
# Each runner takes the plan that validate() returned and the output
# directory, solves and writes, and returns (report dict, list of CSV
# filenames).

def run_llg(c, outdir):
    g, cfg = c["g"], c["solver"]
    traj = llg_integrate(c["x0"], g, cfg)
    _write_nodes(os.path.join(outdir, "series_u.csv"), g, ["ux", "uy", "uz"],
                 zip(traj.times, traj.states))
    unit_dev = max(float(np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)))
                   for u in traj.states)
    report = {"dt": cfg.dt, "n_steps": cfg.n_steps,
              "energy_initial": exchange_energy(traj.states[0], g),
              "energy_final": exchange_energy(traj.states[-1], g),
              "unit_deviation_max": unit_dev}
    return report, ["series_u.csv"]


def run_heat(c, outdir):
    g, cfg = c["g"], c["solver"]
    traj = heat_integrate(c["x0"], g, cfg)
    _write_nodes(os.path.join(outdir, "series_q.csv"), g, ["re", "im"],
                 ((t, np.stack([q.real, q.imag], axis=-1))
                  for t, q in zip(traj.times, traj.states)))
    report = {"dt": cfg.dt, "n_steps": cfg.n_steps,
              "mass_initial": mass(traj.states[0], g),
              "mass_final": mass(traj.states[-1], g),
              "decay_ok": traj.decay_ok}
    return report, ["series_q.csv"]


def run_crosscheck(c, outdir):
    rep = crosscheck_deterministic(c["levels"])
    write_csv(os.path.join(outdir, "series_discrepancy.csv"),
              ["n", "t", "disc_max", "disc_l2"],
              ((lv["n"], lv["times"], lv["disc_max"], lv["disc_l2"])
               for lv in rep["levels"]))
    return rep, ["series_discrepancy.csv"]


def run_identities(c, outdir):
    return identity_suite(c["x0"], c["g"]), []


def _standard_phi(g: Grid1D) -> np.ndarray:
    return np.stack([np.cos(g.x), np.sin(g.x), 0.3 * np.ones(g.n)], axis=-1)


def _ensemble(c):
    return run_sllg_ensemble(c["x0"], c["noise"], c["solver"], c["master_seed"],
                             c["n_paths"])


def run_sllg_experiment(c, outdir):
    g, cfg = c["g"], c["solver"]
    ens = _ensemble(c)
    csv_path = os.path.join(outdir, "series_u.csv")

    def output(csv):    # the CSV in the parent; the residuals in a child, given 2 CPUs
        if csv:
            return _write_nodes(csv_path, g, ["ux", "uy", "uz"],
                                ((ens.times[k], ens.u[k, 0])
                                 for k in range(cfg.n_steps + 1) if cfg.sampled(k)))
        return sllg_weak_residual(ens, _standard_phi(g))[0]   # the midpoint's

    try:
        _, residual = fork_map(output, [True, False])
    except Exception:       # a failed run's manifest lists no output to keep
        if os.path.exists(csv_path):
            os.remove(csv_path)
        raise
    closure = float(np.mean(closure_defect(ens.q[-1], g,
                                           FrameField(u=ens.u[-1], e=ens.e[-1]))))
    report = {"dt": cfg.dt, "n_steps": cfg.n_steps, "n_paths": c["n_paths"],
              "weak_residual": residual, "mean_closure_defect": closure}
    return report, ["series_u.csv"]


def run_holonomy(c, outdir):
    g, cfg, q0 = c["g"], c["solver"], c["x0"]
    traj = heat_integrate(q0, g, cfg)
    q_path = np.array(traj.states)
    pos = holonomy_defect(q_path, g, cfg.alpha, cfg.beta, cfg.dt)
    frozen = holonomy_defect(np.array([q0] * q_path.shape[0]), g,
                             cfg.alpha, cfg.beta, cfg.dt)
    report = {"dt": cfg.dt, "t_end": cfg.t_end,
              "solution": pos, "frozen_control": frozen,
              "separation": frozen["max_defect"] / max(pos["max_defect"], 1e-300),
              "decay_ok": traj.decay_ok}
    return report, []


def run_covariance(c, outdir):
    g, cfg = c["g"], c["solver"]
    ens = _ensemble(c)
    one = np.ones(g.n)
    zero = np.zeros(g.n)
    phi1 = _standard_phi(g)
    phi2 = np.stack([zero, zero, one], axis=-1)
    phi3 = np.stack([np.sin(2.0 * g.x), zero, np.cos(g.x)], axis=-1)
    pairs = {"phi1_phi1": (phi1, phi1), "phi1_phi2": (phi1, phi2),
             "phi2_phi3": (phi2, phi3)}
    report = {"n_paths": c["n_paths"], "t": cfg.t_end,
              "pairs": dict(zip(pairs, covariance_checks(ens, pairs.values())))}
    return report, []


def _with(trait: str) -> tuple:
    return tuple(e for e, (_, traits) in EXPERIMENTS.items() if trait in traits.split())


# One row per experiment: (runner, traits). u: starts from u, not q; grid: runs on one
# grid; flow: evolves in time; dt: steps at a dt; line: may run on the line; twist: a
# localized twist there by default; noise; checks: over the steps; frame: frames from q.
EXPERIMENTS = {
    "llg": (run_llg, "u grid flow dt line"),
    "heat": (run_heat, "grid flow dt line"),
    "crosscheck": (run_crosscheck, "u flow line twist checks"),
    "identities": (run_identities, "u grid line twist"),
    "sllg": (run_sllg_experiment, "grid flow dt noise checks frame"),
    "holonomy": (run_holonomy, "grid flow dt line twist checks frame"),
    "covariance": (run_covariance, "grid flow dt noise checks frame"),
}

# One row per config key: (type, constraint, default, readers, their own
# defaults where they differ). Types: float (always finite), int, auto|float,
# auto|int, enum, ints (comma list) and path (empty or an existing file). A
# constraint is a bound every number must meet, or an enum's values.
SCHEMA = {
    "domain": ("enum", "periodic|line", "periodic", EXPERIMENTS,
               dict.fromkeys(_with("twist"), "line")),
    "n": ("int", ">= 4", "64", _with("grid"), {"identities": "256", "holonomy": "176"}),
    "circumference": ("float", "> 0", "6.283185307179586", _with("grid"), {}),
    "x_min": ("float", "", "-90.0", _with("line"),
              {"crosscheck": "-250.0", "holonomy": "-45.0"}),
    "x_max": ("float", "", "20.0", _with("line"), {"holonomy": "10.0"}),
    "alpha": ("float", ">= 0", "1.0", _with("flow"), dict.fromkeys(_with("noise"), "0.5")),
    "beta": ("float", "", "1.0", _with("flow"), dict.fromkeys(_with("noise"), "0.5")),
    "dt": ("auto|float", "> 0", "auto", _with("dt"),
           dict.fromkeys(_with("noise"), "0.001")),
    "t_end": ("float", ">= 0", "0.1", _with("flow"),
              {"sllg": "0.02", "holonomy": "0.02", "covariance": "0.01"}),
    "output_stride": ("auto|int", ">= 1", "auto", ("llg", "heat", "sllg"), {}),
    "master_seed": ("int", ">= 0", "0", _with("noise"), {"covariance": "77"}),
    "initial_data": ("enum", "great-circle|localized-twist|file",
                     "great-circle", EXPERIMENTS,
                     dict.fromkeys(_with("twist"), "localized-twist")),
    "k": ("float", "", "1.0", _with("grid"), {}),
    "amplitude": ("float", "", "0.25", EXPERIMENTS, {"holonomy": "0.4"}),
    "width": ("float", "> 0", "6.0", EXPERIMENTS, {"holonomy": "3.0"}),
    "center": ("float", "", "-15.0", EXPERIMENTS, {"holonomy": "-10.0"}),
    "initial_file": ("path", "to a file", "", _with("grid"), {}),
    "grid_sizes": ("ints", ">= 4", "128,256,512", ("crosscheck",), {}),
    # with no mode or no amplitude every path is the same: no spread, no noise
    "n_modes": ("int", ">= 1", "4", _with("noise"), {}),
    "coeff_amplitude": ("float", "> 0", "1.0", _with("noise"), {}),
    # one path has no spread: its stderr and 3-sigma band would read 0
    "n_paths": ("int", ">= 2", "8", _with("noise"), {"covariance": "200"}),
}

DEFAULTS = {e: {key: over.get(e, default)
                for key, (_, _, default, readers, over) in SCHEMA.items()
                if e in readers}
            for e in EXPERIMENTS}


def list_experiments() -> str:
    lines = ["available experiments:"]
    for name in EXPERIMENTS:
        lines.append(f"  {name}")
        for key, val in sorted(DEFAULTS[name].items()):
            lines.append(f"    {key:<16} = {val}")
    return "\n".join(lines)


def _check_out(root: str, errors: list):
    """Refuse, before anything is made, an empty output directory name and
    one that os.makedirs cannot make because a file is in its way."""
    head = root
    while head and not os.path.lexists(head):   # up to the nearest existing path
        head = os.path.dirname(head)
    if not root:
        errors.append("--out '' names no directory")
    elif head and not os.path.isdir(head):
        errors.append(f"cannot make the output directory {root!r}: "
                      + ("File exists" if head == root else "Not a directory"))


def _clear_previous_run(root: str):
    """Delete the files that root's manifest lists in its outputs, then the
    manifest, so that root holds one run's files. Only plain file names are
    deleted: a name with a path separator, . and .., and every file that no
    manifest lists, are left as they are; the manifest goes last."""
    manifest = os.path.join(root, "manifest.json")
    try:
        with open(manifest) as fh:
            outputs = json.load(fh).get("outputs")
    except FileNotFoundError:
        return
    except (ValueError, AttributeError):    # not a manifest: it lists nothing
        outputs = None
    for name in outputs if isinstance(outputs, list) else []:
        if name in (".", "..", "manifest.json") or os.path.basename(str(name)) != name:
            continue
        path = os.path.join(root, name)
        if os.path.isfile(path):
            os.remove(path)
    os.remove(manifest)


def _print_stdout(text: str) -> int:
    """Print text to stdout: 0, or 1 if stdout is a closed pipe. Then fd 1
    points at os.devnull, so the flush at interpreter exit cannot raise
    (the recipe of the signal module's documentation)."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hasimoto-lab",
        description="Run an equivalence-lab experiment and write CSV/JSON artifacts.")
    parser.add_argument("experiment",
                        choices=[*EXPERIMENTS, "list-experiments"])
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="give one config key its value, at most once")
    parser.add_argument("--out", help="output directory "
                        "(default: $HASIMOTO_LAB_OUT/<experiment> or ./runs/<experiment>)")
    parser.add_argument("--seed", type=int, help="--set master_seed=N")
    args = parser.parse_args(argv)

    if args.experiment == "list-experiments":
        given = [flag for flag, v in (("--set", args.sets), ("--out", args.out),
                                      ("--seed", args.seed)) if v not in (None, [])]
        if given:
            print(f"config error: list-experiments takes no {', '.join(given)}",
                  file=sys.stderr)
            return 2
        return _print_stdout(list_experiments())

    errors = [f"--set expects key=value, got {item!r}"
              for item in args.sets if "=" not in item]
    sets = [tuple(s.strip() for s in item.split("=", 1))
            for item in args.sets if "=" in item]
    if args.seed is not None:
        sets.append(("master_seed", str(args.seed)))
    raw, cfg = resolve_config(args.experiment, sets, errors)
    if cfg is not None:
        try:
            with np.errstate(all="ignore"):     # overflowed data is refused, not warned
                cfg = validate(args.experiment, cfg, errors)
        except Exception as exc:
            # validation refuses before any artifact exists, so a defect there
            # is a config error too, never a traceback
            errors.append(" ".join(f"{type(exc).__name__}: {exc}".split()))
    root = args.out if args.out is not None else os.path.join(
        os.environ.get("HASIMOTO_LAB_OUT", "runs"), args.experiment)
    _check_out(root, errors)
    if errors:
        for e in dict.fromkeys(errors):         # each level may repeat one
            print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        os.makedirs(root, exist_ok=True)
        _clear_previous_run(root)
    except OSError as exc:
        print(f"config error: cannot make the output directory {root!r}: "
              f"{exc.strerror}", file=sys.stderr)
        return 2

    manifest = {"experiment": args.experiment, "config": raw,
                "master_seed": cfg.get("master_seed"),
                "version": __version__, "status": "running",
                "outputs": [], "wall_clock_s": None}
    _write_json(os.path.join(root, "manifest.json"), manifest)
    t0 = time.monotonic()
    outputs = []
    try:
        report, outputs = EXPERIMENTS[args.experiment][0](cfg, root)
        _write_json(os.path.join(root, "report.json"), report)
    except Exception as exc:
        for name in outputs:                # a failed run keeps no output
            os.remove(os.path.join(root, name))
        # no run may leave its manifest in "running"
        manifest.update(status="failed", error=str(exc),
                        error_type=type(exc).__name__,
                        wall_clock_s=time.monotonic() - t0)
        if isinstance(exc, ConfigurationError):
            msg, rc = f"config error: {exc}", 2
        elif isinstance(exc, BlowUpError):
            msg, rc = f"run failed: {exc}", 1
        else:
            # a defect: the traceback goes to the manifest, one line to the user
            manifest["traceback"] = traceback.format_exc()
            msg, rc = " ".join(f"run failed: {type(exc).__name__}: {exc}".split()), 1
        _write_json(os.path.join(root, "manifest.json"), manifest)
        print(msg, file=sys.stderr)
        return rc

    manifest.update(status="complete", outputs=sorted(outputs + ["report.json"]),
                    wall_clock_s=time.monotonic() - t0)
    _write_json(os.path.join(root, "manifest.json"), manifest)
    return _print_stdout(f"{render_report(report)}\nartifacts in {root}")


def entry() -> int:
    """main() for the console script and `python -m`, with the import heap
    frozen first: the collector then never walks it again, in forked workers
    (copying its pages) or at shutdown. main() freezes nothing, since tests
    and other callers run it in their own process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
