"""Experiment runner.

Usage: hasimoto-lab <experiment> [--config FILE] [--set key=value ...]
                                 [--out DIR] [--seed N]

Experiments: llg, heat, crosscheck, identities, sllg, holonomy, covariance,
plus the catalog command list-experiments. Config files are flat key=value
text; every key can also be overridden on the command line with --set.
Outputs per run: series_*.csv (time series), report.json (structured result),
manifest.json (resolved config, seed, version, wall clock, monitor flags).
(config, master_seed) fully determines every CSV byte.
"""

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .fields import (BlowUpError, ConfigurationError, Grid1D, line_grid,
                     make_grid, time_steps)
from .hashimoto import FrameField, closure_defect, reconstruct_frame, transform
from .heat import HeatConfig, heat_integrate, mass
from .llg import LLGConfig, auto_dt, exchange_energy, llg_integrate
from .noise import make_noise_model
from .stochastic import SLLGConfig, run_sllg_ensemble
from .validation import (covariance_check, crosscheck_deterministic,
                         holonomy_defect, identity_suite, localized_twist,
                         sllg_weak_residual)

EXPERIMENTS = ("llg", "heat", "crosscheck", "identities", "sllg",
               "holonomy", "covariance")

# per-experiment defaults; every key is overridable via config file or --set
_COMMON = {
    "domain": "periodic", "n": "64", "circumference": "6.283185307179586",
    "x_min": "-90.0", "x_max": "20.0", "basepoint_index": "0",
    "alpha": "1.0", "beta": "1.0", "dt": "auto", "t_end": "0.1",
    "output_stride": "auto", "master_seed": "0",
    "initial_data": "great-circle", "k": "1.0",
    "amplitude": "0.25", "width": "6.0", "center": "-15.0", "power": "3",
    "initial_file": "",
}

DEFAULTS = {
    "llg": dict(_COMMON),
    "heat": dict(_COMMON),
    # crosscheck picks each level's dt and its sampling stride itself
    "crosscheck": dict({k: v for k, v in _COMMON.items()
                        if k not in ("dt", "output_stride")},
                       domain="line", x_min="-250.0",
                       initial_data="localized-twist",
                       grid_sizes="128,256,512", samples="10"),
    "identities": dict(_COMMON, domain="line", n="256",
                       initial_data="localized-twist"),
    "sllg": dict(_COMMON, alpha="0.5", beta="0.5", dt="0.001", t_end="0.02",
                 n_modes="4", coeff_profile="flat", coeff_decay="1.0",
                 coeff_amplitude="1.0", n_paths="8"),
    "holonomy": dict(_COMMON, domain="line", x_min="-30.0", x_max="10.0",
                     n="128", t_end="0.02", initial_data="localized-twist",
                     amplitude="0.4", width="3.0", center="-10.0"),
    "covariance": dict(_COMMON, alpha="0.5", beta="0.5", dt="0.001",
                       t_end="0.01", n_modes="4", coeff_profile="flat",
                       coeff_decay="1.0", coeff_amplitude="1.0",
                       n_paths="200", master_seed="77"),
}

VALIDATING_MODULE = {
    "llg": "llg_solver", "heat": "heat_solver", "crosscheck": "validation",
    "identities": "validation", "sllg": "stochastic + validation",
    "holonomy": "validation", "covariance": "validation",
}


def read_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def resolve_config(experiment: str, file_cfg: dict, sets: list,
                   seed, errors: list) -> dict:
    cfg = dict(DEFAULTS[experiment])
    for src in (file_cfg, dict(sets)):
        for key, val in src.items():
            if key not in cfg:
                errors.append(f"unknown config key {key!r} for experiment {experiment}")
            else:
                cfg[key] = val
    if seed is not None:
        cfg["master_seed"] = str(seed)
    return cfg


def _num(cfg, key, cast, errors, cond=lambda v: True, what=""):
    try:
        v = cast(cfg[key])
        if not cond(v):
            raise ValueError
        return v
    except (ValueError, KeyError):
        errors.append(f"config key {key}={cfg.get(key)!r} invalid {what}".rstrip())
        return None


def resolve_grid(cfg: dict, errors: list):
    try:
        return make_grid({"domain": cfg["domain"], "n": cfg["n"],
                          "circumference": cfg["circumference"],
                          "x_min": cfg["x_min"], "x_max": cfg["x_max"],
                          "basepoint_index": cfg["basepoint_index"]})
    except (ConfigurationError, ValueError, KeyError) as exc:
        errors.append(f"grid: {exc}")
        return None


def _t_end(cfg: dict, errors: list):
    return _num(cfg, "t_end", float, errors, lambda v: 0 <= v < np.inf,
                "(need finite >= 0)")


def resolve_dt(cfg: dict, g, alpha: float, beta: float, errors: list):
    """dt = 'auto' is llg.auto_dt; an explicit dt must divide t_end."""
    t_end = _t_end(cfg, errors)
    if t_end is None or g is None:
        return None, t_end
    if cfg["dt"] == "auto":
        try:
            return auto_dt(g, alpha, beta, t_end), t_end
        except ConfigurationError as exc:
            errors.append(str(exc))
            return None, t_end
    dt = _num(cfg, "dt", float, errors, lambda v: 0 < v < np.inf, "(need finite > 0)")
    if dt is not None:
        try:
            time_steps(dt, t_end, rel_tol=1e-9)
        except ConfigurationError as exc:
            errors.append(str(exc))
    return dt, t_end


def resolve_stride(cfg: dict, n_steps: int, errors: list) -> int:
    if cfg["output_stride"] == "auto":
        return max(1, n_steps // 10)
    s = _num(cfg, "output_stride", int, errors, lambda v: v >= 1, "(need >= 1)")
    return s if s is not None else 1


def _load_initial_file(cfg: dict, g: Grid1D, columns: str, errors: list):
    """The g.n data rows of the CSV initial_file, one column per name in columns."""
    path = cfg["initial_file"]
    if not path or not os.path.isfile(path):
        errors.append(f"initial_file {path!r} missing or not a file")
        return None
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        errors.append(f"initial_file {path!r} is not numeric CSV: {exc}")
        return None
    if data.shape != (g.n, len(columns.split(","))):
        errors.append(f"initial_file must have {g.n} rows of {columns}; got {data.shape}")
        return None
    return data


def build_initial_q(cfg: dict, g: Grid1D, errors: list):
    kind = cfg["initial_data"]
    if kind == "great-circle":
        k = _num(cfg, "k", float, errors)
        if k is None:
            return None
        return k * np.ones(g.n, dtype=complex)
    if kind == "localized-twist":
        amp = _num(cfg, "amplitude", float, errors)
        width = _num(cfg, "width", float, errors, lambda v: v > 0, "(need > 0)")
        center = _num(cfg, "center", float, errors)
        power = _num(cfg, "power", int, errors, lambda v: v >= 1, "(need >= 1)")
        if None in (amp, width, center, power):
            return None
        return localized_twist(g.x, amp, width, center, power)
    if kind == "file":
        data = _load_initial_file(cfg, g, "re,im", errors)
        return None if data is None else data[:, 0] + 1j * data[:, 1]
    errors.append(f"unknown initial_data {kind!r}")
    return None


def build_initial_u(cfg: dict, g: Grid1D, errors: list):
    kind = cfg["initial_data"]
    if kind == "great-circle":
        k = _num(cfg, "k", float, errors)
        if k is None:
            return None
        if g.periodic and abs(k * g.length / (2.0 * np.pi) -
                              round(k * g.length / (2.0 * np.pi))) > 1e-12:
            errors.append("great-circle k must close on the periodic domain")
            return None
        return np.stack([np.cos(k * g.x), np.sin(k * g.x),
                         np.zeros(g.n)], axis=-1)
    if kind == "file":
        data = _load_initial_file(cfg, g, "ux,uy,uz", errors)
        if data is None:
            return None
        nrm = np.sqrt(np.sum(data * data, axis=-1))
        if np.max(np.abs(nrm - 1.0)) > 1e-8:
            errors.append("initial_file sphere field is not unit length")
            return None
        return data / nrm[:, None]
    q0 = build_initial_q(cfg, g, errors)
    if q0 is None:
        return None
    return reconstruct_frame(q0, g, np.array([1.0, 0.0, 0.0]),
                             np.array([0.0, 1.0, 0.0])).u


def _fmt(v) -> str:
    # repr round-trips floats exactly, keeping outputs byte-deterministic
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header: list, frames) -> None:
    """Write a CSV one frame at a time.

    Each frame is a tuple of columns: 1-D arrays of one common length, or
    scalars that stand for a constant column. Cells are the repr of Python
    scalars, which round-trips floats exactly, so output is byte-deterministic.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for frame in frames:
            cols = [np.asarray(c) for c in frame]
            rows = max((c.shape[0] for c in cols if c.ndim), default=1)
            cells = [[repr(c.item())] * rows if c.ndim == 0
                     else list(map(repr, c.tolist())) for c in cols]
            fh.write("".join([",".join(r) + "\n" for r in zip(*cells)]))


def _node_frames(g: Grid1D, samples):
    """write_csv frames (t, node, x, *columns) of (t, (n, c) state) samples."""
    nodes = np.arange(g.n)
    return ((t, nodes, g.x, *s.T) for t, s in samples)


def render_report(report: dict) -> str:
    """Aligned key/value text for humans; nested dicts are flattened."""
    flat = []

    def walk(prefix, obj):
        for k, v in obj.items():
            if isinstance(v, dict):
                walk(f"{prefix}{k}.", v)
            else:
                flat.append((f"{prefix}{k}", v))

    walk("", report)
    rows = [(k, v if isinstance(v, (int, float, bool, str)) else "...")
            for k, v in flat]
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k:<{width}}  {_fmt(v)}" for k, v in rows)


# --- experiment bodies ---
# Each runner parses and validates first and raises ConfigurationError with
# every violated precondition; with validate_only=True it stops there, so
# main() can refuse bad configs before any artifact is written. Otherwise it
# returns (report dict, monitors dict, list of CSV filenames).

def run_llg(cfg, g, outdir, validate_only=False):
    errors = []
    alpha = _num(cfg, "alpha", float, errors, lambda v: v >= 0, "(need >= 0)")
    beta = _num(cfg, "beta", float, errors)
    dt, t_end = resolve_dt(cfg, g, alpha or 0.0, beta or 0.0, errors)
    u0 = build_initial_u(cfg, g, errors)
    if errors:
        raise ConfigurationError("; ".join(errors))
    n_steps = time_steps(dt, t_end)
    stride = resolve_stride(cfg, n_steps, errors)
    lcfg = LLGConfig(alpha=alpha, beta=beta, dt=dt, t_end=t_end,
                     output_stride=stride)
    lcfg.check_stability(g)
    if validate_only:
        return None
    traj = llg_integrate(u0, g, lcfg)
    write_csv(os.path.join(outdir, "series_u.csv"),
              ["t", "node", "x", "ux", "uy", "uz"],
              _node_frames(g, zip(traj.times, traj.states)))
    unit_dev = max(float(np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)))
                   for u in traj.states)
    report = {"dt": dt, "n_steps": n_steps,
              "energy_initial": exchange_energy(traj.states[0], g),
              "energy_final": exchange_energy(traj.states[-1], g),
              "unit_deviation_max": unit_dev}
    return report, {"blow_up": False}, ["series_u.csv"]


def run_heat(cfg, g, outdir, validate_only=False):
    errors = []
    alpha = _num(cfg, "alpha", float, errors, lambda v: v >= 0, "(need >= 0)")
    beta = _num(cfg, "beta", float, errors)
    dt, t_end = resolve_dt(cfg, g, alpha or 0.0, beta or 0.0, errors)
    q0 = build_initial_q(cfg, g, errors)
    if errors:
        raise ConfigurationError("; ".join(errors))
    n_steps = time_steps(dt, t_end)
    stride = resolve_stride(cfg, n_steps, errors)
    hcfg = HeatConfig(alpha=alpha, beta=beta, dt=dt, t_end=t_end,
                      output_stride=stride)
    hcfg.check_stability(g)
    if validate_only:
        return None
    traj = heat_integrate(q0, g, hcfg)
    write_csv(os.path.join(outdir, "series_q.csv"), ["t", "node", "x", "re", "im"],
              _node_frames(g, ((t, np.stack([q.real, q.imag], axis=-1))
                               for t, q in zip(traj.times, traj.states))))
    report = {"dt": dt, "n_steps": n_steps,
              "mass_initial": mass(traj.states[0], g),
              "mass_final": mass(traj.states[-1], g),
              "decay_ok": bool(traj.decay_ok)}
    return report, {"decay_ok": bool(traj.decay_ok)}, ["series_q.csv"]


def run_crosscheck(cfg, g, outdir, validate_only=False):
    errors = []
    alpha = _num(cfg, "alpha", float, errors, lambda v: v >= 0, "(need >= 0)")
    beta = _num(cfg, "beta", float, errors)
    t_end = _t_end(cfg, errors)
    samples = _num(cfg, "samples", int, errors, lambda v: v >= 1, "(need >= 1)")
    amp = _num(cfg, "amplitude", float, errors)
    width = _num(cfg, "width", float, errors, lambda v: v > 0, "(need > 0)")
    center = _num(cfg, "center", float, errors)
    power = _num(cfg, "power", int, errors, lambda v: v >= 1, "(need >= 1)")
    x_min = _num(cfg, "x_min", float, errors)
    x_max = _num(cfg, "x_max", float, errors)
    try:
        sizes = tuple(int(s) for s in cfg["grid_sizes"].split(","))
        if not sizes or any(s < 4 for s in sizes):
            raise ValueError
    except ValueError:
        errors.append(f"grid_sizes={cfg.get('grid_sizes')!r} invalid")
        sizes = ()
    if cfg["initial_data"] != "localized-twist":
        errors.append("crosscheck supports initial_data=localized-twist only")
    if errors:
        raise ConfigurationError("; ".join(errors))
    for n in sizes:                     # each level's grid and automatic dt
        auto_dt(line_grid(x_min, x_max, n), alpha, beta, t_end)
    if validate_only:
        return None
    rep = crosscheck_deterministic(
        lambda x: localized_twist(x, amp, width, center, power),
        x_min, x_max, alpha, beta, t_end, grid_sizes=sizes, samples=samples)
    write_csv(os.path.join(outdir, "series_discrepancy.csv"),
              ["n", "t", "disc_max", "disc_l2"],
              ((lv["n"], lv["times"], lv["disc_max"], lv["disc_l2"])
               for lv in rep.levels))
    return rep.to_dict(), {"decay_ok": not rep.flagged}, ["series_discrepancy.csv"]


def run_identities(cfg, g, outdir, validate_only=False):
    errors = []
    u = build_initial_u(cfg, g, errors)
    if errors:
        raise ConfigurationError("; ".join(errors))
    if validate_only:
        return None
    rep = identity_suite(u, g)
    return rep.to_dict(), {"skipped": rep.skipped}, []


def _standard_phi(g: Grid1D) -> np.ndarray:
    return np.stack([np.cos(g.x), np.sin(g.x), 0.3 * np.ones(g.n)], axis=-1)


def _sllg_setup(cfg, g, errors):
    alpha = _num(cfg, "alpha", float, errors, lambda v: v >= 0, "(need >= 0)")
    beta = _num(cfg, "beta", float, errors)
    dt, t_end = resolve_dt(cfg, g, alpha or 0.0, beta or 0.0, errors)
    n_modes = _num(cfg, "n_modes", int, errors, lambda v: v >= 0, "(need >= 0)")
    decay = _num(cfg, "coeff_decay", float, errors)
    amp = _num(cfg, "coeff_amplitude", float, errors, lambda v: v >= 0, "(need >= 0)")
    # a single path has no spread, so its stderr and 3-sigma band would be 0
    n_paths = _num(cfg, "n_paths", int, errors, lambda v: v >= 2, "(need >= 2)")
    seed = _num(cfg, "master_seed", int, errors)
    q0 = build_initial_q(cfg, g, errors)
    if errors:
        raise ConfigurationError("; ".join(errors))
    scfg = SLLGConfig(alpha=alpha, beta=beta, dt=dt, t_end=t_end,
                      n_modes=n_modes, coeff_profile=cfg["coeff_profile"],
                      coeff_decay=decay, coeff_amplitude=amp)
    scfg.check_stability(g)
    if scfg.n_steps < 1:
        raise ConfigurationError(
            f"t_end={t_end!r} with dt={dt!r} gives no time step (need >= 1)")
    return scfg, q0, n_paths, seed


def run_sllg_experiment(cfg, g, outdir, validate_only=False):
    errors = []
    scfg, q0, n_paths, seed = _sllg_setup(cfg, g, errors)
    if validate_only:
        return None
    m = np.array([1.0, 0.0, 0.0])
    e0 = np.array([0.0, 1.0, 0.0])
    ens = run_sllg_ensemble(q0, g, m, e0, scfg, seed, n_paths)
    stride = resolve_stride(cfg, scfg.n_steps, errors)
    p0 = ens.path(0)
    keep = [k for k in range(len(p0.times))
            if k % stride == 0 or k == len(p0.times) - 1]
    write_csv(os.path.join(outdir, "series_u.csv"),
              ["t", "node", "x", "ux", "uy", "uz"],
              _node_frames(g, ((p0.times[k], p0.u[k]) for k in keep)))
    res = sllg_weak_residual(ens, g, scfg.alpha, scfg.beta, _standard_phi(g))
    closure = float(np.mean(closure_defect(
        ens.q[-1], g, FrameField(u=ens.u[-1], e=ens.e[-1])))) if g.periodic else 0.0
    report = {"dt": scfg.dt, "n_steps": scfg.n_steps, "n_paths": n_paths,
              "weak_residual": res.to_dict(), "mean_closure_defect": closure}
    return report, {"blow_up": False, "closure_defect": closure}, ["series_u.csv"]


def run_holonomy(cfg, g, outdir, validate_only=False):
    errors = []
    alpha = _num(cfg, "alpha", float, errors, lambda v: v >= 0, "(need >= 0)")
    beta = _num(cfg, "beta", float, errors)
    dt, t_end = resolve_dt(cfg, g, alpha or 0.0, beta or 0.0, errors)
    q0 = build_initial_q(cfg, g, errors)
    if errors:
        raise ConfigurationError("; ".join(errors))
    hcfg = HeatConfig(alpha=alpha, beta=beta, dt=dt, t_end=t_end)
    hcfg.check_stability(g)
    if validate_only:
        return None
    traj = heat_integrate(q0, g, hcfg)
    q_path = np.array(traj.states)
    pos = holonomy_defect(q_path, g, alpha, beta, dt)
    frozen = holonomy_defect(np.array([q0] * q_path.shape[0]), g, alpha, beta, dt)
    report = {"dt": dt, "t_end": t_end,
              "solution": pos.to_dict(), "frozen_control": frozen.to_dict(),
              "separation": frozen.max_defect / max(pos.max_defect, 1e-300)}
    return report, {"decay_ok": bool(traj.decay_ok)}, []


def run_covariance(cfg, g, outdir, validate_only=False):
    errors = []
    scfg, q0, n_paths, seed = _sllg_setup(cfg, g, errors)
    if validate_only:
        return None
    m = np.array([1.0, 0.0, 0.0])
    e0 = np.array([0.0, 1.0, 0.0])
    ens = run_sllg_ensemble(q0, g, m, e0, scfg, seed, n_paths)
    nm = make_noise_model(g, scfg.n_modes, seed, scfg.coeff_profile,
                          scfg.coeff_decay, scfg.coeff_amplitude)
    one = np.ones(g.n)
    zero = np.zeros(g.n)
    phi1 = _standard_phi(g)
    phi2 = np.stack([zero, zero, one], axis=-1)
    phi3 = np.stack([np.sin(2.0 * g.x), zero, np.cos(g.x)], axis=-1)
    pairs = {"phi1_phi1": (phi1, phi1), "phi1_phi2": (phi1, phi2),
             "phi2_phi3": (phi2, phi3)}
    report = {"n_paths": n_paths, "t": scfg.t_end,
              "pairs": {name: covariance_check(ens, g, nm, p, s).to_dict()
                        for name, (p, s) in pairs.items()}}
    ok = all(v["within_3sigma"] for v in report["pairs"].values())
    return report, {"all_within_3sigma": ok}, []


RUNNERS = {"llg": run_llg, "heat": run_heat, "crosscheck": run_crosscheck,
           "identities": run_identities, "sllg": run_sllg_experiment,
           "holonomy": run_holonomy, "covariance": run_covariance}


def list_experiments() -> str:
    lines = ["available experiments:"]
    for name in EXPERIMENTS:
        lines.append(f"  {name:<12} validated by: {VALIDATING_MODULE[name]}")
        defaults = DEFAULTS[name]
        for key in sorted(defaults):
            lines.append(f"    {key:<16} = {defaults[key]}")
    return "\n".join(lines)


def write_manifest(outdir: str, payload: dict) -> None:
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hasimoto-lab",
        description="Run an equivalence-lab experiment and write CSV/JSON artifacts.")
    parser.add_argument("experiment",
                        choices=EXPERIMENTS + ("list-experiments",))
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--out", help="output directory "
                        "(default: $HASIMOTO_LAB_OUT/<experiment> or ./runs/<experiment>)")
    parser.add_argument("--seed", type=int, help="override master_seed")
    args = parser.parse_args(argv)

    if args.experiment == "list-experiments":
        print(list_experiments())
        return 0

    errors = []
    file_cfg = {}
    if args.config:
        try:
            file_cfg = read_config_file(args.config)
        except (OSError, ConfigurationError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    sets = []
    for item in args.sets:
        if "=" not in item:
            errors.append(f"--set expects key=value, got {item!r}")
            continue
        key, val = item.split("=", 1)
        sets.append((key.strip(), val.strip()))
    cfg = resolve_config(args.experiment, file_cfg, sets, args.seed, errors)
    try:
        g = resolve_grid(cfg, errors)
        if g is not None and not errors:
            RUNNERS[args.experiment](cfg, g, None, validate_only=True)
    except ConfigurationError as exc:
        errors.extend(str(exc).split("; "))
    except Exception as exc:
        # validation refuses before any artifact exists, so a defect there
        # is a config error too, never a traceback
        errors.append(" ".join(f"{type(exc).__name__}: {exc}".split()))
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2

    root = args.out or os.path.join(os.environ.get("HASIMOTO_LAB_OUT", "runs"),
                                    args.experiment)
    os.makedirs(root, exist_ok=True)

    manifest = {"experiment": args.experiment, "config": cfg,
                "master_seed": int(cfg["master_seed"]),
                "version": __version__, "status": "running",
                "outputs": [], "monitors": {}, "wall_clock_s": None}
    write_manifest(root, manifest)
    t0 = time.monotonic()
    try:
        report, monitors, outputs = RUNNERS[args.experiment](cfg, g, root)
    except Exception as exc:
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
        write_manifest(root, manifest)
        print(msg, file=sys.stderr)
        return rc

    with open(os.path.join(root, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.update(status="complete", monitors=monitors,
                    outputs=sorted(outputs + ["report.json"]),
                    wall_clock_s=time.monotonic() - t0)
    write_manifest(root, manifest)
    print(render_report(report))
    print(f"artifacts in {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
