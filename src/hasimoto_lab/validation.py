"""Executable checks of the equivalence structure: deterministic crosscheck,
pointwise identity suite, holonomy (compatibility) defects, weak SLLG
residuals, and noise covariance statistics.

Every check is built to be falsifiable: the holonomy and residual suites
include negative controls, and the covariance check reports a 3-sigma
confidence interval rather than a bare point estimate.
"""

from dataclasses import dataclass

import numpy as np

from .fields import (ConfigurationError, Grid1D, check_field, cross, diff1, diff2,
                     dot, normalize, open_view, require_finite)
from .forks import contiguous_ranges, fork_map
from .hashimoto import curvature_torsion, node_rotations, transform
from .heat import heat_integrate
from .llg import LLGStepper, llg_integrate
from .noise import NoiseModel
from .rotations import rotation_angle, rotation_exp
from .stochastic import SllgEnsemble, frame_generator


def localized_twist(x: np.ndarray, amplitude: float = 0.25, width: float = 6.0,
                    center: float = -15.0) -> np.ndarray:
    """Rational-bump curvature profile q0 = A (1 + ((x-c)/w)^2)^(-3).

    Polynomial tails are the admissible decay class for the line-domain
    equivalence: the phase-rate boundary term behaves like (curvature)_xx /
    curvature, which decays like 1/x^2 here but tends to a positive constant
    (or diverges) for exponential or Gaussian tails.
    """
    with np.errstate(over="ignore"):            # far out the bump is 0
        return amplitude * (1.0 + ((x - center) / width) ** 2) ** -3.0 + 0j


class _Report:
    """A record whose JSON form is its fields."""

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class CrossCheckReport(_Report):
    alpha: float
    beta: float
    t_end: float
    levels: list                 # per level: dict with n, h, dt, times, disc, ...
    orders: list                 # observed orders between consecutive levels
    flagged: bool                # a heat flow's boundary decay failed somewhere


def crosscheck_deterministic(levels) -> CrossCheckReport:
    """Evolve matched initial data through both flows and compare transforms.

    levels: one (g, u0, cfg) per refinement level, of strictly increasing
    g.n and with a common alpha, beta and t_end, where u0 is the sphere map
    on g that the frame march builds from q0 with left-boundary decay, and
    cfg its StepConfig; the CLI gives each level the one-grid plan's, with
    dt and output_stride auto.
    The heat flow starts from the discrete transform of u0, so the two sides
    carry consistent discrete data (discrepancy is exactly 0 at t = 0).
    The discrepancy max_x |H(u(t)) - q(t)| is sampled along the flow. The
    2 L integrations of the L levels are independent and run in forked
    workers (forks.fork_map), the L LLG flows listed before the L heat
    flows, so that on 2 CPUs the parent runs every LLG flow and one child
    every heat flow; the results do not depend on the number of workers.
    """
    flows = {(cfg.alpha, cfg.beta, cfg.t_end) for _, _, cfg in levels}
    ns = [g.n for g, _, _ in levels]
    if len(flows) != 1 or ns != sorted(set(ns)):
        raise ConfigurationError(
            "a crosscheck needs levels of strictly increasing n with one common "
            f"alpha, beta and t_end, got n {ns} and {sorted(flows)}")
    (alpha, beta, t_end), = flows
    jobs = ([(llg_integrate, u0, g, cfg) for g, u0, cfg in levels]
            + [(heat_integrate, transform(u0, g), g, cfg) for g, u0, cfg in levels])
    trajs = fork_map(lambda job: job[0](*job[1:]), jobs)
    rows = []
    for (g, _, cfg), trl, trh in zip(levels, trajs[:len(levels)], trajs[len(levels):]):
        absd = (np.abs(transform(u, g) - q) for u, q in zip(trl.states, trh.states))
        disc = np.array([(np.max(a), np.sqrt(g.h * np.sum(a ** 2))) for a in absd])
        disc_max, disc_l2 = disc.T
        rows.append({"n": g.n, "h": g.h, "dt": cfg.dt, "times": trl.times.tolist(),
                     "disc_max": disc_max.tolist(), "disc_l2": disc_l2.tolist(),
                     "sup_disc": float(np.max(disc_max)),
                     "decay_ok": trh.decay_ok})
    sups = [lv["sup_disc"] for lv in rows]
    orders = ([float(np.log2(a / b)) for a, b in zip(sups, sups[1:])]
              if all(s > 0 for s in sups) else [])
    return CrossCheckReport(alpha=alpha, beta=beta, t_end=t_end, levels=rows,
                            orders=orders,
                            flagged=not all(lv["decay_ok"] for lv in rows))


@dataclass
class IdentityReport(_Report):
    skipped: bool
    valid_fraction: float
    lagrange_max_rel: float
    uxx_expansion_max: float     # | |u_xx|^2 - (Theta^4 + Theta_x^2 + eta^2 Theta^2) |
    u_uxxx_max: float            # | <u, u_xxx> + 3 Theta Theta_x |
    ratio_identity_max: float    # | Theta_x^2 - |u x u_xx|^2 + eta^2 Theta^2 |


def identity_suite(u: np.ndarray, g: Grid1D) -> IdentityReport:
    """Node-wise residuals of the pointwise identities behind the equivalence.

    All residuals are evaluated with the discrete operators, so O(h^2) is the
    expected size on smooth maps; the Lagrange identity is purely algebraic
    and holds to round-off.
    """
    ct = curvature_torsion(u, g)
    if ct.all_invalid:
        return IdentityReport(skipped=True, valid_fraction=0.0,
                              lagrange_max_rel=0.0, uxx_expansion_max=0.0,
                              u_uxxx_max=0.0, ratio_identity_max=0.0)
    mask = ct.valid_mask
    ux = diff1(u, g)
    uxx = diff2(u, g)
    uxxx = diff1(uxx, g)
    th, eta = ct.theta, ct.eta
    th_x = diff1(th, g)

    a2 = dot(ux, ux)
    b2 = dot(uxx, uxx)
    ux_uxx = cross(ux, uxx)
    lag = np.abs(a2 * b2 - dot(ux_uxx, ux_uxx) - dot(ux, uxx) ** 2)
    lag_rel = lag / np.maximum(a2 * b2, 1e-300)

    expansion = np.abs(b2 - (th ** 4 + th_x ** 2 + eta ** 2 * th ** 2))
    third = np.abs(dot(u, uxxx) + 3.0 * th * th_x)
    u_uxx = cross(u, uxx)
    ratio = np.abs(th_x ** 2 - dot(u_uxx, u_uxx) + eta ** 2 * th ** 2)

    return IdentityReport(
        skipped=False,
        valid_fraction=float(np.mean(mask)),
        lagrange_max_rel=float(np.max(lag_rel[mask])),
        uxx_expansion_max=float(np.max(expansion[mask])),
        u_uxxx_max=float(np.max(third[mask])),
        ratio_identity_max=float(np.max(ratio[mask])),
    )


@dataclass
class HolonomyReport(_Report):
    max_defect: float
    mean_defect: float


def holonomy_defect(q_path, g: Grid1D, alpha: float, beta: float,
                    dt: float) -> HolonomyReport:
    """Plaquette-commutation defect of the space/time frame propagators.

    For every space-time plaquette, the two transport orders (x then t
    versus t then x) are composed from exact rotation exponentials of the
    midpoint generators; the defect is the rotation angle between them. It
    decays at higher order when q solves the heat equation (compatibility)
    and plateaus otherwise. Deterministic coefficients only. q_path holds
    at least 2 time levels, since a single one has no plaquette.
    """
    q_path = np.asarray(q_path)
    if len(q_path) < 2:
        raise ConfigurationError(
            f"a holonomy defect needs >= 2 time levels, got {len(q_path)}")
    worst, total, count = 0.0, 0.0, 0
    Xt = node_rotations(q_path[0, :-1], q_path[0, 1:], g)
    for qb, qt in zip(q_path[:-1], q_path[1:]):
        # x-transport at the bottom / top time levels: the top's is the next bottom's
        Xb, Xt = Xt, node_rotations(qt[:-1], qt[1:], g)
        p, C = frame_generator(0.5 * (qb + qt), g, alpha, beta)
        T = rotation_exp(dt * p.real, dt * p.imag, dt * C)
        P1 = T[1:] @ Xb                       # x-step then t-step
        P2 = Xt @ T[:-1]                      # t-step then x-step
        ang = rotation_angle(P1 @ np.swapaxes(P2, -1, -2))
        worst = max(worst, float(np.max(ang)))
        total += float(np.sum(ang))
        count += ang.size
    return HolonomyReport(max_defect=worst, mean_defect=total / count)


@dataclass
class ResidualReport(_Report):
    mean: float
    stderr: float
    n_paths: int


def _path_sums(phi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum phi.f of an (n, 3) test function with each path of a (P, n, 3)
    field, shape (P,). Each path's products are contiguous, so its sum is
    added in the same order as for the path alone."""
    return np.sum((phi * f).reshape(len(f), np.size(phi)), axis=1)


def _with_spread(values: np.ndarray, what: str) -> np.ndarray:
    """values, the per-path sample of a standard error, refused if it has no
    spread, since the error would then read 0: a single path, or paths that
    all give one value, as when the noise is zero or underflows."""
    if len(values) < 2:
        raise ConfigurationError(
            f"a standard error needs at least 2 paths, got {len(values)}")
    if np.all(values == values[0]):
        raise ConfigurationError(f"all {len(values)} paths give the same {what}: "
                                 "no spread (the noise is zero or underflows)")
    return values


def _per_path(fn, paths: SllgEnsemble) -> np.ndarray:
    """fn's arrays over the paths, whose last axis is the path axis: fn of
    each range of forks.contiguous_ranges (the march's ranges) in a forked
    worker, joined along that axis. fn computes each path's values as for
    the path alone, so they do not depend on the number of workers."""
    return np.concatenate(fork_map(lambda r: fn(paths.view(r)),
                                   contiguous_ranges(paths.n_paths)), axis=-1)


def _check_inputs(paths: SllgEnsemble, tests: list):
    """A check over the steps needs one, and finite (n, 3) test functions."""
    if paths.n_steps < 1:
        raise ConfigurationError("the ensemble has no time step (need >= 1)")
    check_field((paths.grid.n, 3), "a test function", *tests)
    require_finite("every test function", *tests)


def weak_residual(paths: SllgEnsemble, phi: np.ndarray,
                  noise_rule: str = "midpoint") -> np.ndarray:
    """Weak SLLG residual R(phi) of every path of an SllgEnsemble, shape (P,),
    on the ensemble's grid and coefficients.

    R = <u(T) - u(0), phi> - int <beta u x u_xx - alpha u x (u x u_xx), phi> dt
        - sum <u x dW~, phi>, with Stratonovich midpoint sums. Spatial
    derivatives use the open-curve view of the grid: the reconstruction does
    not close on the circle, so periodic stencils would be invalid at the seam.
    The sums run step by step over all paths of a range at once, and the
    ranges of _per_path in forked workers.

    On a periodic grid the one-sided stencils at the seam give the mean of R
    a spatial O(h^2) bias. It does not change with dt (-2.9e-5 to -3.7e-5 at
    n = 64 for dt from 2e-3 down to 2.5e-4), it shrinks with n (-1.35e-4,
    -3.1e-5 and -5.5e-6 at n = 32, 64 and 128, dt = 5e-4), and it goes away
    for a phi that vanishes to high order at the seam (phi sin(x/2)^8).
    Measured with alpha = beta = 0.5, q0 = 0.2 + 0.06 cos x, 4 modes,
    t_end = 0.02 and 8000 paths; a 3-sigma gate on the mean sees it only
    with a few thousand paths.

    noise_rule "left" replaces the Stratonovich midpoint in the noise pairing
    by the left endpoint (an Ito sum). That is a deliberate negative control:
    it must produce a clearly biased residual.
    """
    if noise_rule not in ("midpoint", "left"):
        raise ConfigurationError(f"unknown noise rule {noise_rule!r}")
    _check_inputs(paths, [phi])
    return _per_path(lambda part: _residuals(part, phi, noise_rule), paths)


def _residuals(paths: SllgEnsemble, phi: np.ndarray, noise_rule: str) -> np.ndarray:
    """weak_residual of every path, in this process."""
    g, cfg = paths.grid, paths.cfg
    dt, h, u = cfg.dt, g.h, paths.u
    drift = LLGStepper(open_view(g), cfg.alpha, cfg.beta)   # rhs on (3, P, n) views
    f = np.empty(u.shape[1:])
    drift.size(f.transpose(2, 0, 1))
    R = h * _path_sums(phi, u[-1] - u[0])
    for k in range(paths.n_steps):
        u_mid = normalize(0.5 * (u[k] + u[k + 1]))
        drift.rhs(u_mid.transpose(2, 0, 1), f.transpose(2, 0, 1))
        R -= dt * h * _path_sums(phi, f)
        u_noise = u_mid if noise_rule == "midpoint" else u[k]
        R -= h * _path_sums(phi, cross(u_noise, paths.dW_tilde[k]))
    return R


def sllg_weak_residual(paths: SllgEnsemble, phi: np.ndarray,
                       noise_rule: str = "midpoint") -> ResidualReport:
    """Ensemble mean and standard error of the weak residual over paths; one
    path has no spread, so at least two are needed, with unequal residuals."""
    rs = _with_spread(weak_residual(paths, phi, noise_rule), "weak residual")
    stderr = float(np.std(rs, ddof=1) / np.sqrt(len(rs)))
    return ResidualReport(mean=float(np.mean(rs)), stderr=stderr, n_paths=len(rs))


@dataclass
class CovarianceReport(_Report):
    mc_estimate: float
    mc_ci3: float                # 3-sigma half width of the Monte Carlo estimate
    direct: float                # time-quadrature of the covariance formula
    n_paths: int
    t: float

    @property
    def within_3sigma(self) -> bool:
        return abs(self.mc_estimate - self.direct) <= self.mc_ci3

    def to_dict(self) -> dict:
        return super().to_dict() | {"within_3sigma": self.within_3sigma}


def _mode_projections(nm: NoiseModel, phi: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Projections sigma_l . <phi, F> of each path of a (P, n, 3) field onto
    the noise modes, shape (P, L): one matrix-vector product per path, as for
    the path alone."""
    return (nm.basis @ dot(phi, F)[:, :, None])[:, :, 0]


def covariance_checks(paths: SllgEnsemble, pairs) -> list:
    """Monte Carlo E[<W~, phi><W~, psi>] versus the frame-projection formula
    of the ensemble's noise model, one CovarianceReport per (phi, psi) of
    pairs.

    Both sides are estimated from the same ensemble: the Monte Carlo side from
    the assembled W~ increments, the direct side by time quadrature of the
    ensemble-averaged products of frame projections onto the noise modes.
    One pass serves every pair: each step builds the midpoint frames once
    and projects each distinct test function (by identity) once. It runs
    step by step over all paths of a range at once, and the ranges of
    _per_path in forked workers; the means and spreads are taken here. One
    path has no spread, so at least two are needed, with unequal Monte Carlo
    products.
    """
    pairs = list(pairs)
    if not pairs:
        raise ConfigurationError("no (phi, psi) pair to check")
    _check_inputs(paths, [f for pair in pairs for f in pair])
    prods, directs = _per_path(lambda part: _covariance_samples(part, pairs), paths)
    n, t = paths.n_paths, float(paths.times[-1])
    reports = []
    for prod, direct in zip(prods, directs):
        _with_spread(prod, "product <W~, phi> <W~, psi>")
        reports.append(CovarianceReport(
            mc_estimate=float(np.mean(prod)),
            mc_ci3=float(3.0 * np.std(prod, ddof=1) / np.sqrt(n)),
            direct=float(np.mean(direct)), n_paths=n, t=t))
    return reports


def _covariance_samples(paths: SllgEnsemble, pairs: list) -> np.ndarray:
    """Per pair and path, the Monte Carlo product and the direct quadrature,
    shape (2, len(pairs), P), in this process."""
    nm, dt, h = paths.noise, paths.cfg.dt, paths.grid.h
    c2 = nm.coeffs ** 2
    Wt = np.sum(paths.dW_tilde, axis=0)
    prods = [h * _path_sums(phi, Wt) * (h * _path_sums(psi, Wt)) for phi, psi in pairs]
    tests = {id(f): f for pair in pairs for f in pair}
    u, e = paths.u, paths.e
    directs = np.zeros((len(pairs), paths.n_paths))
    uxe = cross(u[0], e[0])
    for k in range(paths.n_steps):
        uxe_next = cross(u[k + 1], e[k + 1])
        for F in (0.5 * (u[k] + u[k + 1]), 0.5 * (e[k] + e[k + 1]),
                  0.5 * (uxe + uxe_next)):
            proj = {i: h * _mode_projections(nm, f, F) for i, f in tests.items()}
            for direct, (phi, psi) in zip(directs, pairs):
                direct += dt * np.sum(c2 * proj[id(phi)] * proj[id(psi)], axis=1)
        uxe = uxe_next
    return np.array([prods, directs])
