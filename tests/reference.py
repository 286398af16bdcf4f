"""Readable reference formulas for the tests: node-first stencils, the
trapezoid sum, the cross product, the LLG and heat right-hand sides and the
classical RK4 step.

The package keeps one implementation of each, its *_into kernels and the
steppers' rhs, written into preallocated buffers. These copies share no
arithmetic with the package, so a test that compares the two bit for bit
checks the package against an independent formula.

Two oracles that no run calls: the closed-form time rates of (Theta, eta)
along the LLG flow, and (Theta, eta) read directly from q.

Also the tests' convergence-order fit, the crosscheck levels a test
builds from a curvature profile q0(x), with their own copy of the CLI's
dt=auto and output_stride=auto rules, and the batched weak residual of one
noise pairing per pass, on the package's kernels, which each row of
validation.weak_residual must equal bit for bit.
"""

import numpy as np

from hasimoto_lab import fields
from hasimoto_lab.fields import line_grid, open_view, time_steps
from hasimoto_lab.hashimoto import BASEPOINT_FRAME, CurvatureTorsion, reconstruct_frame
from hasimoto_lab.llg import LLGDrift, StepConfig, auto_dt
from hasimoto_lab.validation import _path_sums


def diff1(f, g):
    """Second-order first derivative; one-sided stencils at line endpoints."""
    h = g.h
    if g.periodic:
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * h)
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return d


def diff2(f, g):
    """Second-order second derivative; one-sided stencils at line endpoints."""
    h2 = g.h * g.h
    if g.periodic:
        return (np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)) / h2
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    d[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
    d[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return d


def cumint(f, g):
    """Cumulative trapezoid of f from node 0, the basepoint; value 0 there."""
    F = np.empty_like(f)
    F[0] = 0.0
    np.cumsum(0.5 * g.h * (f[1:] + f[:-1]), axis=0, out=F[1:])
    return F


def cross(a, b):
    """a x b over the last axis, in np.cross's operation order."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def llg_rhs(u, g, alpha, beta):
    """beta u x u_xx - alpha u x (u x u_xx)."""
    uxx = diff2(u, g)
    uxuxx = cross(u, uxx)
    return beta * uxuxx - alpha * cross(u, uxuxx)


def heat_rhs(q, g, alpha, beta, form="expanded"):
    """The generalized heat equation's right-hand side in either form of
    heat.py's module docstring."""
    qx = diff1(q, g)
    qxx = diff2(q, g)
    q2 = np.abs(q) ** 2
    if form == "expanded":
        nonlocal_term = cumint(qx * np.conj(q) - q * np.conj(qx), g)
        return (alpha * (qxx + 0.5 * q * nonlocal_term)
                + 1j * beta * (qxx + 0.5 * q2 * q))
    nonlocal_term = cumint(q * np.conj(qx), g)
    return (alpha + 1j * beta) * (qxx + 0.5 * q * q2) - alpha * q * nonlocal_term


def rk4_step(y, dt, f):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def curvature_torsion_rhs(ct: CurvatureTorsion, g, alpha: float,
                          beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives of (Theta, eta) along the LLG flow.

    Theta' = alpha (Theta_xx - eta^2 Theta) - beta (eta_x Theta + 2 Theta_x eta)
    eta'   = alpha eta_xx + 2 alpha (eta Theta_x / Theta)_x + alpha eta Theta^2
             + beta (Theta_xx / Theta + Theta^2 / 2 - eta^2)_x

    Divisions by Theta are regularized with the same eps mask used by the
    curvature/torsion extraction.
    """
    th, eta, eps = ct.theta, ct.eta, ct.eps
    th_safe = np.maximum(th, eps)
    th_x = diff1(th, g)
    th_xx = diff2(th, g)
    eta_x = diff1(eta, g)
    d_theta = alpha * (th_xx - eta * eta * th) - beta * (eta_x * th + 2.0 * th_x * eta)
    d_eta = (alpha * diff2(eta, g)
             + 2.0 * alpha * diff1(eta * th_x / th_safe, g)
             + alpha * eta * th * th
             + beta * diff1(th_xx / th_safe + 0.5 * th * th - eta * eta, g))
    return d_theta, d_eta


def inverse_identities(q, g) -> CurvatureTorsion:
    """Recover (Theta, eta) directly from q: Theta = |q|, eta = Im(conj(q) q_x)/|q|^2,
    regularized as hashimoto.curvature_torsion regularizes its torsion."""
    theta = np.abs(q)
    eps = np.maximum(1e-8 * np.max(theta, axis=-1, keepdims=True), 1e-300)
    floor = np.maximum(eps * eps, 1e-300)
    eta = np.imag(np.conj(q) * diff1(q, g)) / np.maximum(theta * theta, floor)
    return CurvatureTorsion(theta=theta, eta=eta, valid_mask=theta > eps, eps=eps)


def fit_loglog_slope(scales, errors) -> float:
    """Least-squares slope of log(error) vs log(scale); the convergence order."""
    s = np.log(np.asarray(scales, float))
    e = np.log(np.asarray(errors, float))
    return float(np.polyfit(s, e, 1)[0])


def crosscheck_levels(initial_q, x_min, x_max, alpha, beta, t_end, grid_sizes):
    """The (g, u0, cfg) levels of validation.crosscheck_deterministic, as the
    CLI's validate builds them: u0 is the frame march of initial_q(g.x) from
    BASEPOINT_FRAME, and cfg steps at llg.auto_dt and samples every
    (steps // 10)-th state."""
    levels = []
    for n in grid_sizes:
        g = line_grid(x_min, x_max, n)
        q0 = np.asarray(initial_q(g.x), complex)
        u0 = reconstruct_frame(q0, g, *BASEPOINT_FRAME).u
        dt = auto_dt(g, alpha, beta, t_end)
        stride = max(1, time_steps(dt, t_end) // 10)
        levels.append((g, u0, StepConfig(alpha, beta, dt, t_end, stride)))
    return levels


def one_rule_weak_residual(paths, phi, noise_rule):
    """The weak residual of every path of an ensemble, shape (P,), in one
    batched pass per noise pairing: the Stratonovich midpoint ("midpoint")
    or the left endpoint ("left"). It steps in the operation order of
    validation._residuals, on the same kernels."""
    g, cfg = paths.grid, paths.cfg
    dt, h, u = cfg.dt, g.h, paths.u
    drift = LLGDrift(open_view(g), cfg.alpha, cfg.beta, u.shape[1:])
    f = np.empty(u.shape[1:])
    R = h * _path_sums(phi, u[-1] - u[0])
    for k in range(paths.n_steps):
        u_mid = fields.normalize(0.5 * (u[k] + u[k + 1]))
        drift.rhs(u_mid, f)
        R -= dt * h * _path_sums(phi, f)
        u_noise = u_mid if noise_rule == "midpoint" else u[k]
        R -= h * _path_sums(phi, fields.cross(u_noise, paths.dW_tilde[k]))
    return R
