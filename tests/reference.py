"""Readable reference formulas for the tests: node-first stencils, the
trapezoid sum, the cross product, the LLG and heat right-hand sides and the
classical RK4 step.

The package keeps one implementation of each, its *_into kernels and the
steppers' rhs, written into preallocated buffers. These copies share no
arithmetic with the package, so a test that compares the two bit for bit
checks the package against an independent formula.

Also the tests' convergence-order fit, and the crosscheck levels a test
builds from a curvature profile q0(x), with their own copy of the CLI's
dt=auto and output_stride=auto rules.
"""

import numpy as np

from hasimoto_lab.fields import line_grid, time_steps
from hasimoto_lab.hashimoto import BASEPOINT_FRAME, reconstruct_frame
from hasimoto_lab.llg import StepConfig, auto_dt


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
