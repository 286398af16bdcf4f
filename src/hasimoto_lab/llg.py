"""Deterministic Landau-Lifshitz-Gilbert flow u_t = beta u x u_xx - alpha u x (u x u_xx)."""

from dataclasses import dataclass, field

import numpy as np

from .fields import (Grid1D, BlowUpError, ConfigurationError, check_field,
                     cross_into, diff1, diff2_into, is_int, time_steps)

# stable_dt's factor in dt <= STABILITY_SAFETY h^2 / max(alpha, |beta|)
STABILITY_SAFETY = 0.2


def stable_dt(g: Grid1D, alpha: float, beta: float) -> float:
    """Explicit-step bound dt <= STABILITY_SAFETY * h^2 / max(alpha, |beta|)."""
    scale = max(alpha, abs(beta))
    if scale == 0.0:
        return np.inf
    return STABILITY_SAFETY * g.h * g.h / scale


def auto_dt(g: Grid1D, alpha: float, beta: float, t_end: float) -> float:
    """90% of stable_dt, shortened so that t_end/dt is a whole number of steps."""
    if not 0 <= t_end < np.inf:
        raise ConfigurationError(f"t_end must be finite and >= 0, got {t_end}")
    dt = 0.9 * stable_dt(g, alpha, beta)
    if dt == 0.0 or t_end / dt == np.inf:
        raise ConfigurationError(f"the stability bound {STABILITY_SAFETY} h^2 / "
                                 f"max(alpha, |beta|) underflows at h = {g.h:.3e}")
    if t_end > 0:
        dt = t_end / max(1, int(np.ceil(t_end / dt)))
    if not np.isfinite(dt):
        raise ConfigurationError(
            f"automatic dt is {dt} for alpha={alpha}, beta={beta}, t_end={t_end}"
            " (no stability bound and no time span to step over)")
    return dt


@dataclass
class StepConfig:
    """Time stepping of a flow: finite coefficients (stable_dt would drop a
    NaN), step and final time, and the states sampled every output_stride steps."""
    alpha: float
    beta: float
    dt: float
    t_end: float
    output_stride: int = 1

    def __post_init__(self):
        time_steps(self.dt, self.t_end)
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ConfigurationError(f"alpha and beta must be finite, got "
                                     f"alpha={self.alpha}, beta={self.beta}")
        if self.alpha < 0:
            raise ConfigurationError(f"damping alpha must be >= 0, got {self.alpha}")
        if not is_int(self.output_stride):
            raise ConfigurationError(
                f"output_stride must be an integer, got {self.output_stride!r}")
        if self.output_stride < 1:
            raise ConfigurationError("output_stride must be >= 1")

    def check_stability(self, g: Grid1D):
        bound = stable_dt(g, self.alpha, self.beta)
        if self.dt > bound:
            raise ConfigurationError(
                f"dt = {self.dt:.3e} exceeds the stability bound {bound:.3e} "
                f"({STABILITY_SAFETY} h^2 / max(alpha, |beta|))")

    @property
    def n_steps(self) -> int:
        return time_steps(self.dt, self.t_end)

    def sampled(self, k: int) -> bool:
        """Whether the state after k steps is sampled: every output_stride-th
        step from 0, and the last one."""
        return k % self.output_stride == 0 or k == self.n_steps


@dataclass
class Trajectory:
    """Sampled states of a time integration; states[k] is at times[k]."""
    times: np.ndarray
    states: list = field(default_factory=list)
    decay_ok: bool = True   # left-boundary decay at every state (line-grid heat flow)


def check_finite(y, prev, k, dt, what):
    """Raise BlowUpError if step k (0-based) took the state prev to a
    non-finite y; the message gives the step, its time and the last finite
    max |y|."""
    if np.all(np.isfinite(y)):
        return
    last = (f"last finite max |y| = {np.max(np.abs(prev)):.6g} at t = {k * dt:.6g}"
            if np.all(np.isfinite(prev)) else "the state before it was not finite")
    raise BlowUpError(f"{what} blew up at step {k + 1}, t = {(k + 1) * dt:.6g}: "
                      f"non-finite values; {last}")


class LLGDrift:
    """The package's one LLG right-hand side, for fields shaped like shape,
    (..., n, 3): rhs(u, out) writes beta u x u_xx - alpha u x (u x u_xx) and
    project(u) maps u back to the sphere in place, into buffers made here.

    Both view their arguments component-major, (3, ..., n). llg_integrate
    passes column-major states, so these views are contiguous rows for the
    cross products; the weak residual passes its (P, n, 3) paths as they are.
    """

    def __init__(self, g: Grid1D, alpha: float, beta: float, shape: tuple):
        self.g, self.alpha, self.beta = g, alpha, beta
        self.axes = (len(shape) - 1, *range(len(shape) - 1))   # to (3, ..., n)
        comp = (3, *shape[:-1])
        self.uxx, self.c = np.empty(comp), np.empty(comp)
        self.tmp = np.empty((2, *shape[:-1]))

    def rhs(self, u, out):
        u, out = u.transpose(self.axes), out.transpose(self.axes)
        uxx, c, tmp = self.uxx, self.c, self.tmp
        diff2_into(u, self.g, uxx)
        cross_into(u, uxx, c, tmp)                      # u x u_xx
        np.multiply(self.beta, c, out=out)
        cross_into(u, c, uxx, tmp)                      # u x (u x u_xx)
        np.multiply(self.alpha, uxx, out=uxx)
        np.subtract(out, uxx, out=out)

    def project(self, u):
        u = u.transpose(self.axes)
        s, t = self.tmp                                 # |u|^2 = u0^2 + u1^2 + u2^2
        np.multiply(u[0], u[0], out=s)
        np.multiply(u[1], u[1], out=t)
        np.add(s, t, out=s)
        np.multiply(u[2], u[2], out=t)
        np.add(s, t, out=s)
        np.sqrt(s, out=s)
        np.divide(u, s, out=u)


def integrate(y0: np.ndarray, rhs, cfg: StepConfig, what: str,
              project=None) -> Trajectory:
    """Classical RK4 of y' = f(y) from y0 over cfg.n_steps steps of cfg.dt,
    sampled at the steps that cfg.sampled picks.

    rhs(y, out) writes f(y) into out; project, if given, maps each new state
    in place (e.g. back to the sphere). The state is a float copy of y0 in
    y0's memory order, and every ufunc writes into a buffer shaped and
    ordered like it. The state alternates between two buffers, so the
    previous one survives the finiteness check, and each sample is a fresh
    C-ordered array. A non-finite state raises BlowUpError naming what blew
    up, the step, its time and the last finite max |y|.
    """
    # an integer y0 steps as floats
    y = np.array(y0, dtype=np.result_type(y0, 1.0), order="K")
    nxt, ys, k, acc = (np.empty_like(y) for _ in range(4))
    dt = cfg.dt
    times, states = [0.0], [y.copy()]
    for step in range(cfg.n_steps):
        rhs(y, acc)                                     # acc = k1
        np.multiply(0.5 * dt, acc, out=ys)
        np.add(y, ys, out=ys)
        rhs(ys, k)                                      # k2
        np.multiply(0.5 * dt, k, out=ys)
        np.add(y, ys, out=ys)
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)                         # k1 + 2 k2
        rhs(ys, k)                                      # k3
        np.multiply(dt, k, out=ys)
        np.add(y, ys, out=ys)
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)                         # + 2 k3
        rhs(ys, k)                                      # k4
        np.add(acc, k, out=acc)
        np.multiply(dt / 6.0, acc, out=acc)
        np.add(y, acc, out=nxt)
        check_finite(nxt, y, step, dt, what)
        if project is not None:
            project(nxt)
        y, nxt = nxt, y
        if cfg.sampled(step + 1):
            times.append((step + 1) * dt)
            states.append(y.copy())
    return Trajectory(times=np.array(times), states=states)


def llg_integrate(u0: np.ndarray, g: Grid1D, cfg: StepConfig) -> Trajectory:
    """RK4 in time from one (n, 3) field u0, projected back to the sphere each
    step. The state is column-major, so LLGDrift's (3, n) views of it are
    contiguous."""
    check_field((g.n, 3), "u0", u0)
    cfg.check_stability(g)
    drift = LLGDrift(g, cfg.alpha, cfg.beta, (g.n, 3))
    return integrate(np.asfortranarray(u0), drift.rhs, cfg, "LLG flow", drift.project)


def exchange_energy(u: np.ndarray, g: Grid1D) -> float:
    """E = sum h |u_x|^2 (discrete exchange energy)."""
    ux = diff1(u, g)
    return float(g.h * np.sum(ux * ux))
