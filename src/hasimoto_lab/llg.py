"""Deterministic Landau-Lifshitz-Gilbert flow u_t = beta u x u_xx - alpha u x (u x u_xx)
and the companion curvature/torsion evolution used as an independent oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import (Grid1D, BlowUpError, ConfigurationError, check_field,
                     cross_into, diff1, diff2, diff2_into, time_steps)
from .hashimoto import CurvatureTorsion

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


class RK4:
    """Classical RK4 steps of y' = f(y) through preallocated stage buffers.

    A subclass writes f(y) into out in rhs(y, out), through the buffers that
    size(y) allocates for states shaped like y. step() forms
    y + (dt / 6)(k1 + 2 k2 + 2 k3 + k4) with every ufunc writing into a
    buffer. load() gives the working copy of the initial state (a subclass
    may store it in another layout) and sizes the buffers on it; project()
    maps each new state in place; sample() gives a fresh array of a state in
    the caller's layout. A flow's stepper holds its grid and coefficients.
    """

    def __init__(self, g: Grid1D, alpha: float, beta: float):
        self.g, self.alpha, self.beta = g, alpha, beta

    def rhs(self, y: np.ndarray, out: np.ndarray):
        raise NotImplementedError

    def size(self, y: np.ndarray):
        """Allocate rhs's buffers for states shaped like y."""

    def load(self, y0: np.ndarray) -> np.ndarray:
        # an integer y0 steps as floats
        y = np.array(y0, dtype=np.result_type(y0, 1.0), order="C")
        self.ys, self.k, self.acc = (np.empty_like(y) for _ in range(3))
        self.size(y)
        return y

    def step(self, y: np.ndarray, dt: float, out: np.ndarray):
        ys, k, acc = self.ys, self.k, self.acc
        self.rhs(y, acc)                                # acc = k1
        np.multiply(0.5 * dt, acc, out=ys)
        np.add(y, ys, out=ys)
        self.rhs(ys, k)                                 # k2
        np.multiply(0.5 * dt, k, out=ys)
        np.add(y, ys, out=ys)
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)                         # k1 + 2 k2
        self.rhs(ys, k)                                 # k3
        np.multiply(dt, k, out=ys)
        np.add(y, ys, out=ys)
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)                         # + 2 k3
        self.rhs(ys, k)                                 # k4
        np.add(acc, k, out=acc)
        np.multiply(dt / 6.0, acc, out=acc)
        np.add(y, acc, out=out)

    def project(self, y: np.ndarray):
        """Map the new state y in place (e.g. back to the sphere)."""

    def sample(self, y: np.ndarray) -> np.ndarray:
        return y.copy()


class LLGStepper(RK4):
    """RK4 of the LLG flow, projected back to the sphere after each step.

    u is stored component-major, (3, n), so that the cross products read
    contiguous rows; rhs evaluates beta u x u_xx - alpha u x (u x u_xx) and
    project normalizes, both into preallocated buffers. rhs is the package's
    one LLG right-hand side: the weak residual calls it too, on (3, P, n)
    views of its (P, n, 3) paths.
    """

    def load(self, u0: np.ndarray) -> np.ndarray:
        return super().load(u0.T)

    def size(self, u: np.ndarray):
        self.uxx, self.c = np.empty(u.shape, u.dtype), np.empty(u.shape, u.dtype)
        self.tmp = np.empty((2,) + u.shape[1:], u.dtype)

    def rhs(self, u, out):
        uxx, c, tmp = self.uxx, self.c, self.tmp
        diff2_into(u, self.g, uxx)
        cross_into(u, uxx, c, tmp)                      # u x u_xx
        np.multiply(self.beta, c, out=out)
        cross_into(u, c, uxx, tmp)                      # u x (u x u_xx)
        np.multiply(self.alpha, uxx, out=uxx)
        np.subtract(out, uxx, out=out)

    def project(self, u):
        s, t = self.tmp                                 # |u|^2 = u0^2 + u1^2 + u2^2
        np.multiply(u[0], u[0], out=s)
        np.multiply(u[1], u[1], out=t)
        np.add(s, t, out=s)
        np.multiply(u[2], u[2], out=t)
        np.add(s, t, out=s)
        np.sqrt(s, out=s)
        np.divide(u, s, out=u)

    def sample(self, u):
        return u.T.copy()


def integrate(y0: np.ndarray, stepper: RK4, cfg: StepConfig, what: str) -> Trajectory:
    """RK4 from y0 over cfg.n_steps steps of cfg.dt, sampled at the steps
    that cfg.sampled picks.

    The stepper (LLGStepper, heat.HeatStepper) evaluates the right-hand
    side into its own buffers and projects each new state. The state
    alternates between two buffers, so the previous one survives the
    finiteness check, and each sample is a fresh array in y0's layout.
    A non-finite state raises BlowUpError naming what blew up, the step,
    its time and the last finite max |y|.
    """
    y = stepper.load(y0)
    nxt = np.empty_like(y)
    times = [0.0]
    states = [stepper.sample(y)]
    for k in range(cfg.n_steps):
        stepper.step(y, cfg.dt, nxt)
        check_finite(nxt, y, k, cfg.dt, what)
        stepper.project(nxt)
        y, nxt = nxt, y
        if cfg.sampled(k + 1):
            times.append((k + 1) * cfg.dt)
            states.append(stepper.sample(y))
    return Trajectory(times=np.array(times), states=states)


def llg_integrate(u0: np.ndarray, g: Grid1D, cfg: StepConfig) -> Trajectory:
    """RK4 in time from one (n, 3) field u0, projected back to the sphere each step."""
    check_field((g.n, 3), "u0", u0)
    cfg.check_stability(g)
    return integrate(u0, LLGStepper(g, cfg.alpha, cfg.beta), cfg, "LLG flow")


def curvature_torsion_rhs(ct: CurvatureTorsion, g: Grid1D, alpha: float,
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


def exchange_energy(u: np.ndarray, g: Grid1D) -> float:
    """E = sum h |u_x|^2 (discrete exchange energy)."""
    ux = diff1(u, g)
    return float(g.h * np.sum(ux * ux))
