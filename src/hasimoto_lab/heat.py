"""Generalized nonlocal heat equation for the complex field q.

Two algebraically equivalent forms of the right-hand side are implemented
and cross-checked; their equivalence requires q to vanish at the lower
integration limit, which on line grids is monitored rather than assumed.

    expanded: alpha [q_xx + (q/2) int (q_x conj(q) - q conj(q)_x) dy]
              + i beta (q_xx + |q|^2 q / 2)
    compact:  (alpha + i beta) [q_xx + q |q|^2 / 2]
              - alpha q int q conj(q)_x dy
"""

from dataclasses import dataclass

import numpy as np

from .fields import (Grid1D, ConfigurationError, boundary_decay_ok, cumint,
                     diff1, diff2, time_steps)
from .llg import Trajectory, check_finite, heun_step, rk4_step, stable_dt


@dataclass
class HeatConfig:
    alpha: float
    beta: float
    dt: float
    t_end: float
    form: str = "expanded"       # "expanded" | "compact"
    method: str = "rk4"          # "rk4" | "heun"
    output_stride: int = 1

    def __post_init__(self):
        time_steps(self.dt, self.t_end)
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")
        if self.form not in ("expanded", "compact"):
            raise ConfigurationError(f"unknown form {self.form!r}")
        if self.method not in ("rk4", "heun"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.output_stride < 1:
            raise ConfigurationError("output_stride must be >= 1")

    def check_stability(self, g: Grid1D):
        bound = stable_dt(g, self.alpha, self.beta)
        if self.dt > bound:
            raise ConfigurationError(
                f"dt = {self.dt:.3e} exceeds the stability bound {bound:.3e}")

    @property
    def n_steps(self) -> int:
        return time_steps(self.dt, self.t_end)


def heat_rhs(q: np.ndarray, g: Grid1D, alpha: float, beta: float,
             form: str = "expanded") -> np.ndarray:
    qx = diff1(q, g)
    qxx = diff2(q, g)
    q2 = np.abs(q) ** 2
    if form == "expanded":
        nonlocal_term = cumint(qx * np.conj(q) - q * np.conj(qx), g)
        return (alpha * (qxx + 0.5 * q * nonlocal_term)
                + 1j * beta * (qxx + 0.5 * q2 * q))
    if form == "compact":
        nonlocal_term = cumint(q * np.conj(qx), g)
        return (alpha + 1j * beta) * (qxx + 0.5 * q * q2) - alpha * q * nonlocal_term
    raise ConfigurationError(f"unknown form {form!r}")


def mass(q: np.ndarray, g: Grid1D) -> float:
    """Discrete L^2 mass sum h |q|^2."""
    return float(g.h * np.sum(np.abs(q) ** 2))


def heat_integrate(q0: np.ndarray, g: Grid1D, cfg: HeatConfig) -> Trajectory:
    """Time integration of the generalized heat equation.

    Returns a Trajectory; traj.decay_ok records whether the left-boundary
    decay monitor held at every sampled state (line grids only).
    """
    cfg.check_stability(g)
    n_steps = cfg.n_steps
    rhs = lambda q: heat_rhs(q, g, cfg.alpha, cfg.beta, cfg.form)
    stepper = rk4_step if cfg.method == "rk4" else heun_step
    q = q0.astype(complex).copy()
    times = [0.0]
    states = [q.copy()]
    decay_ok = boundary_decay_ok(q, g)
    for k in range(n_steps):
        prev, q = q, stepper(q, cfg.dt, rhs)
        check_finite(q, prev, k, cfg.dt, "heat flow")
        if (k + 1) % cfg.output_stride == 0 or k == n_steps - 1:
            times.append((k + 1) * cfg.dt)
            states.append(q.copy())
            decay_ok = decay_ok and boundary_decay_ok(q, g)
    return Trajectory(times=np.array(times), states=states, decay_ok=decay_ok)
