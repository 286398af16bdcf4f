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
                     diff1, diff2)
from .llg import LLGConfig, Trajectory, integrate


@dataclass
class HeatConfig(LLGConfig):
    """LLGConfig's time stepping, plus the form of the right-hand side."""
    form: str = "expanded"       # "expanded" | "compact"

    def __post_init__(self):
        super().__post_init__()
        if self.form not in ("expanded", "compact"):
            raise ConfigurationError(f"unknown form {self.form!r}")


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
    rhs = lambda q: heat_rhs(q, g, cfg.alpha, cfg.beta, cfg.form)
    return integrate(q0.astype(complex), rhs, cfg, "heat flow",
                     monitor=lambda q: boundary_decay_ok(q, g))
