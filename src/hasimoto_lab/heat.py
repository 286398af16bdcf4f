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

from .fields import (Grid1D, ConfigurationError, boundary_decay_ok, cumint_into,
                     diff1_into, diff2_into)
from .llg import RK4, LLGConfig, Trajectory, integrate


@dataclass
class HeatConfig(LLGConfig):
    """LLGConfig's time stepping, plus the form of the right-hand side."""
    form: str = "expanded"       # "expanded" | "compact"

    def __post_init__(self):
        super().__post_init__()
        if self.form not in ("expanded", "compact"):
            raise ConfigurationError(f"unknown form {self.form!r}")


class HeatStepper(RK4):
    """RK4 of the heat flow; rhs evaluates the chosen form of the module
    docstring into preallocated buffers.

    rhs is the package's one heat right-hand side: the stochastic Heun step
    calls it too, on (P, n) views of its paths.
    """

    def __init__(self, g: Grid1D, alpha: float, beta: float, form: str):
        self.g, self.alpha, self.beta, self.form = g, alpha, beta, form

    def load(self, q0: np.ndarray) -> np.ndarray:
        return super().load(np.asarray(q0, complex))

    def size(self, q: np.ndarray):
        self.qx, self.qxx, self.nl, self.t1, self.t2 = (
            np.empty(q.shape, complex) for _ in range(5))
        self.q2 = np.empty(q.shape)

    def rhs(self, q, out):
        g, qx, qxx, q2, nl, t1, t2 = (self.g, self.qx, self.qxx, self.q2,
                                      self.nl, self.t1, self.t2)
        alpha, beta = self.alpha, self.beta
        diff1_into(q, g, qx)
        diff2_into(q, g, qxx)
        np.abs(q, out=q2)
        np.square(q2, out=q2)
        if self.form == "expanded":
            np.conjugate(q, out=t1)
            np.multiply(qx, t1, out=t1)
            np.conjugate(qx, out=t2)
            np.multiply(q, t2, out=t2)
            np.subtract(t1, t2, out=t1)
            cumint_into(t1, g, nl, t2)
            np.multiply(0.5, q, out=t1)                 # alpha (qxx + q nl / 2)
            np.multiply(t1, nl, out=t1)
            np.add(qxx, t1, out=t1)
            np.multiply(alpha, t1, out=out)
            np.multiply(0.5, q2, out=q2)                # i beta (qxx + |q|^2 q / 2)
            np.multiply(q2, q, out=t1)
            np.add(qxx, t1, out=t1)
            np.multiply(1j * beta, t1, out=t1)
            np.add(out, t1, out=out)
        else:
            np.conjugate(qx, out=t1)
            np.multiply(q, t1, out=t1)
            cumint_into(t1, g, nl, t2)
            np.multiply(0.5, q, out=t1)         # (alpha + i beta)(qxx + q |q|^2 / 2)
            np.multiply(t1, q2, out=t1)
            np.add(qxx, t1, out=t1)
            np.multiply(alpha + 1j * beta, t1, out=out)
            np.multiply(alpha, q, out=t1)               # - alpha q nl
            np.multiply(t1, nl, out=t1)
            np.subtract(out, t1, out=out)


def mass(q: np.ndarray, g: Grid1D) -> float:
    """Discrete L^2 mass sum h |q|^2."""
    return float(g.h * np.sum(np.abs(q) ** 2))


def heat_integrate(q0: np.ndarray, g: Grid1D, cfg: HeatConfig) -> Trajectory:
    """Time integration of the generalized heat equation.

    Returns a Trajectory; traj.decay_ok records whether the left-boundary
    decay monitor held at every sampled state (line grids only).
    """
    cfg.check_stability(g)
    return integrate(q0, HeatStepper(g, cfg.alpha, cfg.beta, cfg.form), cfg,
                     "heat flow", monitor=lambda q: boundary_decay_ok(q, g))
