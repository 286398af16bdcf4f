"""Generalized nonlocal heat equation for the complex field q.

Its right-hand side has two algebraically equivalent forms; their
equivalence requires q to vanish at the lower integration limit, which on
line grids is checked at every sampled state rather than assumed.

    expanded: alpha [q_xx + (q/2) int (q_x conj(q) - q conj(q)_x) dy]
              + i beta (q_xx + |q|^2 q / 2)
    compact:  (alpha + i beta) [q_xx + q |q|^2 / 2]
              - alpha q int q conj(q)_x dy

HeatStepper evaluates the expanded form; the compact one is the tests'
oracle (tests/reference.py), which checks that the two agree.
"""

import numpy as np

from .fields import (Grid1D, boundary_decay_ok, check_field, cumint_into, diff1_into,
                     diff2_into)
from .llg import RK4, StepConfig, Trajectory, integrate


class HeatStepper(RK4):
    """RK4 of the heat flow; rhs evaluates the expanded form of the module
    docstring into preallocated buffers.

    rhs is the package's one heat right-hand side: the stochastic Heun step
    calls it too, on its (P, n) paths as they are.
    """

    def size(self, q: np.ndarray):
        self.qx, self.qxx, self.nl, self.t1, self.t2 = (
            np.empty(q.shape, complex) for _ in range(5))
        self.q2 = np.empty(q.shape)

    def rhs(self, q, out):
        g, qx, qxx, q2, nl, t1, t2 = (self.g, self.qx, self.qxx, self.q2,
                                      self.nl, self.t1, self.t2)
        diff1_into(q, g, qx)
        diff2_into(q, g, qxx)
        np.conjugate(q, out=t1)
        np.multiply(qx, t1, out=t1)
        np.conjugate(qx, out=t2)
        np.multiply(q, t2, out=t2)
        np.subtract(t1, t2, out=t1)
        cumint_into(t1, g, nl, t2)
        np.multiply(0.5, q, out=t1)                     # alpha (qxx + q nl / 2)
        np.multiply(t1, nl, out=t1)
        np.add(qxx, t1, out=t1)
        np.multiply(self.alpha, t1, out=out)
        np.abs(q, out=q2)                               # i beta (qxx + |q|^2 q / 2)
        np.square(q2, out=q2)
        np.multiply(0.5, q2, out=q2)
        np.multiply(q2, q, out=t1)
        np.add(qxx, t1, out=t1)
        np.multiply(1j * self.beta, t1, out=t1)
        np.add(out, t1, out=out)


def mass(q: np.ndarray, g: Grid1D) -> float:
    """Discrete L^2 mass sum h |q|^2."""
    return float(g.h * np.sum(np.abs(q) ** 2))


def heat_integrate(q0: np.ndarray, g: Grid1D, cfg: StepConfig) -> Trajectory:
    """Time integration of the generalized heat equation from one (n,) field q0.

    Returns a Trajectory; traj.decay_ok records whether boundary_decay_ok
    held at every sampled state (line grids only).
    """
    check_field((g.n,), "q0", q0)
    cfg.check_stability(g)
    traj = integrate(np.asarray(q0, complex), HeatStepper(g, cfg.alpha, cfg.beta),
                     cfg, "heat flow")
    traj.decay_ok = all(boundary_decay_ok(q, g) for q in traj.states)
    return traj
