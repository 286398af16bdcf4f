"""The curvature/torsion map u -> q = Theta * exp(i int eta) and its inverse.

A sphere-valued field u carries the moving frame {u, u_x/|u_x|, u x u_x/|u_x|}
with curvature Theta = |u_x| and torsion eta = <u x u_x, u_xx> / |u_x|^2.
The complex field q combines both; the sphere map is recovered (up to the
initial frame) by integrating the spatial frame ODE

    d/dx (u, e, u x e)^T = K(q1, q2, 0) (u, e, u x e)^T

node to node with exact rotation exponentials of the averaged generator.
"""

from dataclasses import dataclass

import numpy as np

from .fields import (Grid1D, ConfigurationError, cross, cumint, diff1, diff2,
                     dot, norm, require_finite)
from .rotations import rotation_angle, rotation_exp


@dataclass
class CurvatureTorsion:
    theta: np.ndarray        # curvature, >= 0
    eta: np.ndarray          # torsion, meaningful only on valid_mask
    valid_mask: np.ndarray   # theta > eps
    eps: np.ndarray          # (..., 1): each field's regularization, 1e-8 max theta

    @property
    def all_invalid(self) -> bool:
        return not bool(np.any(self.valid_mask))


@dataclass
class FrameField:
    u: np.ndarray   # (n, 3), or (..., n, 3) for a batch; sphere-valued
    e: np.ndarray   # same shape; unit, tangent to the sphere at u

    def as_matrix(self) -> np.ndarray:
        """(..., 3, 3) with rows (u, e, u x e)."""
        return np.stack([self.u, self.e, cross(self.u, self.e)], axis=-2)

    def orthonormality_defect(self) -> float:
        """max | |u| - 1 |, | |e| - 1 | and |<u, e>| over the nodes, NaN if any is."""
        return float(np.max([np.max(np.abs(norm(self.u) - 1.0)),
                             np.max(np.abs(norm(self.e) - 1.0)),
                             np.max(np.abs(dot(self.u, self.e)))]))


def curvature_torsion(u: np.ndarray, g: Grid1D) -> CurvatureTorsion:
    """Curvature theta = |u_x| and torsion <u x u_x, u_xx> / theta^2, regularized
    by each field's eps = 1e-8 max theta over its nodes, so a field of a batch
    comes out as alone: the mask marks theta > eps and the division floors
    theta^2 at eps^2. Both floors are at least 1e-300, so theta == 0
    (u == const) and an eps^2 that underflows divide by a positive number."""
    ux = diff1(u, g)
    theta = norm(ux)
    eps = np.maximum(1e-8 * np.max(theta, axis=-1, keepdims=True), 1e-300)
    floor = np.maximum(eps * eps, 1e-300)
    eta = dot(cross(u, ux), diff2(u, g)) / np.maximum(theta * theta, floor)
    return CurvatureTorsion(theta=theta, eta=eta, valid_mask=theta > eps, eps=eps)


def transform(u: np.ndarray, g: Grid1D) -> np.ndarray:
    """q = Theta * exp(i omega) with omega(x) = int_a^x eta dy, eta taken as
    0 where the mask is invalid, so the phase is anchored to omega(a) = 0;
    u must be finite."""
    require_finite("u", u)
    ct = curvature_torsion(u, g)
    omega = cumint(np.where(ct.valid_mask, ct.eta, 0.0), g)
    return ct.theta * np.exp(1j * omega)


# The basepoint frame (u(a), e(a)) every run starts its frame march from.
BASEPOINT_FRAME = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
FRAME_TOL = 1e-10   # the largest orthonormality defect of a basepoint frame
# reconstruct_frame marches max(4, CHUNK_ROTATIONS // columns) nodes per chunk; the
# floor writes each column's frames in runs of nodes, not in single 24-byte rows.
CHUNK_ROTATIONS = 4096


def node_rotations(q0: np.ndarray, q1: np.ndarray, g: Grid1D) -> np.ndarray:
    """Frame propagators across node intervals with q0 and q1 at their ends:
    the exact exponentials of the midpoint generator K(h Re q, h Im q, 0)."""
    q_mid = 0.5 * (q0 + q1)
    return rotation_exp(g.h * q_mid.real, g.h * q_mid.imag, 0.0)


def reconstruct_frame(q: np.ndarray, g: Grid1D, m: np.ndarray, e0: np.ndarray,
                      out: FrameField = None) -> FrameField:
    """Integrate the spatial frame ODE from node 0 with u(a) = m, e(a) = e0.

    Node-to-node update uses the exact rotation exponential of the generator
    built from the midpoint of q at adjacent nodes (second order, exactly
    orthonormal). On periodic grids the march does not wrap: the closure
    defect at the seam is reported by closure_defect, not enforced.

    q is (n,) with m, e0 of shape (3,), or a batch (*cols, n) with one
    basepoint frame per column, m, e0 of shape (*cols, 3); every column comes
    out bit for bit as if marched alone. The march holds the rotations and
    frames of one chunk of nodes at a time, and writes u and e into out (a
    FrameField of float64 (*cols, n, 3) arrays or views) or new arrays. q, m,
    e0 and every frame must be finite, every basepoint frame orthonormal to FRAME_TOL.
    """
    if q.shape[-1:] != (g.n,) or not np.shape(m) == np.shape(e0) == q.shape[:-1] + (3,):
        raise ConfigurationError(f"q of shape {q.shape} and m, e0 of shapes "
                                 f"{np.shape(m)}, {np.shape(e0)} do not fit grid n {g.n}")
    if out is not None and not (out.u.shape == out.e.shape == q.shape + (3,)
                                and out.u.dtype == out.e.dtype == np.float64):
        raise ConfigurationError(f"out of {out.u.dtype} {out.u.shape}, {out.e.dtype} "
                                 f"{out.e.shape} is not float64 {q.shape + (3,)}")
    require_finite("q, m and e0", q, m, e0)
    m, e0 = np.asarray(m, float), np.asarray(e0, float)
    if not (defect := FrameField(m, e0).orthonormality_defect()) <= FRAME_TOL:
        raise ConfigurationError(f"m, e0 orthonormality defect {defect:.3e} > {FRAME_TOL}")
    out = out or FrameField(u=np.empty(q.shape + (3,)), e=np.empty(q.shape + (3,)))
    # the march runs over views with the node axis first: node j is q[j], u[j]
    q = np.moveaxis(q, -1, 0)
    u, e = np.moveaxis(out.u, -2, 0), np.moveaxis(out.e, -2, 0)
    step = max(4, CHUNK_ROTATIONS // max(1, q[0].size))
    F = np.empty((step + 1,) + q.shape[1:] + (3, 3))
    F[0] = FrameField(m, e0).as_matrix()
    for lo in range(0, g.n - 1, step):     # the chunk's intervals lo .. lo + c - 1
        c = min(step, g.n - 1 - lo)
        R = node_rotations(q[lo:lo + c], q[lo + 1:lo + c + 1], g)
        for i in range(c):
            np.matmul(R[i], F[i], out=F[i + 1])
        u[lo:lo + c + 1] = F[:c + 1, ..., 0, :]     # F[i] is node lo + i's frame
        e[lo:lo + c + 1] = F[:c + 1, ..., 1, :]
        F[0] = F[c]
    if not np.all(np.isfinite(F[0])):   # a non-finite frame stays so down its column
        raise ConfigurationError("the initial frame overflows to inf or nan")
    return out


def closure_defect(q: np.ndarray, g: Grid1D, f: FrameField):
    """Rotation-angle mismatch when the frame march is continued across the seam.

    Only meaningful on periodic grids (0 elsewhere); propagates the last
    frame through the wrap segment and compares with the frame at the
    basepoint side. q (n,) with an (n, 3) frame gives one angle; q (P, n)
    with (P, n, 3) frames gives the (P,) angles, each as for the path alone.
    """
    if not g.periodic:
        return np.zeros(q.shape[:-1])[()]
    F = f.as_matrix()
    wrapped = node_rotations(q[..., -1], q[..., 0], g) @ F[..., -1, :, :]
    return rotation_angle(wrapped @ np.swapaxes(F[..., 0, :, :], -1, -2))
