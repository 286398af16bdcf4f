"""Exact rotation exponentials for antisymmetric frame generators.

The frame (u, e, u x e) is transported by generators of the form

    K(a, b, c) = [[ 0,  a,  b],
                  [-a,  0,  c],
                  [-b, -c,  0]]

acting on the stacked rows. exp(K) is evaluated in closed (Rodrigues)
form, so every update is an exact rotation and orthonormality of the
frame is preserved to round-off regardless of step size.
"""

import numpy as np


def rotation_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula: w (..., 3) rotation vectors -> (..., 3, 3) matrices.

    Small angles use the series for sin(t)/t and (1-cos t)/t^2 to avoid
    0/0; the switch point keeps both branches accurate to ~1e-16.
    """
    w = np.asarray(w, dtype=float)
    theta = np.sqrt(np.sum(w * w, axis=-1))
    t2 = theta * theta
    small = theta < 1e-4
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0,
                     np.sin(theta) / np.where(small, 1.0, theta))
        c = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                     (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    # I + s K + c K^2, evaluated in place in that summation order
    K = skew(w)
    K2 = K @ K
    K2 *= c[..., None, None]
    K *= s[..., None, None]
    K += np.eye(3)
    K += K2
    return K


def skew(w: np.ndarray) -> np.ndarray:
    """(..., 3) -> (..., 3, 3) antisymmetric matrices with skew(w) v = w x v."""
    w = np.asarray(w)
    K = np.zeros(w.shape[:-1] + (3, 3), dtype=w.dtype)
    K[..., 0, 1] = -w[..., 2]
    K[..., 0, 2] = w[..., 1]
    K[..., 1, 0] = w[..., 2]
    K[..., 1, 2] = -w[..., 0]
    K[..., 2, 0] = -w[..., 1]
    K[..., 2, 1] = w[..., 0]
    return K


def generator_rotation(a, b, c) -> np.ndarray:
    """exp(K(a, b, c)) for the frame generator above; a, b, c broadcastable.

    K(a, b, c) = skew((-c, b, -a)), so the result is rotation_exp of that
    vector, batched over the leading shape of a, b, c.
    """
    a, b, c = np.broadcast_arrays(a, b, c)
    w = np.stack([-np.asarray(c, float), np.asarray(b, float),
                  -np.asarray(a, float)], axis=-1)
    return rotation_exp(w)


def rotation_angle(R: np.ndarray) -> np.ndarray:
    """Rotation angle of (..., 3, 3) rotation matrices, in [0, pi]."""
    tr = np.trace(R, axis1=-2, axis2=-1)
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
