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


def rotation_exp(a, b, c) -> np.ndarray:
    """exp(K(a, b, c)) for a, b, c broadcastable: (..., 3, 3) rotations.

    Rodrigues: exp(K) = I + s K + k K^2 with theta^2 = a^2 + b^2 + c^2,
    s = sin(theta) / theta and k = (1 - cos theta) / theta^2. Below
    theta = 1e-4 their series replace them, which avoids 0/0; the switch
    point keeps both branches accurate to ~1e-16.
    """
    a, b, c = (np.asarray(x, float) for x in (a, b, c))
    theta = np.sqrt(c * c + b * b + a * a)
    t2 = theta * theta
    small = theta < 1e-4
    big = ~small
    s, k = np.empty_like(theta), np.empty_like(theta)
    with np.errstate(invalid="ignore"):        # an infinite angle's sin and cos
        tb, ts = theta[big], t2[small]
        s[big] = np.sin(tb) / tb
        k[big] = (1.0 - np.cos(tb)) / t2[big]
        s[small] = 1.0 - ts / 6.0 + ts * ts / 120.0
        k[small] = 0.5 - ts / 24.0 + ts * ts / 720.0
    K = np.zeros(theta.shape + (3, 3))
    K[..., 0, 1] = a
    K[..., 0, 2] = b
    K[..., 1, 0] = -a
    K[..., 1, 2] = c
    K[..., 2, 0] = -b
    K[..., 2, 1] = -c
    # I + s K + k K^2, evaluated in place in that summation order
    K2 = K @ K
    K2 *= k[..., None, None]
    K *= s[..., None, None]
    K += np.eye(3)
    K += K2
    return K


def rotation_angle(R: np.ndarray) -> np.ndarray:
    """Rotation angle of (..., 3, 3) rotation matrices, in [0, pi]."""
    tr = np.trace(R, axis1=-2, axis2=-1)
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
