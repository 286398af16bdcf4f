import itertools

import numpy as np

from hasimoto_lab.rotations import rotation_angle, rotation_exp

SWITCH = 1e-4           # rotation_exp's small-angle switch


def test_rotation_exp_is_orthogonal():
    rng = np.random.default_rng(1)
    abc = rng.standard_normal((3, 50)) * 3.0
    # and angles on both sides of the series branch's switch at 1e-4
    theta = np.array([1e-7, 5e-5, 9.99e-5, 1e-4 - 1e-12, 1e-4, 1e-4 + 1e-12,
                      1.01e-4, 2e-4, 1e-2])
    axis = rng.standard_normal((3, theta.size))
    abc = np.concatenate([abc, theta * axis / np.linalg.norm(axis, axis=0)], axis=1)
    R = rotation_exp(*abc)
    eye = np.eye(3)
    assert np.max(np.abs(R @ np.swapaxes(R, -1, -2) - eye)) <= 1e-14
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-14


def test_small_angle_branch():
    R = rotation_exp(0.0, 0.0, 1e-9)
    # matches the exact rotation of row 1 toward row 2 by 1e-9
    assert abs(R[1, 2] - 1e-9) <= 1e-24
    assert rotation_angle(rotation_exp(0.0, 0.0, 0.0)) == 0.0


def test_rotation_exp_zero_is_identity():
    R = rotation_exp(0.0, 0.0, 0.0)
    assert np.allclose(R, np.eye(3))


def test_rotation_exp_plane():
    # a-only generator rotates row 1 toward row 2 by angle a
    a = 0.3
    R = rotation_exp(a, 0.0, 0.0)
    F = np.eye(3)                    # rows (u, e, u x e)
    F2 = R @ F
    assert np.allclose(F2[0], [np.cos(a), np.sin(a), 0.0])
    assert np.allclose(F2[1], [-np.sin(a), np.cos(a), 0.0])
    assert np.allclose(F2[2], [0.0, 0.0, 1.0])


def test_rotation_angle():
    R = rotation_exp(0.7, 0.0, 0.0)
    assert abs(rotation_angle(R) - 0.7) <= 1e-12


def rodrigues_sum(a, b, c):
    """I + s K + k K^2 as the plain formula reads: K(a, b, c) built from
    the rotation vector w = (-c, b, -a) as K v = w x v, and both branches of
    s and k evaluated everywhere, with np.where choosing between them."""
    a, b, c = np.broadcast_arrays(*(np.asarray(x, float) for x in (a, b, c)))
    w = np.stack([-c, b, -a], axis=-1)
    t = np.sqrt(np.sum(w * w, axis=-1))
    t2 = t * t
    small = t < SWITCH
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(t) / t)
        k = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(t)) / t2)
    K = np.zeros(t.shape + (3, 3))
    K[..., 0, 1] = -w[..., 2]
    K[..., 0, 2] = w[..., 1]
    K[..., 1, 0] = w[..., 2]
    K[..., 1, 2] = -w[..., 0]
    K[..., 2, 0] = -w[..., 1]
    K[..., 2, 1] = w[..., 0]
    return np.eye(3) + s[..., None, None] * K + k[..., None, None] * (K @ K)


def test_rotation_exp_matches_rodrigues_sum():
    # the in-place evaluation adds I + s K + k K^2 in the same order as the
    # plain formula, so both agree bit for bit on each side of the
    # small-angle switch, and in the sign of every zero, which np.array_equal
    # would not see: the uint64 views are compared
    rng = np.random.default_rng(4)
    at_switch = np.array([np.nextafter(SWITCH, 0.0), SWITCH, np.nextafter(SWITCH, 1.0)])
    assert np.array_equal(np.sqrt(at_switch * at_switch), at_switch)
    tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-4, -0.3]
    cases = [
        # batched, at scales on both sides of the switch
        tuple(rng.standard_normal((3, 40)) * np.repeat([1e-6, 1e-3, 0.5, 4.0], 10)),
        # the frame march's generator, with c a scalar +-0.0
        (*rng.standard_normal((2, 4, 10)) * 0.1, 0.0),
        (*rng.standard_normal((2, 4, 10)) * 1e-5, -0.0),
        # an angle of exactly the switch, and one ulp on either side of it
        (at_switch, 0.0, -0.0), (0.0, -at_switch, 0.0), (-0.0, 0.0, at_switch),
        # every triple of zeros, subnormals and a few normals
        tuple(np.array(list(itertools.product(tiny, repeat=3))).T),
        # 0-d
        (0.3, -0.0, 0.0), (-0.0, 0.0, -0.0), (1e-5, 5e-324, -0.0),
    ]
    for a, b, c in cases:
        got, want = rotation_exp(a, b, c), rodrigues_sum(a, b, c)
        assert got.shape == want.shape == np.broadcast_shapes(
            np.shape(a), np.shape(b), np.shape(c)) + (3, 3)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (a, b, c)
