import numpy as np

from hasimoto_lab.rotations import (generator_rotation, rotation_angle,
                                    rotation_exp, skew)


def test_skew_acts_as_cross_product():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(3)
    v = rng.standard_normal(3)
    assert np.allclose(skew(w) @ v, np.cross(w, v))


def test_rotation_exp_is_orthogonal():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((50, 3)) * 3.0
    # and angles on both sides of the series branch's switch at 1e-4
    theta = np.array([1e-7, 5e-5, 9.99e-5, 1e-4 - 1e-12, 1e-4, 1e-4 + 1e-12,
                      1.01e-4, 2e-4, 1e-2])
    axis = rng.standard_normal((theta.size, 3))
    w = np.concatenate([w, theta[:, None] * axis / np.linalg.norm(axis, axis=1)[:, None]])
    R = rotation_exp(w)
    eye = np.eye(3)
    assert np.max(np.abs(R @ np.swapaxes(R, -1, -2) - eye)) <= 1e-14
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-14


def test_small_angle_branch():
    w = np.array([1e-9, 0.0, 0.0])
    R = rotation_exp(w)
    # matches the exact rotation about x by 1e-9
    assert abs(R[1, 2] + 1e-9) <= 1e-24
    assert rotation_angle(rotation_exp(np.zeros(3))) == 0.0


def test_generator_rotation_zero_is_identity():
    R = generator_rotation(0.0, 0.0, 0.0)
    assert np.allclose(R, np.eye(3))


def test_generator_rotation_plane():
    # a-only generator rotates row 1 toward row 2 by angle a
    a = 0.3
    R = generator_rotation(a, 0.0, 0.0)
    F = np.eye(3)                    # rows (u, e, u x e)
    F2 = R @ F
    assert np.allclose(F2[0], [np.cos(a), np.sin(a), 0.0])
    assert np.allclose(F2[1], [-np.sin(a), np.cos(a), 0.0])
    assert np.allclose(F2[2], [0.0, 0.0, 1.0])


def test_rotation_angle():
    R = generator_rotation(0.7, 0.0, 0.0)
    assert abs(rotation_angle(R) - 0.7) <= 1e-12


def test_rotation_exp_matches_rodrigues_sum():
    # the in-place evaluation adds I + s K + c K^2 in the same order as the
    # plain formula, so both agree bit for bit on each side of the
    # small-angle switch
    rng = np.random.default_rng(4)
    w = rng.standard_normal((40, 3)) * np.repeat([1e-6, 1e-3, 0.5, 4.0], 10)[:, None]
    t = np.sqrt(np.sum(w * w, axis=-1))
    t2 = t * t
    small = t < 1e-4
    s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(t) / t)
    c = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(t)) / t2)
    K = skew(w)
    ref = np.eye(3) + s[:, None, None] * K + c[:, None, None] * (K @ K)
    assert np.array_equal(rotation_exp(w), ref)
