import numpy as np
import pytest

from hasimoto_lab.fields import ConfigurationError, line_grid, periodic_grid
from hasimoto_lab.noise import (NoiseModel, derive_seed, fourier_basis,
                                make_noise_model, noise_fields, sample_increments)


def test_basis_orthonormal():
    g = periodic_grid(2.0 * np.pi, 256)
    basis, _ = fourier_basis(g, 7)
    gram = g.h * basis @ basis.T
    # trapezoid quadrature is exact for trig products below the Nyquist mode
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


@pytest.mark.parametrize("n,refused", [(8, 8), (9, 10), (64, 64)])
def test_model_takes_only_the_modes_its_grid_resolves(n, refused):
    # on n = 8 mode 8 is sin(pi j), zero to round-off, and mode 9 equals mode 5
    g = periodic_grid(2.0 * np.pi, n)
    accepted = []
    for n_modes in range(1, n + 3):
        try:
            basis = make_noise_model(g, n_modes).basis
        except ConfigurationError as exc:
            assert f"n_modes={n_modes} is more than n={n} nodes resolve" in str(exc)
            continue
        assert np.max(np.abs(g.h * basis @ basis.T - np.eye(n_modes))) <= 1e-14
        accepted.append(n_modes)
    assert accepted == list(range(1, refused))


def test_basis_derivatives():
    g = periodic_grid(4.0, 128)
    basis, basis_x = fourier_basis(g, 5)
    k = 2.0 * np.pi / 4.0
    amp = np.sqrt(2.0 / 4.0)
    assert np.max(np.abs(basis_x[0])) == 0.0
    assert np.allclose(basis_x[1], -amp * k * np.sin(k * g.x))
    assert np.allclose(basis_x[2], amp * k * np.cos(k * g.x))


def test_basis_requires_periodic_grid():
    with pytest.raises(ConfigurationError):
        fourier_basis(line_grid(0.0, 1.0, 16), 3)


def test_coefficient_profiles():
    # make_noise_model's flat spectrum; NoiseModel takes any other
    g = periodic_grid(1.0, 8)
    assert np.array_equal(make_noise_model(g, 4).coeffs, np.ones(4))
    assert np.array_equal(make_noise_model(g, 2, amplitude=0.3).coeffs, [0.3, 0.3])
    power = NoiseModel(grid=g, coeffs=np.arange(1, 4) ** -2.0)
    assert np.allclose(power.coeffs, [1.0, 0.25, 1.0 / 9.0])
    with pytest.raises(ConfigurationError, match="n_modes must be >= 0"):
        make_noise_model(g, -1)
    # an infinite coefficient would blow up the first step
    for amplitude in (np.inf, -np.inf, np.nan):
        for n_modes in (0, 3):
            with pytest.raises(ConfigurationError, match="non-finite noise coefficients"):
                make_noise_model(g, n_modes, amplitude)


@pytest.mark.parametrize("coeffs", [[np.inf, 1.0], [np.nan]])
def test_model_refuses_non_finite_coefficients(coeffs):
    with pytest.raises(ConfigurationError, match="non-finite noise coefficients"):
        NoiseModel(grid=periodic_grid(2.0 * np.pi, 16), coeffs=coeffs)


def test_model_validation():
    g = periodic_grid(2.0 * np.pi, 32)
    nm = NoiseModel(grid=g, coeffs=[0.5, 0.25, 0.125])
    assert nm.n_modes == 3 and nm.basis.shape == nm.basis_x.shape == (3, g.n)
    with pytest.raises(ConfigurationError, match="coeffs must be 1-D"):
        NoiseModel(grid=g, coeffs=np.ones((2, 3)))
    with pytest.raises(ConfigurationError):
        NoiseModel(grid=line_grid(0.0, 1.0, 16), coeffs=np.ones(2))
    assert NoiseModel(grid=line_grid(0.0, 1.0, 16), coeffs=[]).basis.shape == (0, 16)
    nm = make_noise_model(g, 0)
    inc = noise_fields(nm, sample_increments(nm, 0, 0.1, 0))
    assert np.max(np.abs(inc.dW1)) == 0.0
    assert np.max(np.abs(inc.dW3)) == 0.0


def test_increment_variance():
    g = periodic_grid(2.0 * np.pi, 16)
    nm = make_noise_model(g, 3)
    dt = 0.25
    draws = np.stack([sample_increments(nm, 42, dt, k) for k in range(11000)])
    var = np.var(draws)
    assert dt * 0.99 <= var <= dt * 1.01
    with pytest.raises(ConfigurationError):
        sample_increments(nm, 42, 0.0, 0)


def test_determinism_and_step_independence():
    g = periodic_grid(2.0 * np.pi, 32)
    nm1 = make_noise_model(g, 4)
    nm2 = make_noise_model(g, 4)
    a = sample_increments(nm1, 7, 0.01, 5)
    b = sample_increments(nm2, 7, 0.01, 5)
    assert np.array_equal(a, b)
    c = sample_increments(nm1, 7, 0.01, 6)
    assert not np.array_equal(a, c)
    d = sample_increments(nm1, 8, 0.01, 5)
    assert not np.array_equal(a, d)


def test_single_constant_mode_field():
    # one constant mode: dW^1(x) = c_1 dbeta / sqrt(length), no x dependence
    length = 2.0 * np.pi
    g = periodic_grid(length, 64)
    nm = make_noise_model(g, 1, amplitude=0.5)
    inc = noise_fields(nm, sample_increments(nm, 3, 0.01, 0))
    assert np.max(inc.dW1) == np.min(inc.dW1)
    assert np.max(np.abs(inc.dxW1)) == 0.0
    draws = np.array([
        noise_fields(nm, sample_increments(nm, 3, 0.01, k)).dW1[0]
        for k in range(20000)])
    target = 0.5 ** 2 * 0.01 / length
    assert abs(np.var(draws) - target) <= 0.05 * target


def test_derive_seed_distinct():
    seeds = {derive_seed(master, idx) for master in range(3) for idx in range(5)}
    assert len(seeds) == 15
    assert derive_seed(9, 2) == derive_seed(9, 2)
    # the spawn key (1, index) pins every path seed
    assert derive_seed(9, 2) == 1993658204951406207


def test_stacked_fields_match_single_path():
    # P stacked increment sets give (P, n) fields whose row i is, bit for
    # bit, the field of the i-th set alone
    g = periodic_grid(2.0 * np.pi, 48)
    nm = NoiseModel(grid=g, coeffs=np.arange(1, 6) ** -1.5)
    incs = [sample_increments(nm, derive_seed(3, i), 0.01, 2) for i in range(6)]
    stacked = noise_fields(nm, np.stack(incs))
    for i, inc in enumerate(incs):
        alone = noise_fields(nm, inc)
        for name in ("dW1", "dW2", "dW3", "dxW1", "dxW2"):
            assert getattr(stacked, name).shape == (6, g.n)
            assert np.array_equal(getattr(stacked, name)[i], getattr(alone, name))
