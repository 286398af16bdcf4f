"""Truncated spectral Wiener noise on the circle.

W^i(t, x) = sum_l c_l sigma_l(x) beta^i_l(t), i in {1, 2, 3}, with sigma_l a
real Fourier basis orthonormal in L^2 of the circle (so derivatives are
analytic) and beta^i_l independent scalar Brownian motions. The model holds
no seed: a path's increments are a pure function of (path seed, step_index),
so identical seeds reproduce identical paths bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import Grid1D, ConfigurationError


def fourier_basis(g: Grid1D, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """First n_modes real Fourier modes on the circle and their x-derivatives.

    Mode order: constant, then (cos, sin) pairs of increasing frequency.
    Returns (basis, basis_x), each of shape (n_modes, n); a line grid takes
    no mode.
    """
    if n_modes and not g.periodic:
        raise ConfigurationError("spectral noise basis requires a periodic grid")
    lam = g.length
    basis = np.empty((n_modes, g.n))
    basis_x = np.empty((n_modes, g.n))
    amp = np.sqrt(2.0 / lam)
    basis[:1], basis_x[:1] = 1.0 / np.sqrt(lam), 0.0      # the constant mode
    for l in range(1, n_modes):
        m = (l + 1) // 2
        k = 2.0 * np.pi * m / lam
        if l % 2 == 1:
            basis[l] = amp * np.cos(k * g.x)
            basis_x[l] = -amp * k * np.sin(k * g.x)
        else:
            basis[l] = amp * np.sin(k * g.x)
            basis_x[l] = amp * k * np.cos(k * g.x)
    return basis, basis_x


@dataclass
class NoiseIncrement:
    dW1: np.ndarray    # (n,), or (P, n) for P paths
    dW2: np.ndarray
    dW3: np.ndarray
    dxW1: np.ndarray   # analytic spatial derivative of the W^1 increment
    dxW2: np.ndarray


@dataclass
class NoiseModel:
    grid: Grid1D
    coeffs: np.ndarray                     # c_l, one per mode
    basis: np.ndarray = field(init=False)
    basis_x: np.ndarray = field(init=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, float)
        if self.coeffs.ndim != 1:
            raise ConfigurationError(f"coeffs must be 1-D, got shape {self.coeffs.shape}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ConfigurationError(f"non-finite noise coefficients: {self.coeffs}")
        top = self.n_modes // 2             # the highest frequency; n nodes resolve < n / 2
        if 2 * top >= self.grid.n:
            raise ConfigurationError(f"n_modes={self.n_modes} is more than n={self.grid.n} "
                                     f"nodes resolve: its frequency {top} needs n > {2 * top}")
        self.basis, self.basis_x = fourier_basis(self.grid, self.n_modes)

    @property
    def n_modes(self) -> int:
        return len(self.coeffs)


def make_noise_model(g: Grid1D, n_modes: int, amplitude: float = 1.0) -> NoiseModel:
    """The NoiseModel on g of n_modes modes with the flat spectrum
    c_l = amplitude, which must be finite even for no mode; NoiseModel(g,
    coeffs) takes any other finite spectrum."""
    if n_modes < 0:
        raise ConfigurationError(f"n_modes must be >= 0, got {n_modes}")
    if not np.isfinite(amplitude):
        raise ConfigurationError(f"non-finite noise coefficients: amplitude {amplitude}")
    return NoiseModel(grid=g, coeffs=amplitude * np.ones(n_modes))


def derive_seed(master_seed: int, index: int) -> int:
    """Seed of path index under master_seed.

    Realized through the SeedSequence spawn key (1, index), so distinct
    indices give independent, reproducible streams.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(1, index))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_increments(nm: NoiseModel, seed: int, dt: float,
                      step_index: int) -> np.ndarray:
    """Brownian increments delta beta^i_l ~ N(0, dt) of the path on seed,
    shape (3, n_modes).

    A pure function of (seed, step_index): each step owns an independent
    substream keyed by its index.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(step_index,))
    rng = np.random.default_rng(ss)
    return np.sqrt(dt) * rng.standard_normal((3, nm.n_modes))


def noise_fields(nm: NoiseModel, increments: np.ndarray) -> NoiseIncrement:
    """Assemble dW^i(x) = sum_l c_l sigma_l(x) dbeta^i_l and the x-derivatives.

    increments is (3, L) for one path or (P, 3, L) for P stacked paths; the
    fields are then (n,) or (P, n). The stacked matmul does each path's
    product exactly as the single-path one, so the fields agree bit for bit.
    """
    w = nm.coeffs * increments                          # (..., 3, L)
    dW = w @ nm.basis                                   # (..., 3, n)
    dxW = w[..., :2, :] @ nm.basis_x                    # (..., 2, n)
    return NoiseIncrement(dW1=dW[..., 0, :], dW2=dW[..., 1, :], dW3=dW[..., 2, :],
                          dxW1=dxW[..., 0, :], dxW2=dxW[..., 1, :])
