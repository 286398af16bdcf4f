"""Stratonovich dynamics: the stochastic nonlinear heat equation for q, the
frame time evolution, and the weak construction of the stochastic LLG flow.

Scheme: Heun predictor-corrector on drift coefficients (Stratonovich
consistent) combined with exact rotation / phase exponentials for the
group-valued updates, so |u| = |e| = 1 and <u, e> = 0 hold path-wise to
round-off and |q| is untouched by the multiplicative phase noise.

A field is one path's, (n,) or (n, 3), or P paths stacked path-major,
(P, n) or (P, n, 3), as every batch in the package, so one Python step of
the public operators advances all P. Each path draws its noise from its own
substream and no operation mixes paths, so path i comes out bit for bit the
same in any batch. The Heun step's drift is the deterministic flow's own
right-hand side, heat.HeatDrift.rhs, along the last (node) axis.
"""

import mmap
from dataclasses import dataclass, field

import numpy as np

from .fields import (BlowUpError, Grid1D, ConfigurationError, check_field, cross,
                     cumint, diff1, diff1_at_0)
from .forks import contiguous_ranges, fork_map
from .hashimoto import BASEPOINT_FRAME, FrameField, reconstruct_frame
from .heat import HeatDrift
from .llg import StepConfig, check_finite
from .noise import (NoiseIncrement, NoiseModel, derive_seed, noise_fields,
                    sample_increments)
from .rotations import rotation_exp

ORTHO_TOL = 1e-8    # the largest orthonormality defect frame_time_step accepts


def frame_generator(q: np.ndarray, g: Grid1D, alpha: float, beta: float):
    """Deterministic coefficients (p, C) of the frame time evolution on g."""
    qx = diff1(q, g)
    return _generator(q, qx, cumint(qx * np.conj(q) - np.conj(qx) * q, g), alpha, beta)


def _generator(q, qx, nl, alpha: float, beta: float):
    """(p, C) node-wise from q, q_x and nl = int_a^x (q_x conj(q) - conj(q_x) q) dy:
    p = (alpha + i beta) q_x and C = -beta |q|^2 / 2 + (i alpha / 2) nl, which
    is real up to round-off, since nl is purely imaginary."""
    C = -0.5 * beta * np.abs(q) ** 2 + 0.5j * alpha * nl
    return (alpha + 1j * beta) * qx, C.real


def frame_time_step(f: FrameField, p: np.ndarray, C: np.ndarray, dW1: np.ndarray,
                    dW2: np.ndarray, dPsi: np.ndarray, dt: float) -> FrameField:
    """One time step of the frame system by an exact rotation per node.

    (p, C) are frame_generator's coefficients and dPsi the phase increment
    of the step. Total generator entries (deterministic * dt + noise):
    a = p1 dt + dW1, b = p2 dt + dW2, c = C dt + dPsi.
    """
    if not f.orthonormality_defect() <= ORTHO_TOL:
        raise ConfigurationError("frame_time_step requires an orthonormal frame")
    F = rotation_exp(p.real * dt + dW1, p.imag * dt + dW2,
                     C * dt + dPsi) @ f.as_matrix()
    return FrameField(u=F[..., 0, :], e=F[..., 1, :])


def stochastic_heat_step(q: np.ndarray, g: Grid1D, alpha: float, beta: float,
                         dt: float, inc: NoiseIncrement):
    """One Stratonovich (Heun) step of the stochastic nonlinear heat equation.

    Drift is the expanded-form deterministic right-hand side with the
    basepoint-anchored nonlocal integral; additive noise is d dx(W1 + i W2);
    the multiplicative phase noise acts as an exact rotation
    q <- q exp(-i dPsi) with dPsi evaluated at the Stratonovich midpoint.
    The additive increment is split half before / half after the rotation:
    the two noises are driven by the same Brownian motions, and applying the
    whole increment on one side leaves a mean O(dt) cross term per step that
    accumulates to an O(1) weak bias. Returns (q_new, q_mid, dPsi); the
    caller checks q_new for finiteness.
    """
    additive = inc.dxW1 + 1j * inc.dxW2
    drift = HeatDrift(g, alpha, beta, q.shape)
    k1, k2 = np.empty(q.shape, complex), np.empty(q.shape, complex)
    drift.rhs(q, k1)
    dPsi0 = cumint(q.imag * inc.dW1 - q.real * inc.dW2, g)
    q_pred = (q + dt * k1 + 0.5 * additive) * np.exp(-1j * dPsi0) + 0.5 * additive
    q_mid = 0.5 * (q + q_pred)
    dPsi = cumint(q_mid.imag * inc.dW1 - q_mid.real * inc.dW2, g)
    drift.rhs(q_pred, k2)
    q_new = (q + 0.5 * dt * (k1 + k2) + 0.5 * additive) * np.exp(-1j * dPsi) \
        + 0.5 * additive
    return q_new, q_mid, dPsi


@dataclass
class SllgEnsemble:
    """P paths stacked path-major, with the config and noise model they were
    marched on: path i drew its noise from seeds[i], and u[k, i] is its
    (n, 3) field after k steps, on the noise model's grid."""
    cfg: StepConfig
    noise: NoiseModel
    q: np.ndarray           # (K+1, P, n) complex
    u: np.ndarray           # (K+1, P, n, 3)
    e: np.ndarray           # (K+1, P, n, 3)
    dW_tilde: np.ndarray    # (K, P, n, 3)
    seeds: list             # P path seeds
    times: np.ndarray = field(init=False)   # (K+1,)

    def __post_init__(self):
        K, P, n = self.cfg.n_steps, self.n_paths, self.grid.n
        got = [x.shape for x in (self.q, self.u, self.e, self.dW_tilde)]
        if got != [(K + 1, P, n), (K + 1, P, n, 3), (K + 1, P, n, 3), (K, P, n, 3)]:
            raise ConfigurationError(f"q, u, e, dW_tilde shapes {got} do not fit {K} "
                                     f"steps of {P} paths on the noise model's {n} nodes")
        self.times = self.cfg.dt * np.arange(K + 1)

    @property
    def grid(self) -> Grid1D:
        return self.noise.grid

    @property
    def n_paths(self) -> int:
        return len(self.seeds)

    @property
    def n_steps(self) -> int:
        return self.dW_tilde.shape[0]

    def view(self, p: slice) -> "SllgEnsemble":
        """The paths p as the ensemble viewing the stacked histories."""
        return SllgEnsemble(cfg=self.cfg, noise=self.noise, q=self.q[:, p],
                            u=self.u[:, p], e=self.e[:, p],
                            dW_tilde=self.dW_tilde[:, p], seeds=self.seeds[p])


def run_sllg_ensemble(q0: np.ndarray, nm: NoiseModel, cfg: StepConfig,
                      master_seed: int, n_paths: int) -> SllgEnsemble:
    """Independent weak SLLG paths from the one (n,) field q0, driven by nm's
    noise on nm's grid; path i runs on the seed derive_seed(master_seed, i).

    For all paths at once: (1) advance q; (2) advance the basepoint frame,
    hashimoto.BASEPOINT_FRAME at step 0, in time with coefficients at node 0,
    x = a (where the nonlocal integrals vanish); (3) build every step's frame
    field, step 0's included, from q by the spatial march, which enforces the
    curvature/torsion relation between u and q by construction; (4) assemble
    the increments of W-tilde = int e dW2 + (e x u) dW1 + u dW3 with midpoint
    frames. The q/u/e/W-tilde histories live in one anonymous shared mapping,
    so the workers of forks.fork_map, one per range of
    forks.contiguous_ranges (the parent marches the lowest paths), march
    their ranges in place, and _march orders the steps. Every path is bit for
    bit the same for any number of workers or hashimoto.CHUNK_ROTATIONS. A
    blow-up raises the serial march's BlowUpError, and a frame march that
    overflows reconstruct_frame's ConfigurationError.
    """
    if n_paths < 1:
        raise ConfigurationError(f"need at least one path, got {n_paths}")
    if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise ConfigurationError(
            f"master_seed must be an integer >= 0, got {master_seed!r}")
    g = nm.grid
    check_field((g.n,), "q0", q0)
    seeds = [derive_seed(master_seed, i) for i in range(n_paths)]
    cfg.check_stability(g)
    qs, us, es, dW_tilde = _shared_arrays(history_specs(cfg.n_steps, n_paths, g.n))
    qs[0] = q0

    def march(c: slice):        # paths c: one contiguous block per history step
        _march(qs[:, c], us[:, c], es[:, c], dW_tilde[:, c], seeds[c], nm, g, cfg)

    ranges = contiguous_ranges(n_paths)
    try:
        fork_map(march, ranges)
    except BlowUpError:
        # a BlowUpError gives the last max |q| over a worker's range of
        # paths only: re-march serially to raise the serial run's error
        if len(ranges) > 1:
            march(slice(0, n_paths))
        raise
    return SllgEnsemble(cfg=cfg, noise=nm, q=qs, u=us, e=es, dW_tilde=dW_tilde,
                        seeds=seeds)


def history_specs(K: int, P: int, n: int) -> list:
    """The (shape, dtype) of each of the q, u, e and W-tilde histories that
    run_sllg_ensemble maps for K steps of P paths."""
    return ([((K + 1, P, n), complex)] + [((K + 1, P, n, 3), float)] * 2
            + [((K, P, n, 3), float)])


def spec_sizes(specs) -> list:
    """The bytes of an array of each (shape, dtype) spec."""
    return [int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in specs]


def _shared_arrays(specs):
    """Uninitialised arrays of the given (shape, dtype) specs in one
    anonymous shared mapping, which forked children write through."""
    sizes = spec_sizes(specs)
    buf = mmap.mmap(-1, sum(sizes))
    return [np.ndarray(shape, dtype, buf, offset) for (shape, dtype), offset
            in zip(specs, np.cumsum([0] + sizes))]


def _march(qs, us, es, dW_tilde, seeds, nm, g, cfg):
    """Advance the paths on seeds from their step-0 q, filling the history
    views.

    q and the basepoint frames never read the frame fields, so they advance
    over all K steps first, keeping each step's raw dW1, dW2, dW3 in
    dW_tilde. One spatial march over the (K + 1) * P columns then builds
    every frame field in place, and W-tilde's increments replace the raw ones.
    """
    K, P = dW_tilde.shape[:2]
    q = qs[0]
    bases = np.empty((2, K + 1, P, 3))
    bases[:, 0] = np.array(BASEPOINT_FRAME)[:, None]
    for k in range(K):
        inc = noise_fields(nm, np.stack(
            [sample_increments(nm, s, cfg.dt, k) for s in seeds]))
        q_new, q_mid, _ = stochastic_heat_step(q, g, cfg.alpha, cfg.beta,
                                               cfg.dt, inc)
        check_finite(q_new, q, k, cfg.dt, "stochastic heat flow")
        q = qs[k + 1] = q_new
        bases[:, k + 1] = _basepoint_step(bases[:, k], q_mid, inc, g, cfg)
        dW_tilde[k] = np.stack([inc.dW1, inc.dW2, inc.dW3], axis=-1)
    # the march's columns are the (step, path) pairs
    reconstruct_frame(qs, g, *bases, out=FrameField(u=us, e=es))
    # W-tilde = int e dW2 + (e x u) dW1 + u dW3 with midpoint frames
    exu = cross(es[0], us[0])
    for k in range(K):
        exu_prev, exu = exu, cross(es[k + 1], us[k + 1])
        dW = dW_tilde[k].copy()                 # the raw dW1, dW2, dW3
        np.multiply(0.5 * (es[k] + es[k + 1]), dW[..., 1, None], out=dW_tilde[k])
        dW_tilde[k] += 0.5 * (exu_prev + exu) * dW[..., 0, None]
        dW_tilde[k] += 0.5 * (us[k] + us[k + 1]) * dW[..., 2, None]


def _basepoint_step(base, q_mid, inc, g, cfg):
    """The basepoint frames (u, e), each (P, 3), advanced in time by
    frame_generator's coefficients at node 0 alone, where the nonlocal
    integrals and dPsi vanish: bit for bit the whole grid's, from diff1's
    stencil there and the integral's exact 0.0, which turns a -0.0 C into +0.0."""
    p, C = _generator(q_mid[..., 0], diff1_at_0(q_mid.T, g), 0.0, cfg.alpha, cfg.beta)
    f = frame_time_step(FrameField(*base), p, C, inc.dW1[..., 0], inc.dW2[..., 0],
                        0.0, cfg.dt)
    return f.u, f.e
