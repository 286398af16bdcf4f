import numpy as np
import pytest

from hasimoto_lab.fields import (BlowUpError, ConfigurationError, cumint, dot,
                                 line_grid, norm, periodic_grid)
from hasimoto_lab.hashimoto import BASEPOINT_FRAME, FrameField, reconstruct_frame
from hasimoto_lab.llg import StepConfig, llg_integrate, stable_dt
from hasimoto_lab.noise import (NoiseIncrement, NoiseModel, derive_seed,
                                make_noise_model, noise_fields, sample_increments)
import hasimoto_lab.hashimoto as hashimoto
import hasimoto_lab.stochastic as stochastic
from hasimoto_lab.rotations import rotation_exp
from hasimoto_lab.stochastic import (frame_generator, frame_time_step,
                                     run_sllg_ensemble, stochastic_heat_step)
import reference


def zero_increment(n):
    z = np.zeros(n)
    return NoiseIncrement(dW1=z, dW2=z.copy(), dW3=z.copy(),
                          dxW1=z.copy(), dxW2=z.copy())


def twist_q(x):
    return 0.4 / (1.0 + ((x + 10.0) / 3.0) ** 2) ** 3 + 0.0j


def test_frame_generator_constant_q():
    g = periodic_grid(2.0 * np.pi, 64)
    k = 0.7
    q = k * np.ones(g.n, complex)
    p, C = frame_generator(q, g, 1.0, 0.9)
    assert np.max(np.abs(p)) == 0.0
    assert np.max(np.abs(C + 0.5 * 0.9 * k ** 2)) <= 1e-14


def test_frame_generator_zero_q():
    g = periodic_grid(2.0 * np.pi, 32)
    p, C = frame_generator(np.zeros(g.n, complex), g, 1.0, 1.0)
    assert np.max(np.abs(p)) == 0.0
    assert np.max(np.abs(C)) == 0.0


def test_frame_generator_C_is_real_integrand():
    # the nonlocal integrand q_x conj(q) - conj(q_x) q is purely imaginary
    g = periodic_grid(2.0 * np.pi, 128)
    q = (0.3 + 0.1 * np.cos(g.x)) * np.exp(1j * np.sin(g.x))
    qx_bar_q = np.gradient(q, g.x) * np.conj(q)
    assert np.max(np.abs((qx_bar_q - np.conj(qx_bar_q)).real)) <= 1e-14


def test_frame_time_step_identity():
    g = line_grid(0.0, 1.0, 16)
    f = FrameField(u=np.tile([1.0, 0.0, 0.0], (g.n, 1)),
                   e=np.tile([0.0, 1.0, 0.0], (g.n, 1)))
    z = np.zeros(g.n)
    p, C = frame_generator(np.zeros(g.n, complex), g, 1.0, 1.0)
    f2 = frame_time_step(f, p, C, z, z, z, 0.1)
    assert np.max(np.abs(f2.u - f.u)) == 0.0
    assert np.max(np.abs(f2.e - f.e)) == 0.0


def test_frame_time_step_planar_rotation():
    # a pure a-generator rotates u toward e by exactly a
    n = 8
    f = FrameField(u=np.tile([1.0, 0.0, 0.0], (n, 1)),
                   e=np.tile([0.0, 1.0, 0.0], (n, 1)))
    z = np.zeros(n)
    theta = 0.3
    f2 = frame_time_step(f, np.full(n, theta, complex), z, z, z, z, 1.0)
    assert np.allclose(f2.u, [np.cos(theta), np.sin(theta), 0.0])
    assert np.allclose(f2.e, [-np.sin(theta), np.cos(theta), 0.0])


def test_frame_time_step_preserves_orthonormality():
    rng = np.random.default_rng(5)
    n = 64
    u = rng.standard_normal((n, 3))
    u /= norm(u)[:, None]
    e = rng.standard_normal((n, 3))
    e -= dot(e, u)[:, None] * u
    e /= norm(e)[:, None]
    f = FrameField(u=u, e=e)
    p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    C, dPsi = rng.standard_normal(n), rng.standard_normal(n)
    f2 = frame_time_step(f, p, C, rng.standard_normal(n), rng.standard_normal(n),
                         dPsi, 0.1)
    assert f2.orthonormality_defect() <= 1e-13


def test_frame_time_step_rejects_bad_frame():
    n = 4
    f = FrameField(u=np.tile([1.0, 0.0, 0.0], (n, 1)),
                   e=np.tile([0.9, 0.1, 0.0], (n, 1)))
    z = np.zeros(n)
    with pytest.raises(ConfigurationError):
        frame_time_step(f, np.zeros(n, complex), z, z, z, z, 0.1)


def test_batched_steps_refuse_node_first_fields():
    # P paths are (P, n): a node-first (n, P) batch is refused, not stepped
    # along its path axis
    g = periodic_grid(2.0 * np.pi, 32)
    q = np.ones((g.n, 5), complex)
    with pytest.raises(ConfigurationError, match="field length 5 != grid n 32"):
        frame_generator(q, g, 0.5, 0.5)
    z = np.zeros((g.n, 5))
    inc = NoiseIncrement(dW1=z, dW2=z, dW3=z, dxW1=z, dxW2=z)
    with pytest.raises(ConfigurationError, match="field length 5 != grid n 32"):
        stochastic_heat_step(q, g, 0.5, 0.5, 1e-3, inc)


def test_zero_noise_step_matches_heun():
    g = line_grid(-30.0, 10.0, 128)
    q = twist_q(g.x)
    dt = 0.5 * stable_dt(g, 1.0, 1.0)
    q_new, q_mid, dPsi = stochastic_heat_step(q, g, 1.0, 1.0, dt,
                                              zero_increment(g.n))
    k1 = reference.heat_rhs(q, g, 1.0, 1.0, "expanded")
    k2 = reference.heat_rhs(q + dt * k1, g, 1.0, 1.0, "expanded")
    heun = q + 0.5 * dt * (k1 + k2)
    assert np.max(np.abs(q_new - heun)) == 0.0
    assert np.max(np.abs(dPsi)) == 0.0


def reference_heun(q, g, alpha, beta, dt, inc):
    """stochastic_heat_step's Heun formula on the reference heat_rhs and
    trapezoid sum."""
    additive = inc.dxW1 + 1j * inc.dxW2
    k1 = reference.heat_rhs(q, g, alpha, beta, "expanded")
    dPsi0 = reference.cumint(q.imag * inc.dW1 - q.real * inc.dW2, g)
    q_pred = (q + dt * k1 + 0.5 * additive) * np.exp(-1j * dPsi0) + 0.5 * additive
    q_mid = 0.5 * (q + q_pred)
    dPsi = reference.cumint(q_mid.imag * inc.dW1 - q_mid.real * inc.dW2, g)
    k2 = reference.heat_rhs(q_pred, g, alpha, beta, "expanded")
    q_new = (q + 0.5 * dt * (k1 + k2) + 0.5 * additive) * np.exp(-1j * dPsi) \
        + 0.5 * additive
    return q_new, q_mid, dPsi


@pytest.mark.parametrize("P", [1, 3])
def test_heun_step_bit_identical_to_reference(P):
    # P paths at once, each on its own noise, against the readable formula
    g = periodic_grid(2.0 * np.pi, 64)
    rng = np.random.default_rng(17)
    q = (0.2 + 0.05 * rng.standard_normal((P, g.n))) \
        * np.exp(1j * rng.standard_normal((P, g.n)))
    nm = make_noise_model(g, 4)
    inc = noise_fields(nm, np.stack([sample_increments(nm, s, 1e-3, 2)
                                     for s in range(P)]))
    assert inc.dW1.shape == (P, g.n) and np.all(inc.dxW1 != 0.0)
    got = stochastic_heat_step(q, g, 0.5, 0.7, 1e-3, inc)
    # the reference formulas are node-first: (n, P) views of the paths
    want = reference_heun(q.T, g, 0.5, 0.7, 1e-3, NoiseIncrement(
        *(x.T for x in (inc.dW1, inc.dW2, inc.dW3, inc.dxW1, inc.dxW2))))
    for a, r in zip(got, want):
        assert np.array_equal(a, r.T)


def test_phase_noise_anchored_at_basepoint():
    g = periodic_grid(2.0 * np.pi, 64)
    nm = make_noise_model(g, 4)
    inc = noise_fields(nm, sample_increments(nm, 11, 1e-3, 0))
    q = 0.2 * np.exp(1j * np.sin(g.x))
    _, _, dPsi = stochastic_heat_step(q, g, 0.5, 0.5, 1e-3, inc)
    assert dPsi[0] == 0.0
    assert np.max(np.abs(dPsi.imag)) == 0.0


def test_run_sllg_unit_norm_pathwise():
    g = periodic_grid(2.0 * np.pi, 64)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=5e-3)
    q0 = 0.2 + 0.06 * np.cos(g.x) + 0.0j
    path = run_sllg_ensemble(q0, make_noise_model(g, 4), cfg, 3, 1)
    for u, e in zip(path.u[:, 0], path.e[:, 0]):
        assert np.max(np.abs(norm(u) - 1.0)) <= 1e-12
        assert FrameField(u=u, e=e).orthonormality_defect() <= 1e-11


def test_run_sllg_zero_noise_matches_llg():
    # with no noise modes the weak construction must reproduce the
    # deterministic flow up to O(dt + h^2) discretization differences
    g = line_grid(-30.0, 10.0, 128)
    q0 = twist_q(g.x)
    u0 = reconstruct_frame(q0, g, *BASEPOINT_FRAME).u
    dt = 0.5 * stable_dt(g, 1.0, 1.0)
    t_end = 20.0 * dt
    cfg = StepConfig(alpha=1.0, beta=1.0, dt=dt, t_end=t_end)
    path = run_sllg_ensemble(q0, make_noise_model(g, 0), cfg, 0, 1)
    tr = llg_integrate(u0, g, StepConfig(alpha=1.0, beta=1.0, dt=dt,
                                         t_end=t_end, output_stride=100))
    assert np.max(np.abs(path.dW_tilde)) == 0.0
    assert np.max(np.abs(path.u[-1, 0] - tr.states[-1])) <= 1e-3


def test_run_sllg_seed_determinism():
    g = periodic_grid(2.0 * np.pi, 32)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=3e-3)
    q0, nm = 0.2 * np.ones(g.n, complex), make_noise_model(g, 3)
    p1 = run_sllg_ensemble(q0, nm, cfg, 8, 1)
    p2 = run_sllg_ensemble(q0, nm, cfg, 8, 1)
    assert np.array_equal(p1.u, p2.u) and np.array_equal(p1.q, p2.q)
    p3 = run_sllg_ensemble(q0, nm, cfg, 9, 1)
    assert not np.array_equal(p1.u, p3.u)


def test_ensemble_paths_distinct():
    g = periodic_grid(2.0 * np.pi, 32)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=2e-3)
    q0 = 0.2 * np.ones(g.n, complex)
    ens = run_sllg_ensemble(q0, make_noise_model(g, 3), cfg,
                            master_seed=4, n_paths=3)
    assert len(set(ens.seeds)) == 3
    assert not np.array_equal(ens.u[:, 0], ens.u[:, 1])
    assert ens.view(slice(2, 3)).seeds == ens.seeds[2:]


def test_path_shares_grid_config_and_noise_model():
    g = periodic_grid(2.0 * np.pi, 32)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=3e-3)
    nm = NoiseModel(grid=g, coeffs=np.arange(1, 4) ** -1.0)
    q0 = 0.2 * np.ones(g.n, complex)
    ens = run_sllg_ensemble(q0, nm, cfg, master_seed=4, n_paths=3)
    assert ens.grid is g and ens.cfg is cfg and ens.noise is nm
    assert np.array_equal(ens.noise.coeffs, np.arange(1, 4) ** -1.0)
    assert np.array_equal(ens.times, cfg.dt * np.arange(4))
    for name in ("q", "u", "e", "dW_tilde"):    # path-major: one block per path
        assert getattr(ens, name)[1, 2].flags.c_contiguous, name
    for i in range(3):
        one = ens.view(slice(i, i + 1))
        assert one.grid is ens.grid and one.cfg is ens.cfg and one.noise is ens.noise
        assert np.array_equal(one.times, ens.times)


def test_config_validation():
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        StepConfig(alpha=0.5, beta=0.5, dt=0.0, t_end=1.0)
    with pytest.raises(ConfigurationError, match="damping alpha must be >= 0"):
        StepConfig(alpha=-1.0, beta=0.5, dt=1e-3, t_end=1.0)
    g = periodic_grid(2.0 * np.pi, 128)
    with pytest.raises(ConfigurationError, match="exceeds the stability bound"):
        StepConfig(alpha=1.0, beta=1.0, dt=1.0, t_end=1.0).check_stability(g)
    with pytest.raises(ConfigurationError, match="n_modes must be >= 0"):
        make_noise_model(g, -1)
    with pytest.raises(ConfigurationError, match="non-finite noise coefficients"):
        make_noise_model(g, 4, np.inf)
    with pytest.raises(ConfigurationError, match="output_stride must be >= 1"):
        StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=1.0, output_stride=0)
    for t_end in (np.inf, np.nan, -1.0):
        with pytest.raises(ConfigurationError, match="t_end must be finite and >= 0"):
            StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=t_end)


@pytest.mark.parametrize("alpha,beta", [(0.5, np.nan), (-np.inf, 0.5)])
def test_config_rejects_non_finite_coefficients(alpha, beta):
    with pytest.raises(ConfigurationError, match="alpha and beta must be finite"):
        StepConfig(alpha=alpha, beta=beta, dt=1e-3, t_end=2e-3)


def _ensemble_inputs(n, dt, n_steps):
    g = periodic_grid(2.0 * np.pi, n)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=dt, t_end=n_steps * dt)
    q0 = 0.2 + 0.06 * np.cos(g.x) + 0.0j
    return g, cfg, q0, make_noise_model(g, 4)


def assert_same_path(a, b):
    for name in ("times", "q", "u", "e", "dW_tilde"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.seeds == b.seeds


def test_ensemble_paths_independent_of_batch_size():
    # path i is bit-identical in ensembles of 1, 7 and 12 paths
    g, cfg, q0, nm = _ensemble_inputs(32, 1e-3, 3)
    ensembles = [run_sllg_ensemble(q0, nm, cfg, 31, p) for p in (1, 7, 12)]
    for i in range(7):
        paths = [ens.view(slice(i, i + 1)) for ens in ensembles if i < ens.n_paths]
        assert paths[0].seeds == [derive_seed(31, i)]
        for path in paths[1:]:
            assert_same_path(path, paths[0])


def test_ensemble_needs_a_path():
    g, cfg, q0, nm = _ensemble_inputs(32, 1e-3, 2)
    with pytest.raises(ConfigurationError):
        run_sllg_ensemble(q0, nm, cfg, 2, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_master_seed_must_be_a_nonnegative_integer(seed):
    g, cfg, q0, nm = _ensemble_inputs(32, 1e-3, 2)
    match = "master_seed must be an integer >= 0"
    with pytest.raises(ConfigurationError, match=match):
        run_sllg_ensemble(q0, nm, cfg, seed, 2)


@pytest.mark.parametrize("case", ["0-d q0", "q0 of 20 nodes"])
def test_ensemble_refuses_a_start_that_is_not_one_field_on_its_grid(case):
    # the first would broadcast into every path's step 0, the second end in
    # numpy's broadcast error
    g, cfg, q0, nm = _ensemble_inputs(16, 1e-3, 2)
    q0 = q0[0] if case == "0-d q0" else np.resize(q0, 20)
    with pytest.raises(ConfigurationError, match=r"is not one field of shape \(16"):
        run_sllg_ensemble(q0, nm, cfg, 1, 2)


def test_ensemble_refuses_a_q0_whose_frame_march_overflows(use_cpus, no_child_left):
    # h q = 1.25e159 squares to inf in the rotation angle, so every frame is
    # NaN while q itself steps on finite values; the march's reconstruct_frame
    # refuses it in the worker, and fork_map raises it on 1, 2 and 3 workers
    g = periodic_grid(1e200, 8)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=2e-3)
    q0 = np.full(g.n, 1e-40, complex)
    match = "the initial frame overflows to inf or nan"
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        with pytest.raises(ConfigurationError, match=match), np.errstate(all="ignore"):
            run_sllg_ensemble(q0, make_noise_model(g, 4), cfg, 1, 3)
        no_child_left()


def test_blow_up_names_step_time_and_last_finite_max():
    # |q|^2 q grows q ~1e10 to ~1e76 in one step and overflows in the next
    g, cfg, _, nm = _ensemble_inputs(32, 1e-3, 4)
    q0 = 1e10 * np.ones(g.n, complex)
    one = StepConfig(alpha=cfg.alpha, beta=cfg.beta, dt=cfg.dt, t_end=cfg.dt)
    with np.errstate(all="ignore"):
        q1 = run_sllg_ensemble(q0, nm, one, 3, 2).q[1]
        with pytest.raises(BlowUpError) as info:
            run_sllg_ensemble(q0, nm, cfg, 3, 2)
    assert str(info.value) == (
        "stochastic heat flow blew up at step 2, t = 0.002: non-finite values; "
        f"last finite max |y| = {np.max(np.abs(q1)):.6g} at t = 0.001")


def test_single_march_matches_per_step_marches_at_large_n():
    # one path at n = 16384 builds its K + 1 = 7 frame fields with one march
    # in chunks of 4096 // 7 = 585 nodes; each field equals the lone march of
    # its q from its basepoint frame, which takes one chunk
    g, cfg, q0, nm = _ensemble_inputs(16384, 1e-8, 6)
    path = run_sllg_ensemble(q0, nm, cfg, 21, 1)
    for k in range(path.n_steps + 1):
        f = reconstruct_frame(path.q[k, 0], g, path.u[k, 0, 0], path.e[k, 0, 0])
        assert np.array_equal(f.u, path.u[k, 0]), k
        assert np.array_equal(f.e, path.e[k, 0]), k


def test_ensemble_matches_step_by_step_construction():
    # every frame field is the spatial march of its q from its basepoint
    # frame, and W-tilde's increments are the midpoint-frame sums of the
    # path's own noise, in this operation order
    g, cfg, q0, nm = _ensemble_inputs(32, 1e-3, 4)
    ens = run_sllg_ensemble(q0, nm, cfg, 13, 3)
    nm = ens.noise
    m, e0 = BASEPOINT_FRAME
    assert np.all(ens.u[0, :, 0] == m) and np.all(ens.e[0, :, 0] == e0)
    for i, seed in enumerate(ens.seeds):
        q, u, e = ens.q[:, i], ens.u[:, i], ens.e[:, i]
        for k in range(ens.n_steps + 1):
            f = reconstruct_frame(q[k], g, u[k, 0], e[k, 0])
            assert np.array_equal(f.u, u[k]) and np.array_equal(f.e, e[k])
        for k in range(ens.n_steps):
            inc = noise_fields(nm, sample_increments(nm, seed, cfg.dt, k))
            u_mid = 0.5 * (u[k] + u[k + 1])
            e_mid = 0.5 * (e[k] + e[k + 1])
            exu_mid = 0.5 * (np.cross(e[k], u[k]) + np.cross(e[k + 1], u[k + 1]))
            dW = e_mid * inc.dW2[:, None]
            dW += exu_mid * inc.dW1[:, None]
            dW += u_mid * inc.dW3[:, None]
            assert np.array_equal(dW, ens.dW_tilde[k, i])


@pytest.mark.parametrize("n_steps", [0, 3])
def test_step_zero_frames_are_the_march_of_q0_on_any_worker_count(use_cpus,
                                                                  no_child_left, n_steps):
    # a t_end = 0 ensemble marches its one step too; path i's step-0 frame is
    # the lone march of q0 from BASEPOINT_FRAME on 1, 2 and 3 workers
    g, cfg, q0, nm = _ensemble_inputs(32, 1e-3, n_steps)
    f = reconstruct_frame(q0, g, *BASEPOINT_FRAME)
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        ens = run_sllg_ensemble(q0, nm, cfg, 5, 5)
        no_child_left()
        assert ens.n_steps == n_steps
        for i in range(ens.n_paths):
            assert np.array_equal(ens.u[0, i].view(np.uint64), f.u.view(np.uint64))
            assert np.array_equal(ens.e[0, i].view(np.uint64), f.e.view(np.uint64))


def old_basepoint_step(base, q_mid, inc, g, cfg):
    """The basepoint step from full-grid coefficients sliced at node 0."""
    p, C = frame_generator(q_mid, g, cfg.alpha, cfg.beta)
    dPsi = cumint(q_mid.imag * inc.dW1 - q_mid.real * inc.dW2, g)
    f = frame_time_step(FrameField(*base), p[:, 0], C[:, 0], inc.dW1[:, 0],
                        inc.dW2[:, 0], dPsi[:, 0], cfg.dt)
    return f.u, f.e


@pytest.mark.parametrize("g", [periodic_grid(2.0 * np.pi, 32),
                               line_grid(-5.0, 5.0, 33)],
                         ids=["periodic", "line"])
def test_basepoint_step_matches_full_grid_coefficients(g):
    # bit for bit, the sign of zero included: path 0 has q(a) = 0, path 1 has
    # q = 0 and no noise, and paths 1 and 2 start from frames with zeros
    rng = np.random.default_rng(8)
    n, P = g.n, 4
    q_mid = rng.normal(size=(P, n)) + 1j * rng.normal(size=(P, n))
    q_mid[0, 0] = 0.0
    q_mid[1] = 0.0
    dW = rng.normal(scale=0.03, size=(2, P, n))
    dW[:, 1] = 0.0
    inc = NoiseIncrement(dW1=dW[0], dW2=dW[1], dW3=np.zeros((P, n)),
                         dxW1=np.zeros((P, n)), dxW2=np.zeros((P, n)))
    R = rotation_exp(*rng.normal(size=(3, P)))
    u, e = R[:, 0].copy(), R[:, 1].copy()
    u[1:3], e[1:3] = [1.0, -0.0, 0.0], [0.0, 1.0, -0.0]
    for alpha, beta in ((0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
        cfg = StepConfig(alpha=alpha, beta=beta, dt=1e-3, t_end=1e-3)
        new = stochastic._basepoint_step((u, e), q_mid, inc, g, cfg)
        for got, want in zip(new, old_basepoint_step((u, e), q_mid, inc, g, cfg)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_ensemble_bit_identical_for_any_worker_count(monkeypatch, use_cpus,
                                                     no_child_left):
    # 7 paths, marched node by node by one worker, against 1, 2 and 3
    # workers at the default chunk size: their ranges 7, 4 + 3 and 3 + 2 + 2
    g, cfg, q0, nm = _ensemble_inputs(32, 1e-3, 5)
    chunk = hashimoto.CHUNK_ROTATIONS
    use_cpus(1)
    monkeypatch.setattr(hashimoto, "CHUNK_ROTATIONS", 1)
    ref = run_sllg_ensemble(q0, nm, cfg, 9, 7)
    monkeypatch.setattr(hashimoto, "CHUNK_ROTATIONS", chunk)
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        ens = run_sllg_ensemble(q0, nm, cfg, 9, 7)
        no_child_left()
        for name in ("times", "q", "u", "e", "dW_tilde"):
            assert np.array_equal(getattr(ens, name), getattr(ref, name)), (cpus, name)
        assert ens.seeds == ref.seeds


@pytest.mark.parametrize("cpus", [2, 3])
def test_blow_up_in_a_worker_raises_the_serial_error(monkeypatch, use_cpus,
                                                     no_child_left, cpus):
    # path 2 alone draws NaN noise at step 3; on 2 and 3 CPUs a forked child
    # marches it alone, while the serial march checks paths 0-2 as one range
    # and its message gives their common last finite max |q|, which is
    # path 0's here
    g, cfg, q0, nm = _ensemble_inputs(32, 1e-3, 6)
    two = StepConfig(alpha=cfg.alpha, beta=cfg.beta, dt=cfg.dt, t_end=2 * cfg.dt)
    q2 = run_sllg_ensemble(q0, nm, two, 4, 3).q[2]
    assert np.max(np.abs(q2[2])) < np.max(np.abs(q2[0]))
    bad = derive_seed(4, 2)
    sample = stochastic.sample_increments

    def blowing(nm, seed, dt, k):
        return sample(nm, seed, dt, k) * (np.nan if seed == bad and k == 2 else 1.0)

    monkeypatch.setattr(stochastic, "sample_increments", blowing)
    errors = {}
    for k in (1, cpus):
        use_cpus(k)
        with pytest.raises(BlowUpError) as info, np.errstate(all="ignore"):
            run_sllg_ensemble(q0, nm, cfg, 4, 3)
        errors[k] = str(info.value)
        no_child_left()
    assert errors[cpus] == errors[1] == (
        "stochastic heat flow blew up at step 3, t = 0.003: non-finite values; "
        f"last finite max |y| = {np.max(np.abs(q2)):.6g} at t = 0.002")
