import os
import re
import time
import warnings

import numpy as np
import pytest

from hasimoto_lab.fields import (BlowUpError, ConfigurationError, line_grid,
                                 normalize, open_view, periodic_grid)
from hasimoto_lab import validation
from hasimoto_lab.forks import contiguous_ranges, fork_map, usable_cpus
from hasimoto_lab.heat import heat_integrate
from hasimoto_lab.hashimoto import BASEPOINT_FRAME, reconstruct_frame, transform
from hasimoto_lab.llg import StepConfig, llg_integrate, stable_dt
from hasimoto_lab.noise import make_noise_model, noise_fields, sample_increments
from hasimoto_lab.stochastic import SllgEnsemble, run_sllg_ensemble
from hasimoto_lab.validation import (covariance_checks, crosscheck_deterministic,
                                     holonomy_defect, identity_suite,
                                     localized_twist, sllg_weak_residual,
                                     weak_residual)
from reference import crosscheck_levels, fit_loglog_slope, llg_rhs


def smooth_map(g):
    raw = np.stack([np.cos(g.x), np.sin(g.x), 0.5 + 0.3 * np.sin(2.0 * g.x)],
                   axis=-1)
    return normalize(raw)


def test_fit_loglog_slope():
    scales = np.array([0.1, 0.05, 0.025])
    assert fit_loglog_slope(scales, 3.0 * scales ** 2) == pytest.approx(2.0)
    assert fit_loglog_slope(scales, 0.7 * scales) == pytest.approx(1.0)


def test_localized_twist_profile():
    x = np.array([-15.0, -9.0, 45.0])
    q = localized_twist(x)
    assert q[0] == 0.25
    assert q[1] == pytest.approx(0.25 / 8.0)
    assert np.max(np.abs(q.imag)) == 0.0
    # polynomial tail: 1/x^6 decay far from the bump
    assert abs(q[2]) <= 0.25 * (6.0 / 60.0) ** 6 * 1.1


def test_crosscheck_zero_time_is_exact():
    # the heat flow starts from the discrete transform of the reconstructed
    # map, so the discrepancy at t = 0 vanishes identically
    rep = crosscheck_deterministic(crosscheck_levels(
        localized_twist, -60.0, 20.0, 1.0, 1.0, t_end=0.0, grid_sizes=(64, 128)))
    assert all(lv["sup_disc"] == 0.0 for lv in rep.levels)
    assert rep.orders == []


@pytest.mark.parametrize("sizes", [(96, 48), (48, 48), (32, 64, 64)],
                         ids=["coarser", "equal", "repeated"])
def test_crosscheck_refuses_levels_that_do_not_refine(sizes):
    # orders compare each level with a finer one
    levels = crosscheck_levels(localized_twist, -60.0, 20.0, 1.0, 1.0, t_end=0.05,
                               grid_sizes=sizes)
    with pytest.raises(ConfigurationError, match="levels of strictly increasing n"):
        crosscheck_deterministic(levels)


def test_crosscheck_refuses_levels_of_different_flows():
    coarse, _ = crosscheck_levels(localized_twist, -60.0, 20.0, 1.0, 1.0, t_end=0.05,
                                  grid_sizes=(48, 96))
    fine, = crosscheck_levels(localized_twist, -60.0, 20.0, 0.5, 1.0, t_end=0.05,
                              grid_sizes=(96,))
    with pytest.raises(ConfigurationError, match="one common alpha, beta and t_end"):
        crosscheck_deterministic([coarse, fine])


def test_crosscheck_flags_nondecaying_data():
    rep = crosscheck_deterministic(crosscheck_levels(
        lambda x: 0.5 * np.ones_like(x) + 0j, -10.0, 10.0, 1.0, 1.0, t_end=0.01,
        grid_sizes=(64,)))
    assert rep.flagged


def test_crosscheck_converges_at_second_order_up_to_a_global_phase():
    # the CLI's crosscheck at t_end = 1.0. Past n = 512 its sup |H(u) - q|
    # stalls near 5e-4, on one global phase, so the orders are read from two
    # quantities without it: sup | |H(u)| - |q| |, and sup |H(u) e^(-i th) - q|
    # where, at each sample time, th = arg sum_x conj(q) H(u) is the phase
    # that minimizes sum_x |H(u) e^(-i th) - q|^2
    sups = []
    for g, u0, cfg in crosscheck_levels(localized_twist, -250.0, 20.0, 1.0, 1.0,
                                        t_end=1.0, grid_sizes=(256, 512, 1024, 2048)):
        H = transform(np.array(llg_integrate(u0, g, cfg).states), g)
        q = np.array(heat_integrate(transform(u0, g), g, cfg).states)
        th = np.angle(np.sum(np.conj(q) * H, axis=-1, keepdims=True))
        sups.append([np.max(np.abs(np.abs(H) - np.abs(q))),
                     np.max(np.abs(H * np.exp(-1j * th) - q))])
    orders = np.log2(np.divide(sups[:-1], sups[1:]))
    # measured 1.75, 1.94, 1.98 (modulus) and 1.78, 1.94, 1.98 (aligned): the
    # coarsest refinement is not yet asymptotic, so its floor is 1.7
    assert np.all(orders >= [[1.7], [1.8], [1.8]]), orders


def test_crosscheck_independent_of_worker_count(use_cpus, no_child_left):
    reps = {}
    for k in (1, 2, 3):
        use_cpus(k)
        reps[k] = crosscheck_deterministic(crosscheck_levels(
            localized_twist, -60.0, 20.0, 1.0, 1.0, t_end=0.05, grid_sizes=(48, 96)))
        no_child_left()
    for k in (2, 3):
        assert reps[k].orders == reps[1].orders
        for lv, ref in zip(reps[k].levels, reps[1].levels):
            for key in ("times", "disc_max", "disc_l2"):
                assert np.array_equal(lv[key], ref[key])
            assert lv["sup_disc"] == ref["sup_disc"] > 0.0
    assert len(reps[1].orders) == 1


def test_crosscheck_runs_the_llg_flows_in_one_process_and_the_heat_flows_in_another(
        use_cpus, no_child_left, monkeypatch, tmp_path):
    # on 2 CPUs the parent runs every LLG flow and one child every heat flow,
    # so the two finest flows, the costliest, run on different CPUs
    def logged(integrate, kind):
        def run(y0, g, cfg):
            (tmp_path / f"{kind}-{g.n}").write_text(str(os.getpid()))
            return integrate(y0, g, cfg)
        return run

    monkeypatch.setattr(validation, "llg_integrate", logged(llg_integrate, "llg"))
    monkeypatch.setattr(validation, "heat_integrate", logged(heat_integrate, "heat"))
    use_cpus(2)
    crosscheck_deterministic(crosscheck_levels(
        localized_twist, -60.0, 20.0, 1.0, 1.0, t_end=0.01, grid_sizes=(32, 48, 64)))
    no_child_left()
    pids = {kind: {(tmp_path / f"{kind}-{n}").read_text() for n in (32, 48, 64)}
            for kind in ("llg", "heat")}
    assert pids["llg"] == {str(os.getpid())}
    assert len(pids["heat"]) == 1 and pids["heat"] != pids["llg"]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fork_map_keeps_item_order(use_cpus, no_child_left, cpus):
    use_cpus(cpus)
    out = fork_map(lambda x: (x * x, os.getpid()), range(7))
    assert [r for r, _ in out] == [x * x for x in range(7)]
    assert len({pid for _, pid in out}) == cpus
    no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bad,first", [((3, 5), 3), ((2, 5), 2), ((4, 5), 4),
                                       ((1, 2), 1)])
def test_fork_map_raises_first_exception(use_cpus, no_child_left, cpus, bad,
                                        first):
    # each worker runs one contiguous share: on 2 CPUs the parent runs items
    # 0-3 and a child 4-6, on 3 CPUs the parent 0-2 and two children 3-4 and
    # 5-6; the raised exception is the serial run's, the first failing item's
    def fn(x):
        if x in bad:
            raise KeyError(f"item {x}")
        return x

    use_cpus(cpus)
    with pytest.raises(KeyError, match=f"item {first}"):
        fork_map(fn, range(7))
    no_child_left()


def test_fork_map_kills_children_when_parent_share_fails(use_cpus, no_child_left):
    def fn(x):
        if x == 0:
            raise ValueError("parent share failed")
        time.sleep(30.0)

    use_cpus(2)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="parent share failed"):
        fork_map(fn, [0, 1])
    assert time.monotonic() - t0 < 10.0
    no_child_left()


@pytest.mark.parametrize("fail", [False, True])
def test_fork_map_caller_finally_runs_once(use_cpus, no_child_left, tmp_path,
                                          fail):
    def fn(x):
        if fail and x == 1:
            raise RuntimeError("child failed")
        return x

    def caller():
        try:
            return fork_map(fn, range(4))
        finally:
            with open(tmp_path / "log", "a") as fh:
                fh.write("finally\n")

    use_cpus(2)
    if fail:
        with pytest.raises(RuntimeError, match="child failed"):
            caller()
    else:
        assert caller() == [0, 1, 2, 3]
    assert (tmp_path / "log").read_text() == "finally\n"
    no_child_left()


def test_contiguous_ranges_cover_the_count_in_order(use_cpus, no_child_left):
    for cpus, count, sizes in ((1, 7, [7]), (2, 7, [4, 3]), (3, 7, [3, 2, 2]),
                               (9, 7, [1] * 7), (2, 0, [0])):
        use_cpus(cpus)
        ranges = contiguous_ranges(count)
        assert [r.stop - r.start for r in ranges] == sizes
        assert [r.start for r in ranges] == [0] + [r.stop for r in ranges[:-1]]
    # a forked worker has its CPU: a fork_map inside it runs serially
    use_cpus(2)
    assert fork_map(lambda x: usable_cpus(), range(2)) == [2, 1]
    no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the process's threads through Linux's /proc")
def test_fork_map_forks_a_single_threaded_process(use_cpus, no_child_left):
    # numpy's OpenBLAS runs a helper thread from import on; its fork handler
    # stops that thread before each fork, so both shares run with one thread
    # and CPython (3.12+) has no multi-threaded fork to warn about
    a = np.ones((300, 300))
    a @ a                                       # start the BLAS thread pool
    use_cpus(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shares = fork_map(lambda _: (os.getpid(), len(os.listdir("/proc/self/task"))),
                          range(2))
    no_child_left()
    assert len({pid for pid, _ in shares}) == 2
    assert [threads for _, threads in shares] == [1, 1]
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_fork_map_blow_up_in_worker_matches_serial(use_cpus, no_child_left):
    g = periodic_grid(2.0 * np.pi, 32)
    dt = 0.5 * stable_dt(g, 1.0, 0.0)
    cfg = StepConfig(alpha=1.0, beta=0.0, dt=dt, t_end=4 * dt)
    blowing = 1e200 * np.ones(g.n, complex)
    items = [np.ones(g.n, complex), blowing]   # on 2 CPUs item 1 runs in a child
    errors = {}
    for cpus in (1, 2):
        use_cpus(cpus)
        with pytest.raises(BlowUpError) as info, np.errstate(all="ignore"):
            fork_map(lambda q0: heat_integrate(q0, g, cfg), items)
        errors[cpus] = (type(info.value), str(info.value))
        no_child_left()
    assert errors[2] == errors[1]
    assert "at step 1" in errors[1][1]


def test_identity_suite_great_circle():
    g = periodic_grid(2.0 * np.pi, 128)
    u = np.stack([np.cos(g.x), np.sin(g.x), np.zeros(g.n)], axis=-1)
    rep = identity_suite(u, g)
    assert not rep.skipped
    assert rep.valid_fraction == 1.0
    assert rep.lagrange_max_rel <= 1e-10
    # discrete-stencil residuals are O(h^2); h^2 here is about 2.4e-3
    assert rep.uxx_expansion_max <= 2.0 * g.h ** 2
    assert rep.u_uxxx_max <= 2.0 * g.h ** 2
    assert rep.ratio_identity_max <= 2.0 * g.h ** 2


def test_identity_suite_constant_map_skipped():
    g = periodic_grid(2.0 * np.pi, 32)
    rep = identity_suite(np.tile([0.0, 0.0, 1.0], (g.n, 1)), g)
    assert rep.skipped


def test_identity_suite_refinement():
    residuals = []
    for n in (128, 256):
        g = periodic_grid(2.0 * np.pi, n)
        rep = identity_suite(smooth_map(g), g)
        residuals.append(rep.uxx_expansion_max)
        assert rep.lagrange_max_rel <= 1e-10
    assert residuals[1] <= 0.35 * residuals[0]


def test_holonomy_zero_field():
    g = line_grid(-5.0, 5.0, 32)
    q_path = np.zeros((3, g.n), complex)
    rep = holonomy_defect(q_path, g, 1.0, 1.0, dt=1e-3)
    assert rep.max_defect <= 1e-14


def test_holonomy_solution_beats_frozen():
    g = line_grid(-30.0, 10.0, 64)
    q0 = localized_twist(g.x, amplitude=0.4, width=3.0, center=-10.0)
    dt = 0.9 * stable_dt(g, 1.0, 1.0)
    tr = heat_integrate(q0, g, StepConfig(alpha=1.0, beta=1.0, dt=dt,
                                          t_end=4.0 * dt))
    q_path = np.array(tr.states)
    frozen = np.tile(q0, (q_path.shape[0], 1))
    on_solution = holonomy_defect(q_path, g, 1.0, 1.0, dt).max_defect
    off_solution = holonomy_defect(frozen, g, 1.0, 1.0, dt).max_defect
    assert on_solution <= 0.1 * off_solution


def make_zero_noise_paths(g, dt, t_end, n_paths):
    """n_paths equal paths: with no noise modes the seeds make no difference."""
    q0 = localized_twist(g.x, amplitude=0.4, width=3.0, center=-10.0)
    cfg = StepConfig(alpha=1.0, beta=1.0, dt=dt, t_end=t_end)
    frame = reconstruct_frame(q0, g, *BASEPOINT_FRAME)
    return run_sllg_ensemble(q0, frame, make_noise_model(g, 0), cfg, 0, n_paths)


def test_weak_residual_zero_test_function():
    g = line_grid(-30.0, 10.0, 64)
    dt = 0.5 * stable_dt(g, 1.0, 1.0)
    path = make_zero_noise_paths(g, dt, 4.0 * dt, 1)
    assert weak_residual(path, np.zeros((g.n, 3))).tolist() == [0.0]
    with pytest.raises(ConfigurationError):
        weak_residual(path, np.zeros((g.n, 3)), noise_rule="right")


def test_weak_residual_deterministic_path_small():
    # without noise the residual is pure time-discretization error
    g = line_grid(-30.0, 10.0, 64)
    dt = 0.5 * stable_dt(g, 1.0, 1.0)
    paths = make_zero_noise_paths(g, dt, 10.0 * dt, 2)
    phi = np.stack([np.cos(g.x / 10.0), np.sin(g.x / 10.0),
                    0.3 * np.ones(g.n)], axis=-1)
    r = weak_residual(paths, phi)
    assert r[0] == r[1] and abs(r[0]) <= 50.0 * dt ** 2
    # equal paths have no spread: their statistics are refused, not read as 0
    for check in (lambda: sllg_weak_residual(paths, phi),
                  lambda: covariance_checks(paths, [(phi, phi)])):
        with pytest.raises(ConfigurationError, match="2 paths give the same .* no spread"):
            check()
    with pytest.raises(ConfigurationError, match="at least 2 paths, got 1"):
        sllg_weak_residual(paths.view(slice(0, 1)), phi)


def synthetic_frozen_ensemble(g, n_modes, seed, dt, n_paths):
    """One-step paths with a frame frozen at the standard basis, driven by
    n_modes flat modes; path k takes the increments of step k on seed."""
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=dt, t_end=dt)
    nm = make_noise_model(g, n_modes)
    u = np.tile([1.0, 0.0, 0.0], (2, n_paths, g.n, 1))
    e = np.tile([0.0, 1.0, 0.0], (2, n_paths, g.n, 1))
    inc = noise_fields(nm, np.stack([sample_increments(nm, seed, dt, k)
                                     for k in range(n_paths)]))
    exu = -np.cross(u[0], e[0])
    dW = (e[0] * inc.dW2[..., None] + exu * inc.dW1[..., None]
          + u[0] * inc.dW3[..., None])
    return SllgEnsemble(cfg=cfg, noise=nm, q=np.zeros((2, n_paths, g.n), complex),
                        u=u, e=e, dW_tilde=dW[None], seeds=[seed] * n_paths)


def test_ensemble_refuses_histories_off_its_noise_grid():
    # the fields live on the noise model's grid, the ensemble's only one:
    # histories of another n, another path count or step count, or the
    # node-first layout, are refused, not read against the wrong basis
    g = periodic_grid(2.0 * np.pi, 16)
    good = synthetic_frozen_ensemble(g, 2, 5, 0.01, 3)
    assert good.grid is good.noise.grid is g
    fields = {name: getattr(good, name) for name in ("q", "u", "e", "dW_tilde")}
    other_n = make_noise_model(periodic_grid(2.0 * np.pi, 32), 2)
    wrong = [dict(noise=other_n), dict(seeds=good.seeds[:2]),
             dict(cfg=StepConfig(alpha=0.5, beta=0.5, dt=0.01, t_end=0.02)),
             dict(u=good.u.transpose(0, 2, 1, 3)),
             dict(dW_tilde=good.dW_tilde.transpose(0, 2, 1, 3))]
    for change in wrong:
        kw = dict(cfg=good.cfg, noise=good.noise, seeds=good.seeds, **fields) | change
        with pytest.raises(ConfigurationError, match="not .* paths on the noise model's"):
            SllgEnsemble(**kw)
    with pytest.raises(AttributeError):
        good.grid = periodic_grid(4.0 * np.pi, 16)


def test_covariance_check_frozen_frame():
    g = periodic_grid(2.0 * np.pi, 64)
    dt = 0.01
    paths = synthetic_frozen_ensemble(g, 3, 21, dt, 2000)
    phi = np.stack([np.cos(g.x), np.sin(g.x), 0.2 * np.ones(g.n)], axis=-1)
    rep, = covariance_checks(paths, [(phi, phi)])
    assert rep.n_paths == 2000 and rep.t == dt
    assert rep.direct > 0.0
    assert rep.within_3sigma


def test_covariance_orthogonal_pairing_vanishes():
    # a test function with zero mean has no overlap with the constant mode
    g = periodic_grid(2.0 * np.pi, 64)
    paths = synthetic_frozen_ensemble(g, 1, 13, 0.01, 50)
    phi = np.stack([np.sin(g.x), np.zeros(g.n), np.zeros(g.n)], axis=-1)
    rep, = covariance_checks(paths, [(phi, phi)])
    assert abs(rep.direct) <= 1e-24
    assert abs(rep.mc_estimate) <= 1e-24


def test_covariance_check_needs_two_paths():
    # one path has no spread: its 3-sigma half width would read 0
    g = periodic_grid(2.0 * np.pi, 32)
    paths = synthetic_frozen_ensemble(g, 2, 5, 0.01, 2)
    phi = np.stack([np.cos(g.x), np.sin(g.x), 0.2 * np.ones(g.n)], axis=-1)
    with pytest.raises(ConfigurationError, match="at least 2 paths, got 1"):
        covariance_checks(paths.view(slice(0, 1)), [(phi, phi)])
    rep, = covariance_checks(paths, [(phi, phi)])
    assert rep.n_paths == 2 and rep.mc_ci3 > 0.0


def reference_weak_residual(ens, i, phi, noise_rule):
    """The per-path, per-step loop the batched residual replaces, for path i."""
    g, alpha, beta = ens.grid, ens.cfg.alpha, ens.cfg.beta
    og = open_view(g)
    h = g.h
    dt = float(ens.times[1] - ens.times[0])
    u, dW_tilde = ens.u[:, i], ens.dW_tilde[:, i]
    R = h * float(np.sum(phi * (u[-1] - u[0])))
    for k in range(ens.n_steps):
        u_mid = normalize(0.5 * (u[k] + u[k + 1]))
        R -= dt * h * float(np.sum(phi * llg_rhs(u_mid, og, alpha, beta)))
        u_noise = u_mid if noise_rule == "midpoint" else u[k]
        R -= h * float(np.sum(phi * np.cross(u_noise, dW_tilde[k])))
    return R


def reference_covariance(ens, phi, psi):
    """Per-path (Monte Carlo product, direct quadrature) of the covariance check."""
    nm, h = ens.noise, ens.grid.h
    c2 = nm.coeffs ** 2
    dt = float(ens.times[1] - ens.times[0])
    prods, directs = [], []
    for i in range(ens.n_paths):
        u, e = ens.u[:, i], ens.e[:, i]
        Wt = np.sum(ens.dW_tilde[:, i], axis=0)
        prods.append(h * np.sum(phi * Wt) * h * np.sum(psi * Wt))
        d = 0.0
        for k in range(ens.n_steps):
            u_mid = 0.5 * (u[k] + u[k + 1])
            e_mid = 0.5 * (e[k] + e[k + 1])
            uxe_mid = 0.5 * (np.cross(u[k], e[k]) + np.cross(u[k + 1], e[k + 1]))
            for F in (u_mid, e_mid, uxe_mid):
                pf = h * (nm.basis @ np.sum(phi * F, axis=-1))
                ps = h * (nm.basis @ np.sum(psi * F, axis=-1))
                d += dt * float(np.sum(c2 * pf * ps))
        directs.append(d)
    return np.array(prods), np.array(directs)


def small_ensemble():
    g = periodic_grid(2.0 * np.pi, 32)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=4e-3)
    q0 = 0.2 + 0.06 * np.cos(g.x) + 0.0j
    frame = reconstruct_frame(q0, g, *BASEPOINT_FRAME)
    ens = run_sllg_ensemble(q0, frame, make_noise_model(g, 4), cfg, 17, 9)
    return g, ens


def test_weak_residual_of_an_empty_view_is_empty():
    g, ens = small_ensemble()
    phi = standard_pairs(g)[0][0]
    assert weak_residual(ens.view(slice(2, 2)), phi).shape == (0,)


def test_sllg_weak_residual_refuses_an_empty_view():
    g, ens = small_ensemble()
    phi = standard_pairs(g)[0][0]
    with pytest.raises(ConfigurationError, match="at least 2 paths, got 0"):
        sllg_weak_residual(ens.view(slice(2, 2)), phi)


def test_covariance_checks_refuse_an_empty_view():
    g, ens = small_ensemble()
    with pytest.raises(ConfigurationError, match="at least 2 paths, got 0"):
        covariance_checks(ens.view(slice(2, 2)), standard_pairs(g))


@pytest.mark.parametrize("shape", [(32,), (3,), (8, 3)])
def test_checks_refuse_a_test_function_off_the_ensembles_grid(shape):
    g, ens = small_ensemble()
    phi, good = np.ones(shape), standard_pairs(g)[0][0]
    match = re.escape(f"test function of shape {shape} is not one field of shape (32, 3)")
    with pytest.raises(ConfigurationError, match=match):
        weak_residual(ens, phi)
    with pytest.raises(ConfigurationError, match=match):
        covariance_checks(ens, [(good, good), (good, phi)])


def test_checks_refuse_a_non_finite_test_function():
    g, ens = small_ensemble()
    phi = standard_pairs(g)[0][0].copy()
    phi[3, 1] = np.nan
    with pytest.raises(ConfigurationError, match="every test function must be finite"):
        sllg_weak_residual(ens, phi)
    with pytest.raises(ConfigurationError, match="every test function must be finite"):
        covariance_checks(ens, [(phi, phi)])


def test_checks_pair_a_test_function_given_as_nested_lists():
    g, ens = small_ensemble()
    phi = standard_pairs(g)[0][0]
    assert np.array_equal(weak_residual(ens, phi.tolist()), weak_residual(ens, phi))
    as_lists = covariance_checks(ens, [(phi.tolist(), phi.tolist())])[0]
    assert as_lists.to_dict() == covariance_checks(ens, [(phi, phi)])[0].to_dict()


def test_covariance_checks_refuse_no_pair():
    g, ens = small_ensemble()
    with pytest.raises(ConfigurationError, match=r"no \(phi, psi\) pair"):
        covariance_checks(ens, [])


def test_batched_weak_residual_matches_per_path_sum():
    g, ens = small_ensemble()
    phi = np.stack([np.cos(g.x), np.sin(g.x), 0.3 * np.ones(g.n)], axis=-1)
    for rule in ("midpoint", "left"):
        ref = np.array([reference_weak_residual(ens, i, phi, rule)
                        for i in range(ens.n_paths)])
        got = weak_residual(ens, phi, rule)
        assert got.shape == (ens.n_paths,)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        rep = sllg_weak_residual(ens, phi, rule)
        assert rep.mean == pytest.approx(np.mean(ref), rel=1e-12)
        assert rep.stderr == pytest.approx(
            np.std(ref, ddof=1) / np.sqrt(len(ref)), rel=1e-12)
    one = weak_residual(ens.view(slice(3, 4)), phi)
    assert one.shape == (1,) and one[0] == pytest.approx(
        reference_weak_residual(ens, 3, phi, "midpoint"), rel=1e-12)


def test_weak_residual_of_a_path_is_its_ensemble_entry():
    # the one-path ensemble carries the grid, config and noise model of its
    # ensemble, so its residual is the ensemble's entry bit for bit
    g, ens = small_ensemble()
    phi = np.stack([np.cos(g.x), np.sin(g.x), 0.3 * np.ones(g.n)], axis=-1)
    for rule in ("midpoint", "left"):
        every = weak_residual(ens, phi, rule)
        for i in range(ens.n_paths):
            one = weak_residual(ens.view(slice(i, i + 1)), phi, rule)
            assert one.tobytes() == every[i:i + 1].tobytes()


def test_batched_covariance_matches_per_path_sum():
    g, ens = small_ensemble()
    phi = np.stack([np.cos(g.x), np.sin(g.x), 0.3 * np.ones(g.n)], axis=-1)
    psi = np.stack([np.sin(2.0 * g.x), np.zeros(g.n), np.cos(g.x)], axis=-1)
    prods, directs = reference_covariance(ens, phi, psi)
    rep, = covariance_checks(ens, [(phi, psi)])
    assert rep.n_paths == ens.n_paths and rep.t == ens.times[-1]
    assert rep.mc_estimate == pytest.approx(np.mean(prods), rel=1e-12)
    assert rep.mc_ci3 == pytest.approx(
        3.0 * np.std(prods, ddof=1) / np.sqrt(len(prods)), rel=1e-12)
    assert rep.direct == pytest.approx(np.mean(directs), rel=1e-12)


def test_checks_reject_zero_step_ensemble():
    g = periodic_grid(2.0 * np.pi, 32)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=0.0)
    q0 = 0.2 + 0.06 * np.cos(g.x) + 0.0j
    frame = reconstruct_frame(q0, g, *BASEPOINT_FRAME)
    ens = run_sllg_ensemble(q0, frame, make_noise_model(g, 4), cfg, 17, 3)
    assert ens.n_steps == 0
    phi = np.stack([np.cos(g.x), np.sin(g.x), 0.3 * np.ones(g.n)], axis=-1)
    with pytest.raises(ConfigurationError):
        weak_residual(ens, phi)
    with pytest.raises(ConfigurationError):
        covariance_checks(ens, [(phi, phi)])


def standard_pairs(g):
    """The three (phi, psi) pairs of the CLI's covariance and criterion 09."""
    zero, one = np.zeros(g.n), np.ones(g.n)
    phi1 = np.stack([np.cos(g.x), np.sin(g.x), 0.3 * one], axis=-1)
    phi2 = np.stack([zero, zero, one], axis=-1)
    phi3 = np.stack([np.sin(2.0 * g.x), zero, np.cos(g.x)], axis=-1)
    return [(phi1, phi1), (phi1, phi2), (phi2, phi3)]


def test_covariance_pairs_in_one_pass_equal_one_pass_each():
    # sharing the frame midpoints and the projections of phi1 and phi2
    # leaves every pair's per-path values and report as they are alone
    g, ens = small_ensemble()
    pairs = standard_pairs(g)
    together = validation._covariance_samples(ens, pairs)
    alone = [validation._covariance_samples(ens, [pair]) for pair in pairs]
    assert together.shape == (2, 3, ens.n_paths)
    assert np.array_equal(together, np.concatenate(alone, axis=1))
    for rep, pair in zip(covariance_checks(ens, pairs), pairs):
        one, = covariance_checks(ens, [pair])
        assert rep.to_dict() == one.to_dict()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sharded_per_path_values_equal_the_serial_ones(use_cpus, no_child_left, cpus):
    # 9 paths in ranges 9, 5 + 4 and 3 + 3 + 3, each a view of the ensemble
    g, ens = small_ensemble()
    part = ens.view(slice(2, 5))
    assert part.seeds == ens.seeds[2:5] and np.shares_memory(part.u, ens.u)
    pairs = standard_pairs(g)
    phi = pairs[0][0]
    residuals = {rule: validation._residuals(ens, phi, rule)
                 for rule in ("midpoint", "left")}
    samples = validation._covariance_samples(ens, pairs)
    use_cpus(cpus)
    for rule, serial in residuals.items():
        assert np.array_equal(weak_residual(ens, phi, rule), serial)
    sharded = validation._per_path(
        lambda part: validation._covariance_samples(part, pairs), ens)
    assert np.array_equal(sharded, samples)
    no_child_left()
