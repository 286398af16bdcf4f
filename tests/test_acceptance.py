"""End-to-end acceptance checks, one test per criterion.

Each test exercises the library at desk scale (n <= 512, t_end <= 0.5,
ensembles <= 5000 paths) and asserts the stated tolerance; `pytest -v`
prints one pass/fail line per criterion.
"""

import json

import numpy as np

from hasimoto_lab.cli import main as cli_main
from hasimoto_lab.fields import dot, line_grid, norm, periodic_grid
from hasimoto_lab.hashimoto import curvature_torsion, reconstruct_frame, transform
from hasimoto_lab.heat import heat_integrate
from hasimoto_lab.llg import StepConfig, auto_dt, llg_integrate, stable_dt
from hasimoto_lab.noise import make_noise_model
from hasimoto_lab.stochastic import frame_time_step, run_sllg_ensemble
from hasimoto_lab.hashimoto import FrameField
from hasimoto_lab.validation import (covariance_checks, crosscheck_deterministic,
                                     holonomy_defect, identity_suite,
                                     localized_twist, sllg_weak_residual)
from reference import crosscheck_levels, curvature_torsion_rhs, fit_loglog_slope

M = np.array([1.0, 0.0, 0.0])
E0 = np.array([0.0, 1.0, 0.0])


def smooth_map(g):
    raw = np.stack([np.cos(g.x), np.sin(g.x), 0.5 + 0.3 * np.sin(2.0 * g.x)],
                   axis=-1)
    return raw / norm(raw)[:, None]


def standard_phi(g):
    return np.stack([np.cos(g.x), np.sin(g.x), 0.3 * np.ones(g.n)], axis=-1)


def test_criterion_01_transform_round_trip():
    # reconstruct a curve from q, transform back: error <= 1e-6 at n = 256
    # and second-order spatial convergence, on a family of circle curvatures
    for k in (0.05, 0.1):
        errs = []
        hs = []
        for n in (64, 128, 256):
            g = line_grid(0.0, 2.0 * np.pi, n)
            q = k * np.ones(g.n, complex)
            f = reconstruct_frame(q, g, M, E0)
            errs.append(float(np.max(np.abs(transform(f.u, g) - q))))
            hs.append(g.h)
        assert errs[-1] <= 1e-6
        # second order; the fitted slope carries a small contamination from
        # higher-order terms (measured 1.9999941 for k = 0.05)
        assert fit_loglog_slope(hs, errs) >= 2.0 - 1e-3


def test_criterion_02_deterministic_equivalence():
    # both flows from matched localized-twist data: the transform of the
    # curve flow tracks the complex flow, sup discrepancy <= 1e-3 at the
    # finest level and decreasing with order >= 1
    rep = crosscheck_deterministic(crosscheck_levels(
        localized_twist, -250.0, 20.0, 1.0, 1.0, t_end=0.1, grid_sizes=(128, 256, 512)))
    sups = [lv["sup_disc"] for lv in rep["levels"]]
    assert sups[-1] <= 1e-3
    assert all(o >= 1.0 for o in rep["orders"])
    assert not rep["flagged"]


def test_criterion_03_curvature_torsion_rate_oracle():
    # finite-difference time derivative of (Theta, eta) along the curve flow
    # matches the closed-form rates at order >= 0.9 * 2 under refinement
    errs_th, errs_eta, hs = [], [], []
    for n in (128, 256, 512):
        g = line_grid(-45.0, 15.0, n)
        u0 = reconstruct_frame(localized_twist(g.x), g, M, E0).u
        dt = 0.45 * stable_dt(g, 1.0, 1.0)
        tr = llg_integrate(u0, g, StepConfig(alpha=1.0, beta=1.0, dt=dt,
                                             t_end=4.0 * dt, output_stride=1))
        cts = [curvature_torsion(u, g) for u in tr.states]
        d_th_fd = (cts[3].theta - cts[1].theta) / (2.0 * dt)
        d_eta_fd = (cts[3].eta - cts[1].eta) / (2.0 * dt)
        d_th, d_eta = curvature_torsion_rhs(cts[2], g, 1.0, 1.0)
        th = cts[2].theta
        core = th > 0.05 * np.max(th)
        core[:3] = core[-3:] = False
        errs_th.append(float(np.sqrt(np.mean((d_th_fd - d_th)[core] ** 2))))
        errs_eta.append(float(np.sqrt(np.mean((d_eta_fd - d_eta)[core] ** 2))))
        hs.append(g.h)
    assert fit_loglog_slope(hs, errs_th) >= 1.8
    assert fit_loglog_slope(hs, errs_eta) >= 1.8


def test_criterion_04_identity_suite():
    # Lagrange identity at round-off; |u_xx|^2 expansion residual O(h^2)
    errs, hs = [], []
    for n in (64, 128, 256):
        g = periodic_grid(2.0 * np.pi, n)
        rep = identity_suite(smooth_map(g), g)
        assert rep["lagrange_max_rel"] <= 1e-14
        errs.append(rep["uxx_expansion_max"])
        hs.append(g.h)
    assert fit_loglog_slope(hs, errs) >= 1.8


def test_criterion_05_geometric_invariants():
    # 1e4 noisy frame steps through exact rotations keep |u| = |e| = 1 and
    # <u, e> = 0 to 1e-10
    rng = np.random.default_rng(12)
    n = 16
    dt = 1e-3
    f = FrameField(u=np.tile([1.0, 0.0, 0.0], (n, 1)),
                   e=np.tile([0.0, 1.0, 0.0], (n, 1)))
    for _ in range(10 ** 4):
        p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        C = rng.standard_normal(n)
        dPsi = np.sqrt(dt) * rng.standard_normal(n)
        dW1 = np.sqrt(dt) * rng.standard_normal(n)
        dW2 = np.sqrt(dt) * rng.standard_normal(n)
        f = frame_time_step(f, p, C, dW1, dW2, dPsi, dt)
    assert np.max(np.abs(norm(f.u) - 1.0)) <= 1e-10
    assert np.max(np.abs(norm(f.e) - 1.0)) <= 1e-10
    assert np.max(np.abs(dot(f.u, f.e))) <= 1e-10


def test_criterion_06_holonomy_controls():
    # plaquette defect decays at total order >= 2 on a true solution path and
    # at least one order slower on a frozen (non-solution) path
    pos, neg, hs = [], [], []
    t_end = 0.02
    for n, n_steps in ((64, 2), (128, 8), (256, 32)):
        g = line_grid(-30.0, 10.0, n)
        q0 = localized_twist(g.x, amplitude=0.4, width=3.0, center=-10.0)
        dt = t_end / n_steps
        assert dt <= stable_dt(g, 1.0, 1.0)
        tr = heat_integrate(q0, g, StepConfig(alpha=1.0, beta=1.0, dt=dt,
                                              t_end=t_end, output_stride=1))
        q_path = np.array(tr.states)
        pos.append(holonomy_defect(q_path, g, 1.0, 1.0, dt)["max_defect"])
        frozen = np.tile(q0, (q_path.shape[0], 1))
        neg.append(holonomy_defect(frozen, g, 1.0, 1.0, dt)["max_defect"])
        hs.append(g.h)
    slope_pos = fit_loglog_slope(hs, pos)
    slope_neg = fit_loglog_slope(hs, neg)
    assert slope_pos >= 2.0
    assert slope_pos - slope_neg >= 1.0
    assert all(p < q for p, q in zip(pos, neg))


def test_criterion_07_gauge_phase_caveat():
    # constant-curvature (non-decaying) data: the complex flow picks up the
    # global phase e^{i beta k^2 t / 2} while the curve flow is stationary
    g = periodic_grid(2.0 * np.pi, 64)
    k, beta, t_end = 1.0, 1.0, 0.1
    dt = auto_dt(g, 1.0, beta, t_end)
    n_steps = round(t_end / dt)
    tr = heat_integrate(k * np.ones(g.n, complex), g,
                        StepConfig(alpha=1.0, beta=beta, dt=dt, t_end=t_end,
                                   output_stride=n_steps))
    exact = k * np.exp(0.5j * beta * k ** 2 * t_end)
    assert np.max(np.abs(tr.states[-1] - exact)) / abs(exact) <= 1e-6
    u0 = np.stack([np.cos(g.x), np.sin(g.x), np.zeros(g.n)], axis=-1)
    trl = llg_integrate(u0, g, StepConfig(alpha=1.0, beta=beta, dt=dt,
                                          t_end=t_end, output_stride=n_steps))
    assert np.max(np.abs(trl.states[-1] - u0)) <= 1e-10


def test_criterion_08_weak_residual():
    # ensemble-mean weak residual statistically zero at every dt level with
    # a shrinking 3-sigma band; the Ito-sum negative control is biased
    g = periodic_grid(2.0 * np.pi, 64)
    q0 = 0.2 + 0.06 * np.cos(g.x) + 0.0j
    phi = standard_phi(g)
    bounds = []
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = StepConfig(alpha=0.5, beta=0.5, dt=dt, t_end=0.02)
        paths = run_sllg_ensemble(q0, make_noise_model(g, 4), cfg, 2024, 1000)
        rep, control = sllg_weak_residual(paths, phi)
        assert abs(rep["mean"]) <= 3.0 * rep["stderr"]
        bounds.append(3.0 * rep["stderr"])
        assert abs(control["mean"]) > 3.0 * control["stderr"]
    assert bounds[0] > bounds[1] > bounds[2]


def test_criterion_09_covariance():
    # Monte Carlo noise covariance matches the frame-projection formula
    # within 3 sigma for three test-function pairs, and approaches the
    # white-noise pairing t <phi, psi> as the mode count grows
    g = periodic_grid(2.0 * np.pi, 64)
    q0 = 0.2 + 0.06 * np.cos(g.x) + 0.0j
    phi1 = standard_phi(g)
    phi2 = np.stack([np.zeros(g.n), np.zeros(g.n), np.ones(g.n)], axis=-1)
    phi3 = np.stack([np.sin(2.0 * g.x), np.zeros(g.n), np.cos(g.x)], axis=-1)
    cfg = StepConfig(alpha=0.5, beta=0.5, dt=1e-3, t_end=0.01)
    paths = run_sllg_ensemble(q0, make_noise_model(g, 4), cfg, 77, 2000)
    for rep in covariance_checks(paths, [(phi1, phi1), (phi1, phi2), (phi2, phi3)]):
        assert rep["within_3sigma"]
    # white-noise trend with unit coefficients
    target = 0.01 * g.h * float(np.sum(phi1 * phi1))
    gaps = []
    for n_modes in (1, 4, 16):
        paths = run_sllg_ensemble(q0, make_noise_model(g, n_modes), cfg, 77, 500)
        rep, = covariance_checks(paths, [(phi1, phi1)])
        gaps.append(abs(rep["mc_estimate"] - target))
    assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_10_byte_determinism(tmp_path):
    # identical config and seed give byte-identical CSV artifacts
    args = ["sllg", "--seed", "123", "--set", "n=48", "--set", "t_end=0.01",
            "--set", "n_paths=4"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert (out1 / "series_u.csv").read_bytes() == (out2 / "series_u.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    with open(out1 / "manifest.json") as fh:
        assert json.load(fh)["status"] == "complete"
