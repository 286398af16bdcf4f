import re

import numpy as np
import pytest

from hasimoto_lab.fields import (BlowUpError, ConfigurationError, cross, diff1,
                                 diff2, dot, line_grid, normalize,
                                 periodic_grid)
from hasimoto_lab.hashimoto import curvature_torsion
from hasimoto_lab.llg import (LLGDrift, StepConfig, auto_dt, exchange_energy, integrate,
                              llg_integrate, stable_dt)
from reference import curvature_torsion_rhs, llg_rhs, rk4_step


def great_circle(g, k=1.0):
    return np.stack([np.cos(k * g.x), np.sin(k * g.x), np.zeros(g.n)], axis=-1)


def smooth_map(g):
    raw = np.stack([np.cos(g.x), np.sin(g.x), 0.5 + 0.3 * np.sin(2.0 * g.x)],
                   axis=-1)
    return normalize(raw)


def test_rhs_great_circle_vanishes():
    # u_xx is parallel to u node-wise, so both cross products vanish
    g = periodic_grid(2.0 * np.pi, 128)
    assert np.max(np.abs(llg_rhs(great_circle(g), g, 1.0, 1.0))) <= 1e-12


def test_rhs_zero_coefficients():
    g = periodic_grid(2.0 * np.pi, 64)
    assert np.max(np.abs(llg_rhs(smooth_map(g), g, 0.0, 0.0))) == 0.0


def test_rhs_dual_formula():
    # u x (u x u_xx) = u<u, u_xx> - u_xx and <u, u_xx> = -|u_x|^2 for unit fields
    g = periodic_grid(2.0 * np.pi, 128)
    u = smooth_map(g)
    uxx = diff2(u, g)
    ux = diff1(u, g)
    alt = 0.7 * cross(u, uxx) - (dot(u, uxx)[:, None] * u - uxx)
    assert np.max(np.abs(llg_rhs(u, g, 1.0, 0.7) - alt)) <= 1e-12
    # the <u, u_xx> = -|u_x|^2 variant holds to O(h^2) for the discrete stencils
    alt2 = 0.7 * cross(u, uxx) + uxx + dot(ux, ux)[:, None] * u
    assert np.max(np.abs(llg_rhs(u, g, 1.0, 0.7) - alt2)) <= 10.0 * g.h ** 2


def test_config_validation():
    with pytest.raises(ConfigurationError, match="damping alpha must be >= 0"):
        StepConfig(alpha=-1.0, beta=0.0, dt=1e-3, t_end=0.1)
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        StepConfig(alpha=1.0, beta=0.0, dt=0.0, t_end=0.1)
    with pytest.raises(ConfigurationError, match=r"t_end=1e\+300 over dt=1e-300 overflows"):
        StepConfig(alpha=1.0, beta=1.0, dt=1e-300, t_end=1e300)
    g = periodic_grid(2.0 * np.pi, 64)
    cfg = StepConfig(alpha=1.0, beta=1.0, dt=1.0, t_end=1.0)
    with pytest.raises(ConfigurationError, match="exceeds the stability bound"):
        cfg.check_stability(g)
    assert stable_dt(g, 0.0, 0.0) == np.inf


@pytest.mark.parametrize("alpha,beta", [(1.0, np.nan), (np.nan, 1.0),
                                        (1.0, -np.inf), (np.inf, 0.0)])
def test_config_rejects_non_finite_coefficients(alpha, beta):
    # stable_dt's max() drops a NaN, so the check must not rely on it
    with pytest.raises(ConfigurationError, match="alpha and beta must be finite"):
        StepConfig(alpha=alpha, beta=beta, dt=1e-3, t_end=2e-3)


@pytest.mark.parametrize("stride", [np.nan, 2.5, np.inf, 3.0, True, "3"])
def test_config_rejects_an_output_stride_that_is_not_an_integer(stride):
    # a float stride samples off the grid of steps: nan only the last, 2.5 steps 0, 5, 10
    with pytest.raises(ConfigurationError, match="output_stride must be an integer"):
        StepConfig(1.0, 1.0, 0.1, 1.0, output_stride=stride)
    for below in (0, -1, np.int64(0)):
        with pytest.raises(ConfigurationError, match="output_stride must be >= 1"):
            StepConfig(1.0, 1.0, 0.1, 1.0, output_stride=below)
    assert StepConfig(1.0, 1.0, 0.1, 1.0, output_stride=np.int64(5)).sampled(5)


@pytest.mark.parametrize("g", [line_grid(-6.0, 3.0, 97),
                               periodic_grid(2.0 * np.pi, 96)],
                         ids=["line", "periodic"])
def test_llg_stepper_bit_identical_to_reference(g):
    # llg_integrate's fused component-major drift and RK4 loop against the
    # readable reference, bit for bit after every one of 60 steps
    dt = 0.5 * stable_dt(g, 1.0, 0.7)
    tr = llg_integrate(smooth_map(g), g, StepConfig(1.0, 0.7, dt, 60 * dt))
    assert len(tr.states) == 61
    ref = smooth_map(g)
    for u in tr.states[1:]:
        ref = normalize(rk4_step(ref, dt, lambda v: llg_rhs(v, g, 1.0, 0.7)))
        assert np.array_equal(u.view(np.uint64), ref.view(np.uint64))


def test_llg_drift_reads_contiguous_component_rows_in_llg_integrate(monkeypatch):
    # llg_integrate steps a column-major state, so the (3, n) views that
    # LLGDrift.rhs takes of its argument and its output are contiguous rows;
    # the samples are C-ordered (n, 3) fields all the same
    seen = []
    rhs = LLGDrift.rhs

    def spy(self, u, out):
        seen.append(u.T.flags.c_contiguous and out.T.flags.c_contiguous)
        rhs(self, u, out)

    monkeypatch.setattr(LLGDrift, "rhs", spy)
    g = periodic_grid(2.0 * np.pi, 32)
    dt = 0.5 * stable_dt(g, 1.0, 0.7)
    tr = llg_integrate(smooth_map(g), g, StepConfig(1.0, 0.7, dt, 3 * dt))
    assert len(seen) == 12 and all(seen)
    assert all(u.flags.c_contiguous for u in tr.states)


@pytest.mark.parametrize("P", [1, 2, 7])
@pytest.mark.parametrize("g", [periodic_grid(2.0 * np.pi, 64),
                               line_grid(-6.0, 3.0, 65)],
                         ids=["periodic", "line"])
def test_llg_kernel_on_path_views_bit_identical_to_reference(g, P):
    # the drift's rhs on (P, n, 3) paths as they are, as the weak residual
    # calls it, against the reference llg_rhs on each path
    rng = np.random.default_rng(P)
    u = normalize(smooth_map(g) + 0.1 * rng.standard_normal((P, g.n, 3)))
    out = np.empty_like(u)
    LLGDrift(g, 1.0, 0.7, u.shape).rhs(u, out)
    for i in range(P):
        assert np.array_equal(out[i], llg_rhs(u[i], g, 1.0, 0.7))


def test_integer_initial_data_steps_as_floats():
    g = periodic_grid(2.0 * np.pi, 16)
    pole = np.tile([0, 0, 1], (g.n, 1))     # an integer array; a fixed point
    tr = llg_integrate(pole, g, StepConfig(alpha=1.0, beta=1.0, dt=1e-3, t_end=3e-3))
    assert all(u.dtype == float and np.array_equal(u, pole) for u in tr.states)


def test_great_circle_stationary():
    g = periodic_grid(2.0 * np.pi, 64)
    u0 = great_circle(g)
    dt = auto_dt(g, 1.0, 1.0, 0.1)
    tr = llg_integrate(u0, g, StepConfig(alpha=1.0, beta=1.0, dt=dt, t_end=0.1,
                                         output_stride=100))
    assert np.max(np.abs(tr.states[-1] - u0)) <= 1e-10


def test_projection_keeps_unit_norm():
    g = periodic_grid(2.0 * np.pi, 64)
    dt = auto_dt(g, 1.0, 0.5, 0.05)
    tr = llg_integrate(smooth_map(g), g,
                       StepConfig(alpha=1.0, beta=0.5, dt=dt, t_end=0.05))
    for u in tr.states:
        assert np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)) <= 1e-15


def test_energy_non_increasing_with_damping():
    g = periodic_grid(2.0 * np.pi, 128)
    dt = 0.05 / np.ceil(0.05 / (0.5 * stable_dt(g, 1.0, 0.3)))
    tr = llg_integrate(smooth_map(g), g,
                       StepConfig(alpha=1.0, beta=0.3, dt=dt, t_end=0.05))
    energies = [exchange_energy(u, g) for u in tr.states]
    slack = 10.0 * dt ** 2
    assert all(e2 <= e1 + slack for e1, e2 in zip(energies, energies[1:]))


def test_blow_up_detection():
    g = periodic_grid(2.0 * np.pi, 64)
    u0 = smooth_map(g)
    u0[5] = np.nan
    with pytest.raises(BlowUpError):
        llg_integrate(u0, g, StepConfig(alpha=1.0, beta=0.0, dt=1e-4, t_end=1e-3))


def test_blow_up_message_names_step_time_and_last_finite_max():
    g = periodic_grid(2.0 * np.pi, 32)
    u0 = 1e200 * smooth_map(g)          # the cross products overflow at once
    dt = 0.5 * stable_dt(g, 1.0, 0.0)
    with pytest.raises(BlowUpError) as info, np.errstate(all="ignore"):
        llg_integrate(u0, g, StepConfig(alpha=1.0, beta=0.0, dt=dt, t_end=4 * dt))
    msg = str(info.value)
    assert msg.startswith(f"LLG flow blew up at step 1, t = {dt:.6g}:")
    assert f"last finite max |y| = {np.max(np.abs(u0)):.6g} at t = 0" in msg
    u0 = smooth_map(g)
    u0[5] = np.nan
    with pytest.raises(BlowUpError, match="the state before it was not finite"):
        llg_integrate(u0, g, StepConfig(alpha=1.0, beta=0.0, dt=dt, t_end=4 * dt))


@pytest.mark.parametrize("shape", [(20, 3), (2, 16, 3)])
def test_llg_integrate_refuses_a_u0_that_is_not_one_field_on_its_grid(shape):
    # a field of 20 nodes would step at the 16-node spacing, and a batch's
    # path axis would step as the node axis
    g = periodic_grid(2.0 * np.pi, 16)
    u0 = np.zeros(shape)
    u0[..., 2] = 1.0
    match = re.escape(f"u0 of shape {shape} is not one field of shape (16, 3)")
    with pytest.raises(ConfigurationError, match=match):
        llg_integrate(u0, g, StepConfig(alpha=1.0, beta=0.0, dt=1e-3, t_end=2e-3))


def decay(y, out):
    """y' = -y."""
    np.negative(y, out=out)


def test_integrate_samples_and_projects():
    cfg = StepConfig(alpha=0.0, beta=0.0, dt=0.1, t_end=1.0, output_stride=3)
    y0 = np.array([1.0, 2.0])
    projected = []
    tr = integrate(y0, decay, cfg, "decay", lambda y: projected.append(y.copy()))
    assert np.allclose(tr.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert np.allclose(tr.states, np.exp(-tr.times)[:, None] * y0, rtol=1e-6)
    assert tr.states[0] is not y0
    assert len(projected) == 10             # after every step
    assert np.array_equal(projected[2], tr.states[1])
    # the one sampling rule, which the sllg runner's CSV uses too
    assert [k for k in range(12) if cfg.sampled(k)] == [0, 3, 6, 9, 10]


def test_auto_dt():
    g = line_grid(-10.0, 10.0, 64)
    bound = stable_dt(g, 1.0, 0.5)
    assert auto_dt(g, 1.0, 0.5, 0.0) == 0.9 * bound
    dt = auto_dt(g, 1.0, 0.5, 0.01)
    n_steps = int(np.ceil(0.01 / (0.9 * bound)))
    assert dt == 0.01 / n_steps and dt <= 0.9 * bound
    assert auto_dt(g, 0.0, 0.0, 0.01) == 0.01     # no bound: one step
    with pytest.raises(ConfigurationError, match="automatic dt is inf"):
        auto_dt(g, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("circumference,alpha", [(6.0, 1e308)])
def test_auto_dt_rejects_an_underflowed_stability_bound(circumference, alpha):
    # t_end / dt overflows to inf: no whole number of steps
    g = periodic_grid(circumference, 64)
    with pytest.raises(ConfigurationError, match="stability bound .* underflows"):
        auto_dt(g, alpha, 1.0, 0.1)


def test_curvature_torsion_rhs_constants():
    g = periodic_grid(2.0 * np.pi, 64)
    u = great_circle(g)
    ct = curvature_torsion(u, g)
    d_th, d_eta = curvature_torsion_rhs(ct, g, 1.0, 1.0)
    assert np.max(np.abs(d_th)) <= 1e-9
    assert np.max(np.abs(d_eta)) <= 1e-9
    d_th, d_eta = curvature_torsion_rhs(ct, g, 0.0, 0.0)
    assert np.max(np.abs(d_th)) == 0.0
    assert np.max(np.abs(d_eta)) == 0.0
