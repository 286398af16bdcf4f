import re

import numpy as np
import pytest

from hasimoto_lab.fields import (BlowUpError, ConfigurationError, line_grid,
                                 periodic_grid)
from hasimoto_lab.heat import HeatStepper, heat_integrate, mass
from hasimoto_lab.llg import StepConfig, stable_dt
from reference import heat_rhs, rk4_step


def decaying_q(g):
    return np.exp(-((g.x) / 3.0) ** 2) * np.exp(0.3j * g.x)


def test_rhs_constant_field():
    # q == k: q_xx = 0 and the nonlocal term vanishes, leaving i beta k^3 / 2
    g = periodic_grid(2.0 * np.pi, 64)
    k = 0.8
    q = k * np.ones(g.n, complex)
    r = heat_rhs(q, g, 1.0, 0.7, "expanded")
    assert np.max(np.abs(r - 0.5j * 0.7 * k ** 3)) <= 1e-12


def test_rhs_zero_field():
    g = periodic_grid(2.0 * np.pi, 64)
    q = np.zeros(g.n, complex)
    for form in ("expanded", "compact"):
        assert np.max(np.abs(heat_rhs(q, g, 1.0, 1.0, form))) == 0.0


def test_rhs_forms_agree_on_decaying_data():
    # the two forms are equal when q vanishes at the lower integration limit;
    # discretely they agree up to the trapezoid error of the nonlocal term
    diffs = []
    for n in (128, 256):
        g = line_grid(-12.0, 12.0, n)
        q = decaying_q(g)
        d = heat_rhs(q, g, 1.0, 0.6, "expanded") - heat_rhs(q, g, 1.0, 0.6, "compact")
        diffs.append(np.max(np.abs(d)))
    assert diffs[1] <= 5.0 * (24.0 / 255.0) ** 2
    assert diffs[1] <= 0.3 * diffs[0]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        StepConfig(alpha=1.0, beta=1.0, dt=-1e-3, t_end=0.1)
    with pytest.raises(ConfigurationError):
        StepConfig(alpha=-0.5, beta=1.0, dt=1e-3, t_end=0.1)
    g = periodic_grid(2.0 * np.pi, 128)
    with pytest.raises(ConfigurationError):
        StepConfig(alpha=1.0, beta=1.0, dt=1.0, t_end=1.0).check_stability(g)


@pytest.mark.parametrize("alpha,beta", [(1.0, np.nan), (np.inf, 1.0)])
def test_config_rejects_non_finite_coefficients(alpha, beta):
    with pytest.raises(ConfigurationError, match="alpha and beta must be finite"):
        StepConfig(alpha=alpha, beta=beta, dt=1e-3, t_end=2e-3)


@pytest.mark.parametrize("g", [line_grid(-8.0, 8.0, 97),
                               periodic_grid(2.0 * np.pi, 96)],
                         ids=["line", "periodic"])
def test_heat_stepper_bit_identical_to_reference(g):
    # the fused stepper against the reference rk4_step on the expanded
    # heat_rhs, bit for bit after every one of 60 steps
    dt = 0.5 * stable_dt(g, 0.8, -0.6)
    stepper = HeatStepper(g, 0.8, -0.6)
    q = stepper.load(decaying_q(g))
    nxt = np.empty_like(q)
    ref = decaying_q(g)
    for _ in range(60):
        stepper.step(q, dt, nxt)
        q, nxt = nxt, q
        ref = rk4_step(ref, dt, lambda v: heat_rhs(v, g, 0.8, -0.6))
        assert np.array_equal(q.view(np.uint64), ref.view(np.uint64))


def test_config_rejects_bad_final_time():
    for t_end in (-0.1, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            StepConfig(alpha=1.0, beta=1.0, dt=1e-3, t_end=t_end)


def test_constant_data_phase_rotation():
    # q0 == k solves the flow exactly as k e^{i beta k^2 t / 2}
    g = periodic_grid(2.0 * np.pi, 32)
    k, beta = 1.0, 1.0
    dt = 0.1 / np.ceil(0.1 / (0.9 * stable_dt(g, 0.0, beta)))
    cfg = StepConfig(alpha=0.0, beta=beta, dt=dt, t_end=0.1, output_stride=10)
    tr = heat_integrate(k * np.ones(g.n, complex), g, cfg)
    exact = k * np.exp(0.5j * beta * k ** 2 * tr.times[-1])
    assert np.max(np.abs(tr.states[-1] - exact)) <= 1e-8


def test_rk4_temporal_self_convergence():
    g = line_grid(-12.0, 12.0, 96)
    q0 = decaying_q(g)
    base = 0.5 * stable_dt(g, 1.0, 1.0)
    sols = []
    for dt in (base, base / 2.0, base / 4.0):
        cfg = StepConfig(alpha=1.0, beta=1.0, dt=dt, t_end=16.0 * base,
                         output_stride=10 ** 6)
        sols.append(heat_integrate(q0, g, cfg).states[-1])
    e1 = np.max(np.abs(sols[0] - sols[1]))
    e2 = np.max(np.abs(sols[1] - sols[2]))
    # fourth order: halving dt shrinks the increment by about 16
    assert e2 <= e1 / 8.0


def test_decay_monitor_flags_nondecaying_line_data():
    g = line_grid(-20.0, 20.0, 128)
    dt = 0.5 * stable_dt(g, 1.0, 0.0)
    cfg = StepConfig(alpha=1.0, beta=0.0, dt=dt, t_end=4.0 * dt)
    assert not heat_integrate(np.ones(g.n, complex), g, cfg).decay_ok
    assert heat_integrate(decaying_q(g), g, cfg).decay_ok


def test_blow_up_detection():
    g = periodic_grid(2.0 * np.pi, 32)
    q0 = np.ones(g.n, complex)
    q0[3] = np.nan
    dt = 0.5 * stable_dt(g, 1.0, 0.0)
    with pytest.raises(BlowUpError):
        heat_integrate(q0, g, StepConfig(alpha=1.0, beta=0.0, dt=dt, t_end=4 * dt))


def test_blow_up_message_names_step_time_and_last_finite_max():
    g = periodic_grid(2.0 * np.pi, 32)
    q0 = 1e200 * np.ones(g.n, complex)  # |q|^2 q overflows at once
    dt = 0.5 * stable_dt(g, 1.0, 0.0)
    with pytest.raises(BlowUpError) as info, np.errstate(all="ignore"):
        heat_integrate(q0, g, StepConfig(alpha=1.0, beta=0.0, dt=dt, t_end=4 * dt))
    assert str(info.value) == (
        f"heat flow blew up at step 1, t = {dt:.6g}: non-finite values; "
        f"last finite max |y| = 1e+200 at t = 0")


@pytest.mark.parametrize("shape", [(20,), (2, 16)])
def test_heat_integrate_refuses_a_q0_that_is_not_one_field_on_its_grid(shape):
    g = periodic_grid(2.0 * np.pi, 16)
    match = re.escape(f"q0 of shape {shape} is not one field of shape (16,)")
    with pytest.raises(ConfigurationError, match=match):
        heat_integrate(np.ones(shape, complex), g,
                       StepConfig(alpha=1.0, beta=0.0, dt=1e-3, t_end=2e-3))


def test_mass():
    g = periodic_grid(2.0 * np.pi, 100)
    assert mass(np.ones(g.n, complex), g) == pytest.approx(2.0 * np.pi)
    assert mass(np.zeros(g.n, complex), g) == 0.0
