import numpy as np
import pytest

from hasimoto_lab.fields import (ConfigurationError, Grid1D, boundary_decay_ok,
                                 cross, cumint, diff1, diff2, dot, line_grid,
                                 norm, normalize, open_view, periodic_grid,
                                 time_steps)
import reference


def test_periodic_spacing():
    g = periodic_grid(2.0 * np.pi, 8)
    assert g.h == pytest.approx(np.pi / 4.0)
    assert g.periodic
    assert g.length == pytest.approx(2.0 * np.pi)


def test_line_spacing():
    g = line_grid(-10.0, 10.0, 5)
    assert g.h == pytest.approx(5.0)
    assert not g.periodic
    assert g.x[0] == -10.0 and g.x[-1] == 10.0


def test_too_few_nodes_rejected():
    # before the builders divide by n or n - 1, and for a grid built directly
    for n in (0, 1, 2, 3):
        for build in (lambda: periodic_grid(1.0, n), lambda: line_grid(0.0, 1.0, n),
                      lambda: Grid1D("line", n, 0.1, 0.1 * np.arange(n))):
            with pytest.raises(ConfigurationError, match=f"need n >= 4 nodes, got {n}"):
                build()


@pytest.mark.parametrize("n", [4.5, 64.0, np.nan, True, "64"])
def test_non_integer_node_count_rejected(n):
    # unchecked, periodic_grid(2 pi, 4.5) makes a grid of n = 4.5 with 5 nodes
    for build in (lambda: periodic_grid(2.0 * np.pi, n), lambda: line_grid(0.0, 1.0, n),
                  lambda: Grid1D("line", n, 0.1, np.arange(5.0))):
        with pytest.raises(ConfigurationError, match="node count n must be an integer"):
            build()
    assert periodic_grid(1.0, np.int64(8)).n == 8


@pytest.mark.parametrize("x", [np.arange(5.0), np.zeros((8, 1)), 0.0],
                         ids=["short", "column", "scalar"])
def test_grid_nodes_must_be_n(x):
    with pytest.raises(ConfigurationError, match=r"does not hold the grid's n = 8 nodes"):
        Grid1D("periodic", 8, 0.1, x)


def test_unknown_grid_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown grid kind"):
        Grid1D("torus", 16, 0.1, 0.1 * np.arange(16))


@pytest.mark.parametrize("h", [0.0, -0.1, np.inf, np.nan])
def test_spacing_must_be_positive_and_finite(h):
    with pytest.raises(ConfigurationError, match="positive finite spacing"):
        Grid1D("line", 16, h, np.zeros(16))


def test_line_extent_must_be_positive_and_finite():
    # x_max - x_min overflows to inf; it must not reach np.linspace
    for x_min, x_max in ((-1e308, 1e308), (1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ConfigurationError, match="not positive and finite"):
            line_grid(x_min, x_max, 16)


def test_spacing_whose_square_underflows_rejected():
    # diff2 divides by h^2, which would be 0, so every second derivative and
    # the residuals built on it would read NaN
    for g in (lambda: periodic_grid(1e-300, 64), lambda: line_grid(-1e-300, 0.0, 8)):
        with pytest.raises(ConfigurationError, match=r"h\^2 underflows"):
            g()


def test_diff1_trig():
    g = periodic_grid(2.0 * np.pi, 256)
    err = np.max(np.abs(diff1(np.sin(g.x), g) - np.cos(g.x)))
    assert err <= 4.0 * g.h ** 2


def test_diff_const_is_zero():
    g = periodic_grid(2.0 * np.pi, 64)
    f = np.full(g.n, 3.7)
    assert np.max(np.abs(diff1(f, g))) == 0.0
    assert np.max(np.abs(diff2(f, g))) <= 1e-12


def test_diff1_linear_exact_on_line():
    # one-sided boundary stencils are exact on linears
    g = line_grid(-3.0, 5.0, 33)
    d = diff1(g.x.copy(), g)
    assert np.max(np.abs(d - 1.0)) <= 1e-12


def test_diff2_quadratic_exact_on_line():
    g = line_grid(-3.0, 5.0, 33)
    d = diff2(0.5 * g.x ** 2, g)
    assert np.max(np.abs(d - 1.0)) <= 1e-10


def test_cumint_of_one_is_x():
    g = line_grid(0.0, 4.0, 21)
    assert np.max(np.abs(cumint(np.ones(g.n), g) - g.x)) <= 1e-13


def test_cumint_of_cos_is_sin():
    g = periodic_grid(2.0 * np.pi, 512)
    err = np.max(np.abs(cumint(np.cos(g.x), g) - np.sin(g.x)))
    assert err <= 2.0 * g.h ** 2


def test_cumint_zero_and_anchor():
    g = line_grid(0.0, 1.0, 9)
    F = cumint(np.zeros(g.n), g)
    assert np.max(np.abs(F)) == 0.0
    F = cumint(np.sin(g.x), g)
    assert F[0] == 0.0


def test_cumint_complex():
    g = line_grid(0.0, 1.0, 65)
    F = cumint(np.exp(1j * g.x), g)
    exact = (np.exp(1j * g.x) - 1.0) / 1j
    assert np.max(np.abs(F - exact)) <= 1e-4


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead, trail", [((), ()), ((), (3,)), ((7,), ()), ((7,), (3,)),
                                         ((None,), ()), ((None,), (3,))],
                         ids=["n", "n-3", "n-P", "n-P-3", "n-P=n", "n-P=n-3"])
@pytest.mark.parametrize("g", [periodic_grid(2.0 * np.pi, 64),
                               line_grid(-3.0, 5.0, 65)],
                         ids=["periodic", "line"])
def test_operators_bit_identical_to_reference(g, lead, trail, dtype):
    # the operators, which run the *_into kernels on node-last views, against
    # the readable np.roll / trapezoid formulas on node-first views; the ids
    # name n nodes, 3 components and P paths, and a batch is path-major,
    # (P, n) or (P, n, 3), also when P == n
    lead = tuple(g.n if p is None else p for p in lead)
    rng = np.random.default_rng(len(lead + trail))
    f = rng.standard_normal(lead + (g.n,) + trail).astype(dtype)
    if dtype is complex:
        f += 1j * rng.standard_normal(f.shape)
    node = len(lead)
    # runs of exact zeros of either sign, which only the uint64 views tell apart
    nodes = np.moveaxis(f, node, 0)
    nodes[:4], nodes[4:8] = -0.0, 0.0
    if dtype is complex:
        nodes[8:12].real, nodes[12:16].imag = -0.0, -0.0
    for op, ref in ((diff1, reference.diff1), (diff2, reference.diff2),
                    (cumint, reference.cumint)):
        got = op(f, g)
        assert got.shape == f.shape and got.dtype == f.dtype
        want = np.moveaxis(ref(np.moveaxis(f, node, 0), g), 0, node)
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                              np.ascontiguousarray(want).view(np.uint64))


def test_integer_field_differentiates_as_floats():
    g = line_grid(0.0, 2.4, 9)                  # h = 0.3
    f = np.arange(g.n) ** 2
    for op in (diff1, diff2, cumint):
        assert np.array_equal(op(f, g), op(f.astype(float), g))


def test_boundary_decay_monitor():
    g = line_grid(-50.0, 10.0, 128)
    q = np.exp(-((g.x + 10.0) / 2.0) ** 2)
    assert boundary_decay_ok(q, g)
    assert not boundary_decay_ok(np.ones(g.n), g)
    assert boundary_decay_ok(np.ones(128), periodic_grid(1.0, 128))
    assert boundary_decay_ok(np.zeros(g.n), g)


def test_open_view():
    g = periodic_grid(2.0 * np.pi, 32)
    og = open_view(g)
    assert not og.periodic and og.n == g.n and og.h == g.h
    gl = line_grid(0.0, 1.0, 8)
    assert open_view(gl) is gl


def test_cross_dot_basics():
    e1, e2, e3 = np.eye(3)
    assert np.allclose(cross(e1, e2), e3)
    a = np.array([1.2, -0.3, 2.0])
    assert np.allclose(cross(a, a), 0.0)


def test_lagrange_identity():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 2.0, 0.0])
    lhs = dot(a, a) * dot(b, b)
    rhs = dot(cross(a, b), cross(a, b)) + dot(a, b) ** 2
    assert lhs == pytest.approx(4.0) and rhs == pytest.approx(4.0)


def test_normalize():
    v = np.array([[3.0, 0.0, 4.0], [0.0, 2.0, 0.0]])
    u = normalize(v)
    assert np.allclose(norm(u), 1.0)


def test_cross_bit_identical_to_numpy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((64, 3))
    b = rng.standard_normal((64, 3))
    A = rng.standard_normal((64, 5, 3))
    B = rng.standard_normal((64, 5, 3))
    for x, y in ((a, b), (A, B), (a[:, None, :], B), (A, b[:, None, :]),
                 (a[0], b[0])):
        got = cross(x, y)
        assert got.shape == np.cross(x, y).shape
        assert np.array_equal(got, np.cross(x, y))


def test_time_steps():
    assert time_steps(1e-3, 0.01) == 10
    assert time_steps(1e-3, 0.0) == 0
    assert time_steps(0.01 / 3, 0.01) == 3
    with pytest.raises(ConfigurationError):
        time_steps(0.003, 0.01)                  # would stop at t = 0.009
    with pytest.raises(ConfigurationError):
        time_steps(0.5, 0.2)                     # t_end short of one step
    with pytest.raises(ConfigurationError, match=r"t_end=1e\+300 over dt=1e-300 overflows"):
        time_steps(1e-300, 1e300)                # t_end / dt is inf
    for dt, t_end in ((0.0, 1.0), (np.nan, 1.0), (1e-3, np.inf), (1e-3, np.nan),
                      (1e-3, -1.0)):
        with pytest.raises(ConfigurationError):
            time_steps(dt, t_end)
