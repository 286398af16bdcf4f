import numpy as np
import pytest

from hasimoto_lab.fields import (ConfigurationError, line_grid, normalize,
                                 periodic_grid)
import hasimoto_lab.hashimoto as hashimoto
from hasimoto_lab.hashimoto import (BASEPOINT_FRAME, FrameField, closure_defect,
                                    curvature_torsion, reconstruct_frame, transform)
from hasimoto_lab.rotations import rotation_exp
from hasimoto_lab.validation import localized_twist
from reference import inverse_identities


def great_circle(g, k=1.0):
    return np.stack([np.cos(k * g.x), np.sin(k * g.x), np.zeros(g.n)], axis=-1)


def smooth_map(g):
    # parametrized rotation of a great circle, smooth and nondegenerate
    raw = np.stack([np.cos(g.x), np.sin(g.x), 0.5 + 0.3 * np.sin(2.0 * g.x)],
                   axis=-1)
    return normalize(raw)


def test_curvature_torsion_great_circle():
    g = periodic_grid(2.0 * np.pi, 256)
    ct = curvature_torsion(great_circle(g), g)
    assert np.max(np.abs(ct.theta - 1.0)) <= 2.0 * g.h ** 2
    assert np.max(np.abs(ct.eta[ct.valid_mask])) <= 1e-10


def test_curvature_torsion_constant_map():
    g = periodic_grid(2.0 * np.pi, 64)
    u = np.tile([0.0, 0.0, 1.0], (g.n, 1))
    ct = curvature_torsion(u, g)
    assert np.max(ct.theta) == 0.0
    assert ct.all_invalid


def test_torsion_matches_inverse_identity():
    g = periodic_grid(2.0 * np.pi, 256)
    u = smooth_map(g)
    ct = curvature_torsion(u, g)
    ct2 = inverse_identities(transform(u, g), g)
    m = ct.valid_mask & ct2.valid_mask
    # the cumulative phase of q is single-sheeted, so the wrapped stencil at
    # the seam nodes sees a phase jump; compare away from the seam
    m[0] = m[-1] = False
    assert np.max(np.abs(ct.eta - ct2.eta)[m]) <= 50.0 * g.h ** 2


def test_transform_great_circle():
    g = periodic_grid(2.0 * np.pi, 256)
    q = transform(great_circle(g), g)
    assert np.max(np.abs(q - 1.0)) <= 2.0 * g.h ** 2


def test_transform_constant_map():
    g = periodic_grid(2.0 * np.pi, 64)
    u = np.tile([1.0, 0.0, 0.0], (g.n, 1))
    assert np.max(np.abs(transform(u, g))) == 0.0


def test_inverse_identities_constants():
    g = periodic_grid(2.0 * np.pi, 128)
    k, tau = 0.7, 0.4
    ct = inverse_identities(k * np.ones(g.n, complex), g)
    assert np.max(np.abs(ct.theta - k)) <= 1e-14
    assert np.max(np.abs(ct.eta)) <= 1e-14
    # e^{i tau x} is not periodic for tau = 0.4, so use an open interval
    gl = line_grid(0.0, 2.0 * np.pi, 128)
    ct = inverse_identities(k * np.exp(1j * tau * gl.x), gl)
    assert np.max(np.abs(ct.theta - k)) <= 1e-14
    # discrete derivative of e^{i tau x} carries a sin(tau h)/(tau h) factor
    assert np.max(np.abs(ct.eta - tau)) <= 2.0 * tau * gl.h ** 2
    ct = inverse_identities(np.zeros(g.n, complex), g)
    assert ct.all_invalid


def test_reconstruct_constant_q_is_great_circle():
    g = line_grid(0.0, 2.0 * np.pi, 256)
    k = 0.5
    m = np.array([1.0, 0.0, 0.0])
    e0 = np.array([0.0, 1.0, 0.0])
    f = reconstruct_frame(k * np.ones(g.n, complex), g, m, e0)
    exact = np.outer(np.cos(k * g.x), m) + np.outer(np.sin(k * g.x), e0)
    assert np.max(np.abs(f.u - exact)) <= 1e-10
    assert f.orthonormality_defect() <= 1e-13


def test_reconstruct_zero_q_constant_frame():
    g = line_grid(0.0, 1.0, 32)
    m = np.array([0.0, 0.0, 1.0])
    e0 = np.array([1.0, 0.0, 0.0])
    f = reconstruct_frame(np.zeros(g.n, complex), g, m, e0)
    assert np.max(np.abs(f.u - m)) == 0.0
    assert np.max(np.abs(f.e - e0)) == 0.0


def test_reconstruct_rejects_bad_initial_frame():
    g = line_grid(0.0, 1.0, 8)
    q = np.zeros(g.n, complex)
    with pytest.raises(ConfigurationError):
        reconstruct_frame(q, g, np.array([2.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        reconstruct_frame(q, g, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_reconstruct_refuses_a_march_whose_frames_are_not_finite():
    # h q = 1.25e199 squares to inf in the rotation angle, which made NaN frames
    # with no error, while q x 1e-250 marches finitely
    g = periodic_grid(1e200, 8)
    m, e0 = np.array(BASEPOINT_FRAME)
    q = np.ones(g.n, complex)
    match = "the initial frame overflows to inf or nan"
    with np.errstate(all="ignore"):
        assert np.all(np.isfinite(reconstruct_frame(q * 1e-250, g, m, e0).u))
        with pytest.raises(ConfigurationError, match=match):
            reconstruct_frame(q, g, m, e0)
        # a batch whose middle column alone is finite, then one whose last alone is not
        for scales in ([1.0, 1e-250, 1.0], [1e-250, 1e-250, 1.0]):
            with pytest.raises(ConfigurationError, match=match):
                reconstruct_frame(np.outer(scales, q), g, np.tile(m, (3, 1)),
                                  np.tile(e0, (3, 1)))


@pytest.mark.parametrize("shape", [(20,), (10,), (16, 5), (5, 16, 1)],
                         ids=["longer", "shorter", "node-first", "node-in-middle"])
def test_reconstruct_rejects_q_off_the_grid(shape):
    # a q whose last (node) axis is not the grid's would march past the
    # frame arrays or leave rows unwritten; a node-first batch is refused
    g = periodic_grid(2.0 * np.pi, 16)
    m, e0 = np.array(BASEPOINT_FRAME)
    with pytest.raises(ConfigurationError, match=rf"q of shape \({shape[0]},"):
        reconstruct_frame(np.ones(shape, complex), g, m, e0)


def test_reconstruct_rejects_out_and_basepoint_frames_that_do_not_fit_q():
    # rows of a longer out would be left unwritten, a float32 out would round
    # the frames, and frames for other columns would not broadcast
    g = periodic_grid(2.0 * np.pi, 16)
    m, e0 = np.array(BASEPOINT_FRAME)
    q = np.ones((6, 16), complex)
    ms, e0s = np.tile(m, (6, 1)), np.tile(e0, (6, 1))
    for u, e in ((np.empty((6, 20, 3)),) * 2, (np.empty((6, 16, 3), np.float32),) * 2):
        with pytest.raises(ConfigurationError, match=r"out of .* is not float64"):
            reconstruct_frame(q, g, ms, e0s, out=FrameField(u=u, e=e))
    with pytest.raises(ConfigurationError, match=r"m, e0 of shapes \(4, 3\)"):
        reconstruct_frame(np.ones((5, 16), complex), g, ms[:4], e0s[:4])


@pytest.mark.parametrize("g", [line_grid(-5.0, 5.0, 33), periodic_grid(2.0 * np.pi, 32)],
                         ids=["line-0", "periodic-0"])
def test_batched_march_matches_column_marches(monkeypatch, g):
    # a (K, P, n) batch of 6 columns against each column marched alone, bit
    # for bit, in chunks of the 4-node floor and of 5 nodes (a short last
    # chunk on most sides) and of the default size (one chunk); the u and e
    # rows go into new arrays or into views of larger path-major histories,
    # as the stochastic march passes them
    rng = np.random.default_rng(3)
    n, K, P = g.n, 3, 2
    q = (0.5 + 0.2 * rng.standard_normal((K, P, n))) \
        * np.exp(1j * rng.standard_normal((K, P, n)))
    R = rotation_exp(*rng.standard_normal((3, K, P)))
    m, e0 = R[..., 0, :], R[..., 1, :]
    alone = [[reconstruct_frame(q[k, p], g, m[k, p], e0[k, p]) for p in range(P)]
             for k in range(K)]
    for chunk in (1, 5 * K * P, hashimoto.CHUNK_ROTATIONS):
        monkeypatch.setattr(hashimoto, "CHUNK_ROTATIONS", chunk)
        f = reconstruct_frame(q, g, m, e0)
        qs = np.full((K + 1, P, n), np.nan, complex)
        us, es = np.full((2, K + 1, P, n, 3), np.nan)
        qs[1:] = q
        out = FrameField(u=us[1:], e=es[1:])
        assert reconstruct_frame(qs[1:], g, m, e0, out=out) is out
        assert np.all(np.isnan(us[0])) and np.all(np.isnan(es[0]))
        for got in (f, out):
            for k in range(K):
                for p in range(P):
                    assert np.array_equal(got.u[k, p], alone[k][p].u), (chunk, k, p)
                    assert np.array_equal(got.e[k, p], alone[k][p].e), (chunk, k, p)


def test_round_trip_u_to_q_to_u():
    # transform then reconstruct with the matching initial frame returns u
    errs = []
    for n in (64, 128, 256):
        g = line_grid(0.0, 2.0 * np.pi, n)
        u = smooth_map(g)
        q = transform(u, g)
        ux0 = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * g.h)
        e0 = ux0 / np.linalg.norm(ux0)
        # project e0 into the tangent plane at u[0] to meet the frame contract
        e0 = e0 - np.dot(e0, u[0]) * u[0]
        e0 /= np.linalg.norm(e0)
        f = reconstruct_frame(q, g, u[0], e0)
        errs.append(np.max(np.abs(f.u - u)))
    assert errs[2] <= 1e-3
    order = np.log2(errs[0] / errs[2]) / 2.0
    assert order >= 1.8


def random_smooth_q(rng):
    """x -> q(x): modulus 1 + three cosine modes of amplitude <= 0.2 (so
    |q| >= 0.4) and a phase of three sine modes, all drawn from rng."""
    k = np.arange(1, 4)
    amp, tw = 0.2 * rng.uniform(-1.0, 1.0, 3), 0.5 * rng.uniform(-1.0, 1.0, 3)
    ph, ps = rng.uniform(0.0, 2.0 * np.pi, (2, 3))

    def q(x):
        X = k * x[:, None]
        return (1.0 + np.sum(amp * np.cos(X + ph), axis=1)) \
            * np.exp(1j * np.sum(tw * np.sin(X + ps), axis=1))
    return q


@pytest.mark.parametrize("seed", range(5))
def test_seeded_q_to_frame_to_q_recovers_q(seed):
    # the transform of the frame march of q is q again, to O(h^2), once
    # q's phase is anchored to 0 at the basepoint as the transform's is
    q_of = random_smooth_q(np.random.default_rng(seed))
    errs = []
    for n in (128, 256):
        g = line_grid(0.0, 2.0 * np.pi, n)
        q = q_of(g.x)
        q *= np.exp(-1j * np.angle(q[0]))
        f = reconstruct_frame(q, g, *BASEPOINT_FRAME)
        assert f.orthonormality_defect() <= 1e-12
        errs.append(np.max(np.abs(transform(f.u, g) - q)))
    assert errs[1] <= 10.0 * g.h ** 2
    assert errs[0] >= 3.0 * errs[1]


def test_closure_defect_small_for_closed_curve():
    g = periodic_grid(2.0 * np.pi, 256)
    q = np.ones(g.n, complex)
    f = reconstruct_frame(q, g, np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0]))
    # arccos near 1 turns round-off into its square root; 1e-6 is round-off here
    assert closure_defect(q, g, f) <= 1e-6
    gl = line_grid(0.0, 1.0, 16)
    fl = reconstruct_frame(np.zeros(gl.n, complex), gl,
                           np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert closure_defect(np.zeros(gl.n, complex), gl, fl) == 0.0


def test_closure_defect_batched_matches_per_path():
    rng = np.random.default_rng(8)
    g = periodic_grid(2.0 * np.pi, 64)
    P = 5
    q = (0.3 + 0.1 * rng.standard_normal((P, g.n))) \
        * np.exp(1j * rng.standard_normal((P, g.n)))
    m, e0 = np.array(BASEPOINT_FRAME)
    alone = [reconstruct_frame(qi, g, m, e0) for qi in q]
    f = FrameField(u=np.stack([fi.u for fi in alone]),
                   e=np.stack([fi.e for fi in alone]))     # (P, n, 3), path-major
    got = closure_defect(q, g, f)
    assert got.shape == (P,)
    for i in range(P):
        assert got[i] == closure_defect(q[i], g, alone[i])
    gl = line_grid(0.0, 1.0, 16)
    ql = np.zeros((P, gl.n), complex)
    fl = FrameField(*(np.broadcast_to(v, (P, gl.n, 3)) for v in (m, e0)))
    assert np.array_equal(closure_defect(ql, gl, fl), np.zeros(P))


def test_batch_of_fields_equals_each_field_alone():
    # a strong and a weak twist stacked: each field's eps, mask and torsion,
    # and so its transform, are its own, not regularized by the batch's max
    g = line_grid(-250.0, 20.0, 512)
    q = np.array([a * localized_twist(g.x) * np.exp(0.5j * g.x) for a in (0.25, 1e-5)])
    u = np.stack([reconstruct_frame(qi, g, *BASEPOINT_FRAME).u for qi in q])
    batch = curvature_torsion(u, g)
    assert batch.eps.shape == (2, 1)
    for i, field in enumerate(u):
        alone = curvature_torsion(field, g)
        for name in ("theta", "eta", "valid_mask", "eps"):
            assert np.array_equal(getattr(batch, name)[i], getattr(alone, name)), name
    qs = transform(u, g)
    for i, field in enumerate(u):
        assert qs[i].tobytes() == transform(field, g).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transform_and_reconstruct_reject_non_finite_input(bad):
    # one non-finite node would otherwise spread through the stencils and
    # the frame march without an error
    g = periodic_grid(2.0 * np.pi, 32)
    u = smooth_map(g)
    q = transform(u, g)
    m, e0 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    u_bad = u.copy()
    u_bad[5, 1] = bad
    with pytest.raises(ConfigurationError, match="u must be finite"):
        transform(u_bad, g)
    for qs, ms, es in ((q, m, e0), (q[None], m[None], e0[None])):
        reconstruct_frame(qs, g, ms, es)            # one path, then a batch of one
        for i in range(3):
            args = [qs.copy(), ms.copy(), es.copy()]
            args[i].flat[1] = bad
            with pytest.raises(ConfigurationError, match="q, m and e0 must be finite"):
                reconstruct_frame(args[0], g, *args[1:])
