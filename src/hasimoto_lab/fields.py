"""1D grids, finite-difference operators, cumulative quadrature and 3-vector algebra.

Fields are plain numpy arrays aligned to a Grid1D: (n,) for scalar (real or
complex) fields and (n, 3) for vector fields. A batch stacks fields on leading
axes, (..., n) or (..., n, 3), and every operator acts on each field of it
alone. Each operator's arithmetic lives once, in its *_into kernel.
"""

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Invalid grid / solver configuration."""


class BlowUpError(RuntimeError):
    """A time integration produced non-finite values."""


@dataclass(frozen=True)
class Grid1D:
    """n nodes x, h apart. Node 0 is the basepoint a of the nonlocal integrals
    and the frame march: the left end on the line, the seam on the circle."""
    kind: str                 # "periodic" or "line"
    n: int
    h: float
    x: np.ndarray

    def __post_init__(self):
        if self.kind not in ("periodic", "line"):
            raise ConfigurationError(f"unknown grid kind {self.kind!r}")
        if self.n < 4:
            raise ConfigurationError(f"need n >= 4 nodes, got {self.n}")
        if not 0 < self.h < np.inf:
            raise ConfigurationError(f"need a positive finite spacing, got h={self.h}")
        if self.h * self.h == 0.0:      # diff2 divides by h^2
            raise ConfigurationError(f"spacing h={self.h} is too small: h^2 underflows")

    @property
    def periodic(self) -> bool:
        return self.kind == "periodic"

    @property
    def length(self) -> float:
        # circumference for periodic grids, extent for line grids
        return self.n * self.h if self.periodic else (self.n - 1) * self.h


def periodic_grid(circumference: float, n: int) -> Grid1D:
    if not circumference > 0:
        raise ConfigurationError(f"circumference must be positive, got {circumference}")
    if n < 4:
        raise ConfigurationError(f"need n >= 4 nodes, got {n}")
    h = circumference / n
    return Grid1D("periodic", n, h, h * np.arange(n))


def line_grid(x_min: float, x_max: float, n: int) -> Grid1D:
    if not 0 < x_max - x_min < np.inf:
        raise ConfigurationError(f"extent [{x_min}, {x_max}] is not positive and finite")
    if n < 4:
        raise ConfigurationError(f"need n >= 4 nodes, got {n}")
    h = (x_max - x_min) / (n - 1)
    return Grid1D("line", n, h, np.linspace(x_min, x_max, n))


def time_steps(dt: float, t_end: float) -> int:
    """Number of steps of size dt from 0 to t_end. dt must divide t_end to
    1e-9 relative, so that a run cannot stop short of the t_end it reports."""
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if not 0 <= t_end < np.inf:
        raise ConfigurationError(f"t_end must be finite and >= 0, got {t_end}")
    steps = t_end / dt
    n = round(steps)
    if abs(steps - n) > 1e-9 * steps:
        raise ConfigurationError(
            f"dt={dt!r} does not divide t_end={t_end!r} ({steps:.6g} steps)")
    return n


def _node_last(f: np.ndarray, g: Grid1D) -> np.ndarray:
    # the kernels' view of a field: a vector field (..., n, 3) as (..., 3, n),
    # a scalar field (..., n) as itself; n >= 4, so the two never meet
    if f.shape[-2:] == (g.n, 3):
        return f.swapaxes(-1, -2)
    if f.shape[-1:] != (g.n,):
        raise ConfigurationError(f"field length {f.shape[-1] if f.ndim else 0} != "
                                 f"grid n {g.n} in shape {f.shape}")
    return f


def check_field(shape: tuple, what: str, *fields):
    """Refuse fields unless each is one field of shape, (n,) or (n, 3) on n nodes."""
    for f in fields:
        if np.shape(f) != shape:
            raise ConfigurationError(f"{what} of shape {np.shape(f)} is not one field "
                                     f"of shape {shape}")


def require_finite(what: str, *fields):
    """Refuse non-finite input, which would spread through stencils and marches."""
    if not all(np.all(np.isfinite(f)) for f in fields):
        raise ConfigurationError(f"{what} must be finite")


def _empty_like(f: np.ndarray) -> np.ndarray:
    # an integer field differentiates and integrates as floats
    return np.empty(f.shape, np.result_type(f, 1.0))


def diff1(f: np.ndarray, g: Grid1D) -> np.ndarray:
    """Second-order first derivative; one-sided stencils at line endpoints."""
    out = _empty_like(f)
    diff1_into(_node_last(f, g), g, _node_last(out, g))
    return out


def diff2(f: np.ndarray, g: Grid1D) -> np.ndarray:
    """Second-order second derivative; one-sided stencils at line endpoints."""
    out = _empty_like(f)
    diff2_into(_node_last(f, g), g, _node_last(out, g))
    return out


def cumint(f: np.ndarray, g: Grid1D) -> np.ndarray:
    """Cumulative trapezoid of f from node 0, the basepoint; value 0 there.

    Integration runs in increasing node index. On periodic grids it is
    single-sheeted: no wraparound segment is added, so the result is in
    general not periodic (a recorded defect of the basepoint-anchored
    integral on the circle).
    """
    out, tmp = _empty_like(f), _empty_like(f)
    cumint_into(_node_last(f, g), g, _node_last(out, g), _node_last(tmp, g))
    return out


# --- the operators' kernels, written into preallocated arrays ---
# Here the node axis is the last one: scalar fields (..., n) as they are, and
# vector fields component-major, (..., 3, n), as _node_last views them or as
# LLGStepper stores them. The endpoint stencils index the transposed views,
# whose node axis is first.

def diff1_into(f: np.ndarray, g: Grid1D, out: np.ndarray) -> np.ndarray:
    """diff1 of f along its last axis, written into out."""
    h2 = 2.0 * g.h
    mid = out[..., 1:-1]
    np.subtract(f[..., 2:], f[..., :-2], out=mid)
    np.divide(mid, h2, out=mid)
    f, d = f.T, out.T
    d[0] = diff1_at_0(f, g)
    if g.periodic:
        d[-1] = (f[0] - f[-2]) / h2
    else:
        d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / h2
    return out


def diff1_at_0(f: np.ndarray, g: Grid1D) -> np.ndarray:
    """diff1 at node 0 alone of f with its node axis first, as the endpoint
    stencils index it: central on the circle, one-sided on the line."""
    h2 = 2.0 * g.h
    if g.periodic:
        return (f[1] - f[-1]) / h2
    return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / h2


def diff2_into(f: np.ndarray, g: Grid1D, out: np.ndarray) -> np.ndarray:
    """diff2 of f along its last axis, written into out."""
    h2 = g.h * g.h
    mid = out[..., 1:-1]
    np.multiply(2.0, f[..., 1:-1], out=mid)
    np.subtract(f[..., 2:], mid, out=mid)
    np.add(mid, f[..., :-2], out=mid)
    np.divide(mid, h2, out=mid)
    f, d = f.T, out.T
    if g.periodic:
        d[0] = (f[1] - 2.0 * f[0] + f[-1]) / h2
        d[-1] = (f[0] - 2.0 * f[-1] + f[-2]) / h2
    else:
        d[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
        d[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


def cumint_into(f: np.ndarray, g: Grid1D, out: np.ndarray,
                tmp: np.ndarray) -> np.ndarray:
    """cumint of f along its last axis, written into out; tmp is scratch
    shaped like f."""
    seg = tmp[..., 1:]
    np.add(f[..., 1:], f[..., :-1], out=seg)
    np.multiply(0.5 * g.h, seg, out=seg)
    out[..., 0] = 0.0
    np.cumsum(seg, axis=-1, out=out[..., 1:])
    return out


# boundary_decay_ok's bound on max |q| over the leftmost DECAY_FRAC of nodes
DECAY_FRAC, DECAY_REL_TOL = 0.05, 1e-6


def boundary_decay_ok(q: np.ndarray, g: Grid1D) -> bool:
    """Monitor for left-boundary decay on line grids.

    The nonlocal integrals use the left endpoint as a stand-in for -inf,
    which is only valid when the data decays there: max |q| over the
    leftmost DECAY_FRAC of nodes must not exceed DECAY_REL_TOL * max |q|.
    Periodic grids pass trivially.
    """
    if g.periodic:
        return True
    m = np.max(np.abs(q))
    if m == 0.0:
        return True
    k = max(1, int(np.ceil(DECAY_FRAC * g.n)))
    return bool(np.max(np.abs(q[:k])) <= DECAY_REL_TOL * m)


def open_view(g: Grid1D) -> Grid1D:
    """The same nodes treated as an open curve (one-sided stencils at the seam).

    Frame reconstruction on the circle does not wrap, so reconstructed fields
    are smooth as open curves but generally jump at the seam; differentiating
    them with periodic stencils would be invalid there.
    """
    if not g.periodic:
        return g
    return Grid1D("line", g.n, g.h, g.x)


# --- 3-vector algebra on (n, 3) (or (..., 3)) arrays ---

def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, broadcast; bit for bit np.cross."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    out = np.empty(shape, np.result_type(a, b))
    tmp = np.empty((2,) + shape[:-1], out.dtype)
    cross_into(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0),
               np.moveaxis(out, -1, 0), tmp)
    return out


def cross_into(a: np.ndarray, b: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
    """a x b of component-major fields, (3, ...), written into out in
    np.cross's operation order; tmp is (2, ...) scratch."""
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=tmp[0, ...])
        np.multiply(a[k], b[j], out=tmp[1, ...])
        np.subtract(tmp[0, ...], tmp[1, ...], out=out[i, ...])
    return out


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1)


def norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))


def normalize(a: np.ndarray) -> np.ndarray:
    return a / norm(a)[..., None]


def check_unit(u: np.ndarray):
    """Assert every row of u is a unit vector to 1e-8 (sphere-valued field)."""
    dev = np.max(np.abs(norm(u) - 1.0))
    if dev > 1e-8:
        raise ConfigurationError(f"field is not sphere-valued: max | |u|-1 | = {dev:.3e}")
