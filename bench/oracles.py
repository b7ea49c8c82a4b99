"""Reference computations for the benchmark, kept apart from the program.

Nothing here imports soboheat: every formula is written out again from
the model definitions, so a fault in the program cannot hide in its own
check.  Distances come back as a bracket (lo, hi) with lo <= d <= hi.
The closed-form models give lo == hi.  On perturbed-euclidean the true
geodesic distance is only bracketed:

    sqrt(1 - a) |x - y|  <=  d(x, y)  <=  length of the straight segment,

so a check fails there only when the bracket decides it.  A program whose
distance moves anywhere inside the bracket (for example an exact-geodesic
kernel in place of the chord) still passes.
"""

from __future__ import annotations

import math

import numpy as np

# 32-point Gauss-Legendre rule on [0, 1] for the segment length.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


class Model:
    """One catalog surface as the benchmark knows it: the conformal factor
    f, the working box and its periodic axes, and a distance bracket."""

    def __init__(self, name: str, box, periodic=(False, False), a: float = 0.0,
                 frequency: float = 1.0):
        self.name = name
        self.lo = np.array([b[0] for b in box], dtype=float)
        self.hi = np.array([b[1] for b in box], dtype=float)
        self.periodic = tuple(periodic)
        self.a = float(a)
        self.frequency = float(frequency)
        self.flat = name in ("euclidean", "flat-torus")
        self.hyperbolic = name in ("hyperbolic-halfplane", "hyperbolic-ball")

    def factor(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.flat:
            return np.ones(x.shape[:-1])
        if self.name == "perturbed-euclidean":
            return 1.0 + self.a * np.sin(self.frequency * x[..., 0])
        if self.name == "hyperbolic-halfplane":
            return 1.0 / x[..., 1] ** 2
        return 4.0 / (1.0 - np.sum(x**2, axis=-1)) ** 2

    def distance(self, x, y):
        """(lo, hi) bracket of the geodesic distance, broadcast over x, y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        diff = x - y
        if self.name == "flat-torus":
            L = self.hi - self.lo
            d = np.mod(np.abs(diff), L)
            d = np.linalg.norm(np.minimum(d, L - d), axis=-1)
            return d, d
        chord = np.linalg.norm(diff, axis=-1)
        if self.name == "euclidean":
            return chord, chord
        if self.name == "hyperbolic-halfplane":
            d = 2.0 * np.arcsinh(chord / (2.0 * np.sqrt(x[..., 1] * y[..., 1])))
            return d, d
        if self.name == "hyperbolic-ball":
            den = np.sqrt((1.0 - np.sum(x**2, axis=-1)) * (1.0 - np.sum(y**2, axis=-1)))
            d = 2.0 * np.arcsinh(chord / den)
            return d, d
        # perturbed-euclidean: f depends on x1 only, so the segment length
        # needs the factor along the x1 coordinate of the segment alone
        x1 = x[..., 0, None] + _GL_X * (y[..., 0, None] - x[..., 0, None])
        root = np.sqrt(1.0 + self.a * np.sin(self.frequency * x1))
        return math.sqrt(1.0 - self.a) * chord, chord * (root @ _GL_W)

    def chart_reach(self, radius, center) -> np.ndarray:
        """A chart radius around each center that holds the whole geodesic
        ball of the given radius (to screen candidate pairs)."""
        radius = np.asarray(radius, dtype=float)
        center = np.asarray(center, dtype=float)
        if self.flat:
            return radius
        if self.name == "perturbed-euclidean":
            return radius / math.sqrt(1.0 - self.a)
        if self.name == "hyperbolic-halfplane":
            # the ball is the disc of center (x, y cosh R) and radius y sinh R
            return center[..., 1] * np.expm1(radius)
        # cosh d - 1 >= 2 |x - y|^2 on the unit disc
        return np.sinh(radius / 2.0)

    def gap_to_boundary(self, x) -> np.ndarray:
        """sqrt(f) times the chart distance to the nearest face, or to half a
        period on a periodic axis: the exact domain cap of a flat model."""
        x = np.asarray(x, dtype=float)
        gaps = []
        for i in range(len(self.lo)):
            if self.periodic[i]:
                gaps.append(np.full(x.shape[:-1], (self.hi[i] - self.lo[i]) / 2.0))
            else:
                gaps.append(np.minimum(x[..., i] - self.lo[i], self.hi[i] - x[..., i]))
        return np.sqrt(self.factor(x)) * np.min(gaps, axis=0)


# -- disc areas ---------------------------------------------------------


def disc_area(model: Model, radius: float) -> float:
    """Area of a geodesic disc: pi R^2 on flat models, 2 pi (cosh R - 1)
    at curvature -1."""
    if model.hyperbolic:
        return 2.0 * math.pi * (math.cosh(radius) - 1.0)
    if model.flat:
        return math.pi * radius**2
    raise ValueError(f"no closed-form area on {model.name}")


def perturbed_area_bracket(a: float, radius: float) -> tuple[float, float]:
    """(1 - a) <= f <= (1 + a), so the geodesic disc lies between the
    Euclidean discs of radii R / sqrt(1 + a) and R / sqrt(1 - a):
    its area lies in [(1 - a)/(1 + a), (1 + a)/(1 - a)] * pi R^2."""
    base = math.pi * radius**2
    return (1.0 - a) / (1.0 + a) * base, (1.0 + a) / (1.0 - a) * base


def area_tolerance(resolution: int, subsamples: int) -> float:
    """Relative error bound of a midpoint-rule disc area whose cut cells are
    weighted by a subsamples^2 indicator sample: every boundary point is
    placed within half a sub-cell, so the error is at most the perimeter
    times half a sub-cell width.  For a disc spread over `resolution`
    cells per diameter that is 2 / (resolution * subsamples) of the area;
    the factor 2 covers the bounding box's extra margin."""
    return 4.0 / (resolution * subsamples)


# -- heat flow ------------------------------------------------------------


def periodic_mode_eigenvalue(wavenumber: float, h: float) -> float:
    """Eigenvalue of the 3-point second difference -(u+ - 2u + u-)/h^2 on
    the mode sin(k x + phase), sampled at spacing h."""
    return (2.0 - 2.0 * math.cos(wavenumber * h)) / h**2


def implicit_euler_coefficient(lam: float, dt: float, steps: int) -> float:
    """c_N of implicit Euler c_{j+1} (1 + lam dt) = c_j + dt from c_0 = 0:
    the amplitude after N steps of a time-constant eigen-forcing."""
    return (1.0 - (1.0 + lam * dt) ** (-steps)) / lam


def grid_axes(box, per_axis: int, periodic):
    """Node coordinates per axis: endpoint dropped on a periodic axis that
    spans the whole period."""
    return [np.linspace(lo, hi, per_axis, endpoint=not per) for (lo, hi), per in zip(box, periodic)]


def quadrature_weights(model: Model, axes) -> np.ndarray:
    """h^n f^(n/2) per node, with trapezoid end weights on bounded axes."""
    h = [ax[1] - ax[0] for ax in axes]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    n = len(axes)
    w = float(np.prod(h)) * model.factor(mesh) ** (n / 2.0)
    for i, ax in enumerate(axes):
        if model.periodic[i]:
            continue
        end = np.ones(len(ax))
        end[0] = end[-1] = 0.5
        shape = [1] * n
        shape[i] = len(ax)
        w = w * end.reshape(shape)
    return w


def l2_norms(values: np.ndarray, weights: np.ndarray, factor: np.ndarray,
             one_form: bool) -> np.ndarray:
    """L2 norm at each time slice; a one-form's modulus is |w|^2 / f."""
    sq = np.sum(values**2, axis=-1) / factor if one_form else values**2
    return np.sqrt(np.sum(sq * weights, axis=tuple(range(1, sq.ndim))))


def contraction_excess(u: np.ndarray, forcing: np.ndarray, times: np.ndarray,
                       weights: np.ndarray, factor: np.ndarray, one_form: bool) -> float:
    """max_j ||u(t_j)|| / (trapezoid integral of ||forcing|| up to t_j) - 1.

    Implicit Euler with the step-averaged forcing contracts in L2, so the
    result is <= 0 up to roundoff on a correct solve.
    """
    un = l2_norms(u, weights, factor, one_form)
    fn = l2_norms(forcing, weights, factor, one_form)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(times))])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cum > 0, un / cum, np.where(un > 0, np.inf, 0.0))
    return float(np.max(ratio) - 1.0)


# -- coverings ------------------------------------------------------------


def overlap_bound(n: int, eps: float) -> float:
    """T = ((1 + eps)/(1 - eps))^(n/2) * 100^n."""
    return ((1.0 + eps) / (1.0 - eps)) ** (n / 2.0) * 100.0**n


def _by_first_axis(model: Model, centers, reach: float, points=None):
    """Centers sorted along the first chart axis, or None when a window on
    that axis could miss a pair that wraps round a periodic axis."""
    x = centers[:, 0]
    span = np.ptp(x if points is None else np.concatenate([x, points[:, 0]]))
    if model.periodic[0] and span + 2.0 * reach >= model.hi[0] - model.lo[0]:
        return None
    order = np.argsort(x, kind="stable")
    return order, x[order]


def _window(index, lo: float, hi: float):
    """Indices of the sorted centers whose first coordinate is in [lo, hi]."""
    order, xs = index
    return order[np.searchsorted(xs, lo, "left"):np.searchsorted(xs, hi, "right")]


def membership_counts(model: Model, points, centers, radii, block: int = 32):
    """Per point: (balls that surely hold it, balls that may hold it).

    A ball surely holds p when the bracket's upper end is <= its radius,
    and may hold it when the lower end is.  Only balls whose chart reach
    can touch p along the first axis are measured.
    """
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    reach = float(np.max(model.chart_reach(radii, centers)))
    index = _by_first_axis(model, centers, reach, points)
    sure = np.zeros(len(points), dtype=int)
    maybe = np.zeros(len(points), dtype=int)
    order = np.argsort(points[:, 0], kind="stable")
    for s in range(0, len(points), block):
        rows = order[s : s + block]
        p = points[rows]
        cand = slice(None) if index is None else \
            _window(index, p[:, 0].min() - reach, p[:, 0].max() + reach)
        lo, hi = model.distance(p[:, None, :], centers[cand][None, :, :])
        sure[rows] = np.sum(hi <= radii[cand], axis=1)
        maybe[rows] = np.sum(lo <= radii[cand], axis=1)
    return sure, maybe


def core_overlaps(model: Model, centers, radii, sample) -> int:
    """Number of sampled cores that surely meet another core:
    d_hi(x_i, x_j) <= r_i + r_j for some j != i."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    r_max = float(np.max(radii))
    reach = model.chart_reach(radii + r_max, centers)
    index = _by_first_axis(model, centers, float(np.max(reach)))
    bad = 0
    for i in sample:
        cand = np.arange(len(centers)) if index is None else \
            _window(index, centers[i, 0] - reach[i], centers[i, 0] + reach[i])
        cand = cand[cand != i]
        _, hi = model.distance(centers[i][None, :], centers[cand])
        bad += bool(np.any(hi <= radii[i] + radii[cand]))
    return bad


def radius_bracket(model: Model, query, points, r_prime) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) bracket of the certified radius min(1, max(0, max_j(R'_j -
    d(q, p_j))) / 2) at each query point, from the field's centers p_j and
    radii R'_j: the distance bracket's upper end gives lo, its lower end hi."""
    query = np.asarray(query, dtype=float)
    points = np.asarray(points, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    d_lo, d_hi = model.distance(query[:, None, :], points[None, :, :])

    def certified(d):
        return np.minimum(1.0, np.maximum(np.max(r_prime - d, axis=1), 0.0) / 2.0)

    return certified(d_hi), certified(d_lo)


def lipschitz_excess(model: Model, points, r_prime, tol: float) -> float:
    """max over pairs of |R'(x) - R'(y)| - d_hi(x, y) - 2 tol; a positive
    value means the 1-Lipschitz property surely fails."""
    points = np.asarray(points, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    if len(points) < 2:
        return -math.inf
    _, hi = model.distance(points[:, None, :], points[None, :, :])
    excess = np.abs(r_prime[:, None] - r_prime[None, :]) - hi - 2.0 * tol
    np.fill_diagonal(excess, -np.inf)
    return float(np.max(excess))
