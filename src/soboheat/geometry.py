"""Model Riemannian manifolds as analytic coordinate charts.

Every chart in the catalog is conformally flat: g_ij(x) = f(x) delta_ij
with a closed-form conformal factor f.  Each model also gives the partial
derivatives of f up to order 3 in closed form (constant on the flat
charts; a derivative of one 1-D profile on perturbed-Euclidean and the
half-plane; polynomials in x over powers of 1 - |x|^2 on the disc).
With phi = (1/2) log f, the connection is a closed form in the
derivatives of phi:

  Gamma^i_kj = delta_ik d_j phi + delta_ij d_k phi - delta_kj d_i phi,

and the same linear map applied to d^2 phi and d^3 phi gives d Gamma and
d^2 Gamma exactly.

No finite differences and no symbolic algebra enter.

Four more closed forms per model say where a ball lies and how f varies
on it: the exact range of f over a box (`MetricChart.factor_range`), an
upper bound on its derivatives of one order over a box
(`MetricChart.jet_bound`), a chart box that contains the geodesic ball
(`ball_bbox`), whose place in the domain decides whether the ball fits,
and the ball's section of each line along the last axis, a Euclidean
disc on that line.  Nothing is sampled.

Geodesic distance is closed form for the flat and hyperbolic models.
For the perturbed-Euclidean metric no closed form exists; there the
chord length along the straight chart segment is used (Gauss-Legendre
quadrature of sqrt(f)), which is exact in the flat limit and within the
factor sqrt((1+a)/(1-a)) of the true distance.  f depends on x_1 only,
so the quadrature depends on the pair (x_1, y_1) only: it runs once per
distinct pair, and grid and lattice callers share each one among many
point pairs.

`volume_of_ball` and `cmt_bound_check` share one quadrature of the ball,
built from the sections alone: Gauss-Legendre nodes along each row's
interval, and no distance call.  The covering screens and the
radius-field checks pass at most PAIR_BUDGET pairs per distance call.

Every node set laid over a box (radius-field centers, covering candidates
and probes, solve grids) is a `Lattice`, and `MetricChart.lattice_box` is
the one rule that turns a box into its ends: a whole period wraps, and
every other axis keeps both ends and takes the margin.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """A point or ball left the chart's working domain."""


class CapabilityError(RuntimeError):
    """An operation was asked for data the chart does not provide."""


class NumericalError(ArithmeticError):
    """A numeric contract (SPD metric, solver residual, ...) failed."""


M_MAX = 3  # highest analytic metric-derivative order
CMT_SAMPLE_DENSITY = 16.0  # cmt_bound_check's quadrature resolution per unit of radius, >= 9


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices over n variables with |beta| == order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), order):
        beta = [0] * n
        for axis in combo:
            beta[axis] += 1
        out.append(tuple(beta))
    return out


class Lattice:
    """Row-major nodes of a box, the one layout of every center, candidate,
    probe and solve grid: count[i] evenly spaced nodes from lo[i] on axis
    i, ending at hi[i], or one step short of it where endpoint[i] is False
    (an axis that wraps).  count and endpoint may be scalars.  points, the
    (N, n) node coordinates, are built with the lattice; step is computed
    on first read, so a lattice of one node per axis divides by nothing."""

    def __init__(self, lo, hi, count, endpoint):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        n = len(self.lo)
        self.count = np.broadcast_to(np.asarray(count, dtype=int), (n,))
        self.endpoint = np.broadcast_to(np.asarray(endpoint, dtype=bool), (n,))
        self.axes = [np.linspace(self.lo[i], self.hi[i], int(self.count[i]), endpoint=bool(self.endpoint[i]))
                     for i in range(n)]
        self.points = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1).reshape(-1, n)

    @functools.cached_property
    def step(self) -> np.ndarray:
        return (self.hi - self.lo) / (self.count - self.endpoint)

    def __len__(self):
        return len(self.points)


def budget_blocks(sizes, budget: int) -> list[tuple[int, int]]:
    """[start, stop) runs of consecutive items whose sizes sum to at most
    budget, in order; an item larger than budget forms a run of its own."""
    cum = np.cumsum(sizes)
    blocks, start = [], 0
    while start < len(cum):
        base = cum[start - 1] if start else 0
        stop = max(int(np.searchsorted(cum, base + budget, side="right")), start + 1)
        blocks.append((start, stop))
        start = stop
    return blocks


PAIR_BUDGET = 1 << 14  # pairs per distance call: covering screens, radius-field checks

# 16-point Gauss-Legendre nodes/weights on [0, 1], for chord lengths and ball rows.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


class MetricChart:
    """A conformally flat analytic chart g_ij = f(x) delta_ij on a box.

    jet(x, beta) is the model's closed form of d^beta f at the points x
    (beta = 0 gives f), for |beta| <= M_MAX; factor_range(lo, hi) is the
    exact (min, max) of f over a box; jet_bound(lo, hi, k) bounds
    sum_{|beta| = k} sup |d^beta f| over a box; ball_box(chart, c, R) is a
    chart box (lo, hi) that contains the geodesic ball B(c, R); section(chart,
    c, R, x1) is (mid, r), where B(c, R) meets each line along the last axis
    through its box at first coordinate x1: |x - mid| <= r, mid (n,) and r of
    x1's shape; is_flat says f is constant (jet_bound of order 1 is 0).
    """

    def __init__(
        self,
        name: str,
        dim: int,
        lo,
        hi,
        periodic: tuple[bool, ...],
        distance_fn: Callable,
        jet: Callable,
        factor_range: Callable,
        jet_bound: Callable,
        section: Callable,
        ball_box: Callable,
        params: dict,
    ):
        self.name = name
        self.n = dim
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.periodic = tuple(periodic)
        self.params = dict(params)
        self._distance_fn = distance_fn
        self.jet = jet
        self._factor_range = factor_range
        self._jet_bound = jet_bound
        self._section = section
        self._ball_box = ball_box
        if not self.factor_range(self.lo, self.hi)[0] > 0:
            raise NumericalError(f"chart {name}: conformal factor not positive on the box")
        self.is_flat = bool(self.jet_bound(self.lo, self.hi, 1) == 0)

    # -- basic queries -------------------------------------------------

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        ok = np.ones(x.shape[:-1], dtype=bool)
        for i in range(self.n):
            if self.periodic[i]:
                continue
            ok &= (x[..., i] >= self.lo[i]) & (x[..., i] <= self.hi[i])
        return ok

    def lattice_box(self, box=None, margin=0.0):
        """(lo, hi, endpoint) of the Lattice over a box of per-axis (lo, hi)
        pairs (None: the working box), the one rule of every lattice a box
        is laid out on.  An axis that spans a whole period, to 1e-12 of
        it, wraps: endpoint False leaves hi out, and the margin does not
        apply.  Every other axis has two ends and shrinks by margin at
        each.  Raises DomainError unless the box lies inside the working
        box, periodic axes included, and the margin leaves it non-empty."""
        if box is None:
            box = list(zip(self.lo, self.hi))
        if len(box) != self.n:
            raise DomainError(f"box needs {self.n} intervals, got {len(box)}")
        lo = np.asarray([b[0] for b in box], dtype=float)
        hi = np.asarray([b[1] for b in box], dtype=float)
        if not (np.all(lo >= self.lo) and np.all(hi <= self.hi)):
            inner = ", ".join(f"{a:g}:{b:g}" for a, b in zip(lo, hi))
            outer = ", ".join(f"{a:g}:{b:g}" for a, b in zip(self.lo, self.hi))
            raise DomainError(f"box {inner} leaves the working box {outer} of chart {self.name}")
        wraps = np.array(self.periodic) & (hi - lo >= (self.hi - self.lo) * (1 - 1e-12))
        lo, hi = np.where(wraps, lo, lo + margin), np.where(wraps, hi, hi - margin)
        if not np.all(hi > lo):
            raise DomainError(f"margin {margin:g} leaves an empty box")
        return lo, hi, ~wraps

    def wrap(self, x):
        """Fold periodic coordinates back into [lo, hi)."""
        x = np.array(x, dtype=float)
        for i in range(self.n):
            if self.periodic[i]:
                L = self.hi[i] - self.lo[i]
                x[..., i] = self.lo[i] + np.mod(x[..., i] - self.lo[i], L)
        return x

    def conformal_factor(self, x) -> np.ndarray:
        return self.jet(np.asarray(x, dtype=float), (0,) * self.n)

    def conformal_derivative(self, x, beta) -> np.ndarray:
        beta = tuple(int(b) for b in beta)
        if len(beta) != self.n or min(beta) < 0:
            raise CapabilityError(f"multi-index {beta} does not fit a {self.n}-D chart")
        if sum(beta) > M_MAX:
            raise CapabilityError(f"metric derivatives available up to order {M_MAX}")
        return self.jet(np.asarray(x, dtype=float), beta)

    def factor_range(self, lo, hi):
        """Exact (min, max) of f over the box [lo, hi]; lo and hi may carry
        leading axes of boxes."""
        return self._factor_range(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))

    def jet_bound(self, lo, hi, k: int):
        """Upper bound on sum_{|beta| = k} sup |d^beta f| over the box
        [lo, hi], for k <= M_MAX; lo and hi may carry leading axes of boxes."""
        if k > M_MAX:
            raise CapabilityError(f"metric derivatives available up to order {M_MAX}")
        return self._jet_bound(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), k)

    def sqrt_det(self, x) -> np.ndarray:
        return self.conformal_factor(x) ** (self.n / 2.0)

    def distance(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self._distance_fn(self, x, y)


# -- catalog: conformal factors ----------------------------------------


class AxisProfile:
    """Jet of a factor that depends on one coordinate only,
    f(x) = profile(x[axis], 0), where profile(t, k) is the k-th derivative
    of f along that axis; every other partial derivative is 0.
    extrema(t0, t1, k) is the (min, max) of the k-th derivative over
    t0 <= x[axis] <= t1."""

    def __init__(self, axis: int, profile: Callable, extrema: Callable):
        self.axis = axis
        self.profile = profile
        self.extrema = extrema

    def __call__(self, x, beta) -> np.ndarray:
        k = beta[self.axis]
        if sum(beta) > k:
            return np.zeros(x.shape[:-1])
        return self.profile(x[..., self.axis], k)

    def range(self, lo, hi, k=0):
        return self.extrema(lo[..., self.axis], hi[..., self.axis], k)

    def bound(self, lo, hi, k):
        """sup over the box of |d^k f / dx[axis]^k|, the one nonzero term of
        order k."""
        low, high = self.range(lo, hi, k)
        return np.maximum(-low, high)


def _unit_profile(t, k):
    """f = 1: the flat charts."""
    return np.full(np.shape(t), 1.0 if k == 0 else 0.0)


def _unit_extrema(t0, t1, k):
    value = np.full(np.shape(t0), 1.0 if k == 0 else 0.0)
    return value, value


def _sine_profile(a: float, w: float) -> Callable:
    """f = 1 + a sin(w t): d^k f = a w^k (sin, cos, -sin, -cos)(w t)."""

    def profile(t, k):
        if k == 0:
            return 1.0 + a * np.sin(w * t)
        trig = np.cos if k % 2 else np.sin
        sign = 1.0 if k % 4 < 2 else -1.0
        return sign * (a * w**k) * trig(w * t)

    return profile


def _sine_extrema(a: float, w: float) -> Callable:
    """d^k f of f = 1 + a sin(w t) over [t0, t1]: with A = a w^k,
    d^k f = [k = 0] + |A| sin(w t + shift), shift = k pi/2 (+ pi if A < 0).
    Its range holds the endpoint values, and [k = 0] -+ |A| where w t + shift
    meets a trough -pi/2 + 2 pi j or a crest pi/2 + 2 pi j."""
    profile = _sine_profile(a, w)

    def extrema(t0, t1, k):
        amp = a * w**k
        base = 1.0 if k == 0 else 0.0
        shift = k * np.pi / 2 + (np.pi if amp < 0 else 0.0)
        f0, f1 = profile(t0, k), profile(t1, k)
        s0, s1 = np.minimum(w * t0, w * t1), np.maximum(w * t0, w * t1)

        def meets(phase):
            return np.ceil((s0 - phase) / (2 * np.pi)) <= np.floor((s1 - phase) / (2 * np.pi))

        return (np.where(meets(-np.pi / 2 - shift), base - abs(amp), np.minimum(f0, f1)),
                np.where(meets(np.pi / 2 - shift), base + abs(amp), np.maximum(f0, f1)))

    return extrema


def _inverse_square_profile(t, k):
    """f = t^-2: d^k f = (-1)^k (k + 1)! t^-(k + 2)."""
    if k == 0:
        return t**-2.0
    return (-1) ** k * math.factorial(k + 1) / t ** (k + 2)


def _inverse_square_extrema(t0, t1, k):
    """Each d^k f of f = t^-2 is monotone on t > 0: the ends give its range."""
    f0, f1 = _inverse_square_profile(t0, k), _inverse_square_profile(t1, k)
    return np.minimum(f0, f1), np.maximum(f0, f1)


def _disc_jet(x, beta) -> np.ndarray:
    """f = 4 u^-2 with u = 1 - |x|^2:
    d_i f = 16 x_i u^-3,
    d_ij f = 16 delta_ij u^-3 + 96 x_i x_j u^-4,
    d_ijk f = 96 (delta_ij x_k + delta_ik x_j + delta_jk x_i) u^-4 + 768 x_i x_j x_k u^-5."""
    u = 1.0 - (x[..., 0] ** 2 + x[..., 1] ** 2)
    idx = [axis for axis, k in enumerate(beta) for _ in range(k)]
    xs = [x[..., i] for i in idx]
    if len(idx) == 0:
        return 4.0 / u**2
    if len(idx) == 1:
        return 16.0 * xs[0] / u**3
    if len(idx) == 2:
        return 16.0 * (idx[0] == idx[1]) / u**3 + 96.0 * xs[0] * xs[1] / u**4
    i, j, k = idx
    deltas = (i == j) * xs[2] + (i == k) * xs[1] + (j == k) * xs[0]
    return 96.0 * deltas / u**4 + 768.0 * xs[0] * xs[1] * xs[2] / u**5


def _disc_range(lo, hi):
    """f = 4 / (1 - |x|^2)^2 grows with |x|: its extremes over a box are at
    the box points nearest to and farthest from the origin."""
    near = 1.0 - np.sum(np.clip(0.0, lo, hi) ** 2, axis=-1)
    far = 1.0 - np.sum(np.maximum(lo**2, hi**2), axis=-1)
    return 4.0 / near**2, 4.0 / far**2


def _disc_jet_bound(lo, hi, k):
    """Every term of _disc_jet is a positive multiple of a monomial in x over
    a power of u = 1 - |x|^2, so it grows with each |x_i| and with 1/u: on
    the box each |d^beta f| is at most d^beta f at the farthest corner
    folded into x >= 0."""
    far = np.maximum(np.abs(lo), np.abs(hi))
    return sum(_disc_jet(far, beta) for beta in multi_indices(2, k))


# -- catalog: distances -----------------------------------------------


def _sq_norm(d):
    """sum_i d[..., i]^2 term by term: a numpy reduction over a last axis
    of length 2 or 3 costs several times the arithmetic."""
    total = d[..., 0] ** 2
    for i in range(1, d.shape[-1]):
        total = total + d[..., i] ** 2
    return total


def _dist_euclidean(chart, x, y):
    return np.sqrt(_sq_norm(x - y))


def _dist_torus(chart, x, y):
    """Per axis |x - y| folded into [0, L), then the shorter way round."""
    L = chart.params["L"]
    d = np.fmod(np.abs(x - y), L)
    d = np.minimum(d, L - d)
    return np.sqrt(_sq_norm(d))


def _dist_halfplane(chart, x, y):
    dx2 = _sq_norm(x - y)
    arg = 1.0 + dx2 / (2.0 * x[..., 1] * y[..., 1])
    return np.arccosh(np.maximum(arg, 1.0))


def _dist_poincare_ball(chart, x, y):
    dx2 = _sq_norm(x - y)
    den = (1.0 - _sq_norm(x)) * (1.0 - _sq_norm(y))
    arg = 1.0 + 2.0 * dx2 / den
    return np.arccosh(np.maximum(arg, 1.0))


def _dist_chord(chart, x, y):
    """Length of the straight chart segment in the conformal metric, on a
    chart whose jet is an AxisProfile: |y - x| times the mean of sqrt(f)
    along the segment, which depends only on the pair (x_a, y_a) of the
    profile's coordinate.  The quadrature runs once per distinct pair and
    is gathered back; lattice and grid callers repeat few pairs many
    times."""
    axis = chart.jet.axis
    # numpy 1.x returns every inverse flat: the reshapes restore the shapes
    ux, ix = np.unique(x[..., axis], return_inverse=True)
    uy, iy = np.unique(y[..., axis], return_inverse=True)
    key = ix.reshape(x.shape[:-1]) * len(uy) + iy.reshape(y.shape[:-1])
    pair, ip = np.unique(key, return_inverse=True)
    mean = _chord_mean(chart, ux[pair // len(uy)], uy[pair % len(uy)])
    return np.sqrt(_sq_norm(y - x)) * mean[ip].reshape(key.shape)


def _chord_mean(chart, xa, ya):
    """The Gauss-Legendre mean of sqrt(f) from x_a = xa to ya."""
    t = xa[:, None] + _GL_X * (ya - xa)[:, None]
    return np.sum(_GL_W * np.sqrt(chart.jet.profile(t, 0)), axis=-1)


# -- catalog: the ball's section of each row (see MetricChart) ----------


def _section_disc(chart, c, R, x1):
    """The ball is the Euclidean disc inscribed in its square box (on the
    torus ball_bbox admits only R <= L/2, so no other image comes nearer)."""
    lo, hi = chart._ball_box(chart, c, R)
    return (lo + hi) / 2, np.full(np.shape(x1), (hi[0] - lo[0]) / 2)


def _section_chord(chart, c, R, x1):
    """The chord is |x - c| M(x_1, c_1), and a row fixes x_1: there the ball
    is the disc about c of radius R / M."""
    return c, R / _chord_mean(chart, x1, np.full(np.shape(x1), c[0]))


# -- catalog: boxes that contain geodesic balls ------------------------
# Each takes centers c (..., n) and radii R (...) and returns (lo, hi).


def _box_flat(chart, c, R):
    """f constant: the ball is the chart ball of radius R / sqrt(f)."""
    w = (R / np.sqrt(chart.conformal_factor(c)))[..., None]
    return c - w, c + w


def _box_perturbed(chart, c, R):
    """f >= 1 - a keeps every curve of length <= R from c inside the slab
    |x1 - c1| <= R / sqrt(1 - a); with m the least f on that slab the
    curve has chart length <= R / sqrt(m), so the ball lies in
    c +- R / sqrt(m)."""
    reach = (R / math.sqrt(1.0 - chart.params["a"]))[..., None]
    m, _ = chart.factor_range(c - reach, c + reach)
    w = (R / np.sqrt(m))[..., None]
    return c - w, c + w


def _box_halfplane(chart, c, R):
    """B((x0, y0), R) is the Euclidean disc with center (x0, y0 cosh R) and
    radius y0 sinh R: x0 +- y0 sinh R across, y0 e^-R to y0 e^R up."""
    x0, y0 = c[..., 0], c[..., 1]
    half = y0 * np.sinh(R)
    return np.stack([x0 - half, y0 * np.exp(-R)], -1), np.stack([x0 + half, y0 * np.exp(R)], -1)


def _box_disc(chart, c, R):
    """B(c, R) is the Euclidean disc whose diameter along c / |c| runs from
    tanh((s - R)/2) to tanh((s + R)/2), where s = 2 artanh |c|."""
    rho = np.linalg.norm(c, axis=-1)
    s = 2.0 * np.arctanh(rho)
    t1, t2 = np.tanh((s - R) / 2.0), np.tanh((s + R) / 2.0)
    unit = np.divide(c, rho[..., None], out=np.zeros_like(c), where=rho[..., None] > 0)
    mid = unit * ((t1 + t2) / 2.0)[..., None]
    half = ((t2 - t1) / 2.0)[..., None]
    return mid - half, mid + half


CATALOG = ("euclidean", "perturbed-euclidean", "hyperbolic-halfplane", "hyperbolic-ball", "flat-torus")


def _finite(label: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{label} must be finite, got {value}")
    return value


def _dim(name: str, params: dict, allowed: tuple[int, ...]) -> int:
    n = int(params.get("n", 2))
    if n not in allowed:
        raise DomainError(f"{name} chart supports n = {' or '.join(map(str, allowed))}, got {n}")
    return n


def _box(name: str, params: dict, default, n: int):
    """(lo, hi) of the box parameter: n finite, non-empty [lo, hi] pairs."""
    box = params.get("box", default)
    if len(box) != n:
        raise DomainError(f"{name} box needs {n} intervals, got {len(box)}")
    lo = [_finite("box bound", b[0]) for b in box]
    hi = [_finite("box bound", b[1]) for b in box]
    if not all(l < h for l, h in zip(lo, hi)):
        raise DomainError(f"{name} box has an empty interval")
    return lo, hi


def make_chart(name: str, **params) -> MetricChart:
    """Instantiate a catalog chart by name.

    Accepted parameters: n (2 or 3 on euclidean, perturbed-euclidean and
    flat-torus; 2 on the hyperbolic models), box (all non-periodic
    models, list of per-axis [lo, hi]), a and frequency (perturbed
    euclidean), L (flat torus side).
    """
    if name == "euclidean":
        n = _dim(name, params, (2, 3))
        lo, hi = _box(name, params, [[0.0, 10.0]] * n, n)
        jet = AxisProfile(0, _unit_profile, _unit_extrema)
        return MetricChart(name, n, lo, hi, (False,) * n, _dist_euclidean, jet, jet.range,
                           jet.bound, _section_disc, _box_flat, params)
    if name == "perturbed-euclidean":
        n = _dim(name, params, (2, 3))
        a = _finite("perturbation amplitude", params.get("a", 0.1))
        freq = _finite("frequency", params.get("frequency", 1.0))
        if not 0 <= a < 1:
            raise DomainError(f"perturbation amplitude must be in [0, 1), got {a}")
        lo, hi = _box(name, params, [[0.0, 10.0]] * n, n)
        jet = AxisProfile(0, _sine_profile(a, freq), _sine_extrema(a, freq))
        return MetricChart(name, n, lo, hi, (False,) * n, _dist_chord, jet, jet.range,
                           jet.bound, _section_chord, _box_perturbed, {"a": a, "frequency": freq})
    if name == "hyperbolic-halfplane":
        _dim(name, params, (2,))
        lo, hi = _box(name, params, [[-2.0, 2.0], [0.25, 4.0]], 2)
        if lo[1] <= 0:
            raise DomainError("half-plane box must satisfy y > 0")
        jet = AxisProfile(1, _inverse_square_profile, _inverse_square_extrema)
        return MetricChart(name, 2, lo, hi, (False, False), _dist_halfplane, jet, jet.range,
                           jet.bound, _section_disc, _box_halfplane, params)
    if name == "hyperbolic-ball":
        _dim(name, params, (2,))
        lo, hi = _box(name, params, [[-0.6, 0.6], [-0.6, 0.6]], 2)
        corner = math.hypot(max(abs(lo[0]), abs(hi[0])), max(abs(lo[1]), abs(hi[1])))
        if corner >= 1.0:
            raise DomainError("hyperbolic-ball box must stay inside the unit disc")
        return MetricChart(name, 2, lo, hi, (False, False), _dist_poincare_ball, _disc_jet,
                           _disc_range, _disc_jet_bound, _section_disc, _box_disc, params)
    if name == "flat-torus":
        n = _dim(name, params, (2, 3))
        L = _finite("torus side L", params.get("L", 2 * math.pi))
        if not L > 0:
            raise DomainError(f"torus side L must be positive, got {L}")
        jet = AxisProfile(0, _unit_profile, _unit_extrema)
        return MetricChart(name, n, [0.0] * n, [L] * n, (True,) * n, _dist_torus, jet, jet.range,
                           jet.bound, _section_disc, _box_flat, {"L": L})
    raise DomainError(f"unknown model {name!r}; catalog: {', '.join(CATALOG)}")


# -- connection ----------------------------------------------------


def _require_inside(chart: MetricChart, x):
    if not np.all(chart.contains(x)):
        raise DomainError(f"point outside the working domain of chart {chart.name}")


def _phi_jet(chart: MetricChart, x, order: int) -> list:
    """[d phi, d^2 phi, d^3 phi][:order] of phi = (1/2) log f, as full
    symmetric arrays with the derivative axes last."""
    n = chart.n
    f = chart.conformal_factor(x)
    jets = []  # d^k f / f as full arrays
    evaluated = {}
    for k in range(1, order + 1):
        arr = np.empty(x.shape[:-1] + (n,) * k)
        for idx in itertools.product(range(n), repeat=k):
            beta = tuple(idx.count(a) for a in range(n))
            if beta not in evaluated:
                evaluated[beta] = chart.conformal_derivative(x, beta) / f
            arr[(...,) + idx] = evaluated[beta]
        jets.append(arr)
    u = jets[0]  # d log f
    out = [0.5 * u]
    if order >= 2:
        uu = u[..., :, None] * u[..., None, :]
        out.append(0.5 * (jets[1] - uu))
    if order >= 3:
        h = jets[1]
        sym = (h[..., :, :, None] * u[..., None, None, :] + h[..., :, None, :] * u[..., None, :, None]
               + h[..., None, :, :] * u[..., :, None, None])
        out.append(0.5 * (jets[2] - sym) + uu[..., None] * u[..., None, None, :])
    return out


def _gamma_map(v: np.ndarray) -> np.ndarray:
    """v (..., a) -> (..., i, k, j) = delta_ik v_j + delta_ij v_k - delta_kj v_i.

    On v = d phi this is Gamma^i_kj; on d_m d phi (axes (..., m, a)) it is
    d_m Gamma^i_kj, and so on for higher derivatives.
    """
    eye = np.eye(v.shape[-1])
    return (eye[:, :, None] * v[..., None, None, :] + eye[:, None, :] * v[..., None, :, None]
            - eye * v[..., :, None, None])


def christoffel(chart: MetricChart, x) -> np.ndarray:
    """Levi-Civita Christoffel symbols Gamma^i_{kj}, axes (..., i, k, j)."""
    x = np.asarray(x, dtype=float)
    _require_inside(chart, x)
    return _gamma_map(_phi_jet(chart, x, 1)[0])


def christoffel_derivative(chart: MetricChart, x) -> np.ndarray:
    """Analytic first derivatives d_m Gamma^i_{kj}, axes (..., m, i, k, j)."""
    x = np.asarray(x, dtype=float)
    _require_inside(chart, x)
    return _gamma_map(_phi_jet(chart, x, 2)[1])


# -- geodesic balls in chart coordinates ------------------------------


def ball_bbox(chart: MetricChart, center, radius):
    """(lo, hi, inside): the model's closed-form chart box that contains the
    geodesic ball B(center, radius), and whether the ball fits the working
    domain, which holds when the box lies within [lo, hi] on every
    non-periodic axis and spans at most one period on a periodic one (a
    wider ball wraps onto itself).  center (..., n) and radius (...) may
    carry leading axes of balls."""
    center = np.asarray(center, dtype=float)
    radius = np.asarray(radius, dtype=float)
    lo, hi = chart._ball_box(chart, center, radius)
    inside = np.all(np.where(chart.periodic, hi - lo <= chart.hi - chart.lo,
                             (lo >= chart.lo) & (hi <= chart.hi)), axis=-1)
    return lo, hi, inside


def _ball_radius(radius) -> float:
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"ball radius must be finite and positive, got {radius}")
    return radius


def rounding_slack(radius):
    """Margin by which a closed-form bound must clear a radius before it
    settles d <= radius without the distance: arccosh rounds d near 0 by
    up to ~2e-8, the other kernels far less."""
    return 1e-7 + 1e-9 * radius


def _ball_rows(chart: MetricChart, center, radius: float, res: int):
    """Blocks (nodes, weights) of a quadrature over B(center, radius).

    Rows along the last axis run through the midpoints of 2 res cells per
    axis of the ball's box on the other axes.  The chart's section says
    each row meets the ball in one interval, |x_last - mid_last| <= half
    with half^2 = r^2 - |x_rest - mid_rest|^2, taken once per distinct
    x_1; each row that meets it carries the 16 Gauss-Legendre nodes of
    that interval, with weights that sum to its length times the rows'
    cell.  Nodes stay in the box's coordinates (a periodic axis is not
    folded back), and a block holds at most 2^18 of them."""
    center = np.asarray(center, dtype=float)
    radius = _ball_radius(radius)
    n = chart.n
    if center.shape != (n,):
        raise DomainError(f"ball center needs shape ({n},) on chart {chart.name}, got {center.shape}")
    lo, hi, inside = ball_bbox(chart, center, radius)
    if not inside:
        raise DomainError("geodesic ball exits the working domain")
    h = (hi - lo)[:-1] / (2 * res)
    axes = [lo[i] + (np.arange(2 * res) + 0.5) * h[i] for i in range(n - 1)]
    mid, r = chart._section(chart, center, radius, axes[0])
    rows = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
    sq = np.repeat(r**2, len(rows) // len(r)) - _sq_norm(rows - mid[:-1])
    rows, half = rows[sq > 0], np.sqrt(sq[sq > 0])
    cell = float(np.prod(h))
    per_block = (1 << 18) // len(_GL_X)
    for start in range(0, len(rows), per_block):
        block = slice(start, start + per_block)
        nodes = np.empty((len(half[block]), len(_GL_X), n))
        nodes[..., :-1] = rows[block, None, :]
        nodes[..., -1] = mid[-1] + half[block, None] * (2 * _GL_X - 1)
        weights = (2 * cell * half[block])[:, None] * _GL_W
        yield nodes.reshape(-1, n), weights.ravel()


def volume_of_ball(chart: MetricChart, center, radius: float, quadrature_resolution: int = 256) -> float:
    """Riemannian volume of a geodesic ball: the sum of sqrt_det times the
    weights over the nodes of `_ball_rows`, a midpoint rule over
    2 res rows per axis across the last one and Gauss-Legendre along
    each row's exact section of the ball.  On perturbed-Euclidean the
    section, and so the volume, is that of the chord ball."""
    res = int(quadrature_resolution)
    if res < 1:
        raise DomainError(f"quadrature resolution must be at least 1, got {res}")
    return sum(float(np.sum(weights * chart.sqrt_det(nodes)))
               for nodes, weights in _ball_rows(chart, center, radius, res))


# -- the Christoffel-control bound ------------------------------------


def cmt_bound_check(chart: MetricChart, center, radius: float, m: int) -> dict:
    """Smallest C with |d^{k-1} Gamma| <= C * sum_{|b|<=k} sup_ij |d^b g_ij|
    over the nodes of the ball's quadrature (`_ball_rows`), for every k <= m.
    """
    if m < 1:
        raise CapabilityError("need derivative order m >= 1")
    if m > M_MAX:
        raise CapabilityError(f"metric derivatives available up to order {M_MAX}")
    radius = _ball_radius(radius)
    res = max(9, int(math.ceil(2 * radius * CMT_SAMPLE_DENSITY)) + 1)
    pts = np.concatenate([nodes for nodes, _ in _ball_rows(chart, center, radius, res)])
    n = chart.n
    jet = _phi_jet(chart, pts, m)
    rhs = np.abs(chart.conformal_factor(pts))  # |beta| = 0 term (g_ij itself)
    witness = 0.0
    for k in range(1, m + 1):
        # every entry of _gamma_map(v) is v_j, v_k, -v_i, (v_i + v_i) - v_i or 0, and
        # for n >= 2 each v_a is one of them: the largest entry is max |v|
        lhs = np.max(np.abs(jet[k - 1]).reshape(len(pts), -1), axis=1)
        for beta in multi_indices(n, k):
            rhs = rhs + np.abs(chart.conformal_derivative(pts, beta))
        witness = max(witness, float(np.max(lhs / rhs)))
    return {"holds": math.isfinite(witness), "witness_constant": witness, "m": m, "samples": len(pts)}
