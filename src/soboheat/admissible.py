"""Admissible radius fields for conformally flat charts.

A geodesic ball B(c, R) is admissible at order m and band width eps when,
in the chart rescaled and recentered at c (xi = sqrt(f(c)) (x - c), in
which the metric is f(x)/f(c) delta_ij and equals delta at the center):

  1. the metric stays in the band:  1 - eps <= f(x)/f(c) <= 1 + eps
     everywhere on the ball, and
  2. the derivative sum is small:
     sum_{1 <= |b| <= m} R^|b| sup_ball |d^b_xi (f/f(c))| <= eps,
     where d^b_xi (f/f(c)) = f(c)^(-1-|b|/2) d^b_x f.

R'(c) is the supremal admissible radius (capped by the working domain
and by R_CAP, since only min(1, R'/2) is ever used), found by bracketing
plus bisection on the monotone predicate; the admissible radius is
R(c) = min(1, R'(c)/2).  R' is 1-Lipschitz in geodesic distance and the
field satisfies slow variation: R(y) in [R(x)/2, 2 R(x)] on B(x, R(x)).

Both suprema are bounded in closed form over a chart box that contains
the ball (geometry.ball_bbox): the exact range of f over the box, and
per order k a bound on sum_{|b| = k} sup |d^b f| (MetricChart.jet_bound).
So a radius that passes really is admissible; nothing is sampled and no
distance is evaluated.  On a flat chart both conditions hold exactly and
only the fit decides.

A radius field runs the search of all its centers in lockstep, with one
vectorised predicate evaluation per round; is_admissible and
admissible_radius are the same code on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import M_MAX, PAIR_BUDGET, DomainError, Lattice, MetricChart, ball_bbox, budget_blocks

R_CAP = 2.5  # radii beyond this never affect min(1, R'/2)


class DegeneratePointError(DomainError):
    """No admissible radius above the bisection tolerance."""


@dataclass(frozen=True)
class AdmissibilityParams:
    m: int = 2
    eps: float = 0.2
    bisection_tol: float = 1e-3

    def __post_init__(self):
        if not 1 <= self.m <= M_MAX:
            raise DomainError(f"derivative order m must lie in 1..{M_MAX}")
        if not 0 < self.eps <= 1 / 3 + 1e-12:
            raise DomainError("eps must lie in (0, 1/3]")
        if not (math.isfinite(self.bisection_tol) and self.bisection_tol > 0):
            raise DomainError(f"bisection tolerance must be finite and positive, got {self.bisection_tol}")


def _admissible(chart: MetricChart, centers, radii, params: AdmissibilityParams) -> np.ndarray:
    """The admissibility predicate at every (centers[j], radii[j]), from
    the closed-form bounds of each ball's box: the box decides the fit,
    factor_range the band, and jet_bound the derivative sum."""
    ok = ~(radii <= 0)
    if chart.is_flat:
        # constant metric: both conditions hold exactly; only the
        # domain containment can fail
        return ok & (_flat_cap(chart, centers) >= radii)
    lo, hi, fits = ball_bbox(chart, centers, radii)
    j = np.flatnonzero(ok & fits)
    lo, hi, R = lo[j], hi[j], radii[j]
    fc = chart.conformal_factor(centers[j])
    f_min, f_max = chart.factor_range(lo, hi)
    total = np.zeros(len(j))
    for k in range(1, params.m + 1):
        total += R**k * (chart.jet_bound(lo, hi, k) / fc ** (1 + k / 2))
    ok = np.zeros(len(radii), dtype=bool)
    ok[j] = ~((f_min / fc < 1 - params.eps) | (f_max / fc > 1 + params.eps) | (total > params.eps))
    return ok


def is_admissible(chart: MetricChart, center, R: float, params: AdmissibilityParams) -> bool:
    """Both admissibility conditions on B(center, R), from closed-form
    bounds over the ball's box."""
    center = np.asarray(center, dtype=float)
    return bool(_admissible(chart, center[None], np.array([R], dtype=float), params)[0])


def _flat_cap(chart: MetricChart, centers):
    """Domain cap on a constant-factor chart, in closed form: the ball box
    is center +- R / sqrt(f), so the cap is sqrt(f) times the chart gap to
    the nearest face, or half the period on a periodic axis."""
    gap = np.where(chart.periodic, (chart.hi - chart.lo) / 2.0,
                   np.minimum(centers - chart.lo, chart.hi - centers))
    f = chart.conformal_factor(centers)
    return np.minimum(R_CAP, np.maximum(np.min(gap, axis=-1), 0.0) * np.sqrt(f))


def domain_cap(chart: MetricChart, center, tol: float = 1e-3):
    """Largest radius (up to R_CAP) whose ball fits the working domain by
    the rule of geometry.ball_bbox, less tol on a non-flat chart.  center
    is one point (n,) or points (..., n); the caps take its leading shape.

    The ball box grows with the radius, so the rule is bisected between 0
    and R_CAP down to rounding.
    """
    center = np.asarray(center, dtype=float)
    if chart.is_flat:
        return _flat_cap(chart, center)
    lo = np.zeros(center.shape[:-1])
    hi = np.full(center.shape[:-1], R_CAP)
    at_cap = ball_bbox(chart, center, hi)[2]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fits = ball_bbox(chart, center, mid)[2]
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)
    return np.maximum(np.where(at_cap, R_CAP, lo) - tol, 0.0)


_TEST, _BRACKET, _BISECT, _DONE = range(4)  # per-center phases of _radii


def _radii(chart: MetricChart, centers, params: AdmissibilityParams):
    """(R', R, truncated, iterations, degenerate) at every center.

    Each center runs the same search: a degeneracy test at the bisection
    tolerance, bracket doubling from min(1, cap) up to the domain cap,
    then bisection down to the tolerance.  The centers advance in
    lockstep, with one batched predicate call per round over the
    unresolved ones; iterations counts a center's bracket and bisection
    steps.
    """
    N = len(centers)
    tol = params.bisection_tol
    cap = domain_cap(chart, centers, tol)
    r_prime = np.zeros(N)
    truncated = np.zeros(N, dtype=bool)
    iterations = np.zeros(N, dtype=int)
    degenerate = cap <= tol
    lo = np.full(N, tol)
    hi = np.zeros(N)
    R = np.minimum(1.0, cap)
    phase = np.where(degenerate, _DONE, _TEST)
    while True:
        act = np.flatnonzero(phase != _DONE)
        if len(act) == 0:
            break
        p = phase[act]
        radius = np.where(p == _TEST, tol,
                          np.where(p == _BRACKET, R[act], 0.5 * (lo[act] + hi[act])))
        ok = _admissible(chart, centers[act], radius, params)
        iterations[act[p != _TEST]] += 1
        test, passed = act[p == _TEST], ok[p == _TEST]
        degenerate[test[~passed]] = True
        phase[test] = np.where(passed, _BRACKET, _DONE)
        # bracket doubling: stop at the cap (truncated) or at the first failure
        up, down = act[(p == _BRACKET) & ok], act[(p == _BRACKET) & ~ok]
        lo[up] = R[up]
        at_cap = R[up] >= cap[up] - 1e-15
        stop, grow = up[at_cap], up[~at_cap]
        r_prime[stop], truncated[stop], phase[stop] = cap[stop], True, _DONE
        R[grow] = np.minimum(2 * R[grow], cap[grow])
        hi[down], phase[down] = R[down], _BISECT
        bis = p == _BISECT
        lo[act[bis & ok]] = radius[bis & ok]
        hi[act[bis & ~ok]] = radius[bis & ~ok]
        # a tolerance below the float spacing ends where the midpoint stops splitting
        mid = 0.5 * (lo + hi)
        narrow = (phase == _BISECT) & ~((hi - lo > tol) & (lo < mid) & (mid < hi))
        r_prime[narrow], phase[narrow] = lo[narrow], _DONE
    return r_prime, np.minimum(1.0, r_prime / 2.0), truncated, iterations, degenerate


def admissible_radius(chart: MetricChart, center, params: AdmissibilityParams):
    """Supremal admissible radius R' and R = min(1, R'/2) at one center.

    Returns (R_prime, R_eps, truncated, iterations); truncated means the
    predicate still held at the domain cap, so R_prime is a lower bound.
    """
    center = np.asarray(center, dtype=float)
    if not np.all(chart.contains(center)):
        raise DomainError("center outside the working domain")
    r_prime, r_eps, truncated, iterations, degenerate = _radii(chart, center[None], params)
    if degenerate[0]:
        raise DegeneratePointError(
            f"no admissible radius above {params.bisection_tol} at {center.tolist()}")
    return float(r_prime[0]), float(r_eps[0]), bool(truncated[0]), int(iterations[0])


@dataclass
class RadiusField:
    chart: MetricChart
    params: AdmissibilityParams
    points: np.ndarray  # (N, n)
    r_prime: np.ndarray  # (N,)
    r_eps: np.ndarray  # (N,)
    truncated: np.ndarray  # (N,) bool
    iterations: np.ndarray  # (N,) int
    degenerate: np.ndarray  # (N,) bool

    def lower_bound_at(self, query) -> np.ndarray:
        """Certified R values at arbitrary points via the 1-Lipschitz
        property: R'(q) >= max_j (R'(p_j) - d(q, p_j))."""
        query = np.asarray(query, dtype=float).reshape(-1, self.chart.n)
        good = ~self.degenerate
        rp = self.r_prime[good]
        lb = np.empty(len(query))
        for start, d in _distance_rows(self.chart, query, self.points[good]):
            # 0 where every center is degenerate
            lb[start:start + len(d)] = np.max(rp[None, :] - d, axis=1, initial=0.0)
        return np.minimum(1.0, lb / 2.0)

    def to_csv(self, path):
        n = self.chart.n
        header = ",".join([f"x{i+1}" for i in range(n)] + ["R_prime", "R_eps", "truncated", "iterations"])
        rows = [header]
        for j in range(len(self.points)):
            cells = [f"{v:.10g}" for v in self.points[j]]
            cells += [f"{self.r_prime[j]:.10g}", f"{self.r_eps[j]:.10g}",
                      str(int(self.truncated[j])), str(int(self.iterations[j]))]
            rows.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")


def radius_field(chart: MetricChart, grid_points, params: AdmissibilityParams) -> RadiusField:
    """admissible_radius at every center of a list/grid (row-major
    order), all centers searched together; degenerate centers get
    R' = R = 0 and degenerate = True."""
    pts = np.asarray(grid_points, dtype=float).reshape(-1, chart.n)
    if not np.all(chart.contains(pts)):
        raise DomainError("center outside the working domain")
    return RadiusField(chart, params, pts, *_radii(chart, pts, params))


def grid_centers(chart: MetricChart, per_axis, margin: float = 0.0, box=None) -> np.ndarray:
    """The per_axis Lattice points over a box (None: the working box),
    laid out by MetricChart.lattice_box: shrunk by margin on every axis
    but one that spans a whole period, which leaves out its repeated end.
    Raises DomainError when the margin empties the box."""
    lo, hi, endpoint = chart.lattice_box(box, margin)
    return Lattice(lo, hi, per_axis, endpoint).points


def _distance_rows(chart: MetricChart, x, y):
    """(start, d) per block of rows of the x x y distance matrix: d[a, b] =
    d(x[start + a], y[b]), at most PAIR_BUDGET pairs per block (a row
    longer than that is a block of its own)."""
    for start, stop in budget_blocks(np.full(len(x), len(y)), PAIR_BUDGET):
        yield start, chart.distance(x[start:stop, None, :], y[None, :, :])


def check_slow_variation(fld: RadiusField) -> dict:
    """R(y) in [R(x)/2 - tol, 2 R(x) + tol] for all sampled y in B(x, R(x))."""
    good = ~fld.degenerate
    pts = fld.points[good]
    re = fld.r_eps[good]
    tol = 2 * fld.params.bisection_tol
    checked, violations, first = 0, 0, []
    for start, d in _distance_rows(fld.chart, pts, pts):
        rx = re[start:start + len(d), None]
        within = d <= rx
        bad = within & ~((re[None, :] >= rx / 2.0 - tol) & (re[None, :] <= 2.0 * rx + tol))
        checked += int(within.sum())
        violations += int(bad.sum())
        if len(first) < 20:
            first += (np.argwhere(bad) + [start, 0])[:20 - len(first)].tolist()
    return {"pairs_checked": checked, "violations": violations, "violating_pairs": first}


def check_lipschitz(fld: RadiusField) -> dict:
    """|R'(x) - R'(y)| <= d(x, y) + tol over non-truncated sample pairs."""
    good = ~fld.degenerate & ~fld.truncated
    pts = fld.points[good]
    rp = fld.r_prime[good]
    if len(pts) < 2:
        return {"pairs_checked": 0, "violations": 0, "max_excess": 0.0}
    tol = 2 * fld.params.bisection_tol
    violations, worst = 0, -np.inf
    for start, d in _distance_rows(fld.chart, pts, pts):
        rows = np.arange(len(d))
        excess = np.abs(rp[start:start + len(d), None] - rp[None, :]) - d - tol
        excess[rows, start + rows] = -np.inf
        violations += int(np.count_nonzero(excess > 0))
        worst = float(np.max(excess, initial=worst))
    return {"pairs_checked": int(len(pts) * (len(pts) - 1)), "violations": violations,
            "max_excess": worst}


def uniform_lower_bound(fld: RadiusField) -> float:
    """min R over non-truncated samples (all samples when every center is
    domain-truncated, as on flat models)."""
    good = ~fld.degenerate
    nontrunc = good & ~fld.truncated
    sel = nontrunc if nontrunc.any() else good
    if not sel.any():
        return 0.0
    return float(np.min(fld.r_eps[sel]))
