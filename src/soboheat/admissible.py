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

A radius field runs the search of all its centers in lockstep, with one
batched predicate evaluation per round over at most POINT_BUDGET sample
points at a time; is_admissible and admissible_radius are the same code
on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DomainError,
    MetricChart,
    ball_bbox,
    ball_sample_points,
    budget_blocks,
    grid_points,
    multi_indices_up_to,
)

R_CAP = 2.5  # radii beyond this never affect min(1, R'/2)
POINT_BUDGET = 1 << 16  # sample points per batched predicate evaluation


class DegeneratePointError(DomainError):
    """No admissible radius above the bisection tolerance."""


@dataclass(frozen=True)
class AdmissibilityParams:
    m: int = 2
    eps: float = 0.2
    sample_density: float = 16.0
    bisection_tol: float = 1e-3

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("derivative order m must be >= 1")
        if not 0 < self.eps <= 1 / 3 + 1e-12:
            raise DomainError("eps must lie in (0, 1/3]")
        if self.sample_density < 8:
            raise DomainError("sample_density must be >= 8")


def _polar_shape(R: float, params: AdmissibilityParams) -> tuple[int, int]:
    """(rays, points per ray) of the polar sample of a 2-D ball of radius R."""
    J = max(48, int(math.ceil(2 * math.pi * R * params.sample_density)))
    K = max(6, int(math.ceil(R * params.sample_density)))
    return J, K


def _grid_per_axis(R: float, params: AdmissibilityParams) -> int:
    return max(9, int(math.ceil(2 * R * params.sample_density)) + 1)


def _sample_size(chart: MetricChart, R: float, params: AdmissibilityParams) -> int:
    """Upper bound on the sample points of a ball of radius R."""
    if chart.n == 2:
        J, K = _polar_shape(R, params)
        return J * K + 1
    return _grid_per_axis(R, params) ** chart.n


def _polar_ball_samples(chart: MetricChart, centers, radii, params: AdmissibilityParams) -> list:
    """Polar samples of 2-D geodesic balls B(centers[j], radii[j]): one
    point array per ball, None where the ball does not fit the domain.

    Ray lengths to the geodesic spheres are found by one vectorized
    bisection over the rays of all the balls, so each boundary ring is
    sampled exactly.  The pattern is built from the center, making it
    equivariant under chart isometries that fix the sampling resolution
    (e.g. rotations of the disc model) — an axis-aligned grid would bias
    the sup in condition 2 by orientation.
    """
    samples = [None] * len(radii)
    box_lo, box_hi, fits = ball_bbox(chart, centers, radii)
    idx = np.flatnonzero(fits)
    if len(idx) == 0:
        return samples
    shapes = [_polar_shape(R, params) for R in radii.tolist()]
    rays = np.array([shapes[j][0] for j in idx])
    dirs = {}
    for J in set(rays.tolist()):
        theta = 2 * math.pi * np.arange(J) / J
        dirs[J] = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    u = np.concatenate([dirs[J] for J in rays.tolist()])
    c = np.repeat(centers[idx], rays, axis=0)
    r = np.repeat(radii[idx], rays)
    # each ray meets its geodesic sphere before it leaves the ball's box;
    # bisect d(center, center + t u) = R between the center and that exit
    gap = np.where(u > 0, np.repeat(box_hi[idx], rays, axis=0) - c,
                   c - np.repeat(box_lo[idx], rays, axis=0))
    with np.errstate(divide="ignore"):
        hi = np.min(gap / np.abs(u), axis=1)
    lo = np.zeros(len(u))
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        inside = chart.distance(chart.wrap(c + mid[:, None] * u), c) < r
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    t_sphere = 0.5 * (lo + hi)
    first = 0
    for j in idx.tolist():
        J, K = shapes[j]
        t, uj = t_sphere[first:first + J], u[first:first + J]
        first += J
        s = (np.arange(1, K + 1) / K)[:, None]
        pts = centers[j][None, None, :] + (s * t[None, :])[:, :, None] * uj[None, :, :]
        samples[j] = np.concatenate([centers[j][None, :], chart.wrap(pts.reshape(-1, 2))], axis=0)
    return samples


def _ball_samples(chart: MetricChart, centers, radii, params: AdmissibilityParams) -> list:
    """Samples of geodesic balls, None for those that do not fit the
    domain; in 3-D each ball is sampled on its own grid."""
    if chart.n == 2:
        return _polar_ball_samples(chart, centers, radii, params)
    fits = ball_bbox(chart, centers, radii)[2]
    return [ball_sample_points(chart, center, R, _grid_per_axis(R, params))[0] if ok else None
            for center, R, ok in zip(centers, radii.tolist(), fits.tolist())]


def _conditions_hold(chart: MetricChart, centers, radii, params: AdmissibilityParams) -> np.ndarray:
    """Both admissibility conditions on the samples of each B(centers[j], radii[j])."""
    samples = _ball_samples(chart, centers, radii, params)
    ok = np.array([pts is not None for pts in samples])
    idx = np.flatnonzero(ok)
    if len(idx) == 0:
        return ok
    sizes = np.array([len(samples[j]) for j in idx])
    pts = np.concatenate([samples[j] for j in idx], axis=0)
    fc = chart.conformal_factor(centers[idx])
    ratio = chart.conformal_factor(pts) / np.repeat(fc, sizes)
    starts = np.cumsum(sizes) - sizes
    band = ~((np.minimum.reduceat(ratio, starts) < 1 - params.eps)
             | (np.maximum.reduceat(ratio, starts) > 1 + params.eps))
    ok[idx[~band]] = False
    if not band.any():
        return ok
    pts = pts[np.repeat(band, sizes)]
    idx, sizes, fc = idx[band], sizes[band], fc[band]
    starts = np.cumsum(sizes) - sizes
    betas = multi_indices_up_to(chart.n, params.m)
    sups = [np.maximum.reduceat(np.abs(chart.conformal_derivative(pts, beta)), starts)
            for beta in betas]
    for row, j in enumerate(idx):
        R, f = float(radii[j]), float(fc[row])
        total = 0.0
        for beta, sup in zip(betas, sups):
            k = sum(beta)
            total += R**k * (float(sup[row]) / f ** (1 + k / 2))
            if total > params.eps:
                ok[j] = False
                break
    return ok


def _admissible(chart: MetricChart, centers, radii, params: AdmissibilityParams) -> np.ndarray:
    """The admissibility predicate at every (centers[j], radii[j]).

    Balls are sampled and checked in runs of at most POINT_BUDGET sample
    points (a ball with more points is checked alone)."""
    ok = ~(radii <= 0)
    if chart.is_flat:
        # constant metric: both conditions hold exactly; only the
        # domain containment can fail
        return ok & (_flat_cap(chart, centers) >= radii)
    todo = np.flatnonzero(ok)
    sizes = [_sample_size(chart, R, params) for R in radii[todo].tolist()]
    for start, stop in budget_blocks(sizes, POINT_BUDGET):
        j = todo[start:stop]
        ok[j] = _conditions_hold(chart, centers[j], radii[j], params)
    return ok


def is_admissible(chart: MetricChart, center, R: float, params: AdmissibilityParams) -> bool:
    """Both admissibility conditions on a sample of B(center, R)."""
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
        narrow = (phase == _BISECT) & ~(hi - lo > tol)
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
    degenerate: np.ndarray = field(default=None)  # (N,) bool

    def __post_init__(self):
        if self.degenerate is None:
            self.degenerate = np.zeros(len(self.points), dtype=bool)

    def lower_bound_at(self, query) -> np.ndarray:
        """Certified R values at arbitrary points via the 1-Lipschitz
        property: R'(q) >= max_j (R'(p_j) - d(q, p_j))."""
        query = np.asarray(query, dtype=float).reshape(-1, self.chart.n)
        good = ~self.degenerate
        pts = self.points[good]
        rp = self.r_prime[good]
        d = self.chart.distance(query[:, None, :], pts[None, :, :])
        lb = np.max(rp[None, :] - d, axis=1)
        return np.minimum(1.0, np.maximum(lb, 0.0) / 2.0)

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


def grid_centers(chart: MetricChart, per_axis, margin: float = 0.0) -> np.ndarray:
    """Rectangular center grid over the working box, shrunk by margin on
    non-periodic axes; periodic axes leave out their repeated end."""
    per = np.array(chart.periodic)
    return grid_points(np.where(per, chart.lo, chart.lo + margin),
                       np.where(per, chart.hi, chart.hi - margin), per_axis, endpoint=~per)


def check_slow_variation(fld: RadiusField) -> dict:
    """R(y) in [R(x)/2 - tol, 2 R(x) + tol] for all sampled y in B(x, R(x))."""
    good = ~fld.degenerate
    pts = fld.points[good]
    re = fld.r_eps[good]
    d = fld.chart.distance(pts[:, None, :], pts[None, :, :])
    tol = 2 * fld.params.bisection_tol
    within = d <= re[:, None]
    lo_ok = re[None, :] >= re[:, None] / 2.0 - tol
    hi_ok = re[None, :] <= 2.0 * re[:, None] + tol
    bad = within & ~(lo_ok & hi_ok)
    viol = np.argwhere(bad)
    return {"pairs_checked": int(within.sum()), "violations": len(viol),
            "violating_pairs": viol[:20].tolist()}


def check_lipschitz(fld: RadiusField) -> dict:
    """|R'(x) - R'(y)| <= d(x, y) + tol over non-truncated sample pairs."""
    good = ~fld.degenerate & ~fld.truncated
    pts = fld.points[good]
    rp = fld.r_prime[good]
    if len(pts) < 2:
        return {"pairs_checked": 0, "violations": 0, "max_excess": 0.0}
    d = fld.chart.distance(pts[:, None, :], pts[None, :, :])
    tol = 2 * fld.params.bisection_tol
    excess = np.abs(rp[:, None] - rp[None, :]) - d - tol
    np.fill_diagonal(excess, -np.inf)
    viol = int(np.count_nonzero(excess > 0))
    return {"pairs_checked": int(len(pts) * (len(pts) - 1)), "violations": viol,
            "max_excess": float(np.max(excess))}


def uniform_lower_bound(fld: RadiusField) -> float:
    """min R over non-truncated samples (all samples when every center is
    domain-truncated, as on flat models)."""
    good = ~fld.degenerate
    nontrunc = good & ~fld.truncated
    sel = nontrunc if nontrunc.any() else good
    if not sel.any():
        return 0.0
    return float(np.min(fld.r_eps[sel]))
