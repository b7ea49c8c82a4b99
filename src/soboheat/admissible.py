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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DomainError,
    MetricChart,
    ball_fits_domain,
    ball_sample_points,
    flat_boundary_distance,
    grid_points,
    multi_indices_up_to,
)

R_CAP = 2.5  # radii beyond this never affect min(1, R'/2)


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


def _polar_ball_samples(chart: MetricChart, center, R: float, params: AdmissibilityParams):
    """Polar sample of a 2-D geodesic ball, or None if it exits the domain.

    Ray lengths to the geodesic sphere are found by vectorized bisection,
    so the boundary ring is sampled exactly.  The pattern is built from
    the center, making it equivariant under chart isometries that fix
    the sampling resolution (e.g. rotations of the disc model) — an
    axis-aligned grid would bias the sup in condition 2 by orientation.
    """
    center = np.asarray(center, dtype=float)
    J = max(48, int(math.ceil(2 * math.pi * R * params.sample_density)))
    K = max(6, int(math.ceil(R * params.sample_density)))
    theta = 2 * math.pi * np.arange(J) / J
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    # chart-length to the domain boundary along each ray
    t_dom = np.full(J, np.inf)
    for i in range(2):
        if chart.periodic[i]:
            continue
        with np.errstate(divide="ignore"):
            t_hi = (chart.hi[i] - center[i]) / u[:, i]
            t_lo = (chart.lo[i] - center[i]) / u[:, i]
        for t in (t_hi, t_lo):
            pos = t > 0
            t_dom[pos] = np.minimum(t_dom[pos], t[pos])
    t_dom = np.minimum(t_dom, 1e6)
    # bisect d(center, center + t u) = R on each ray
    hi = np.minimum(R / math.sqrt(chart.f_min), t_dom)
    if np.any(chart.distance(chart.wrap(center + hi[:, None] * u), center[None, :]) < R):
        return None  # some ray hits the domain boundary inside the ball
    lo = np.zeros(J)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        inside = chart.distance(chart.wrap(center + mid[:, None] * u), center[None, :]) < R
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    t_sphere = 0.5 * (lo + hi)
    s = (np.arange(1, K + 1) / K)[:, None]
    pts = center[None, None, :] + (s * t_sphere[None, :])[:, :, None] * u[None, :, :]
    pts = chart.wrap(pts.reshape(-1, 2))
    return np.concatenate([center[None, :], pts], axis=0)


def _ball_samples(chart: MetricChart, center, R: float, params: AdmissibilityParams):
    """Sample of the geodesic ball, or None when it exits the domain."""
    if chart.n == 2:
        return _polar_ball_samples(chart, center, R, params)
    if not ball_fits_domain(chart, center, R):
        return None
    per_axis = max(9, int(math.ceil(2 * R * params.sample_density)) + 1)
    pts, _ = ball_sample_points(chart, center, R, per_axis)
    return pts


def is_admissible(chart: MetricChart, center, R: float, params: AdmissibilityParams) -> bool:
    """Both admissibility conditions on a sample grid of B(center, R)."""
    center = np.asarray(center, dtype=float)
    if R <= 0:
        return False
    if chart.is_flat:
        # constant metric: both conditions hold exactly; only the
        # domain containment can fail
        return _flat_cap(chart, center) >= R
    pts = _ball_samples(chart, center, R, params)
    if pts is None:
        return False
    fc = float(chart.conformal_factor(center[None])[0])
    ratio = chart.conformal_factor(pts) / fc
    if ratio.min() < 1 - params.eps or ratio.max() > 1 + params.eps:
        return False
    total = 0.0
    for beta in multi_indices_up_to(chart.n, params.m):
        k = sum(beta)
        sup = float(np.max(np.abs(chart.conformal_derivative(pts, beta)))) / fc ** (1 + k / 2)
        total += R**k * sup
        if total > params.eps:
            return False
    return True


def _flat_cap(chart: MetricChart, center) -> float:
    """Exact domain cap for constant-factor metrics."""
    return min(R_CAP, flat_boundary_distance(chart, center))


def domain_cap(chart: MetricChart, center, tol: float = 1e-3) -> float:
    """Largest radius (up to R_CAP) whose ball stays in the working domain:
    the geodesic distance from the center to the nearest boundary face."""
    center = np.asarray(center, dtype=float)
    if chart.is_flat:
        return _flat_cap(chart, center)
    cap = R_CAP
    n = chart.n
    for i in range(n):
        if chart.periodic[i]:
            cap = min(cap, (chart.hi[i] - chart.lo[i]) / 2.0 * math.sqrt(chart.f_min))
            continue
        on_face = np.arange(n) == i
        for bound in (chart.lo[i], chart.hi[i]):
            face = grid_points(np.where(on_face, bound, chart.lo), np.where(on_face, bound, chart.hi),
                               np.where(on_face, 1, 257))
            cap = min(cap, float(np.min(chart.distance(face, center[None, :]))))
    return max(cap - tol, 0.0)


def admissible_radius(chart: MetricChart, center, params: AdmissibilityParams):
    """Supremal admissible radius R' and R = min(1, R'/2) at one center.

    Returns (R_prime, R_eps, truncated, iterations); truncated means the
    predicate still held at the domain cap, so R_prime is a lower bound.
    """
    center = np.asarray(center, dtype=float)
    if not np.all(chart.contains(center)):
        raise DomainError("center outside the working domain")
    tol = params.bisection_tol
    cap = domain_cap(chart, center, tol)
    if cap <= tol or not is_admissible(chart, center, tol, params):
        raise DegeneratePointError(f"no admissible radius above {tol} at {center.tolist()}")
    iterations = 0
    lo_r = tol
    hi_r = None
    R = min(1.0, cap)
    while True:
        iterations += 1
        if is_admissible(chart, center, R, params):
            lo_r = R
            if R >= cap - 1e-15:
                return cap, min(1.0, cap / 2.0), True, iterations
            R = min(2 * R, cap)
        else:
            hi_r = R
            break
    while hi_r - lo_r > tol:
        iterations += 1
        mid = 0.5 * (lo_r + hi_r)
        if is_admissible(chart, center, mid, params):
            lo_r = mid
        else:
            hi_r = mid
    return lo_r, min(1.0, lo_r / 2.0), False, iterations


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
    """Map admissible_radius over a list/grid of centers (row-major order)."""
    pts = np.asarray(grid_points, dtype=float).reshape(-1, chart.n)
    N = len(pts)
    r_prime = np.zeros(N)
    r_eps = np.zeros(N)
    trunc = np.zeros(N, dtype=bool)
    iters = np.zeros(N, dtype=int)
    degen = np.zeros(N, dtype=bool)
    for j in range(N):
        try:
            r_prime[j], r_eps[j], trunc[j], iters[j] = admissible_radius(chart, pts[j], params)
        except DegeneratePointError:
            degen[j] = True
    return RadiusField(chart, params, pts, r_prime, r_eps, trunc, iters, degen)


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
