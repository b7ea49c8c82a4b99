"""Vitali ball selection and dyadic admissible coverings with certificates.

At level k every sample center x proposes a core ball of radius
r_k(x) = 2^(-k) R(x) / 50 (dilation denominator eta = 10, so 5 eta = 50).
A greedy pass in decreasing-radius order keeps a pairwise disjoint core
family; the 5-fold dilates form the cover.  Certificates are measured on
a probe grid: full coverage, and a maximum overlap count bounded by
T = ((1+eps)/(1-eps))^(n/2) * 100^n; the dilated family B(x, R(x)/10)
obeys the level-scaled bound T * 2^(n k).  Overlap counts screen
(probe, ball) pairs with a KD-tree and check the screened pairs exactly,
at most PAIR_BUDGET pairs per distance call.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.spatial import cKDTree

from .admissible import AdmissibilityParams, RadiusField, is_admissible
from .geometry import DomainError, MetricChart, budget_blocks, grid_points

ETA = 10  # dilation denominator; the overlap constants depend on it
PAIR_BUDGET = 1 << 14  # (probe, ball) pairs per distance call when counting memberships;
# a chord distance holds 32 floats per pair, so this keeps its arrays to a few MB


def overlap_bound(n: int, eps: float) -> float:
    return ((1 + eps) / (1 - eps)) ** (n / 2.0) * 100.0**n


def vitali_select(radii, touching) -> np.ndarray:
    """Greedy disjoint subfamily: balls in decreasing radius, ties by
    index, each kept unless it touches a ball kept before it.  touching
    holds the index pairs of the balls that meet.

    Returns the selected indices, ascending.  Every input ball intersects
    a selected ball of larger-or-equal radius and is contained in its
    5-fold dilate.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise DomainError("all radii must be positive")
    adj = [[] for _ in range(len(radii))]
    for a, b in touching:
        adj[a].append(b)
        adj[b].append(a)
    chosen = np.zeros(len(radii), dtype=bool)
    for i in np.lexsort((np.arange(len(radii)), -radii)):
        if not any(chosen[j] for j in adj[i]):
            chosen[i] = True
    return np.flatnonzero(chosen)


def _spaced_grid(lo, hi, spacing, endpoint=True):
    """grid_points of the box with nodes about `spacing` apart (at least
    2 per axis)."""
    counts = [max(2, int(math.ceil((hi[i] - lo[i]) / spacing)) + 1) for i in range(len(lo))]
    return grid_points(lo, hi, counts, endpoint)


def _target_box(chart: MetricChart, box):
    """(lo, hi, endpoint) of a covering target box (None: the working
    box); a periodic axis spanning its full period leaves out hi."""
    if box is None:
        lo, hi = chart.lo, chart.hi
    else:
        lo = np.asarray([b[0] for b in box], dtype=float)
        hi = np.asarray([b[1] for b in box], dtype=float)
    endpoint = [not (chart.periodic[i] and hi[i] - lo[i] >= (chart.hi[i] - chart.lo[i]) - 1e-12)
                for i in range(chart.n)]
    return lo, hi, endpoint


def _kdtree(chart: MetricChart, pts):
    """(tree, origin): a KD-tree over pts - origin.  On a fully periodic
    chart the tree is toroidal with the chart's periods and origin is
    chart.lo; otherwise origin is 0.  Query points subtract origin too."""
    if all(chart.periodic):
        return cKDTree(pts - chart.lo, boxsize=chart.hi - chart.lo), chart.lo
    return cKDTree(pts), 0.0


class Covering:
    """Finite (k, eps)-admissible covering with its measured certificate."""

    def __init__(self, chart, k, eps, centers, core_radii, cover_radii,
                 r_eps, overlap, coverage_fraction, t_bound):
        self.chart = chart
        self.k = int(k)
        self.eta = ETA
        self.eps = float(eps)
        self.centers = np.asarray(centers, dtype=float)
        self.core_radii = np.asarray(core_radii, dtype=float)
        self.cover_radii = np.asarray(cover_radii, dtype=float)
        self.r_eps = np.asarray(r_eps, dtype=float)
        self.overlap_certificate = int(overlap)
        self.coverage_fraction = float(coverage_fraction)
        self.t_bound = float(t_bound)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": 1,
                "k": self.k,
                "eta": self.eta,
                "eps": self.eps,
                "centers": [list(map(float, c)) for c in self.centers],
                "core_radii": [float(v) for v in self.core_radii],
                "cover_radii": [float(v) for v in self.cover_radii],
                "overlap": self.overlap_certificate,
                "coverage_fraction": self.coverage_fraction,
                "T_bound": self.t_bound,
            },
            indent=1,
        )


def _grown_box(chart: MetricChart, lo, hi, reach):
    """The box [lo, hi] grown by reach on every side and clipped to the
    working domain."""
    return np.maximum(np.asarray(lo) - reach, chart.lo), np.minimum(np.asarray(hi) + reach, chart.hi)


def _touching_pairs(chart: MetricChart, centers, radii, f_min):
    """(pairs, screened): the index pairs (i < j) of balls that meet,
    d(c_i, c_j) <= r_i + r_j, and the number of pairs checked.  Balls meet
    only within chart distance 2 max(r) / sqrt(f_min), with f_min a lower
    bound of f near them; the KD-tree screens pairs by that distance."""
    tree, _ = _kdtree(chart, centers)
    pairs = tree.query_pairs(2.0 * float(np.max(radii)) / math.sqrt(f_min), output_type="ndarray")
    d = chart.distance(centers[pairs[:, 0]], centers[pairs[:, 1]])
    return pairs[d <= radii[pairs[:, 0]] + radii[pairs[:, 1]]], len(pairs)


def _count_memberships(chart: MetricChart, probes, centers, radii, f_min_box):
    """Per-probe count of geodesic balls containing the probe.

    The KD-tree screens (probe, ball) pairs by a chart radius that surely
    contains each ball; the screened pairs of consecutive balls are then
    checked exactly in blocks of at most PAIR_BUDGET pairs, one distance
    call per block (a ball with more pairs is checked in slices).
    """
    tree, origin = _kdtree(chart, probes)
    chart_r = radii / math.sqrt(f_min_box)
    query = centers - origin
    screened = tree.query_ball_point(query, chart_r, return_length=True, workers=-1)
    counts = np.zeros(len(probes), dtype=int)
    for start, stop in budget_blocks(screened, PAIR_BUDGET):
        hits = tree.query_ball_point(query[start:stop], chart_r[start:stop], workers=-1,
                                     return_sorted=False)
        sizes = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
        probe = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp,
                            count=int(sizes.sum()))
        ball = np.repeat(np.arange(start, stop), sizes)
        for first in range(0, len(probe), PAIR_BUDGET):
            p, b = probe[first:first + PAIR_BUDGET], ball[first:first + PAIR_BUDGET]
            inside = chart.distance(probes[p], centers[b]) <= radii[b]
            counts += np.bincount(p[inside], minlength=len(probes))
    return counts


def build_admissible_covering(field: RadiusField, k: int, box=None,
                              candidate_factor: float = 3.0) -> Covering:
    """Level-k covering of a working box, with measured certificates.

    Candidate centers sit on a grid of spacing ~candidate_factor times
    the smallest core radius (certified from the field's Lipschitz lower
    bound), which guarantees every probe lands inside the 5-fold dilate
    of a selected ball.  Raises DomainError if a probe stays uncovered
    or k < 0.
    """
    if k < 0:
        raise DomainError(f"covering level k must be >= 0, got {k}")
    chart = field.chart
    n = chart.n
    eps = field.params.eps
    lo, hi, endpoint = _target_box(chart, box)

    # certified R at a coarse probe of the box to size the candidate grid
    corners = _spaced_grid(lo, hi, float(np.max(hi - lo)) / 8.0)
    r_min_est = float(np.min(field.lower_bound_at(corners)))
    if r_min_est <= 0:
        raise DomainError("radius field lower bound vanishes on the box")
    r_core_min = 2.0**-k * r_min_est / (5 * ETA)
    f_min_box, f_max_box = chart.factor_range(*_grown_box(chart, lo, hi, r_min_est))
    # geodesic candidate spacing ~ candidate_factor * r_core_min, so a
    # probe's nearest candidate ball reaches it through the 5-fold dilate
    spacing = candidate_factor * r_core_min / math.sqrt(f_max_box)
    candidates = _spaced_grid(lo, hi, spacing, endpoint)
    r_eps_cand = field.lower_bound_at(candidates)
    keep = r_eps_cand > 0
    candidates, r_eps_cand = candidates[keep], r_eps_cand[keep]
    core = 2.0**-k * r_eps_cand / (5 * ETA)
    sel = vitali_select(core, _touching_pairs(chart, candidates, core, f_min_box)[0])
    centers = candidates[sel]
    core_sel = core[sel]
    cover_sel = 5.0 * core_sel

    probes = _spaced_grid(lo, hi, float(np.min(cover_sel)) / (4.0 * math.sqrt(f_max_box)), endpoint)
    counts = _count_memberships(chart, probes, centers, cover_sel, f_min_box)
    coverage = float(np.mean(counts >= 1))
    if coverage < 1.0:
        raise DomainError(
            f"{int(np.sum(counts == 0))} probe points uncovered at level {k}; "
            "densify the radius-field sample grid or shrink the box"
        )
    return Covering(chart, k, eps, centers, core_sel, cover_sel, r_eps_cand[sel],
                    int(counts.max()), coverage, overlap_bound(n, eps))


def check_core_disjointness(covering: Covering) -> dict:
    """Exact pairwise check d(x_i, x_j) > r_i + r_j on the core family."""
    chart = covering.chart
    c = covering.centers
    f_min_box, _ = chart.factor_range(*_grown_box(chart, c.min(axis=0), c.max(axis=0),
                                                  float(np.max(covering.r_eps))))
    touching, screened = _touching_pairs(chart, c, covering.core_radii, f_min_box)
    return {"pairs_screened": screened, "violations": len(touching)}


def certify_dilated_overlap(covering: Covering, box=None) -> dict:
    """Overlap of the full-size family B(x, R(x)/10), x in the core set,
    against the level-scaled bound T * 2^(n k)."""
    chart = covering.chart
    n = chart.n
    radii = covering.r_eps / ETA
    lo, hi, endpoint = _target_box(chart, box)
    f_min_box, f_max_box = chart.factor_range(*_grown_box(chart, lo, hi, float(np.max(radii))))
    probes = _spaced_grid(lo, hi, float(np.min(radii)) / (4.0 * math.sqrt(f_max_box)), endpoint)
    counts = _count_memberships(chart, probes, covering.centers, radii, f_min_box)
    bound = covering.t_bound * 2.0 ** (n * covering.k)
    return {
        "max_overlap": int(counts.max()),
        "bound": bound,
        "holds": bool(counts.max() <= bound),
        "probes": len(probes),
    }


def ball_tower(chart: MetricChart, center, field: RadiusField, k: int,
               params: AdmissibilityParams | None = None) -> list:
    """Nested dyadic balls B(x, 2^-j R(x)/10), j = 0..k, each re-verified
    admissible; returns [(radius, admissible_flag)] from j=0 down."""
    params = params or field.params
    center = np.asarray(center, dtype=float)
    r_top = float(field.lower_bound_at(center[None])[0]) / ETA
    out = []
    for j in range(k + 1):
        rad = 2.0**-j * r_top
        out.append((rad, is_admissible(chart, center, rad, params)))
    return out
