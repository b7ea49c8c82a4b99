"""Vitali ball selection and dyadic admissible coverings with certificates.

At level k every sample center x proposes a core ball of radius
r_k(x) = 2^(-k) R(x) / 50 (dilation denominator eta = 10, so 5 eta = 50).
A greedy pass in decreasing-radius order keeps a pairwise disjoint core
family; the 5-fold dilates form the cover.  A ball that touches no other
is kept outright, so the greedy loops only over the balls that touch.
Certificates are measured on a probe grid: full coverage, and a maximum
overlap count bounded by T = ((1+eps)/(1-eps))^(n/2) * 100^n; the dilated
family B(x, R(x)/10) obeys the level-scaled bound T * 2^(n k).

Probes and candidate centers are lattices of the box (geometry.Lattice,
laid out by MetricChart.lattice_box), and one screen serves both
queries: per axis, the nodes within a chart reach of the center are an
index range in closed form; on a periodic axis two ranges, about c and
the one image c -+ L that the nodes more than half a period away fall
to.  Each ball's images and the index bounds of the nodes nearest each
(its frame on the axis) are set up once per ball, and a range is one
step from a frame and a half-width.  The screen walks the rows (axes
0..n-2) within reach of each ball and gives every (ball, row) its
last-axis frame and its ranges there; a periodic last axis drops an
image that no ball reaches at its full reach.  Touching pairs check every
screened pair of centers exactly.  Overlap counts settle (probe, ball)
pairs by closed-form bounds on f over each ball's own box: the probes
surely inside, and the shell probes the distance finds inside, go into
one difference array along the rows as each run of balls ends, so a
count call holds O(probes + balls) ints and temporaries of PAIR_BUDGET
size.  Both run the balls in blocks of at most PAIR_BUDGET rows and pass
at most PAIR_BUDGET pairs per distance call.
"""

from __future__ import annotations

import math

import numpy as np

from .admissible import RadiusField
from .geometry import (PAIR_BUDGET, DomainError, Lattice, MetricChart, ball_bbox, budget_blocks,
                       rounding_slack)

ETA = 10  # dilation denominator; the overlap constants depend on it
CANDIDATE_FACTOR = 3.0  # candidate spacing in smallest core radii (build_admissible_covering)
# PAIR_BUDGET (from geometry) caps the (node, ball) pairs per distance call and the
# rows per run of balls, for both queries


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
    pairs = np.asarray(touching, dtype=np.intp).reshape(-1, 2)
    # the neighbours of touched[t] are neighbours[start[t]:stop[t]]
    ends = np.concatenate([pairs, pairs[:, ::-1]])
    ends = ends[np.argsort(ends[:, 0], kind="stable")]
    touched, start = np.unique(ends[:, 0], return_index=True)
    stop = np.append(start[1:], len(ends))
    neighbours = ends[:, 1].tolist()
    # a ball in no touching pair is kept whatever comes before it; the
    # greedy decides only the balls that touch another
    order = np.lexsort((touched, -radii[touched]))
    kept = set()
    for i, a, b in zip(touched[order].tolist(), start[order].tolist(), stop[order].tolist()):
        if kept.isdisjoint(neighbours[a:b]):
            kept.add(i)
    chosen = np.ones(len(radii), dtype=bool)
    chosen[touched] = False
    chosen[list(kept)] = True
    return np.flatnonzero(chosen)


def _spaced_grid(lo, hi, spacing, endpoint=True) -> Lattice:
    """Lattice of the box with nodes about `spacing` apart (at least 2 per
    axis)."""
    counts = [max(2, int(math.ceil((hi[i] - lo[i]) / spacing)) + 1) for i in range(len(lo))]
    return Lattice(lo, hi, counts, endpoint)


class Covering:
    """Finite (k, eps)-admissible covering with its measured certificate.
    The centers are the nodes[i] of the candidate lattice it was built on."""

    def __init__(self, chart, k, eps, lattice, nodes, core_radii, cover_radii,
                 r_eps, overlap, coverage_fraction, t_bound):
        self.chart = chart
        self.lattice = lattice
        self.nodes = np.asarray(nodes)
        self.k = int(k)
        self.eps = float(eps)
        self.centers = lattice.points[self.nodes]
        self.core_radii = np.asarray(core_radii, dtype=float)
        self.cover_radii = np.asarray(cover_radii, dtype=float)
        self.r_eps = np.asarray(r_eps, dtype=float)
        self.overlap_certificate = int(overlap)
        self.coverage_fraction = float(coverage_fraction)
        self.t_bound = float(t_bound)

    def to_dict(self) -> dict:
        """The covering as plain JSON values (`soboheat cover` adds its
        reports and encodes it once)."""
        return {
            "schema_version": 1,
            "k": self.k,
            "eta": ETA,
            "eps": self.eps,
            "centers": self.centers.tolist(),
            "core_radii": self.core_radii.tolist(),
            "cover_radii": self.cover_radii.tolist(),
            "overlap": self.overlap_certificate,
            "coverage_fraction": self.coverage_fraction,
            "T_bound": self.t_bound,
        }


def _grown_box(chart: MetricChart, lo, hi, reach):
    """The box [lo, hi] grown by reach on every side and clipped to the
    working domain."""
    return np.maximum(np.asarray(lo) - reach, chart.lo), np.minimum(np.asarray(hi) + reach, chart.hi)


def _expand(start, length):
    """The indices start[i] + [0, length[i]) of every i, in order."""
    return np.arange(int(length.sum())) + np.repeat(start - (np.cumsum(length) - length), length)


def _axis_nodes(chart: MetricChart, lattice: Lattice, c, first, last, axis):
    """(index, sq, width): the lattice indices on the axis in every ball's
    ranges first..last about the coordinate c (`_frame_ranges`), ball after
    ball, their squared chart displacements from c (the nearest image on a
    periodic axis), and how many each ball has."""
    size = np.maximum(last - first + 1, 0)
    index = _expand(first.ravel(), size.ravel())
    width = size.sum(axis=-1)
    d = np.abs(lattice.axes[axis][index] - np.repeat(c, width))
    if chart.periodic[axis]:
        d = np.minimum(d, (chart.hi - chart.lo)[axis] - d)
    return index, d * d, width


def _screen(chart: MetricChart, lattice: Lattice, centers, reach):
    """Per run of balls, (ball, row, sq, frame, first, last): the rows of
    lattice nodes (axes 0..n-2) within chart reach[ball] of the center
    (nearest image on a periodic axis), with row their row-major index over
    those axes and sq their squared displacement, each (ball, row)'s frame
    on the last axis (`_axis_frame`, gathered by ball) and its index ranges
    there within sqrt(reach^2 - sq) (`_frame_ranges`).  Every axis's frame
    is set up once per ball.  On a periodic last axis, an image whose range
    is empty for every ball at its full reach is dropped: a range only
    shrinks with its half-width, and every later half-width is at most the
    reach.  The balls go in runs whose ranges hold at most PAIR_BUDGET rows
    (a larger ball is a run of its own); each run lists its balls' nodes
    per axis, starts from one entry per ball and grows it axis by axis,
    dropping the entries whose squared displacement so far exceeds reach^2.
    Only the frames and index ranges are kept for all balls."""
    last = chart.n - 1
    ranges = [_frame_ranges(lattice, _axis_frame(chart, lattice, centers[:, i], i), reach, i)
              for i in range(last)]
    width = np.stack([np.maximum(b - a + 1, 0).sum(axis=-1) for a, b in ranges], axis=-1)
    strides = np.append(np.cumprod(lattice.count[last - 1:0:-1])[::-1], 1)
    reach2 = reach**2
    frame = _axis_frame(chart, lattice, centers[:, last], last)
    if chart.periodic[last]:
        # every half-width below, sqrt(reach^2 - sq), is at most sqrt(reach^2)
        first, end = _frame_ranges(lattice, frame, np.sqrt(reach2), last)
        used = np.any(first <= end, axis=0)
        frame = tuple(x[:, used] for x in frame)
    for start, stop in budget_blocks(np.prod(width, axis=-1), PAIR_BUDGET):
        for i, (a, b) in enumerate(ranges):
            index, axis_sq, w = _axis_nodes(chart, lattice, centers[start:stop, i],
                                            a[start:stop], b[start:stop], i)
            if i == 0:  # one entry per ball of the run, in order
                ball, row, sq = np.repeat(np.arange(start, stop), w), index * strides[0], axis_sq
            else:
                k = ball - start
                j = _expand((np.cumsum(w) - w)[k], w[k])
                ball = np.repeat(ball, w[k])
                row = np.repeat(row, w[k]) + index[j] * strides[i]
                sq = np.repeat(sq, w[k]) + axis_sq[j]
            inside = sq <= reach2[ball]
            ball, row, sq = ball[inside], row[inside], sq[inside]
        gathered = tuple(x[ball] if np.ndim(x) else x for x in frame)
        yield (ball, row, sq, gathered,
               *_frame_ranges(lattice, gathered, np.sqrt(reach2[ball] - sq), last))


def _touching_pairs(chart: MetricChart, lattice: Lattice, nodes, radii, f_min):
    """(pairs, screened): the index pairs (i < j) of the balls centered at
    the lattice nodes[i] that meet, d(c_i, c_j) <= r_i + r_j, and the
    number of pairs checked.  Balls meet only within chart distance
    (2 max(r) + s) / sqrt(f_min), with f_min a lower bound of f near them
    and s the rounding slack of 2 max(r); the lattice screens pairs by
    that distance, and the slack keeps rounding in the screen's index
    ranges from dropping a pair that meets."""
    centers = lattice.points[nodes]
    ball_of = np.full(len(lattice), -1)
    ball_of[nodes] = np.arange(len(nodes))
    diameter = 2.0 * float(np.max(radii))
    reach = np.full(len(nodes), (diameter + rounding_slack(diameter)) / math.sqrt(f_min))
    m = int(lattice.count[-1])
    found, screened = [np.empty((0, 2), dtype=np.intp)], 0
    for ball, row, _, _, first, last in _screen(chart, lattice, centers, reach):
        start = (row * m)[:, None] + first
        owner = np.broadcast_to(ball[:, None], first.shape)
        for node, i in _segment_pairs(start.ravel(), np.maximum(last - first + 1, 0).ravel(),
                                      owner.ravel()):
            j = ball_of[node]
            i, j = i[j > i], j[j > i]
            if len(i) == 0:
                continue
            screened += len(i)
            meet = chart.distance(centers[i], centers[j]) <= radii[i] + radii[j]
            found.append(np.stack([i[meet], j[meet]], axis=-1))
    return np.concatenate(found), screened


def _axis_frame(chart: MetricChart, lattice: Lattice, c, axis: int):
    """(images, lower, upper): per center c[e], the images of c[e] on the
    axis and, per image, the lattice indices lower..upper nearer that image
    than any other (`_frame_ranges` takes the nodes within a half-width of
    each).  A periodic axis has two images, and a node half a period from c
    goes to c, so the index sets are disjoint.  The lattice spans less than
    a period, so the nodes more than half a period from c lie all below it
    (image c - L) or all above it (image c + L), and the images are c - L, c
    where some lie below and c, c + L otherwise.  Any other axis has one
    image, c itself, and the whole lattice (lower and upper are then
    scalars, so a frame stores arrays only on a periodic axis).  lower and
    upper are whole numbers in floats, as the ranges are computed, clipped
    to the lattice: lower to [0, m] and upper to [-1, m - 1]."""
    x0, step, m = lattice.lo[axis], lattice.step[axis], int(lattice.count[axis])
    c = c[:, None]
    if not chart.periodic[axis]:
        return c, 0, m - 1
    period = (chart.hi - chart.lo)[axis]
    # the nodes nearest to c: [near, far]
    near = np.ceil((c - period / 2.0 - x0) / step)
    far = np.floor((c + period / 2.0 - x0) / step)
    below = near > 0
    images = c + period * np.where(below, [-1.0, 0.0], [0.0, 1.0])
    cut = np.where(below, near, far + 1)  # the first node of the upper image
    lower = np.concatenate([np.zeros_like(cut), np.clip(cut, 0, m)], axis=1)
    upper = np.concatenate([np.clip(cut - 1, -1, m - 1), np.full_like(cut, m - 1)], axis=1)
    return images, lower, upper


def _frame_ranges(lattice: Lattice, frame, half, axis: int):
    """(first, last), each (entries, images): inclusive index ranges of the
    lattice nodes on the axis within half[e] of each image of a frame
    (`_axis_frame`) and within that image's bounds lower..upper, clipped to
    the lattice; first > last where one is empty."""
    images, lower, upper = frame
    x0, step, m = lattice.lo[axis], lattice.step[axis], lattice.count[axis]
    half = half[:, None]
    first = np.ceil((images - half - x0) / step)
    np.maximum(first, lower, out=first)
    np.minimum(first, m, out=first)
    last = np.floor((images + half - x0) / step)
    np.minimum(last, upper, out=last)
    np.maximum(last, -1, out=last)
    return first.astype(np.intp), last.astype(np.intp)


def _count_memberships(chart: MetricChart, probes: Lattice, centers, radii):
    """Per-probe count of the geodesic balls B(c, r) holding the probe,
    d <= r.

    Each ball's closed-form box (`ball_bbox`) gives f_min <= f <= f_max on
    the ball.  Let D be a probe's chart displacement from the center (the
    nearest image on a periodic axis) and s the rounding slack.  The probe
    is surely inside when sqrt(f_max) |D| <= r - s: the straight segment
    is at most that long and stays in the box, and the chord's mean of
    sqrt(f) is at most sqrt(f_max).  It is surely outside when
    sqrt(f_min) |D| > r + s: a geodesic of length <= r stays in the box,
    and so does the chord's segment (see `_box_perturbed`).

    `_screen` walks the probe rows by the outer chart radius
    (r + s) / sqrt(f_min) and gives every (ball, row) its last-axis frame
    and outer index ranges there; the inner ones, by r - s and f_max, are
    ranges of the same gathered frame, bounded by the outer ones.  Only
    the probes between the two ranges go to the distance, at most
    PAIR_BUDGET pairs per call, and only the entries whose inner ranges
    fall short of the outer ones build shell segments.  Each run adds its
    inner ranges, and the shell probes found inside, to one difference
    array along the rows, which is summed once at the end.
    """
    last = chart.n - 1
    m = int(probes.count[last])
    lo, hi, _ = ball_bbox(chart, centers, radii)
    f_min, f_max = chart.factor_range(lo, hi)
    slack = rounding_slack(radii)
    inner = (radii - slack) / np.sqrt(f_max)
    outer = (radii + slack) / np.sqrt(f_min)
    inner2 = np.where(inner >= 0, inner * inner, -1.0)  # -1: no probe is surely inside
    # one difference array along the rows, m + 1 wide: +1 where a run of
    # counted probes starts, -1 after it ends; probe p sits at p + p // m
    marks = np.zeros(len(probes) // m * (m + 1), dtype=np.intp)
    for ball, row, sq, frame, first, end in _screen(chart, probes, centers, outer):
        # the inner ranges: the frame's images, bounded by the outer ranges
        # (each of which lies within its image's bounds already)
        a, b = _frame_ranges(probes, (frame[0], first, end),
                             np.sqrt(np.maximum(inner2[ball] - sq, 0.0)), last)
        # an empty inner range moves past the outer one, whose nodes are then all shell
        empty = (a > b) | (inner2[ball] < sq)[:, None]
        np.copyto(a, end + 1, where=empty)
        np.copyto(b, end, where=empty)
        base = (row * (m + 1))[:, None]
        np.add.at(marks, (base + a)[~empty], 1)
        np.subtract.at(marks, (base + b + 1)[~empty], 1)
        # the shell: [first, a) and (b, end] of every range, only for the
        # entries whose inner ranges fall short of the outer ones
        short = np.flatnonzero(np.any((a > first) | (b < end), axis=1))
        first, end, a, b = first[short], end[short], a[short], b[short]
        seg_start = (row[short] * m)[:, None] + np.concatenate([first, b + 1], axis=1)
        seg_len = np.concatenate([a - first, end - b], axis=1)
        seg_ball = np.broadcast_to(ball[short, None], seg_len.shape)
        some = seg_len > 0
        for p, q in _segment_pairs(seg_start[some], seg_len[some], seg_ball[some]):
            hit = p[chart.distance(probes.points[p], centers[q]) <= radii[q]]
            hit += hit // m
            np.add.at(marks, hit, 1)
            np.subtract.at(marks, hit + 1, 1)
    rows = marks.reshape(-1, m + 1)
    return np.cumsum(rows, axis=1, out=rows)[:, :m].ravel()


def _segment_pairs(start, length, ball):
    """(node, ball) index arrays, at most PAIR_BUDGET long, of the nodes
    start[i] + [0, length[i]) paired with ball[i]."""
    for s0, s1 in budget_blocks(length, PAIR_BUDGET):
        node = _expand(start[s0:s1], length[s0:s1])
        owner = np.repeat(ball[s0:s1], length[s0:s1])
        for cut in range(0, len(node), PAIR_BUDGET):
            yield node[cut:cut + PAIR_BUDGET], owner[cut:cut + PAIR_BUDGET]


def build_admissible_covering(field: RadiusField, k: int, box=None) -> Covering:
    """Level-k covering of a working box, with measured certificates.

    Candidate centers sit on a grid of geodesic spacing CANDIDATE_FACTOR
    = 3 times the smallest core radius r (certified from the field's
    Lipschitz lower bound).  The factor is the one that puts every probe
    inside a 5-fold dilate: a probe lies within 3 r sqrt(n)/2 <= 2.6 r of
    its nearest candidate (n <= 3), and a candidate the greedy drops meets
    a kept core of radius r' >= its own >= r, so it lies within 2 r' of
    that core's center, and the probe within 5 r' of it.  Raises
    DomainError if a probe stays uncovered or k < 0.
    """
    if k < 0:
        raise DomainError(f"covering level k must be >= 0, got {k}")
    chart = field.chart
    n = chart.n
    eps = field.params.eps
    lo, hi, endpoint = chart.lattice_box(box)

    # certified R at a coarse probe of the box to size the candidate grid
    corners = _spaced_grid(lo, hi, float(np.max(hi - lo)) / 8.0).points
    r_min_est = float(np.min(field.lower_bound_at(corners)))
    if r_min_est <= 0:
        raise DomainError("radius field lower bound vanishes on the box")
    r_core_min = 2.0**-k * r_min_est / (5 * ETA)
    f_min_box, f_max_box = chart.factor_range(*_grown_box(chart, lo, hi, r_min_est))
    spacing = CANDIDATE_FACTOR * r_core_min / math.sqrt(f_max_box)
    lattice = _spaced_grid(lo, hi, spacing, endpoint)
    r_eps_cand = field.lower_bound_at(lattice.points)
    nodes = np.flatnonzero(r_eps_cand > 0)
    r_eps_cand = r_eps_cand[nodes]
    core = 2.0**-k * r_eps_cand / (5 * ETA)
    sel = vitali_select(core, _touching_pairs(chart, lattice, nodes, core, f_min_box)[0])
    nodes = nodes[sel]
    core_sel = core[sel]
    cover_sel = 5.0 * core_sel

    probes = _spaced_grid(lo, hi, float(np.min(cover_sel)) / (4.0 * math.sqrt(f_max_box)), endpoint)
    counts = _count_memberships(chart, probes, lattice.points[nodes], cover_sel)
    coverage = float(np.mean(counts >= 1))
    if coverage < 1.0:
        raise DomainError(
            f"{int(np.sum(counts == 0))} probe points uncovered at level {k}; "
            "densify the radius-field sample grid or shrink the box"
        )
    return Covering(chart, k, eps, lattice, nodes, core_sel, cover_sel, r_eps_cand[sel],
                    int(counts.max()), coverage, overlap_bound(n, eps))


def check_core_disjointness(covering: Covering) -> dict:
    """Exact pairwise check d(x_i, x_j) > r_i + r_j on the core family."""
    chart = covering.chart
    c = covering.centers
    f_min_box, _ = chart.factor_range(*_grown_box(chart, c.min(axis=0), c.max(axis=0),
                                                  float(np.max(covering.r_eps))))
    touching, screened = _touching_pairs(chart, covering.lattice, covering.nodes,
                                         covering.core_radii, f_min_box)
    return {"pairs_screened": screened, "violations": len(touching)}


def certify_dilated_overlap(covering: Covering, box=None) -> dict:
    """Overlap of the full-size family B(x, R(x)/10), x in the core set,
    against the level-scaled bound T * 2^(n k)."""
    chart = covering.chart
    n = chart.n
    radii = covering.r_eps / ETA
    lo, hi, endpoint = chart.lattice_box(box)
    _, f_max_box = chart.factor_range(*_grown_box(chart, lo, hi, float(np.max(radii))))
    probes = _spaced_grid(lo, hi, float(np.min(radii)) / (4.0 * math.sqrt(f_max_box)), endpoint)
    counts = _count_memberships(chart, probes, covering.centers, radii)
    bound = covering.t_bound * 2.0 ** (n * covering.k)
    return {
        "max_overlap": int(counts.max()),
        "bound": bound,
        "holds": bool(counts.max() <= bound),
        "probes": len(probes),
    }
