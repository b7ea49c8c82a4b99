import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soboheat import acceptance
from soboheat import admissible as adm
from soboheat import covering as cov
from soboheat import geometry as geo
from soboheat.geometry import DomainError, make_chart


def euclid_field():
    chart = make_chart("euclidean", n=2)
    pts = np.stack(np.meshgrid(np.linspace(4.3, 5.7, 4),
                               np.linspace(4.3, 5.7, 4), indexing="ij"), -1).reshape(-1, 2)
    return adm.radius_field(chart, pts, adm.AdmissibilityParams(m=2, eps=0.2))


BOX = [(4.5, 5.5), (4.5, 5.5)]


def test_overlap_bound_formula():
    assert cov.overlap_bound(2, 0.2) == pytest.approx((1.2 / 0.8) * 100**2)
    assert cov.overlap_bound(3, 0.1) == pytest.approx((1.1 / 0.9) ** 1.5 * 100**3)


def _touching_1d(xs, rs):
    """Index pairs of the 1-D balls (xs[i], rs[i]) that meet."""
    return [(i, j) for i in range(len(xs)) for j in range(i + 1, len(xs))
            if abs(xs[i] - xs[j]) <= rs[i] + rs[j]]


def test_vitali_select_greedy_disjoint():
    # three collinear unit balls: greedy keeps the outer two
    xs, rs = [0.0, 1.5, 3.0], [1.0, 1.0, 1.0]
    kept = cov.vitali_select(rs, _touching_1d(xs, rs))
    centers = sorted(xs[i] for i in kept)
    assert centers == [0.0, 3.0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 10), st.floats(0.1, 1.0)), min_size=1, max_size=30))
def test_vitali_selected_balls_disjoint(data):
    xs, rs = [x for x, _ in data], [r for _, r in data]
    kept = cov.vitali_select(rs, _touching_1d(xs, rs))
    for i in kept:
        for j in kept:
            if i < j:
                assert abs(xs[i] - xs[j]) > rs[i] + rs[j]


def sequential_vitali(radii, touching):
    """The greedy over every ball in turn: decreasing radius, ties by
    index, each kept unless it touches a ball kept before it."""
    adj = [[] for _ in range(len(radii))]
    for a, b in touching:
        adj[a].append(b)
        adj[b].append(a)
    chosen = np.zeros(len(radii), dtype=bool)
    for i in np.lexsort((np.arange(len(radii)), -np.asarray(radii))):
        if not any(chosen[j] for j in adj[i]):
            chosen[i] = True
    return np.flatnonzero(chosen)


@st.composite
def vitali_cases(draw):
    """(radii, pairs): 1 to 40 radii, many of them tied, and a list of
    index pairs i != j with repeats and both orientations."""
    n = draw(st.integers(1, 40))
    radii = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.1, 2.0),
                          min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)))
                          .map(lambda p: (p[0], (p[0] + p[1]) % n)), max_size=3 * n if n > 1 else 0))
    again = draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    return radii, pairs + again + [(j, i) for i, j in again[::2]]


@settings(max_examples=100, deadline=None)
@given(vitali_cases())
def test_vitali_select_equals_sequential_greedy(case):
    radii, pairs = case
    assert np.array_equal(cov.vitali_select(radii, pairs), sequential_vitali(radii, pairs))
    assert np.array_equal(cov.vitali_select(radii, np.array(pairs, dtype=int).reshape(-1, 2)),
                          sequential_vitali(radii, pairs))


def test_vitali_select_long_chain():
    """20 000 balls in a chain, each touching the next and listed in rank
    order: the greedy keeps every other ball, and the pass stays linear
    in the chain (a round-based greedy would need a round per ball)."""
    n = 20_000
    radii = np.linspace(2.0, 1.0, n)
    pairs = np.stack([np.arange(n - 1), np.arange(1, n)], axis=-1)
    start = time.perf_counter()
    kept = cov.vitali_select(radii, pairs)
    elapsed = time.perf_counter() - start
    assert np.array_equal(kept, np.arange(0, n, 2))
    assert np.array_equal(kept, sequential_vitali(radii, pairs))
    assert elapsed < 0.5


def test_build_covering_euclidean_level0():
    fld = euclid_field()
    c = cov.build_admissible_covering(fld, 0, box=BOX)
    assert c.k == 0 and c.to_dict()["eta"] == 10
    assert c.coverage_fraction == 1.0
    assert c.overlap_certificate <= c.t_bound
    # core radii are 2^-k R_eps / (5 eta) evaluated at the centers
    assert np.allclose(c.core_radii, c.r_eps / 50.0)
    assert np.allclose(c.cover_radii, 5.0 * c.core_radii)
    assert cov.check_core_disjointness(c)["violations"] == 0


def test_level_halves_radii():
    fld = euclid_field()
    c0 = cov.build_admissible_covering(fld, 0, box=BOX)
    c1 = cov.build_admissible_covering(fld, 1, box=BOX)
    assert np.max(c1.core_radii) == pytest.approx(0.5 * np.max(c0.core_radii), rel=1e-9)
    assert len(c1.centers) > len(c0.centers)


def test_dilated_overlap_certificate():
    fld = euclid_field()
    c = cov.build_admissible_covering(fld, 1, box=BOX)
    rep = cov.certify_dilated_overlap(c, box=BOX)
    assert rep["holds"]
    assert rep["max_overlap"] <= c.t_bound * 2 ** (2 * 1)


def test_covering_json_roundtrip():
    fld = euclid_field()
    c = cov.build_admissible_covering(fld, 0, box=BOX)
    payload = json.loads(json.dumps(c.to_dict()))
    assert payload["schema_version"] == 1
    assert payload["k"] == 0
    assert len(payload["centers"]) == len(c.centers)
    assert payload["overlap"] == c.overlap_certificate
    assert payload["T_bound"] == pytest.approx((1.2 / 0.8) * 100**2)


def test_periodic_covering_whole_torus():
    chart = make_chart("flat-torus", n=2, L=4.0)
    pts = adm.grid_centers(chart, 5)
    fld = adm.radius_field(chart, pts, adm.AdmissibilityParams(m=2, eps=0.2))
    c = cov.build_admissible_covering(fld, 0)
    assert c.coverage_fraction == 1.0
    assert cov.check_core_disjointness(c)["violations"] == 0
    assert c.overlap_certificate <= c.t_bound


def test_empty_field_rejected():
    chart = make_chart("euclidean", n=2)
    fld = adm.radius_field(chart, np.empty((0, 2)), adm.AdmissibilityParams(m=2, eps=0.2))
    with pytest.raises((DomainError, ValueError)):
        cov.build_admissible_covering(fld, 0, box=BOX)


# per case: chart, a lattice box (lo, hi) with its node spacing and the
# largest ball radius.  On the torus: the whole period (hi left out), and a
# sub-box that reaches both sides of the seam x = L, with balls wider than
# half the period, so that the images c - L, c, c + L overlap.
LATTICE_CASES = {
    "euclidean": (("euclidean", {}), [4.0, 4.0], [5.0, 5.0], 1 / 24, 0.3),
    "perturbed-euclidean": (("perturbed-euclidean", {}), [4.6, 4.6], [5.4, 5.4], 1 / 30, 0.2),
    "hyperbolic-halfplane": (("hyperbolic-halfplane", {}), [-0.3, 0.7], [0.3, 1.3], 1 / 40, 0.2),
    "hyperbolic-ball": (("hyperbolic-ball", {}), [-0.3, -0.3], [0.3, 0.3], 1 / 40, 0.3),
    "flat-torus": (("flat-torus", {"L": 4.0}), [0.2, 1.0], [1.4, 2.0], 1 / 20, 0.3),
    "flat-torus-whole": (("flat-torus", {"L": 4.0}), [0.0, 0.0], [4.0, 4.0], 1 / 6, 0.6),
    "flat-torus-seam": (("flat-torus", {"L": 4.0}), [0.0, 0.0], [3.9, 3.9], 1 / 6, 2.5),
    "euclidean-3d": (("euclidean", {"n": 3}), [4.0, 4.0, 4.0], [5.0, 5.0, 5.0], 1 / 8, 0.3),
}


def lattice_inputs(case, n_balls=80, seed=0):
    """(chart, lattice, centers, radii, f_min_box) of a LATTICE_CASES case:
    seeded ball centers in the box and radii up to its largest radius."""
    (name, kw), lo, hi, spacing, r_max = LATTICE_CASES[case]
    chart = make_chart(name, **kw)
    lo, hi, endpoint = chart.lattice_box(list(zip(lo, hi)))
    lattice = cov._spaced_grid(lo, hi, spacing, endpoint)
    rng = np.random.default_rng(seed)
    centers = chart.wrap(rng.uniform(lo, hi, size=(n_balls, chart.n)))
    radii = rng.uniform(0.2, 1.0, n_balls) * r_max
    f_min_box, _ = chart.factor_range(*cov._grown_box(chart, lo, hi, r_max))
    return chart, lattice, centers, radii, f_min_box


def node_balls(lattice, rng, n_balls):
    """Seeded lattice nodes as ball centers."""
    return lattice.points[rng.choice(len(lattice), n_balls, replace=False)]


def tie_inputs(case):
    """(chart, lattice, centers, radii) of a TIE_CASES case.  Flat charts:
    centers on lattice nodes, radii whole multiples of the step and 5 steps
    (nodes 3 and 4 steps off along two axes lie at r); 3 steps in 3-D also
    meets the nodes (1, 2, 2) steps off.  Hyperbolic charts: each ball is
    the Euclidean disc of 4 or 5 steps about a lattice node, so lattice
    nodes lie on its boundary."""
    rng = np.random.default_rng(3)
    (name, kw), lo, hi, spacing = TIE_CASES[case]
    chart = make_chart(name, **kw)
    lo, hi, endpoint = chart.lattice_box(list(zip(lo, hi)))
    lattice = cov._spaced_grid(lo, hi, spacing, endpoint)
    step = float(lattice.step[0])
    mid = lattice.points[len(lattice) // 2]
    if chart.is_flat:
        centers = np.vstack([mid, node_balls(lattice, rng, 29)])
        radii = step * rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], len(centers))
        if chart.periodic[0]:  # nodes half a period off lie on the ball
            radii[::2] = (chart.hi[0] - chart.lo[0]) / 2.0
        return chart, lattice, centers, radii
    disc_centers = np.vstack([mid, node_balls(lattice, rng, 15)])
    rho = step * rng.choice([4.0, 5.0], len(disc_centers))
    if name == "hyperbolic-halfplane":
        # the disc about (X, Y) of radius rho is B((X, y0), R) with
        # y0 cosh R = Y and y0 sinh R = rho
        y0 = np.sqrt(disc_centers[:, 1] ** 2 - rho**2)
        return chart, lattice, np.stack([disc_centers[:, 0], y0], -1), np.arcsinh(rho / y0)
    # the disc about M of radius rho spans |M| -+ rho along M / |M|, which
    # B(c, R) does for s -+ R = 2 artanh(|M| -+ rho), c = tanh(s / 2) M / |M|
    norm = np.linalg.norm(disc_centers, axis=1)
    disc_centers, rho, norm = (v[norm > step] for v in (disc_centers, rho, norm))  # M / |M| defined
    t1, t2 = np.arctanh(norm - rho), np.arctanh(norm + rho)
    centers = disc_centers / norm[:, None] * np.tanh((t1 + t2) / 2.0)[:, None]
    return chart, lattice, centers, t2 - t1


# per case: chart and a lattice box (lo, hi) with its node spacing
TIE_CASES = {
    "euclidean-ties": (("euclidean", {}), [4.0, 4.0], [5.0, 5.0], 1 / 24),
    "flat-torus-ties": (("flat-torus", {"L": 4.0}), [0.0, 0.0], [4.0, 4.0], 4 / 20.5),
    "flat-torus-ten-node-ties": (("flat-torus", {"L": 4.0}), [0.0, 0.0], [4.0, 4.0], 4 / 9),
    "euclidean-3d-ties": (("euclidean", {"n": 3}), [4.0, 4.0, 4.0], [5.0, 5.0, 5.0], 1 / 8),
    "hyperbolic-halfplane-boundary": (("hyperbolic-halfplane", {}), [-0.3, 0.7], [0.3, 1.3], 1 / 40),
    "hyperbolic-ball-boundary": (("hyperbolic-ball", {}), [-0.3, -0.3], [0.3, 0.3], 1 / 40),
}


def three_image_ranges(chart, lattice, c, half, axis):
    """The ranges of `_axis_frame` and `_frame_ranges` with one range per
    image c - L, c, c + L on a periodic axis, each kept to the nodes nearer
    that image than the others."""
    x0, step, m = lattice.lo[axis], lattice.step[axis], lattice.count[axis]
    period = (chart.hi - chart.lo)[axis]
    c = c[:, None]
    images = c + period * np.array([-1.0, 0.0, 1.0])
    near = np.ceil((c - period / 2.0 - x0) / step)
    far = np.floor((c + period / 2.0 - x0) / step)
    lower = np.concatenate([np.zeros_like(near), near, far + 1], axis=1)
    upper = np.concatenate([near - 1, far, np.full_like(far, m - 1)], axis=1)
    half = half[:, None]
    first = np.clip(np.maximum(np.ceil((images - half - x0) / step), lower), 0, m)
    last = np.clip(np.minimum(np.floor((images + half - x0) / step), upper), -1, m - 1)
    return first.astype(np.intp), last.astype(np.intp)


def index_sets(first, last):
    """Per entry and range, the set of indices first..last."""
    return [[set(range(a, b + 1)) for a, b in zip(f, l)] for f, l in zip(first, last)]


@st.composite
def periodic_range_cases(draw):
    """(chart, lattice, c, half): a torus lattice over the whole period or
    a sub-box (some reaching from near 0 to near L), centers anywhere or
    on nodes and half a period off nodes, and halves up to 0.75 L,
    among them whole numbers of steps and exactly L / 2."""
    L = 4.0
    chart = make_chart("flat-torus", n=2, L=L)
    box = draw(st.sampled_from([(0.0, L), (0.0, L), (0.2, 1.4), (0.1, 3.9), (0.0, 3.9999),
                                (1.5, 4.0), (2.9, 3.3)]))
    lo, hi, endpoint = chart.lattice_box([box, box])
    lattice = geo.Lattice(lo, hi, [draw(st.integers(2, 40))] * 2, endpoint)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, step = lattice.axes[0], float(lattice.step[0])
    c = np.concatenate([rng.uniform(0.0, L, 30), rng.choice(x, 10),
                        np.mod(rng.choice(x, 10) + L / 2.0, L)])
    half = np.concatenate([rng.uniform(0.0, 0.75 * L, 30), step * rng.integers(0, 8, 10),
                           np.full(10, L / 2.0)])
    return chart, lattice, c, half


@settings(max_examples=80, deadline=None)
@given(periodic_range_cases())
def test_periodic_axis_ranges_drop_an_empty_image(case):
    """The two ranges of a periodic axis hold the index sets of two
    adjacent ranges of the three-image version, c - L and c or c and
    c + L, and the range left out is empty in every case."""
    chart, lattice, c, half = case
    for axis in (0, 1):
        want = index_sets(*three_image_ranges(chart, lattice, c, half, axis))
        frame = cov._axis_frame(chart, lattice, c, axis)
        got = index_sets(*cov._frame_ranges(lattice, frame, half, axis))
        for (below, mid, above), two in zip(want, got):
            assert two in ([below, mid], [mid, above])
            assert not (above if two == [below, mid] else below)


def brute_force_counts(chart, probes, centers, radii, chunk=1 << 20):
    """Per probe, the balls with d <= r over the full probe x ball distance
    matrix, a block of probes at a time."""
    rows = max(1, chunk // len(centers))
    return np.concatenate([
        np.count_nonzero(chart.distance(probes[i:i + rows, None, :], centers[None, :, :])
                         <= radii[None, :], axis=1)
        for i in range(0, len(probes), rows)])


def count_spy(monkeypatch):
    """Record (chart, probes, centers, radii, counts) of every
    _count_memberships call and the (x, y, i) of every distance call made
    during the i-th."""
    counted, calls = [], []
    count = cov._count_memberships

    def counting(chart, probes, centers, radii):
        distance = chart.distance

        def recording(x, y):
            calls.append((np.array(x), np.array(y), len(counted)))
            return distance(x, y)

        monkeypatch.setattr(chart, "distance", recording)
        try:
            counts = count(chart, probes, centers, radii)
        finally:
            monkeypatch.setattr(chart, "distance", distance)
        counted.append((chart, probes, centers, radii, counts))
        return counts

    monkeypatch.setattr(cov, "_count_memberships", counting)
    return counted, calls


@pytest.mark.parametrize("name", sorted(LATTICE_CASES) + sorted(TIE_CASES))
@pytest.mark.parametrize("budget", [cov.PAIR_BUDGET, 7], ids=["default-budget", "budget-7"])
def test_count_memberships_equals_brute_force(name, budget, monkeypatch):
    """Counts from the bounds and the shell's distance calls equal counts
    over the full probe x ball distance matrix, also where probes lie on
    ball boundaries; a budget of 7 pairs splits the balls into many blocks
    and slices every shell with more pairs.  On flat charts only probes
    within the rounding slack of a boundary reach the distance."""
    monkeypatch.setattr(cov, "PAIR_BUDGET", budget)
    if name in TIE_CASES:
        chart, probes, centers, radii = tie_inputs(name)
    else:
        chart, probes, centers, radii, _ = lattice_inputs(name)
    d = chart.distance(probes.points[:, None, :], centers[None, :, :])
    want = np.count_nonzero(d <= radii, axis=1)
    _, calls = count_spy(monkeypatch)
    counts = cov._count_memberships(chart, probes, centers, radii)
    assert want.max() >= 2
    assert np.array_equal(counts, want)
    assert all(len(x) <= budget for x, _, _ in calls)
    if name in TIE_CASES:
        assert np.sum(np.abs(d - radii) <= 1e-12) >= 10  # probes on ball boundaries
    if chart.is_flat:
        near = np.abs(d - radii) <= 2 * geo.rounding_slack(radii)
        sent = np.concatenate([x for x, _, _ in calls] + [np.empty((0, chart.n))])
        assert len(sent) <= near.sum()
        assert np.all(np.any(np.all(sent[:, None, :] == probes.points[near.any(axis=1)], axis=-1), axis=1))


def draw_lattice(draw, torus_box):
    """(chart, lattice, lo, hi, rng): a model and n, a lattice of 2 to 12
    nodes per axis (6 in 3-D) over the sub-box [lo, hi] (on the torus,
    the whole period or torus_box per axis), and a seeded generator."""
    name, lo, hi = draw(st.sampled_from([
        ("euclidean", 4.0, 5.0), ("perturbed-euclidean", 4.0, 5.5),
        ("hyperbolic-halfplane", 0.7, 1.3), ("hyperbolic-ball", -0.4, 0.4),
        ("flat-torus", 0.0, 4.0), ("flat-torus", *torus_box)]))
    n = draw(st.sampled_from([2, 3])) if name in ("euclidean", "perturbed-euclidean", "flat-torus") else 2
    kw = {"n": n, "L": 4.0} if name == "flat-torus" else {"n": n}
    if name == "perturbed-euclidean":
        kw.update(a=draw(st.sampled_from([0.1, 0.6])), frequency=draw(st.sampled_from([1.0, 4.0])))
    chart = make_chart(name, **kw)
    per_axis = draw(st.integers(2, 12 if n == 2 else 6))
    box = [(lo, hi)] * n if name != "hyperbolic-halfplane" else [(-0.3, 0.3), (lo, hi)]
    b_lo, b_hi, endpoint = chart.lattice_box(box)
    lattice = cov._spaced_grid(b_lo, b_hi, float(np.min(b_hi - b_lo)) / per_axis, endpoint)
    return chart, lattice, b_lo, b_hi, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def count_cases(draw):
    """(chart, lattice, centers, radii): a lattice of draw_lattice, and 1
    to 12 balls up to about half the box wide (past half a period on a
    whole torus), centered anywhere or, for ties, on nodes with radii a
    whole number of steps."""
    chart, lattice, b_lo, b_hi, rng = draw_lattice(draw, (0.5, 2.0))
    n_balls = draw(st.integers(1, 12))
    width = float(np.min(b_hi - b_lo))
    r_max = draw(st.sampled_from([0.05, 0.2, 0.6])) * width
    if draw(st.booleans()):
        centers = lattice.points[rng.integers(0, len(lattice), n_balls)]
        radii = float(np.min(lattice.step)) * rng.integers(1, 6, n_balls)
    else:
        centers = chart.wrap(rng.uniform(b_lo, b_hi, size=(n_balls, chart.n)))
        radii = rng.uniform(0.05, 1.0, n_balls) * r_max
    return chart, lattice, centers, radii


@settings(max_examples=60, deadline=None)
@given(count_cases())
def test_count_memberships_fuzz(case):
    chart, probes, centers, radii = case
    counts = cov._count_memberships(chart, probes, centers, radii)
    assert np.array_equal(counts, brute_force_counts(chart, probes.points, centers, radii))


def test_count_memberships_memory_is_linear_in_probes(monkeypatch):
    """One count call holds O(probes + balls) ints and temporaries of
    PAIR_BUDGET size, however many (ball, row) entries the screen yields:
    a 3-D flat torus with 31^3 probes and 16^3 balls 2.5 center spacings
    wide yields ten entries per probe, and the call must stay below 4 ints
    per probe, 16 per ball and 64 per budget pair."""
    monkeypatch.setattr(cov, "PAIR_BUDGET", 4096)
    chart = make_chart("flat-torus", n=3, L=3.0)
    lo, hi, endpoint = chart.lattice_box()
    probes = geo.Lattice(lo, hi, [31] * 3, endpoint)
    centers = geo.Lattice(lo, hi, [16] * 3, endpoint).points
    radii = np.full(len(centers), 2.5 * 3.0 / 16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        counts = cov._count_memberships(chart, probes, centers, radii)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    entries = sum(len(ball) for ball, *_ in cov._screen(chart, probes, centers, radii))
    assert entries > 8 * len(probes)
    assert counts.min() >= 1
    assert peak <= 8 * (4 * len(probes) + 16 * len(centers) + 64 * cov.PAIR_BUDGET)


def chart_displacement(chart, x, y):
    """|x - y| in the chart, the nearest image on each periodic axis."""
    d = np.abs(x - y)
    return np.linalg.norm(np.where(chart.periodic, np.minimum(d, chart.hi - chart.lo - d), d),
                          axis=-1)


def touching_reach(radii, f_min):
    """The chart distance (2 max(r) + s) / sqrt(f_min) that touching pairs
    screen by, s the rounding slack."""
    diameter = 2.0 * float(np.max(radii))
    return (diameter + geo.rounding_slack(diameter)) / math.sqrt(f_min)


def distance_spy(monkeypatch, chart):
    """The number of pairs of every distance call on chart."""
    sizes = []
    distance = chart.distance

    def recording(x, y):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))))
        return distance(x, y)

    monkeypatch.setattr(chart, "distance", recording)
    return sizes


def brute_force_touching(chart, centers, radii):
    """(pairs, displacement): the index pairs i < j with d(c_i, c_j) <=
    r_i + r_j, and the chart displacement of every pair i < j."""
    i, j = np.triu_indices(len(centers), 1)
    meet = chart.distance(centers[i], centers[j]) <= radii[i] + radii[j]
    return list(zip(i[meet].tolist(), j[meet].tolist())), chart_displacement(chart, centers[i], centers[j])


@pytest.mark.parametrize("name, budget", [
    pytest.param(name, budget, id=f"budget-7-{name}" if budget == 7 else name)
    for budget in (cov.PAIR_BUDGET, 7) for name in sorted(LATTICE_CASES)])
def test_touching_pairs_equal_brute_force(name, budget, monkeypatch):
    """On a candidate lattice with holes, the touching pairs equal the
    pairs i < j with d(c_i, c_j) <= r_i + r_j over all pairs, and the
    screened count equals the number of pairs within the screen's chart
    distance (2 max(r) + s) / sqrt(f_min); a budget of 7 splits the balls
    into many runs and the pairs into many distance calls, none above the
    budget."""
    monkeypatch.setattr(cov, "PAIR_BUDGET", budget)
    chart, lattice, _, _, f_min = lattice_inputs(name)
    rng = np.random.default_rng(1)
    nodes = np.flatnonzero(rng.random(len(lattice)) < 0.7)
    radii = rng.uniform(0.2, 1.0, len(nodes)) * 2.0 * float(np.max(lattice.step))
    want, displacement = brute_force_touching(chart, lattice.points[nodes], radii)
    sizes = distance_spy(monkeypatch, chart)
    pairs, screened = cov._touching_pairs(chart, lattice, nodes, radii, f_min)
    within = displacement <= touching_reach(radii, f_min)
    assert 0 < len(want) < within.sum()
    assert sorted(map(tuple, pairs.tolist())) == want
    assert screened == int(within.sum())
    assert max(sizes) <= budget


@st.composite
def touching_cases(draw):
    """(chart, lattice, nodes, radii, f_min): a lattice of draw_lattice
    (its torus sub-box reaches both sides of the seam), a random subset
    of its nodes as centers, radii of whole and half lattice steps so
    that lattice ties occur, and f_min the least f over every center's
    ball box of radius 2 max(r), which holds every geodesic and chord
    between two balls that meet."""
    chart, lattice, _, _, rng = draw_lattice(draw, (0.1, 3.8))
    nodes = np.flatnonzero(rng.random(len(lattice)) < draw(st.sampled_from([0.3, 0.7, 1.0])))
    if len(nodes) == 0:
        nodes = np.array([0])
    radii = float(lattice.step[0]) / 2.0 * rng.integers(1, draw(st.sampled_from([3, 7])), len(nodes))
    box_lo, box_hi, _ = geo.ball_bbox(chart, lattice.points[nodes], np.full(len(nodes), 2.0 * radii.max()))
    f_min = float(np.min(chart.factor_range(box_lo, box_hi)[0]))
    return chart, lattice, nodes, radii, f_min


@settings(max_examples=60, deadline=None)
@given(touching_cases())
def test_touching_pairs_fuzz(case):
    """The touching pairs equal brute force, lattice ties included, and
    the screened count lies between the numbers of pairs within the reach
    less and more a relative 1e-12."""
    chart, lattice, nodes, radii, f_min = case
    pairs, screened = cov._touching_pairs(chart, lattice, nodes, radii, f_min)
    want, displacement = brute_force_touching(chart, lattice.points[nodes], radii)
    assert sorted(map(tuple, pairs.tolist())) == want
    reach = touching_reach(radii, f_min)
    assert np.sum(displacement <= reach * (1 - 1e-12)) <= screened <= np.sum(displacement <= reach * (1 + 1e-12))


def column_spy(monkeypatch):
    """The number of last-axis image columns in every run `_screen`
    yields."""
    columns = []
    screen = cov._screen

    def recording(*args):
        for run in screen(*args):
            columns.append(run[3][0].shape[1])
            yield run

    monkeypatch.setattr(cov, "_screen", recording)
    return columns


def seam_lattice(n):
    """(chart, lattice): a flat torus of period 4 and a lattice over the
    whole period, 24 nodes per axis in 2-D and 10 in 3-D."""
    chart = make_chart("flat-torus", n=n, L=4.0)
    lo, hi, endpoint = chart.lattice_box()
    return chart, geo.Lattice(lo, hi, [24 if n == 2 else 10] * n, endpoint)


BUDGETS = pytest.mark.parametrize("budget", [cov.PAIR_BUDGET, 7], ids=["default-budget", "budget-7"])


@pytest.mark.parametrize("n", [2, 3])
@BUDGETS
def test_counts_across_the_seam_keep_both_images(n, budget, monkeypatch):
    """On a lattice over the whole period, balls within 0.3 of the seam on
    the last axis reach the nodes on both of its sides, so both image
    columns stay, and the counts equal brute force."""
    monkeypatch.setattr(cov, "PAIR_BUDGET", budget)
    chart, probes = seam_lattice(n)
    rng = np.random.default_rng(n)
    centers = rng.uniform(0.0, 4.0, (30, n))
    centers[:, -1] = np.mod(rng.uniform(-0.3, 0.3, 30), 4.0)
    radii = rng.uniform(0.3, 0.8, 30)
    columns = column_spy(monkeypatch)
    counts = cov._count_memberships(chart, probes, centers, radii)
    want = brute_force_counts(chart, probes.points, centers, radii)
    assert want.max() >= 2
    assert np.array_equal(counts, want)
    assert set(columns) == {2}


@pytest.mark.parametrize("n", [2, 3])
@BUDGETS
def test_touching_pairs_across_the_seam_keep_both_images(n, budget, monkeypatch):
    """Centers on the nodes next to the seam of a whole-period lattice
    touch across it: both image columns stay, and the pairs equal brute
    force, some of them across the seam."""
    monkeypatch.setattr(cov, "PAIR_BUDGET", budget)
    chart, lattice = seam_lattice(n)
    m = int(lattice.count[-1])
    rng = np.random.default_rng(n)
    nodes = np.flatnonzero(np.isin(np.arange(len(lattice)) % m, [0, 1, m - 2, m - 1])
                           & (rng.random(len(lattice)) < 0.7))
    radii = float(lattice.step[0]) * rng.uniform(0.5, 1.5, len(nodes))
    columns = column_spy(monkeypatch)
    pairs, _ = cov._touching_pairs(chart, lattice, nodes, radii, 1.0)
    want, _ = brute_force_touching(chart, lattice.points[nodes], radii)
    side = lattice.points[nodes, -1] < 2.0
    assert any(side[i] != side[j] for i, j in want)
    assert sorted(map(tuple, pairs.tolist())) == want
    assert set(columns) == {2}


def test_sub_box_far_from_the_seam_keeps_one_image(monkeypatch):
    """A torus sub-box one unit wide and a period of 4, as in the bench
    cover box: no ball reaches the nodes through the second image, so the
    screens keep one last-axis column, and counts and pairs equal brute
    force."""
    chart = make_chart("flat-torus", n=2, L=4.0)
    lo, hi, endpoint = chart.lattice_box([(1.0, 2.0), (1.5, 2.5)])
    lattice = cov._spaced_grid(lo, hi, 1 / 30, endpoint)
    rng = np.random.default_rng(5)
    centers = rng.uniform(lo, hi, (40, 2))
    radii = rng.uniform(0.05, 0.3, 40)
    columns = column_spy(monkeypatch)
    counts = cov._count_memberships(chart, lattice, centers, radii)
    assert np.array_equal(counts, brute_force_counts(chart, lattice.points, centers, radii))
    nodes = rng.choice(len(lattice), 60, replace=False)
    node_radii = rng.uniform(0.02, 0.1, 60)
    pairs, _ = cov._touching_pairs(chart, lattice, nodes, node_radii, 1.0)
    want, _ = brute_force_touching(chart, lattice.points[nodes], node_radii)
    assert len(want) > 0
    assert sorted(map(tuple, pairs.tolist())) == want
    assert len(columns) >= 2 and set(columns) == {1}


@pytest.mark.parametrize("model", ["euclidean", "hyperbolic-halfplane", "flat-torus"])
def test_core_disjointness_reports_meeting_cores(model):
    """Cores scaled up until neighbours meet: check_core_disjointness
    reports exactly the number of core pairs with d(x_i, x_j) <= r_i + r_j
    over all pairs."""
    c = cov.build_admissible_covering(acceptance._field_for(model), 1, box=SMALL_BOXES[model])
    c.core_radii = 2.0 * c.core_radii
    want, _ = brute_force_touching(c.chart, c.centers, c.core_radii)
    report = cov.check_core_disjointness(c)
    assert len(want) > 0
    assert report["violations"] == len(want)


@pytest.mark.parametrize("box", [[(3.4, 4.6), (1.0, 2.0)], [(0.0, 8.0), (0.0, 4.0)],
                                 [(-0.5, 1.0), (0.0, 1.0)]])
def test_boxes_outside_the_working_box_are_rejected(box):
    chart = make_chart("flat-torus", n=2, L=4.0)
    fld = adm.radius_field(chart, adm.grid_centers(chart, 3), adm.AdmissibilityParams(m=2, eps=0.2))
    with pytest.raises(DomainError, match="leaves the working box"):
        cov.build_admissible_covering(fld, 0, box=box)
    c = cov.build_admissible_covering(fld, 0, box=[(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(DomainError, match="leaves the working box"):
        cov.certify_dilated_overlap(c, box=box)


def build_levels(fld, box):
    """Coverings at k = 0, 1, 2 with their dilated-overlap reports."""
    out = []
    for k in (0, 1, 2):
        c = cov.build_admissible_covering(fld, k, box=box)
        out.append((c, cov.certify_dilated_overlap(c, box=box)))
    return out


def test_membership_blocks_stay_within_pair_budget(monkeypatch):
    """Half-plane coverings, where f varies over every ball and the shell
    holds pairs, count them in several distance calls, none above the
    budget."""
    monkeypatch.setattr(cov, "PAIR_BUDGET", 64)
    setup = acceptance.MODEL_SETUPS["hyperbolic-halfplane"]
    _, calls = count_spy(monkeypatch)
    build_levels(acceptance._field_for("hyperbolic-halfplane"), setup["cover_box"])
    pairs = [len(x) for x, _, _ in calls]
    assert sum(pairs) > 4 * cov.PAIR_BUDGET
    assert max(pairs) <= cov.PAIR_BUDGET


def torus_field():
    chart = make_chart("flat-torus", n=2, L=4.0)
    return adm.radius_field(chart, adm.grid_centers(chart, 5), adm.AdmissibilityParams(m=2, eps=0.2))


@pytest.mark.parametrize("field, box, near_ties", [
    (euclid_field, [(4.5, 4.5 + math.pi / 3)] * 2, 0),
    (torus_field, [(0.3, 0.3 + math.pi / 3), (2.9, 2.9 + math.pi / 3)], 16),
], ids=["euclidean", "flat-torus"])
def test_flat_counts_call_distance_on_near_ties_only(field, box, near_ties, monkeypatch):
    """On a flat chart f_min = f_max on every ball, so the bounds leave to
    the distance only the probes within the rounding slack of a ball's
    boundary.  Boxes pi/3 wide keep the lattice steps incommensurable with
    the radii: no probe lies on a boundary, and the six counts send no
    pair (euclidean) or the 16 that fall within 2e-7 of one by chance
    (flat torus, against 3481 to 13924 probes and 625 to 2401 balls)."""
    fld = field()
    counted, calls = count_spy(monkeypatch)
    build_levels(fld, box)
    assert len(counted) == 6
    radius_at = [{tuple(c): r for c, r in zip(centers, radii)} for _, _, centers, radii, _ in counted]
    x = np.concatenate([x for x, _, _ in calls] + [np.empty((0, 2))])
    y = np.concatenate([y for _, y, _ in calls] + [np.empty((0, 2))])
    r = np.array([radius_at[i][tuple(c)] for _, y, i in calls for c in y])
    assert len(x) <= near_ties
    assert np.all(np.abs(fld.chart.distance(x, y) - r) <= 2 * geo.rounding_slack(r))


# per model: a cover box of at most a quarter of criterion 5's area
SMALL_BOXES = {
    "euclidean": [(4.5, 5.0), (4.5, 5.0)],
    "perturbed-euclidean": [(4.9, 5.1), (4.9, 5.1)],
    "hyperbolic-halfplane": [(-0.006, 0.006), (0.994, 1.006)],
    "hyperbolic-ball": [(-0.012, 0.012), (-0.012, 0.012)],
    "flat-torus": [(1.0, 1.5), (3.5, 4.0)],
}


@pytest.mark.parametrize("model", sorted(SMALL_BOXES))
def test_certificates_equal_brute_force_counts(model, monkeypatch):
    """overlap_certificate, coverage_fraction and max_overlap equal the
    counts of every probe x ball distance on the probe lattices the
    covering and its dilated check use."""
    counted, _ = count_spy(monkeypatch)
    levels = build_levels(acceptance._field_for(model), SMALL_BOXES[model])
    assert len(counted) == 6
    for i, (c, dilated) in enumerate(levels):
        covered, full = (brute_force_counts(chart, probes.points, centers, radii)
                         for chart, probes, centers, radii, _ in counted[2 * i:2 * i + 2])
        assert c.overlap_certificate == covered.max()
        assert c.coverage_fraction == np.mean(covered >= 1)
        assert dilated["max_overlap"] == full.max()
        assert dilated["probes"] == len(full)


@pytest.mark.parametrize("model", sorted(SMALL_BOXES))
def test_touching_pairs_send_no_empty_distance_call(model, monkeypatch):
    """Over the coverings at k = 0, 1, 2 and their core disjointness
    checks, no distance call of `_touching_pairs` carries 0 pairs; the
    touching pairs equal brute force, so the greedy selection and the
    reported violations are those of every pair i < j, and pairs_screened
    is the number of pairs within the screen's reach."""
    touching = cov._touching_pairs
    calls, sizes = [], []

    def spied(chart, lattice, nodes, radii, f_min):
        distance = chart.distance
        monkeypatch.setattr(chart, "distance", lambda x, y: sizes.append(
            int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])))) or distance(x, y))
        try:
            out = touching(chart, lattice, nodes, radii, f_min)
        finally:
            monkeypatch.setattr(chart, "distance", distance)
        calls.append((chart, lattice.points[nodes], radii, f_min, out))
        return out

    monkeypatch.setattr(cov, "_touching_pairs", spied)
    reports = [cov.check_core_disjointness(c) for c, _ in build_levels(acceptance._field_for(model),
                                                                      SMALL_BOXES[model])]
    assert len(calls) == 6 and 0 not in sizes
    for chart, centers, radii, f_min, (pairs, screened) in calls:
        want, displacement = brute_force_touching(chart, centers, radii)
        assert pairs.shape == (len(want), 2) and sorted(map(tuple, pairs.tolist())) == want
        reach = touching_reach(radii, f_min)
        assert (np.sum(displacement <= reach * (1 - 1e-12)) <= screened
                <= np.sum(displacement <= reach * (1 + 1e-12)))
    for report, (_, _, _, _, (pairs, screened)) in zip(reports, calls[3:]):
        assert report == {"pairs_screened": screened, "violations": len(pairs)}
