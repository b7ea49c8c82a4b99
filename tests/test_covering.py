import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soboheat import admissible as adm
from soboheat import covering as cov
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


def test_build_covering_euclidean_level0():
    fld = euclid_field()
    c = cov.build_admissible_covering(fld, 0, box=BOX)
    assert c.k == 0 and c.eta == 10
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
    payload = json.loads(c.to_json())
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
    lo, hi, endpoint = cov._target_box(chart, list(zip(lo, hi)))
    lattice = cov._spaced_grid(lo, hi, spacing, endpoint)
    rng = np.random.default_rng(seed)
    centers = chart.wrap(rng.uniform(lo, hi, size=(n_balls, chart.n)))
    radii = rng.uniform(0.2, 1.0, n_balls) * r_max
    f_min_box, _ = chart.factor_range(*cov._grown_box(chart, lo, hi, r_max))
    return chart, lattice, centers, radii, f_min_box


@pytest.mark.parametrize("name", sorted(LATTICE_CASES))
@pytest.mark.parametrize("budget", [cov.PAIR_BUDGET, 7], ids=["default-budget", "budget-7"])
def test_count_memberships_equals_brute_force(name, budget, monkeypatch):
    """Counts over the lattice-screened pair blocks equal counts over the
    full probe x ball distance matrix; a budget of 7 pairs splits the
    balls into many blocks and slices every ball with more pairs."""
    monkeypatch.setattr(cov, "PAIR_BUDGET", budget)
    chart, probes, centers, radii, f_min_box = lattice_inputs(name)
    counts = cov._count_memberships(chart, probes, centers, radii, f_min_box)
    d = chart.distance(probes.points[:, None, :], centers[None, :, :])
    want = np.count_nonzero(d <= radii[None, :], axis=1)
    assert want.max() >= 2
    assert np.array_equal(counts, want)


def chart_displacement(chart, x, y):
    """|x - y| in the chart, the nearest image on each periodic axis."""
    d = np.abs(x - y)
    return np.linalg.norm(np.where(chart.periodic, np.minimum(d, chart.hi - chart.lo - d), d),
                          axis=-1)


@pytest.mark.parametrize("name", sorted(LATTICE_CASES))
def test_touching_pairs_equal_brute_force(name):
    """On a candidate lattice with holes, the touching pairs equal the
    pairs i < j with d(c_i, c_j) <= r_i + r_j over all pairs, and the
    screened count equals the number of pairs within the screen's chart
    distance 2 max(r) / sqrt(f_min)."""
    chart, lattice, _, _, f_min = lattice_inputs(name)
    rng = np.random.default_rng(1)
    nodes = np.flatnonzero(rng.random(len(lattice)) < 0.7)
    radii = rng.uniform(0.2, 1.0, len(nodes)) * 2.0 * float(np.max(lattice.step))
    pairs, screened = cov._touching_pairs(chart, lattice, nodes, radii, f_min)
    c = lattice.points[nodes]
    i, j = np.triu_indices(len(nodes), 1)
    meet = chart.distance(c[i], c[j]) <= radii[i] + radii[j]
    want = chart_displacement(chart, c[i], c[j]) <= 2.0 * np.max(radii) / np.sqrt(f_min)
    assert meet.sum() > 0 and want.sum() > meet.sum()
    assert sorted(map(tuple, pairs.tolist())) == list(zip(i[meet].tolist(), j[meet].tolist()))
    assert screened == int(want.sum())


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


def test_membership_blocks_stay_within_pair_budget(monkeypatch):
    """Coverings with far more screened pairs than the budget count them
    in several distance calls, none above the budget."""
    fld = euclid_field()
    chart = fld.chart
    pairs, inside = [], []
    distance, count = chart.distance, cov._count_memberships

    def recording(x, y):
        if inside:
            pairs.append(int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))))
        return distance(x, y)

    def counting(*args):
        inside.append(True)
        try:
            return count(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(chart, "distance", recording)
    monkeypatch.setattr(cov, "_count_memberships", counting)
    c = cov.build_admissible_covering(fld, 2, box=BOX)
    cov.certify_dilated_overlap(c, box=BOX)
    assert sum(pairs) > 4 * cov.PAIR_BUDGET
    assert max(pairs) <= cov.PAIR_BUDGET
