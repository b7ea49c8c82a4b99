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


def test_ball_tower_all_levels_admissible():
    fld = euclid_field()
    tower = cov.ball_tower(fld.chart, np.array([5.0, 5.0]), fld, 3)
    assert len(tower) == 4
    radii = [r for r, _ in tower]
    assert all(abs(radii[j] / radii[j + 1] - 2.0) < 1e-12 for j in range(3))
    assert all(flag for _, flag in tower)


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


# per chart: a probe box (lo, hi) and the largest ball radius; the torus
# box straddles the seam x1 = L and wraps
MEMBERSHIP_CASES = {
    "euclidean": ({}, [4.0, 4.0], [5.0, 5.0], 0.3),
    "perturbed-euclidean": ({}, [4.6, 4.6], [5.4, 5.4], 0.2),
    "hyperbolic-halfplane": ({}, [-0.3, 0.7], [0.3, 1.3], 0.2),
    "hyperbolic-ball": ({}, [-0.3, -0.3], [0.3, 0.3], 0.3),
    "flat-torus": ({"L": 4.0}, [3.4, 1.0], [4.6, 2.0], 0.3),
}


def membership_inputs(name, n_probes=600, n_balls=80, seed=0):
    kw, lo, hi, r_max = MEMBERSHIP_CASES[name]
    chart = make_chart(name, **kw)
    rng = np.random.default_rng(seed)
    probes = chart.wrap(rng.uniform(lo, hi, size=(n_probes, 2)))
    centers = chart.wrap(rng.uniform(lo, hi, size=(n_balls, 2)))
    radii = rng.uniform(0.2, 1.0, n_balls) * r_max
    f_min_box, _ = chart.factor_range(*cov._grown_box(chart, lo, hi, r_max))
    return chart, probes, centers, radii, f_min_box


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_CASES))
@pytest.mark.parametrize("budget", [cov.PAIR_BUDGET, 7], ids=["default-budget", "budget-7"])
def test_count_memberships_equals_brute_force(name, budget, monkeypatch):
    """Counts over the KD-tree-screened pair blocks equal counts over the
    full probe x ball distance matrix; a budget of 7 pairs splits the
    balls into many blocks and slices every ball with more pairs."""
    monkeypatch.setattr(cov, "PAIR_BUDGET", budget)
    chart, probes, centers, radii, f_min_box = membership_inputs(name)
    counts = cov._count_memberships(chart, probes, centers, radii, f_min_box)
    d = chart.distance(probes[:, None, :], centers[None, :, :])
    want = np.count_nonzero(d <= radii[None, :], axis=1)
    assert want.max() >= 2
    assert np.array_equal(counts, want)


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
