"""The one box lattice: geometry.Lattice laid out by MetricChart.lattice_box.

Radius-field centers (admissible.grid_centers), covering candidates and
probes, and solve grids (norms.Grid.over_box) all come from it.  Each test
holds the lattice to the expressions it replaced, kept here as references:
per-axis np.linspace plus a meshgrid, and the whole-period test

    periodic & (hi - lo >= (working hi - working lo) * (1 - 1e-12)),

equal bit for bit on every model, on torus boxes that span the whole
period, (1 - 1e-13) of it (both wrap) and (1 - 1e-11) of it (it does not).
"""

import math

import numpy as np
import pytest

from soboheat import acceptance
from soboheat import admissible as adm
from soboheat import covering as cov
from soboheat import norms
from soboheat.geometry import DomainError, Lattice, make_chart

L = 4.0

# per case: chart name, chart parameters and a box inside the working box
CASES = {
    "euclidean": ("euclidean", {"n": 2}, [(4.0, 6.0), (3.5, 6.0)]),
    "euclidean-3d": ("euclidean", {"n": 3}, [(4.0, 6.0), (4.5, 5.0), (3.0, 6.5)]),
    "perturbed-euclidean": ("perturbed-euclidean", {"n": 2, "a": 0.3}, [(4.0, 6.0), (4.25, 5.75)]),
    "hyperbolic-halfplane": ("hyperbolic-halfplane", {}, [(-0.5, 0.5), (0.75, 1.5)]),
    "hyperbolic-ball": ("hyperbolic-ball", {}, [(-0.4, 0.4), (-0.3, 0.5)]),
    "torus-sub-box": ("flat-torus", {"n": 2, "L": L}, [(0.5, 2.5), (1.0, 3.0)]),
    "torus-whole": ("flat-torus", {"n": 2, "L": L}, [(0.0, L), (0.0, L)]),
    "torus-strip": ("flat-torus", {"n": 2, "L": L}, [(0.0, L), (0.0, L / 2)]),
    "torus-1e-13-short": ("flat-torus", {"n": 2, "L": L}, [(0.0, L), (0.0, L * (1 - 1e-13))]),
    "torus-1e-11-short": ("flat-torus", {"n": 2, "L": L}, [(0.0, L * (1 - 1e-11)), (0.0, L)]),
    "torus-3d": ("flat-torus", {"n": 3, "L": 3.0}, [(0.0, 3.0), (0.0, 3.0), (2.85, 3.0)]),
}


def case_chart(case):
    name, kw, box = CASES[case]
    return make_chart(name, **kw), box


# -- the replaced expressions ------------------------------------------


def ref_full_period(chart, lo, hi):
    span = np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)
    return np.array(chart.periodic) & (span >= (chart.hi - chart.lo) * (1 - 1e-12))


def ref_box(box):
    return (np.asarray([b[0] for b in box], dtype=float), np.asarray([b[1] for b in box], dtype=float))


def ref_axes(lo, hi, count, endpoint):
    return [np.linspace(lo[i], hi[i], int(count[i]), endpoint=bool(endpoint[i])) for i in range(len(lo))]


def ref_points(axes):
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def ref_grid(chart, box, per_axis):
    """(points, h, f, quadrature, wraps) as Grid.over_box built them."""
    n = chart.n
    per_axis = np.broadcast_to(np.asarray(per_axis, dtype=int), (n,))
    lo, hi = ref_box(box)
    wraps = ref_full_period(chart, lo, hi)
    axes = ref_axes(lo, hi, per_axis, ~wraps)
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    shape = points.shape[:-1]
    h = np.array([a[1] - a[0] for a in axes])
    f = chart.conformal_factor(points.reshape(-1, n)).reshape(shape)
    quadrature = float(np.prod(h)) * f ** (n / 2.0)
    for i in range(n):
        if not wraps[i]:
            w = np.ones(shape[i])
            w[0] = w[-1] = 0.5
            quadrature = quadrature * w.reshape([shape[i] if j == i else 1 for j in range(n)])
    return points, h, f, quadrature, tuple(bool(w) for w in wraps)


def ref_centers(chart, per_axis, margin, box):
    """grid_centers' points over the working box, and the radius command's
    over a --box, as each built them."""
    n = chart.n
    per_axis = np.broadcast_to(np.asarray(per_axis, dtype=int), (n,))
    if box is None:
        per = np.array(chart.periodic)
        lo, hi = np.where(per, chart.lo, chart.lo + margin), np.where(per, chart.hi, chart.hi - margin)
    else:
        lo, hi = ref_box(box)
        per = ref_full_period(chart, lo, hi)
        lo, hi = np.where(per, lo, lo + margin), np.where(per, hi, hi - margin)
    return ref_points(ref_axes(lo, hi, per_axis, ~per))


def ref_lattice(chart, box, count):
    """(axes, step, points) of covering's lattice over a target box with
    count nodes per axis, as it built them."""
    lo, hi = (chart.lo, chart.hi) if box is None else ref_box(box)
    ends = ~ref_full_period(chart, lo, hi)
    count = np.asarray(count, dtype=int)
    axes = ref_axes(lo, hi, count, ends)
    return axes, (np.asarray(hi, dtype=float) - lo) / (count - ends), ref_points(axes)


# -- the lattice itself --------------------------------------------------


def test_whole_period_rule_matches_the_reference():
    chart = make_chart("flat-torus", n=2, L=L)
    wraps = {case: ~chart.lattice_box(CASES[case][2])[2] for case in CASES if CASES[case][1].get("n") == 2
             and CASES[case][0] == "flat-torus"}
    assert [w.tolist() for w in wraps.values()] == [[False, False], [True, True], [True, False],
                                                    [True, True], [False, True]]
    for case, w in wraps.items():
        assert np.array_equal(w, ref_full_period(chart, *ref_box(CASES[case][2]))), case


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("nodes", [17, 33, 81])
def test_grid_over_box_equals_the_linspace_grid(case, nodes):
    chart, box = case_chart(case)
    if chart.n == 3:
        nodes = nodes // 4 + 1
    grid = norms.Grid.over_box(chart, box, nodes)
    points, h, f, quadrature, wraps = ref_grid(chart, box, nodes)
    assert np.array_equal(grid.points, points)
    assert np.array_equal(grid.h, h)
    assert np.array_equal(grid.f, f)
    assert np.array_equal(grid.quadrature, quadrature)
    assert grid.wraps == wraps
    assert grid.shape == points.shape[:-1]


@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_axis_counts_may_differ(case):
    chart, box = case_chart(case)
    per_axis = [9, 13, 5][:chart.n]
    grid = norms.Grid.over_box(chart, box, per_axis)
    points, h, _, quadrature, wraps = ref_grid(chart, box, per_axis)
    assert np.array_equal(grid.points, points) and np.array_equal(grid.h, h)
    assert np.array_equal(grid.quadrature, quadrature) and grid.wraps == wraps


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("margin_share", [0.0, 0.1, 0.3])
def test_grid_centers_equal_the_reference(case, margin_share):
    chart, box = case_chart(case)
    lo, hi = ref_box(box)
    margin = margin_share * float(np.min(hi - lo))
    for per_axis in (1, 4, [3, 5, 2][:chart.n]):
        got = adm.grid_centers(chart, per_axis, margin, box)
        assert np.array_equal(got, ref_centers(chart, per_axis, margin, box))
        work_margin = margin_share * float(np.min(chart.hi - chart.lo))
        got = adm.grid_centers(chart, per_axis, work_margin)
        assert np.array_equal(got, ref_centers(chart, per_axis, work_margin, None))


@pytest.mark.parametrize("name", ["euclidean", "hyperbolic-halfplane", "hyperbolic-ball"])
def test_grid_centers_reject_a_margin_that_empties_the_working_box(name):
    chart = make_chart(name)
    half = float(np.min(chart.hi - chart.lo)) / 2.0
    assert len(adm.grid_centers(chart, 3, 0.9 * half)) == 9
    for margin in (half, 2.0 * half, math.nan):
        with pytest.raises(DomainError, match="leaves an empty box"):
            adm.grid_centers(chart, 3, margin)


def test_margin_applies_only_to_axes_that_do_not_wrap():
    chart = make_chart("flat-torus", n=2, L=L)
    whole = adm.grid_centers(chart, 4, 10.0)
    assert np.array_equal(whole, adm.grid_centers(chart, 4))
    # the strip wraps along x1 only: there the margin does not apply
    strip = adm.grid_centers(chart, 5, 0.5, [(0.0, L), (0.0, 2.0)])
    assert np.array_equal(np.unique(strip[:, 0]), np.linspace(0.0, L, 5, endpoint=False))
    assert np.array_equal(np.unique(strip[:, 1]), np.linspace(0.5, 1.5, 5))
    with pytest.raises(DomainError, match="leaves an empty box"):
        adm.grid_centers(chart, 5, 1.0, [(0.0, L), (0.0, 2.0)])


def test_lattice_of_one_node_per_axis_divides_by_nothing():
    with np.errstate(all="raise"):
        lattice = Lattice([4.0, 4.0], [5.0, 5.0], 1, True)
        assert lattice.points.tolist() == [[4.0, 4.0]] and len(lattice) == 1
    assert np.array_equal(Lattice([0.0], [4.0], 8, False).step, [0.5])


# -- covering's candidate and probe lattices -----------------------------


def covering_lattices(monkeypatch, field, box):
    """The candidate lattice of a level-0 covering of box and the probe
    lattices of both of its counts, as built."""
    probes = []
    count = cov._count_memberships

    def spy(chart, lattice, centers, radii):
        probes.append(lattice)
        return count(chart, lattice, centers, radii)

    monkeypatch.setattr(cov, "_count_memberships", spy)
    covering = cov.build_admissible_covering(field, 0, box=box)
    cov.certify_dilated_overlap(covering, box=box)
    return [covering.lattice] + probes


TORUS_COVER_BOXES = {
    "torus-whole": [(0.0, L), (0.0, L)],
    "torus-strip": [(0.0, L), (1.0, 2.0)],
    "torus-1e-13-short": [(0.0, L * (1 - 1e-13)), (1.0, 2.0)],
    "torus-1e-11-short": [(0.0, L * (1 - 1e-11)), (1.0, 2.0)],
}


@pytest.mark.parametrize("case", sorted(acceptance.MODEL_SETUPS) + sorted(TORUS_COVER_BOXES))
def test_covering_lattices_equal_the_reference(case, monkeypatch):
    name = "flat-torus" if case in TORUS_COVER_BOXES else case
    box = TORUS_COVER_BOXES.get(case, acceptance.MODEL_SETUPS[name]["cover_box"])
    field = acceptance._field_for(name)
    lattices = covering_lattices(monkeypatch, field, box)
    assert len(lattices) == 3
    for lattice in lattices:
        axes, step, points = ref_lattice(field.chart, box, lattice.count)
        assert all(np.array_equal(a, b) for a, b in zip(lattice.axes, axes))
        assert np.array_equal(lattice.step, step)
        assert np.array_equal(lattice.points, points)
    wraps = ~lattices[0].endpoint
    assert wraps.tolist() == [case in ("torus-whole", "torus-strip", "torus-1e-13-short"),
                              case == "torus-whole"]
