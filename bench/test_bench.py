"""Quick tests of the benchmark's oracles and span tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import spans

ROOT = Path(__file__).resolve().parent.parent


def model(name, box=((0.0, 10.0), (0.0, 10.0)), periodic=(False, False), a=0.0):
    return oracles.Model(name, box, periodic, a=a)


def test_flat_distances():
    d, d2 = model("euclidean").distance([1.0, 1.0], [4.0, 5.0])
    assert d == d2 == 5.0
    torus = model("flat-torus", ((0.0, 4.0), (0.0, 4.0)), (True, True))
    d, _ = torus.distance([0.1, 0.1], [3.9, 3.9])
    assert d == pytest.approx(0.2 * math.sqrt(2))
    d, _ = torus.distance([0.1, 2.0], [4.1 + 8.0, 2.0])  # whole periods away
    assert d == pytest.approx(0.0, abs=1e-12)


def test_hyperbolic_distances():
    half = model("hyperbolic-halfplane", ((-2.0, 2.0), (0.25, 4.0)))
    d, _ = half.distance([0.3, 1.0], [0.3, math.e])
    assert d == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    x = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(0.5, 2, 50)])
    y = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(0.5, 2, 50)])
    d, _ = half.distance(x, y)
    ref = np.arccosh(1 + np.sum((x - y) ** 2, axis=-1) / (2 * x[:, 1] * y[:, 1]))
    assert np.allclose(d, ref, rtol=1e-10)
    assert np.allclose(d, half.distance(y, x)[0])
    disc = model("hyperbolic-ball", ((-0.6, 0.6), (-0.6, 0.6)))
    d, _ = disc.distance([0.0, 0.0], [0.5, 0.0])
    assert d == pytest.approx(2 * math.atanh(0.5))


def test_perturbed_bracket():
    pert = model("perturbed-euclidean", a=0.1)
    rng = np.random.default_rng(1)
    x, y = rng.uniform(3, 7, (100, 2)), rng.uniform(3, 7, (100, 2))
    lo, hi = pert.distance(x, y)
    assert np.all(lo <= hi)
    # the upper end is the segment length: a fine trapezoid rule agrees
    s = np.linspace(0.0, 1.0, 4001)
    pts = x[:, None, :] + s[:, None] * (y - x)[:, None, :]
    root = np.sqrt(1 + 0.1 * np.sin(pts[..., 0]))
    ref = np.linalg.norm(y - x, axis=-1) * np.trapezoid(root, s, axis=1)
    assert np.allclose(hi, ref, rtol=1e-6)
    flat_lo, flat_hi = model("perturbed-euclidean", a=0.0).distance(x, y)
    assert np.allclose(flat_lo, flat_hi)


def test_disc_areas():
    flat = model("euclidean")
    assert oracles.disc_area(flat, 2.0) == pytest.approx(4 * math.pi)
    disc = model("hyperbolic-ball", ((-0.9, 0.9), (-0.9, 0.9)))
    R = 0.8
    rho = np.linspace(0.0, math.tanh(R / 2), 20001)
    area = np.trapezoid(4 / (1 - rho**2) ** 2 * 2 * math.pi * rho, rho)
    assert oracles.disc_area(disc, R) == pytest.approx(area, rel=1e-7)
    lo, hi = oracles.perturbed_area_bracket(0.0, 1.5)
    assert lo == hi == pytest.approx(math.pi * 2.25)


def test_area_tolerance_bounds_a_refined_midpoint_rule():
    res, sub = 64, 8
    R = 1.0
    h = 2.2 * R / res
    c = -1.1 * R + (np.arange(res) + 0.5) * h
    X, Y = np.meshgrid(c, c, indexing="ij")
    off = ((np.arange(sub) + 0.5) / sub - 0.5) * h
    ox, oy = np.meshgrid(off, off, indexing="ij")
    inside = (X[..., None, None] + ox) ** 2 + (Y[..., None, None] + oy) ** 2 <= R**2
    area = float(np.sum(inside.mean(axis=(-1, -2)))) * h * h
    assert abs(area - math.pi) <= oracles.area_tolerance(res, sub) * math.pi


def test_implicit_euler_coefficient_matches_the_recurrence():
    lam, dt = 3.7, 0.01
    c = 0.0
    for _ in range(40):
        c = (c + dt) / (1 + lam * dt)
    assert oracles.implicit_euler_coefficient(lam, dt, 40) == pytest.approx(c, rel=1e-14)
    assert oracles.implicit_euler_coefficient(lam, dt, 10**6) == pytest.approx(1 / lam)


def test_periodic_mode_eigenvalue():
    n, L, k = 48, 4.0, 3 * 2 * math.pi / 4.0
    x = np.arange(n) * L / n
    u = np.sin(k * x + 0.4)
    h = L / n
    lap = -(np.roll(u, -1) - 2 * u + np.roll(u, 1)) / h**2
    assert np.allclose(lap, oracles.periodic_mode_eigenvalue(k, h) * u)


def test_quadrature_weights():
    flat = model("euclidean")
    axes = oracles.grid_axes([(1.0, 3.0), (0.0, 1.0)], 33, (False, False))
    assert np.sum(oracles.quadrature_weights(flat, axes)) == pytest.approx(2.0)
    half = model("hyperbolic-halfplane", ((-2.0, 2.0), (0.25, 4.0)))
    axes = oracles.grid_axes([(-1.0, 1.0), (1.0, 2.0)], 201, (False, False))
    assert np.sum(oracles.quadrature_weights(half, axes)) == pytest.approx(1.0, rel=1e-4)
    torus = model("flat-torus", ((0.0, 4.0), (0.0, 4.0)), (True, True))
    axes = oracles.grid_axes([(0.0, 4.0), (0.0, 4.0)], 10, (True, True))
    assert len(axes[0]) == 10 and axes[0][-1] < 4.0
    assert np.sum(oracles.quadrature_weights(torus, axes)) == pytest.approx(16.0)


def test_contraction_excess():
    times = np.linspace(0, 1, 11)
    w = np.ones((3, 3))
    f = np.ones((3, 3))
    forcing = np.ones((11, 3, 3))
    good = times[:, None, None] * np.full((11, 3, 3), 0.9)
    assert oracles.contraction_excess(good, forcing, times, w, f, False) <= 0
    bad = good.copy()
    bad[5] *= 1.2
    assert oracles.contraction_excess(bad, forcing, times, w, f, False) > 0
    assert oracles.contraction_excess(good[..., None], forcing[..., None], times, w, f, True) <= 0


def test_membership_and_core_checks():
    flat = model("euclidean")
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (40, 2))
    centers = rng.uniform(0, 1, (30, 2))
    radii = rng.uniform(0.05, 0.3, 30)
    sure, maybe = oracles.membership_counts(flat, pts, centers, radii, block=7)
    ref = [sum(np.linalg.norm(p - c) <= r for c, r in zip(centers, radii)) for p in pts]
    assert sure.tolist() == ref == maybe.tolist()
    for m, lo, hi in ((model("flat-torus", ((0.0, 4.0), (0.0, 4.0)), (True, True)), 0.0, 4.0),
                      (model("flat-torus", ((0.0, 4.0), (0.0, 4.0)), (True, True)), 1.0, 2.0),
                      (model("hyperbolic-halfplane", ((-2.0, 2.0), (0.25, 4.0))), 0.5, 1.5),
                      (model("perturbed-euclidean", a=0.1), 4.0, 5.0)):
        pts = rng.uniform(lo, hi, (50, 2))
        centers = rng.uniform(lo, hi, (80, 2))
        radii = rng.uniform(0.05, 0.4, 80)
        got = oracles.membership_counts(m, pts, centers, radii, block=5)
        full = m.distance(pts[:, None, :], centers[None, :, :])
        assert got[0].tolist() == np.sum(full[1] <= radii, axis=1).tolist()
        assert got[1].tolist() == np.sum(full[0] <= radii, axis=1).tolist()
        meet = [bool(np.any(np.delete(m.distance(c, centers)[1] <= r + radii, i)))
                for i, (c, r) in enumerate(zip(centers, radii))]
        assert oracles.core_overlaps(m, centers, radii, range(80)) == sum(meet)
    cores = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 0.0]])
    assert oracles.core_overlaps(flat, cores, np.array([0.4, 0.3, 0.3]), [0, 1, 2]) == 2
    assert oracles.core_overlaps(flat, cores, np.array([0.4, 0.2, 0.2]), [0, 1, 2]) == 0
    assert oracles.lipschitz_excess(flat, cores, np.array([1.0, 1.9, 2.0]), 0.0) == \
        pytest.approx(-0.1)
    assert oracles.lipschitz_excess(flat, cores, np.array([1.0, 2.2, 2.0]), 0.0) > 0


def test_radius_bracket():
    flat = model("euclidean")
    pts = np.array([[2.0, 2.0], [4.0, 2.0]])
    lo, hi = oracles.radius_bracket(flat, np.array([[3.0, 2.0], [9.0, 9.0]]), pts,
                                    np.array([1.5, 3.0]))
    assert lo.tolist() == hi.tolist() == [1.0, 0.0]  # min(1, 2/2); R' - d < 0
    pert = model("perturbed-euclidean", a=0.1)
    lo, hi = oracles.radius_bracket(pert, np.array([[5.0, 5.0]]), np.array([[5.5, 5.0]]),
                                    np.array([1.0]))
    assert lo[0] < hi[0] == pytest.approx((1.0 - math.sqrt(0.9) * 0.5) / 2.0)


@pytest.mark.xfail(strict=True, reason="admissible._polar_ball_samples sizes its rays with "
                   "chart.f_min from a 33-point grid, which lies above the true minimum of f "
                   "near x1 = 3 pi / 2, so R' collapses at a center there")
def test_perturbed_radius_field_is_lipschitz_across_the_minimum_of_f():
    sys.path.insert(0, str(ROOT / "src"))
    from soboheat import admissible, geometry

    import workloads

    name = "perturbed-euclidean"
    chart = geometry.make_chart(name, **workloads.MODELS[name]["chart"])
    pts = workloads.box_grid([(4.48, 5.28), (4.47, 5.27)], 4)  # x1 = 4.7467 is a center
    params = admissible.AdmissibilityParams(m=2, eps=workloads.EPS, bisection_tol=workloads.TOL)
    fld = admissible.radius_field(chart, pts, params)
    assert oracles.lipschitz_excess(workloads.oracle_model(name), fld.points, fld.r_prime,
                                    workloads.TOL) <= 0
    assert admissible.check_lipschitz(fld)["violations"] == 0


def test_gap_to_boundary():
    flat = model("euclidean")
    assert flat.gap_to_boundary(np.array([[2.0, 5.0], [9.5, 9.0]])).tolist() == [2.0, 0.5]
    torus = model("flat-torus", ((0.0, 4.0), (0.0, 4.0)), (True, True))
    assert torus.gap_to_boundary(np.array([0.1, 3.9])) == 2.0


def test_self_times_subtract_children():
    tr = spans.Tracer()
    tr.labels = ["a", "b", "c", "d"]
    tr.start = [0.0, 1.0, 2.0, 5.0]
    tr.end = [10.0, 4.0, 3.0, 6.0]
    tr.parent = [-1, 0, 1, 0]
    assert tr.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_counts_calls_into_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from soboheat import admissible, geometry

    tr = spans.Tracer()
    tr.install()
    try:
        chart = geometry.make_chart("perturbed-euclidean", a=0.1)
        chart.distance(np.zeros((3, 1, 2)) + 5.0, np.ones((1, 4, 2)) + 5.0)
        chart.conformal_factor(np.ones((5, 2)))
        admissible.domain_cap(chart, np.array([5.0, 5.0]))
    finally:
        tr.uninstall()
    m = tr.layer_metrics()
    assert m["geometry.distance.pairs"] == 12 + 4 * 257  # + domain_cap's four faces
    assert m["geometry.distance.perturbed-euclidean.pairs"] == m["geometry.distance.pairs"]
    # the chart probe (33^2) and the direct call; the chord's own factor
    # evaluations stay with the distance kernel
    assert m["geometry.conformal_factor.points"] == 33**2 + 5
    assert m["admissible.domain_cap.s"] > 0
    assert geometry.MetricChart.distance.__name__ == "distance"
    assert not hasattr(geometry.MetricChart.distance, "__wrapped__")
    assert set(m) == set(spans.UNITS)
