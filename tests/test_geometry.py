import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from soboheat import geometry as geo


def test_make_chart_rejects_unknown_model():
    with pytest.raises(geo.DomainError):
        geo.make_chart("klein-bottle")


def _metric(chart, pts):
    return chart.conformal_factor(pts)[:, None, None] * np.eye(chart.n)


def test_euclidean_metric_is_identity():
    chart = geo.make_chart("euclidean", n=3)
    pts = geo.Lattice(chart.lo, chart.hi, 3, True).points
    assert np.allclose(_metric(chart, pts), np.eye(3))
    assert np.allclose(geo.christoffel(chart, pts), 0.0)


def test_halfplane_christoffel_closed_form():
    chart = geo.make_chart("hyperbolic-halfplane")
    x = np.array([[0.0, 1.0]])
    gamma = geo.christoffel(chart, x)[0]
    # upper half-plane at y=1: G^x_xy = G^x_yx = -1, G^y_xx = 1, G^y_yy = -1
    assert gamma[0, 0, 1] == pytest.approx(-1.0)
    assert gamma[0, 1, 0] == pytest.approx(-1.0)
    assert gamma[1, 0, 0] == pytest.approx(1.0)
    assert gamma[1, 1, 1] == pytest.approx(-1.0)
    assert gamma[0, 0, 0] == pytest.approx(0.0)


def test_halfplane_distance_closed_form():
    chart = geo.make_chart("hyperbolic-halfplane")
    # vertical segment: d((0, a), (0, b)) = |log(b/a)|
    d = chart.distance(np.array([[0.0, 1.0]]), np.array([[0.0, 2.0]]))
    assert d[0] == pytest.approx(math.log(2.0), rel=1e-12)


def test_poincare_ball_distance_from_origin():
    chart = geo.make_chart("hyperbolic-ball")
    rho = 0.4
    d = chart.distance(np.array([[0.0, 0.0]]), np.array([[rho, 0.0]]))
    assert d[0] == pytest.approx(2.0 * math.atanh(rho), rel=1e-12)


def test_torus_distance_wraps():
    chart = geo.make_chart("flat-torus", n=2, L=4.0)
    d = chart.distance(np.array([[0.1, 0.0]]), np.array([[3.9, 0.0]]))
    assert d[0] == pytest.approx(0.2, rel=1e-12)


def test_torus_distance_folds_points_periods_apart():
    # |x - y| is taken modulo L before the nearer of the two ways round
    chart = geo.make_chart("flat-torus", n=2, L=4.0)
    d = chart.distance(np.array([[0.5, 0.5], [0.5, -7.0]]), np.array([[8.4, 0.5], [0.5, 1.5]]))
    assert d == pytest.approx([0.1, 0.5], rel=1e-12)


def test_perturbed_distance_between_flat_and_stretched():
    # f = 1 + a sin(x1) <= 1 + a, so chord length sits between the flat
    # distance and sqrt(1 + a) times it
    chart = geo.make_chart("perturbed-euclidean", a=0.1)
    x = np.array([[2.0, 2.0]])
    y = np.array([[2.6, 2.8]])
    flat = np.linalg.norm(y - x)
    d = chart.distance(x, y)[0]
    assert flat * math.sqrt(0.9) <= d <= flat * math.sqrt(1.1)


def test_conformal_derivative_matches_finite_difference():
    chart = geo.make_chart("perturbed-euclidean", a=0.1)
    x = np.array([[3.0, 4.0]])
    h = 1e-6
    for axis in range(2):
        beta = tuple(1 if i == axis else 0 for i in range(2))
        step = np.zeros(2)
        step[axis] = h
        fd = (chart.conformal_factor(x + step) - chart.conformal_factor(x - step)) / (2 * h)
        assert chart.conformal_derivative(x, beta)[0] == pytest.approx(fd[0], abs=1e-6)


def test_volume_of_unit_disc():
    chart = geo.make_chart("euclidean", n=2)
    vol = geo.volume_of_ball(chart, np.array([5.0, 5.0]), 1.0)
    assert vol == pytest.approx(math.pi, abs=5e-4)


def test_volume_hyperbolic_disc():
    # area of a hyperbolic disc of radius R is 2 pi (cosh R - 1)
    chart = geo.make_chart("hyperbolic-halfplane")
    R = 0.2
    vol = geo.volume_of_ball(chart, np.array([0.0, 1.0]), R)
    assert vol == pytest.approx(2 * math.pi * (math.cosh(R) - 1), rel=1e-3)


@pytest.mark.parametrize("name,center,radius", [("perturbed-euclidean", [5.0, 5.0], 1.2),
                                                ("hyperbolic-halfplane", [0.0, 1.0], 0.5)])
def test_volume_of_ball_keeps_distance_calls_within_the_pair_budget(monkeypatch, name, center, radius):
    """Both ball functions keep the budget by making no distance call at
    all: their quadrature reads the row sections alone."""
    chart = geo.make_chart(name)
    calls = []
    monkeypatch.setattr(chart, "distance", lambda x, y: calls.append((x, y)))
    assert geo.volume_of_ball(chart, np.array(center), radius) > 0
    assert geo.cmt_bound_check(chart, np.array(center), radius, m=3)["samples"] > 0
    assert calls == []


def test_volume_3d_ball():
    chart = geo.make_chart("euclidean", n=3)
    vol = geo.volume_of_ball(chart, np.array([5.0, 5.0, 5.0]), 0.8,
                             quadrature_resolution=128)
    assert vol == pytest.approx(4.0 / 3.0 * math.pi * 0.8**3, rel=1e-3)


# (model, chart parameters, center, radius, closed-form volume)
CLOSED_FORM_BALLS = [
    ("euclidean", {}, [5.0, 5.0], 1.0, math.pi),
    ("flat-torus", {"L": 4.0}, [0.1, 3.9], 1.0, math.pi),
    ("hyperbolic-halfplane", {}, [0.1, 1.0], 0.6, 2 * math.pi * (math.cosh(0.6) - 1)),
    ("hyperbolic-ball", {}, [0.05, -0.03], 0.5, 2 * math.pi * (math.cosh(0.5) - 1)),
]


@pytest.mark.parametrize("name,kw,center,radius,exact", CLOSED_FORM_BALLS,
                         ids=[f"{c[0]}-2d" for c in CLOSED_FORM_BALLS])
def test_volume_of_ball_matches_closed_forms(name, kw, center, radius, exact):
    # the 3-D ball's closed form is checked in test_volume_of_3d_ball_stays_slab_bound
    chart = geo.make_chart(name, **kw)
    assert abs(geo.volume_of_ball(chart, np.array(center), radius, 256) - exact) <= 1e-4 * exact


@pytest.mark.parametrize("name,kw,center,radius,exact", CLOSED_FORM_BALLS,
                         ids=[f"{c[0]}-2d" for c in CLOSED_FORM_BALLS])
def test_volume_of_ball_converges_at_order_three_halves(name, kw, center, radius, exact):
    """The midpoint rule across rows meets the square-root ends of the
    row lengths at the ball's two tangent rows: order 1.5 in res."""
    chart = geo.make_chart(name, **kw)
    errs = [abs(geo.volume_of_ball(chart, np.array(center), radius, res) - exact) for res in (64, 256)]
    assert math.log(errs[0] / errs[1]) / math.log(4) >= 1.4


def _chord_ball_area(a, w, center, radius):
    """The area of {chord <= R} about center on f = 1 + a sin(w x_1) by
    scipy quadrature of sqrt(f) itself: each x_1 sees the segment |x_2 - c_2|
    <= sqrt((R / M)^2 - (x_1 - c_1)^2) with M the mean of sqrt(f) over
    [c_1, x_1], weighed by f."""
    from scipy import integrate, optimize

    c1 = center[0]

    def M(x1):
        root = lambda t: math.sqrt(1 + a * math.sin(w * t))
        if x1 == c1:
            return root(c1)
        return integrate.quad(root, c1, x1, epsabs=1e-14, epsrel=1e-13)[0] / (x1 - c1)

    def g(x1):
        return (radius / M(x1)) ** 2 - (x1 - c1) ** 2

    reach = radius / math.sqrt(1 - a)
    left = optimize.brentq(g, c1 - reach, c1, xtol=1e-15)
    right = optimize.brentq(g, c1, c1 + reach, xtol=1e-15)
    width = lambda x1: 2 * math.sqrt(max(g(x1), 0.0)) * (1 + a * math.sin(w * x1))
    return integrate.quad(width, left, right, epsabs=1e-13, epsrel=1e-12, limit=400)[0]


@pytest.mark.parametrize("a,w", [(0.6, 4.0), (0.1, 1.0)])
def test_perturbed_volume_matches_a_chord_ball_oracle(a, w):
    chart = geo.make_chart("perturbed-euclidean", a=a, frequency=w)
    center, radius = np.array([5.0, 5.0]), 1.3
    exact = _chord_ball_area(a, w, center, radius)
    assert abs(geo.volume_of_ball(chart, center, radius, 256) - exact) <= 1e-4 * exact


@pytest.mark.parametrize("center", [[5.0], [5.0, 5.0, 5.0], [[5.0, 5.0]]])
def test_ball_center_must_be_one_point_of_the_chart(center):
    chart = geo.make_chart("euclidean")
    with pytest.raises(geo.DomainError, match="center"):
        geo.volume_of_ball(chart, np.array(center), 1.0)
    with pytest.raises(geo.DomainError, match="center"):
        geo.cmt_bound_check(chart, np.array(center), 1.0, m=2)


def test_ball_fits_domain():
    chart = geo.make_chart("euclidean", n=2)
    assert geo.ball_bbox(chart, np.array([5.0, 5.0]), 4.9)[2]
    assert not geo.ball_bbox(chart, np.array([5.0, 5.0]), 5.1)[2]
    hp = geo.make_chart("hyperbolic-halfplane")
    # from (0,1): the domain floor y=0.25 is at distance log(4) ~ 1.386
    assert geo.ball_bbox(hp, np.array([0.0, 1.0]), 1.3)[2]
    assert not geo.ball_bbox(hp, np.array([0.0, 1.0]), 1.45)[2]
    # near the floor: y0 e^-R >= 0.25 iff R <= log(1.2)
    assert geo.ball_bbox(hp, np.array([1.0, 0.3]), 0.18)[2]
    assert not geo.ball_bbox(hp, np.array([1.0, 0.3]), 0.19)[2]
    # disc: B(0, R) is the Euclidean disc of radius tanh(R/2), inside the
    # box [-0.6, 0.6]^2 iff R <= 2 artanh(0.6) ~ 1.386
    disc = geo.make_chart("hyperbolic-ball")
    assert geo.ball_bbox(disc, np.array([0.0, 0.0]), 1.38)[2]
    assert not geo.ball_bbox(disc, np.array([0.0, 0.0]), 1.39)[2]
    # torus: a ball fits while it spans at most one period (R <= L/2)
    torus = geo.make_chart("flat-torus", n=3, L=4.0)
    assert geo.ball_bbox(torus, np.array([0.1, 3.9, 2.0]), 2.0)[2]
    assert not geo.ball_bbox(torus, np.array([0.1, 3.9, 2.0]), 2.01)[2]
    # perturbed: f >= 0.9, so the box is c +- R / sqrt(0.9) once the
    # slab around c reaches the minimum of f at x1 = 3 pi / 2
    pert = geo.make_chart("perturbed-euclidean", n=3, a=0.1)
    assert geo.ball_bbox(pert, np.array([5.0, 5.0, 5.0]), 4.7)[2]
    assert not geo.ball_bbox(pert, np.array([5.0, 5.0, 5.0]), 4.8)[2]
    # one call answers for many balls
    lo, hi, inside = geo.ball_bbox(hp, np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([1.3, 1.45]))
    assert lo.shape == hi.shape == (2, 2) and inside.tolist() == [True, False]


def test_cmt_bound_zero_on_flat_space():
    chart = geo.make_chart("euclidean", n=2)
    rep = geo.cmt_bound_check(chart, np.array([5.0, 5.0]), 1.0, m=2)
    assert rep["witness_constant"] == pytest.approx(0.0, abs=1e-12)
    assert rep["holds"]


def test_cmt_bound_holds_on_halfplane():
    chart = geo.make_chart("hyperbolic-halfplane")
    rep = geo.cmt_bound_check(chart, np.array([0.0, 1.0]), 0.3, m=3)
    assert rep["holds"]
    assert rep["witness_constant"] > 0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_map_largest_entry_is_largest_jet_entry(n, k):
    """cmt_bound_check takes sup |d^(k-1) Gamma| as max |d^k phi| without
    building _gamma_map's tensor: both give the same bits on random jets
    and on the phi-jets of a chart."""
    rng = np.random.default_rng(10 * n + k)
    chart = geo.make_chart("hyperbolic-ball") if n == 2 else geo.make_chart("perturbed-euclidean", n=3)
    pts = chart.lo + (0.1 + 0.8 * rng.random((50, n))) * (chart.hi - chart.lo)
    jets = [rng.standard_normal((200,) + (n,) * k) * 10.0 ** rng.integers(-8, 8, (200,) + (n,) * k),
            geo._phi_jet(chart, pts, k)[k - 1]]
    for v in jets:
        full = np.max(np.abs(geo._gamma_map(v)).reshape(len(v), -1), axis=1)
        assert np.array_equal(full, np.max(np.abs(v).reshape(len(v), -1), axis=1))


def test_multi_indices_counts():
    # number of multi-indices of order k in n variables is C(n+k-1, k)
    assert len(geo.multi_indices(2, 2)) == 3
    assert len(geo.multi_indices(3, 2)) == 6


FIVE_CHARTS = [("euclidean", {}), ("perturbed-euclidean", {"a": 0.3, "frequency": 1.3}),
               ("hyperbolic-halfplane", {}), ("hyperbolic-ball", {}), ("flat-torus", {"L": 4.0})]


@pytest.mark.parametrize("name,kw", FIVE_CHARTS)
def test_second_christoffel_derivative_matches_central_difference(name, kw):
    chart = geo.make_chart(name, **kw)
    rng = np.random.default_rng(3)
    span = chart.hi - chart.lo
    pts = chart.lo + (0.1 + 0.8 * rng.random((40, chart.n))) * span
    exact = geo._gamma_map(geo._phi_jet(chart, pts, 3)[2])  # (..., l, m, i, k, j)
    h = 1e-5
    for axis in range(chart.n):
        step = np.zeros(chart.n)
        step[axis] = h
        fd = (geo.christoffel_derivative(chart, pts + step)
              - geo.christoffel_derivative(chart, pts - step)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(fd - exact[:, axis])) <= 1e-6 * scale


def _sympy_christoffel(f, xs):
    """Generic Levi-Civita Gamma^i_kj of g = f delta, nested [i][k][j]."""
    n = len(xs)
    g = sp.eye(n) * f
    ginv = g.inv()
    return [[[sum(ginv[i, l] * (sp.diff(g[l, k], xs[j]) + sp.diff(g[l, j], xs[k])
                                - sp.diff(g[k, j], xs[l])) for l in range(n)) / 2
              for j in range(n)] for k in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [2, 3])
def test_christoffel_derivative_matches_generic_sympy_connection(n):
    """The independent check of the second-order term of `_phi_jet`: sympy
    differentiates the generic connection, not the conformal formula."""
    a, w = 0.3, 1.3
    chart = geo.make_chart("perturbed-euclidean", n=n, a=a, frequency=w)
    xs = sp.symbols(f"x0:{n}")
    gam = _sympy_christoffel(1 + sp.Float(a) * sp.sin(sp.Float(w) * xs[0]), xs)
    dgam = [[[[sp.diff(gam[i][k][j], xs[m]) for j in range(n)] for k in range(n)]
             for i in range(n)] for m in range(n)]
    dgam_fn = sp.lambdify(xs, dgam, modules="numpy")
    pts = np.random.default_rng(5).uniform(0.5, 9.5, (25, n))
    got = geo.christoffel_derivative(chart, pts)
    for x, dg in zip(pts, got):
        want = np.array(dgam_fn(*x), dtype=float)
        assert np.allclose(dg, want, rtol=1e-12, atol=1e-14)


def test_budget_blocks_split_runs_at_the_budget():
    from soboheat.geometry import budget_blocks

    assert budget_blocks([3, 2, 1, 10, 4, 2, 6], 6) == [(0, 3), (3, 4), (4, 6), (6, 7)]
    assert budget_blocks([], 6) == []
    assert budget_blocks(np.zeros(5, dtype=int), 6) == [(0, 5)]


# The factors as the models define them, for sympy to differentiate.
def _factor_expr(name, xs, a=0.0, w=1.0):
    if name == "perturbed-euclidean":
        return 1 + sp.Float(a) * sp.sin(sp.Float(w) * xs[0])
    if name == "hyperbolic-halfplane":
        return 1 / xs[1] ** 2
    if name == "hyperbolic-ball":
        return 4 / (1 - xs[0] ** 2 - xs[1] ** 2) ** 2
    return sp.Integer(1)


JET_CASES = [("euclidean", 2, {}), ("euclidean", 3, {}),
             ("perturbed-euclidean", 2, {"a": 0.3, "frequency": 1.7}),
             ("perturbed-euclidean", 3, {"a": 0.45, "frequency": 0.6}),
             ("perturbed-euclidean", 2, {"a": 0.0, "frequency": 2.0}),
             ("perturbed-euclidean", 3, {"a": 0.2, "frequency": 0.0}),
             ("hyperbolic-halfplane", 2, {}), ("hyperbolic-ball", 2, {}),
             ("flat-torus", 2, {"L": 4.0}), ("flat-torus", 3, {"L": 3.0}),
             # f = 1 to every float, yet not flat: its derivatives are not 0
             ("perturbed-euclidean", 2, {"a": 1e-17, "frequency": 1.0})]


@pytest.mark.parametrize("name,n,kw", JET_CASES)
def test_closed_form_jets_match_sympy_derivatives(name, n, kw):
    chart = geo.make_chart(name, n=n, **kw)
    xs = sp.symbols(f"x0:{n}")
    expr = _factor_expr(name, xs, kw.get("a", 0.0), kw.get("frequency", 1.0))
    pts = chart.lo + np.random.default_rng(11).random((200, n)) * (chart.hi - chart.lo)
    for beta in [b for k in range(geo.M_MAX + 1) for b in geo.multi_indices(n, k)]:
        d = expr
        for x, k in zip(xs, beta):
            d = sp.diff(d, x, k) if k else d
        want = sp.lambdify(xs, d, "numpy")
        want = np.broadcast_to(np.asarray(want(*pts.T), dtype=float), len(pts))
        got = chart.conformal_derivative(pts, beta)
        assert got.shape == (len(pts),)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=f"{name} {beta}")
    flat = all(sp.diff(expr, x) == 0 for x in xs)
    assert chart.is_flat == flat


def test_conformal_derivative_rejects_bad_multi_indices():
    chart = geo.make_chart("hyperbolic-ball")
    x = np.zeros((1, 2))
    for beta in [(2, 2), (1, 0, 0), (-1, 1)]:
        with pytest.raises(geo.CapabilityError):
            chart.conformal_derivative(x, beta)
    with pytest.raises(geo.CapabilityError):
        chart.jet_bound(x[0], x[0], geo.M_MAX + 1)


def _chord_on_full_points(chart, x, y):
    """The chord with the quadrature nodes built in full and f evaluated on
    every coordinate."""
    x, y = np.broadcast_arrays(x, y)
    seg = np.linalg.norm(y - x, axis=-1)
    pts = x[..., None, :] + geo._GL_X[:, None] * (y - x)[..., None, :]
    f = chart.conformal_factor(pts)
    return seg * np.sum(geo._GL_W * np.sqrt(f), axis=-1)


@pytest.mark.parametrize("n", [2, 3])
def test_chord_on_x1_equals_chord_on_full_points(n):
    chart = geo.make_chart("perturbed-euclidean", n=n, a=0.4, frequency=1.3)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 10.0, (500, n))
    y = rng.uniform(0.0, 10.0, (500, n))
    # lattices as the callers pass them: rows that repeat x_1 against one
    # center, and the outer product of two grids
    rows = geo.Lattice([4.0] * n, [6.0] * n, [7] + [5] * (n - 1), True).points
    grid = geo.Lattice([3.0] * n, [7.0] * n, 4, True).points
    shapes = [(x, y), (x[:, None, :], y[None, :40, :]), (x[:3, None, None, :], y[:20].reshape(4, 5, n)),
              (x[0], y), (x[:1], y[:1]), (rows, rows[17]), (rows[:, None, :], grid[None, :, :]),
              (x[:0], y[:0]), (x[:0, None, :], y[None, :5, :])]
    for xs, ys in shapes:
        got = chart.distance(xs, ys)
        want = _chord_on_full_points(chart, xs, ys)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3])
def test_chord_evaluates_the_profile_once_per_distinct_x1_pair(n):
    chart = geo.make_chart("perturbed-euclidean", n=n, a=0.4, frequency=1.3)
    profile = chart.jet.profile
    nodes = []
    chart.jet.profile = lambda t, k: nodes.append(np.size(t)) or profile(t, k)
    rows = geo.Lattice([4.0] * n, [6.0] * n, [7] + [5] * (n - 1), True).points
    grid = geo.Lattice([3.0] * n, [7.0] * n, 4, True).points
    for xs, ys in [(rows, rows[17]), (rows[:, None, :], grid[None, :, :]), (rows[:0], grid[:0])]:
        nodes.clear()
        chart.distance(xs, ys)
        x1, y1 = np.broadcast_arrays(xs[..., 0], ys[..., 0])
        distinct = len(np.unique(np.stack([x1.ravel(), y1.ravel()], axis=-1), axis=0))
        assert sum(nodes) <= len(geo._GL_X) * distinct
        assert distinct < x1.size or x1.size == 0


# (model, chart parameters) for the closed-form ranges and ball boxes, in
# 2-D and, where the model has it, 3-D
RANGE_CASES = [("euclidean", {"n": 2}), ("euclidean", {"n": 3}),
               ("perturbed-euclidean", {"n": 2, "a": 0.3, "frequency": 1.3}),
               ("perturbed-euclidean", {"n": 3, "a": 0.1, "frequency": -2.0}),
               ("hyperbolic-halfplane", {}), ("hyperbolic-ball", {}),
               ("flat-torus", {"n": 2, "L": 4.0}), ("flat-torus", {"n": 3, "L": 3.0})]


def _case_id(case):
    return f"{case[0]}-{case[1].get('n', 2)}d"


@pytest.mark.parametrize("name,kw", RANGE_CASES, ids=map(_case_id, RANGE_CASES))
def test_factor_range_bounds_dense_samples_of_random_boxes(name, kw):
    """The exact range contains every sampled value of f, and dense
    samples reach it (to the sampling's resolution).  jet_bound(k) bounds
    every sample of sum_{|beta| = k} |d^beta f|; where f varies along one
    axis it is that term's sup, which dense samples reach too."""
    chart = geo.make_chart(name, **kw)
    rng = np.random.default_rng(17)
    per_axis = 65 if chart.n == 2 else 17
    for _ in range(40):
        a, b = chart.lo + rng.random((2, chart.n)) * (chart.hi - chart.lo)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        f_min, f_max = chart.factor_range(lo, hi)
        pts = np.concatenate([geo.Lattice(lo, hi, per_axis, True).points,
                              lo + rng.random((2000, chart.n)) * (hi - lo)])
        f = chart.conformal_factor(pts)
        assert f_min <= f.min() and f.max() <= f_max
        assert f.min() - f_min <= 1e-3 * f_min and f_max - f.max() <= 1e-3 * f_max
        for k in range(1, geo.M_MAX + 1):
            bound = chart.jet_bound(lo, hi, k)
            jet = sum(np.abs(chart.conformal_derivative(pts, beta)) for beta in geo.multi_indices(chart.n, k))
            assert jet.max() <= bound * (1 + 1e-12)  # pow rounds apart on arrays and scalars
            if name != "hyperbolic-ball":
                assert bound - jet.max() <= 1e-2 * bound
    # boxes as an array: one range and one bound per box
    boxes = chart.lo + rng.random((5, 2, chart.n)) * (chart.hi - chart.lo)
    lo, hi = boxes.min(axis=1), boxes.max(axis=1)
    f_min, f_max = chart.factor_range(lo, hi)
    bounds = [chart.jet_bound(lo, hi, k) for k in range(1, geo.M_MAX + 1)]
    for j in range(5):
        assert (f_min[j], f_max[j]) == chart.factor_range(lo[j], hi[j])
        assert [b[j] for b in bounds] == [chart.jet_bound(lo[j], hi[j], k) for k in range(1, geo.M_MAX + 1)]


def test_perturbed_factor_range_reaches_the_trough():
    # f = 1 + 0.1 sin(x1) is least at x1 = 3 pi / 2, between two samples
    chart = geo.make_chart("perturbed-euclidean", a=0.1)
    f_min, f_max = chart.factor_range([4.6, 0.0], [4.8, 1.0])
    assert f_min == 0.9
    assert f_max == max(chart.conformal_factor(np.array([[4.6, 0.0], [4.8, 0.0]])))
    f_min, f_max = chart.factor_range([0.0, 0.0], [10.0, 10.0])
    assert (f_min, f_max) == (0.9, 1.1)


# (model, chart parameters, centers, radii): balls of every model, among
# them a torus ball across the seam and half-plane balls near the floor
BOX_CASES = [
    ("euclidean", {"n": 2}, [[5.0, 5.0], [0.3, 9.0]], [1.0, 0.7]),
    ("euclidean", {"n": 3}, [[5.0, 5.0, 5.0]], [1.2]),
    ("perturbed-euclidean", {"n": 2, "a": 0.3, "frequency": 1.3}, [[4.7, 5.0], [2.0, 3.0]], [1.5, 0.4]),
    ("perturbed-euclidean", {"n": 3, "a": 0.1}, [[4.7, 5.0, 5.0]], [1.0]),
    ("hyperbolic-halfplane", {}, [[0.0, 1.0], [1.0, 0.3], [-1.5, 0.26]], [0.8, 0.5, 0.05]),
    ("hyperbolic-ball", {}, [[0.0, 0.0], [0.3, -0.4], [-0.55, 0.1]], [0.9, 0.6, 0.2]),
    ("flat-torus", {"n": 2, "L": 4.0}, [[0.1, 3.9], [2.0, 2.0]], [1.0, 1.9]),
    ("flat-torus", {"n": 3, "L": 3.0}, [[2.9, 0.2, 1.5]], [1.2]),
]


@pytest.mark.parametrize("name,kw,centers,radii", BOX_CASES, ids=map(_case_id, BOX_CASES))
def test_ball_box_contains_densely_sampled_ball(name, kw, centers, radii):
    """Every sampled point with distance <= R lies in the ball's box (on a
    periodic axis, its image nearest the center does).  Samples fill
    three times the box; on the flat and hyperbolic models the ball
    reaches every face of its box."""
    chart = geo.make_chart(name, **kw)
    rng = np.random.default_rng(23)
    per = np.array(chart.periodic)
    period = chart.hi - chart.lo
    count = 200_000 if chart.n == 2 else 400_000
    for c, R in zip(np.array(centers), radii):
        lo, hi, _ = geo.ball_bbox(chart, c, R)
        pts = c + (rng.random((count, chart.n)) - 0.5) * 3.0 * (hi - lo)
        if name == "hyperbolic-halfplane":
            pts = pts[pts[:, 1] > 0]
        if name == "hyperbolic-ball":
            pts = pts[np.sum(pts**2, axis=1) < 1]
        pts = chart.wrap(pts)
        ball = pts[chart.distance(pts, c[None]) <= R]
        assert len(ball) > 1000
        ball = np.where(per, ball + np.round((c - ball) / period) * period, ball)
        slack = 1e-12 * (1.0 + np.abs(c))
        assert np.all(ball >= lo - slack) and np.all(ball <= hi + slack)
        if name != "perturbed-euclidean":
            reach = (hi - lo) * (0.03 if chart.n == 2 else 0.08)
            assert np.all(ball.min(axis=0) <= lo + reach) and np.all(ball.max(axis=0) >= hi - reach)


def _volume_by_band(chart, center, radius, quadrature_resolution=256):
    """The band-and-subsample quadrature that `volume_of_ball` replaced,
    as an oracle: a cell whose centre lies within radius - band weighs 1,
    one beyond radius + band weighs 0, and any other cell weighs the share
    of its 8x8 (2-D) or 4x4x4 (3-D) sub-points within radius, with
    band = |h| sqrt(f_max) over the ball's box."""
    center = np.asarray(center, dtype=float)
    lo, hi, _ = geo.ball_bbox(chart, center, radius)
    n = chart.n
    res = int(quadrature_resolution)
    h = (hi - lo) / res
    cell = float(np.prod(h))
    band = float(np.linalg.norm(h)) * math.sqrt(float(chart.factor_range(lo, hi)[1]))
    sub_per_axis = 8 if n == 2 else 4
    sub = (np.arange(sub_per_axis) + 0.5) / sub_per_axis - 0.5
    offsets = np.stack(np.meshgrid(*([sub] * n), indexing="ij"), axis=-1).reshape(-1, n) * h
    axes = [lo[i] + (np.arange(res) + 0.5) * h[i] for i in range(n)]
    total = 0.0
    mesh_rest = np.meshgrid(*axes[1:], indexing="ij")
    rest = np.stack([m.ravel() for m in mesh_rest], axis=-1)
    rows_per_block = max(1, (1 << 18) // len(rest))
    for start in range(0, res, rows_per_block):
        x0 = axes[0][start : start + rows_per_block]
        pts = np.concatenate([np.repeat(x0, len(rest))[:, None], np.tile(rest, (len(x0), 1))], axis=1)
        d = chart.distance(pts, center[None, :])
        weights = (d <= radius - band).astype(float)
        boundary = (weights == 0.0) & (d <= radius + band)
        bpts = pts[boundary]
        frac = np.empty(len(bpts))
        for s in range(0, len(bpts), 256):
            dsub = chart.distance(bpts[s : s + 256, None, :] + offsets[None, :, :], center[None, None, :])
            frac[s : s + 256] = np.mean(dsub <= radius, axis=1)
        weights[boundary] = frac
        total += float(np.sum(chart.sqrt_det(pts) * weights))
    return total * cell


def _seeded_balls(name, kw, count, seed):
    """(center, radius) of balls well inside the working domain."""
    rng = np.random.default_rng(seed)
    chart = geo.make_chart(name, **kw)
    balls = []
    for _ in range(count):
        if name == "hyperbolic-halfplane":
            c, r = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.25)]), rng.uniform(0.3, 0.8)
        elif name == "hyperbolic-ball":
            c, r = rng.uniform(-0.1, 0.1, 2), rng.uniform(0.3, 0.8)
        elif name == "flat-torus":
            c, r = rng.uniform(0.0, chart.hi[0], chart.n), rng.uniform(0.3, 0.45) * chart.hi[0]
        else:
            c, r = rng.uniform(3.0, 7.0, chart.n), rng.uniform(0.5, 1.5)
        balls.append((c, r))
    return balls


# (model, chart parameters, resolution, balls, seed); resolutions 100 and
# 200 give sub-point grids whose size is not a power of two
SEEDED_BAND_CASES = [(name, kw, res, count, 31 + j)
                     for j, (res, count) in enumerate([(256, 2), (100, 1), (200, 1)])
                     for name, kw in FIVE_CHARTS] + [
    ("euclidean", {"n": 3}, 32, 2, 41),
    ("perturbed-euclidean", {"n": 3, "a": 0.3, "frequency": 1.3}, 48, 1, 42),
    ("flat-torus", {"n": 3, "L": 3.0}, 64, 1, 43),
]


def _holding(name, kw, centers, radii):
    """kw with the working box grown, where needed, to hold every ball's
    box: the volume depends on the ball's box alone."""
    chart = geo.make_chart(name, **kw)
    lo, hi, inside = geo.ball_bbox(chart, np.array(centers), np.array(radii))
    if np.all(inside):
        return kw
    box = np.stack([np.minimum(chart.lo, lo.min(axis=0)), np.maximum(chart.hi, hi.max(axis=0))], axis=-1)
    return {**kw, "box": box.tolist()}


# (model, chart parameters, resolution, balls, id): the seeded balls, and
# the balls of BOX_CASES near faces, across the seam, at torus R = 1.9
# with L/2 = 2 and at half-plane R = 0.05 just above the floor
BAND_CASES = [(name, kw, res, _seeded_balls(name, kw, count, seed), f"{_case_id((name, kw))}-{res}")
              for name, kw, res, count, seed in SEEDED_BAND_CASES] + [
    (name, _holding(name, kw, centers, radii), 128 if kw.get("n", 2) == 2 else 32,
     list(zip(np.array(centers), radii)), f"box-{_case_id((name, kw))}")
    for name, kw, centers, radii in BOX_CASES]


def _band_bound(chart, res):
    """The band rule's own relative error bound, 4 / (res * subsamples): a
    ball's boundary crosses ~4 res cells, each weighed to 1 / subsamples^n
    of its area."""
    return 4.0 / (res * (8 if chart.n == 2 else 4))


@pytest.mark.parametrize("name,kw,res,balls", [c[:4] for c in BAND_CASES], ids=[c[4] for c in BAND_CASES])
def test_volume_of_ball_equals_band_quadrature(name, kw, res, balls):
    """The row quadrature agrees with the distance-based band rule to
    within that rule's own error bound."""
    chart = geo.make_chart(name, **kw)
    for c, r in balls:
        band = _volume_by_band(chart, c, r, res)
        assert abs(geo.volume_of_ball(chart, c, r, res) - band) <= _band_bound(chart, res) * band


@pytest.mark.parametrize("name,kw,center,radius", [
    # a torus ball across the seam, on both axes
    ("flat-torus", {"L": 4.0}, [0.1, 3.9], 1.0),
    # a large chord slope: a w R = 3.1
    ("perturbed-euclidean", {"a": 0.6, "frequency": 4.0}, [5.0, 5.0], 1.3),
    ("perturbed-euclidean", {"a": 0.6, "frequency": 4.0}, [4.2, 5.0], 1.3),
])
def test_volume_of_ball_equals_band_quadrature_on_hard_balls(name, kw, center, radius):
    chart = geo.make_chart(name, **kw)
    band = _volume_by_band(chart, center, radius)
    assert abs(geo.volume_of_ball(chart, center, radius) - band) <= _band_bound(chart, 256) * band


def _volume_by_full_slabs(chart, center, radius, quadrature_resolution=256):
    """The row rule over every row of the ball's box in one pass, with each
    row's ends found by bisection on the distance from a point inside
    it, not read from the section; a row whose foot lies outside the ball
    adds 0."""
    center = np.asarray(center, dtype=float)
    lo, hi, _ = geo.ball_bbox(chart, center, radius)
    n, res = chart.n, quadrature_resolution
    h = (hi - lo)[:-1] / (2 * res)
    axes = [lo[i] + (np.arange(2 * res) + 0.5) * h[i] for i in range(n - 1)]
    rows = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
    mid, _ = chart._section(chart, center, radius, rows[:, 0])
    foot = np.broadcast_to(mid[-1], len(rows))

    def at(t):
        return np.concatenate([rows, t[:, None]], axis=1)

    meets = chart.distance(at(foot), center) <= radius
    ends = []
    for face in (lo[-1], hi[-1]):
        inner, outer = foot.copy(), np.full(len(rows), face)
        for _ in range(60):
            t = (inner + outer) / 2
            ok = chart.distance(at(t), center) <= radius
            inner, outer = np.where(ok, t, inner), np.where(ok, outer, t)
        ends.append(inner)
    a, b = ends[0][meets], ends[1][meets]
    nodes = a[:, None] + (b - a)[:, None] * geo._GL_X
    pts = np.concatenate([np.broadcast_to(rows[meets][:, None, :], nodes.shape + (n - 1,)), nodes[..., None]], -1)
    weights = ((b - a) * float(np.prod(h)))[:, None] * geo._GL_W
    return float(np.sum(weights * chart.sqrt_det(pts)))


SLAB_CASES = FIVE_CHARTS + [("euclidean", {"n": 3}), ("flat-torus", {"n": 3, "L": 3.0})]


@pytest.mark.parametrize("name,kw", SLAB_CASES, ids=map(_case_id, SLAB_CASES))
def test_volume_of_ball_equals_the_full_slab_sum(name, kw):
    """Skipping the rows that miss the ball, splitting the rest into
    blocks and taking each row's ends from the section change the sum by
    rounding only."""
    chart = geo.make_chart(name, **kw)
    res = 256 if chart.n == 2 else 48
    for c, r in _seeded_balls(name, kw, 2, 53):
        full = _volume_by_full_slabs(chart, c, r, res)
        assert geo.volume_of_ball(chart, c, r, res) == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("name,kw", FIVE_CHARTS, ids=map(_case_id, FIVE_CHARTS))
def test_volume_of_ball_takes_sqrt_det_only_where_a_cell_weighs(monkeypatch, name, kw):
    """sqrt_det sees the quadrature's nodes and nothing else, once each, in
    blocks of at most 2^18; every node carries a positive weight."""
    chart = geo.make_chart(name, **kw)
    (center, radius), = _seeded_balls(name, kw, 1, 59)
    seen = []
    sqrt_det = chart.sqrt_det
    monkeypatch.setattr(chart, "sqrt_det", lambda x: seen.append(np.array(x)) or sqrt_det(x))
    geo.volume_of_ball(chart, center, radius, 64)
    blocks = list(geo._ball_rows(chart, center, radius, 64))
    assert len(seen) == len(blocks) and all(len(x) <= 1 << 18 for x in seen)
    for x, (nodes, weights) in zip(seen, blocks):
        assert np.array_equal(x, nodes) and np.all(weights > 0)


# the models and dimensions of the row sections: perturbed-Euclidean at a
# large chord slope (a w = 2.4) and at a mild one
SECTION_CASES = [("euclidean", {"n": 2}), ("euclidean", {"n": 3}),
                 ("perturbed-euclidean", {"n": 2, "a": 0.6, "frequency": 4.0}),
                 ("perturbed-euclidean", {"n": 3, "a": 0.3, "frequency": 1.3}),
                 ("hyperbolic-halfplane", {}), ("hyperbolic-ball", {}),
                 ("flat-torus", {"n": 2, "L": 4.0}), ("flat-torus", {"n": 3, "L": 3.0})]


def _largest_fitting_radius(chart, center):
    """The largest R (to bisection's resolution) whose ball fits, by
    ball_bbox; on the torus L/2 less a rounding."""
    low, high = 0.0, 10.0
    for _ in range(60):
        mid = (low + high) / 2
        low, high = (mid, high) if geo.ball_bbox(chart, center, mid)[2] else (low, mid)
    return low


@st.composite
def section_cases(draw):
    """(chart, center, radius, rows, points): a ball that fits, at a share of
    the largest radius that fits (the torus share reaches 1, R = L/2, and
    centers fill the whole period, so balls cross the seam), sub-rows of
    its box, and points on each in the box: uniform ones and ones beside
    the section's ends."""
    name, kw = draw(st.sampled_from(SECTION_CASES))
    chart = geo.make_chart(name, **kw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = 0.0 if name == "flat-torus" else 0.02
    center = chart.lo + rng.uniform(edge, 1.0 - edge, chart.n) * (chart.hi - chart.lo)
    radius = draw(st.floats(0.01, 1.0)) * _largest_fitting_radius(chart, center)
    lo, hi, _ = geo.ball_bbox(chart, center, radius)
    rows = lo[:-1] + rng.random((8, chart.n - 1)) * (hi[:-1] - lo[:-1])
    mid, r = chart._section(chart, center, radius, rows[:, 0])
    half = np.sqrt(np.maximum(r**2 - np.sum((rows - mid[:-1]) ** 2, axis=1), 0.0))
    near = np.array([1e-4, 1e-2]) * r[:, None]
    ends = np.concatenate([mid[-1] + sign * half[:, None] + near * step
                           for sign in (-1, 1) for step in (-1, 1)], axis=1)
    # the quadrature's sub-rows lie in the box, where the section holds
    last = np.clip(np.concatenate([lo[-1] + rng.random((8, 32)) * (hi[-1] - lo[-1]), ends], axis=1),
                   lo[-1], hi[-1])
    points = np.concatenate([np.broadcast_to(rows[:, None, :], last.shape + (chart.n - 1,)),
                             last[..., None]], axis=-1)
    return chart, center, radius, rows, points


@settings(max_examples=80, deadline=None)
@given(section_cases())
def test_every_row_section_agrees_with_the_distance(case):
    """On each sub-row, |x - mid|^2 <= r^2 and d(x, c) <= R agree away
    from the boundary, at random points and beside the section's ends."""
    chart, center, radius, rows, points = case
    mid, r = chart._section(chart, center, radius, rows[:, 0])
    in_disc = np.sum((points - mid) ** 2, axis=-1) <= (r**2)[:, None]
    d = chart.distance(points, center[None, None, :])
    clear = np.abs(d - radius) > 1e-9 * radius
    assert np.array_equal(in_disc[clear], (d <= radius)[clear])
    assert np.any(in_disc & clear) and np.any(~in_disc & clear)


@pytest.mark.parametrize("name,kw", SECTION_CASES, ids=map(_case_id, SECTION_CASES))
def test_ball_rows_lie_in_the_ball(name, kw):
    """Every node of the quadrature lies in the ball by the distance, on
    seeded balls and on one at 0.99 of the largest radius that fits.  On
    the models whose box is tight the nodes span it to within a row cell."""
    chart = geo.make_chart(name, **kw)
    balls = _seeded_balls(name, kw, 2, 61)
    center = balls[0][0]
    balls.append((center, 0.99 * _largest_fitting_radius(chart, center)))
    res = 48 if chart.n == 2 else 12
    for c, r in balls:
        nodes = np.concatenate([x for x, _ in geo._ball_rows(chart, c, r, res)])
        assert np.all(chart.distance(nodes, c) <= r + geo.rounding_slack(r))
        if name == "perturbed-euclidean":
            continue
        lo, hi, _ = geo.ball_bbox(chart, c, r)
        cell = (hi - lo) / res
        assert np.all(nodes.min(axis=0) <= lo + cell) and np.all(nodes.max(axis=0) >= hi - cell)


def test_volume_of_3d_ball_stays_slab_bound():
    # a res^3 array would take 16.7 MB as bools and 134 MB as floats; the
    # quadrature holds the rows and a few arrays of one block of 2^18 nodes
    # at a time
    import tracemalloc

    chart = geo.make_chart("euclidean", n=3)
    tracemalloc.start()
    try:
        vol = geo.volume_of_ball(chart, np.array([5.0, 5.0, 5.0]), 0.8, quadrature_resolution=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vol == pytest.approx(4.0 / 3.0 * math.pi * 0.8**3, rel=1e-5)
    assert peak < 16 * 8 * (1 << 18) < 256**3 * 8


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_ball_radius_must_be_finite_and_positive(radius):
    chart = geo.make_chart("euclidean")
    with pytest.raises(geo.DomainError, match="radius"):
        geo.volume_of_ball(chart, np.array([5.0, 5.0]), radius)
    with pytest.raises(geo.DomainError, match="radius"):
        geo.cmt_bound_check(chart, np.array([5.0, 5.0]), radius, m=2)


@pytest.mark.parametrize("res", [0, -3])
def test_volume_of_ball_needs_a_cell(res):
    chart = geo.make_chart("euclidean")
    with pytest.raises(geo.DomainError, match="resolution"):
        geo.volume_of_ball(chart, np.array([5.0, 5.0]), 1.0, quadrature_resolution=res)
