import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soboheat import admissible as adm
from soboheat.geometry import DomainError, ball_bbox, make_chart, multi_indices


def params(**kw):
    base = dict(m=2, eps=0.2)
    base.update(kw)
    return adm.AdmissibilityParams(**base)


def test_params_validation():
    with pytest.raises(DomainError):
        adm.AdmissibilityParams(m=2, eps=0.5)  # eps must be <= 1/3
    with pytest.raises(DomainError):
        adm.AdmissibilityParams(m=2, eps=0.0)
    with pytest.raises(DomainError):
        adm.AdmissibilityParams(m=0, eps=0.2)
    with pytest.raises(DomainError):
        adm.AdmissibilityParams(m=4, eps=0.2)  # the charts give derivatives up to order 3
    for tol in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="bisection tolerance"):
            adm.AdmissibilityParams(bisection_tol=tol)


def test_bisection_below_the_float_spacing_ends():
    # a tolerance below the spacing of floats near R' ends where the
    # midpoint stops splitting the bracket, at the radius a float can hold
    chart = make_chart("hyperbolic-halfplane")
    fine = adm.radius_field(chart, np.array([[0.0, 1.0]]), adm.AdmissibilityParams(bisection_tol=1e-300))
    coarse = adm.radius_field(chart, np.array([[0.0, 1.0]]), adm.AdmissibilityParams())
    assert 0 <= fine.r_prime[0] - coarse.r_prime[0] <= 1e-3
    assert fine.iterations[0] < 70


def test_lower_bound_vanishes_where_every_center_is_degenerate():
    # a center on the face of the box admits no radius
    chart = make_chart("euclidean", n=2)
    fld = adm.radius_field(chart, np.array([[0.0, 0.0]]), adm.AdmissibilityParams())
    assert fld.degenerate.all()
    assert fld.lower_bound_at(np.array([[5.0, 5.0], [0.1, 0.1]])).tolist() == [0.0, 0.0]


def test_flat_space_radius_is_capped_domain_gap():
    chart = make_chart("euclidean", n=2)
    p = params()
    # far from the boundary the cap R_CAP binds, R_eps saturates at 1
    r_prime, r_eps, truncated, _ = adm.admissible_radius(chart, np.array([5.0, 5.0]), p)
    assert truncated
    assert r_eps == pytest.approx(1.0, abs=p.bisection_tol)
    # near the boundary the domain gap binds: R' = gap, R_eps = min(1, gap/2)
    r_prime, r_eps, truncated, _ = adm.admissible_radius(chart, np.array([0.5, 5.0]), p)
    assert r_prime == pytest.approx(0.5, abs=p.bisection_tol)
    assert r_eps == pytest.approx(0.25, abs=p.bisection_tol)


def test_torus_radius_is_half_period_capped():
    chart = make_chart("flat-torus", n=2, L=4.0)
    p = params()
    r_prime, r_eps, truncated, _ = adm.admissible_radius(chart, np.array([1.0, 3.0]), p)
    # flat and periodic: R' = half period = 2, truncated at the domain cap
    assert truncated
    assert r_prime == pytest.approx(2.0, abs=p.bisection_tol)
    assert r_eps == pytest.approx(1.0, abs=p.bisection_tol)


def test_halfplane_pointwise_oracle():
    """The homothety (x, y) -> (t x, t y) is an isometry that maps charts
    to rescaled charts, so R' is the same at every height: R'(0, y) =
    R'(0, 1)."""
    chart = make_chart("hyperbolic-halfplane")
    p = params(m=1)
    r1, _, t1, _ = adm.admissible_radius(chart, np.array([0.0, 1.0]), p)
    assert not t1
    for y in (0.7, 1.5, 2.0):
        ry, _, _, _ = adm.admissible_radius(chart, np.array([0.0, y]), p)
        assert ry == pytest.approx(r1, abs=2 * p.bisection_tol)


def test_halfplane_condition1_hand_bound():
    """Condition on the factor band alone: f(x)/f(c) = (y_c/y)^2 needs
    y/y_c in [1/sqrt(1+eps), 1/sqrt(1-eps)]; the geodesic ball of radius
    R reaches heights y_c e^{+-R}, so R' <= log(1+eps)/2 under m=1
    conditions.  The returned radius must respect that bound."""
    chart = make_chart("hyperbolic-halfplane")
    p = params(m=1)
    r1, _, _, _ = adm.admissible_radius(chart, np.array([0.0, 1.0]), p)
    assert r1 <= 0.5 * math.log(1 + p.eps) + p.bisection_tol


def test_is_admissible_monotone_in_radius():
    chart = make_chart("hyperbolic-ball")
    p = params()
    c = np.array([0.1, 0.05])
    r_prime, _, _, _ = adm.admissible_radius(chart, c, p)
    assert adm.is_admissible(chart, c, 0.5 * r_prime, p)
    assert not adm.is_admissible(chart, c, 1.5 * r_prime, p)


def test_smaller_eps_gives_smaller_radius():
    chart = make_chart("hyperbolic-ball")
    c = np.array([0.0, 0.0])
    r_small = adm.admissible_radius(chart, c, params(eps=0.1))[0]
    r_large = adm.admissible_radius(chart, c, params(eps=0.3))[0]
    assert r_small < r_large


def test_radius_field_shapes_and_csv(tmp_path):
    chart = make_chart("euclidean", n=2)
    pts = adm.grid_centers(chart, 4, margin=1.0)
    fld = adm.radius_field(chart, pts, params())
    assert fld.r_eps.shape == (16,)
    assert not fld.degenerate.any()
    path = tmp_path / "field.csv"
    fld.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,R_prime,R_eps,truncated,iterations"
    assert len(lines) == 17


def test_lower_bound_is_conservative():
    chart = make_chart("hyperbolic-halfplane")
    pts = np.stack(np.meshgrid(np.linspace(-0.5, 0.5, 5),
                               np.linspace(0.8, 1.6, 5), indexing="ij"), -1).reshape(-1, 2)
    p = params()
    fld = adm.radius_field(chart, pts, p)
    # the Lipschitz lower bound never exceeds the directly computed radius
    queries = pts + 0.03
    direct = np.array([adm.admissible_radius(chart, q, p)[1] for q in queries])
    bound = fld.lower_bound_at(queries)
    assert np.all(bound <= direct + 2 * p.bisection_tol)
    assert np.all(bound > 0)


def test_checks_pass_on_halfplane_sample():
    chart = make_chart("hyperbolic-halfplane")
    pts = np.stack(np.meshgrid(np.linspace(-1.0, 1.0, 5),
                               np.linspace(0.6, 2.4, 5), indexing="ij"), -1).reshape(-1, 2)
    fld = adm.radius_field(chart, pts, params())
    assert adm.check_lipschitz(fld)["violations"] == 0
    assert adm.check_slow_variation(fld)["violations"] == 0
    assert adm.uniform_lower_bound(fld) > 0


@settings(max_examples=20, deadline=None)
@given(
    x=st.floats(-0.25, 0.25),
    y=st.floats(-0.25, 0.25),
)
def test_ball_model_radius_depends_only_on_distance(x, y):
    """Rotational model: R' at dihedral-symmetric images of a point agree
    exactly (the chart test is invariant under quarter turns/reflections)."""
    chart = make_chart("hyperbolic-ball")
    p = params()
    c = np.array([x, y])
    r0 = adm.admissible_radius(chart, c, p)[0]
    for image in (np.array([-x, y]), np.array([y, x]), np.array([-y, -x])):
        assert adm.admissible_radius(chart, image, p)[0] == pytest.approx(
            r0, abs=2 * p.bisection_tol
        )


def test_center_outside_domain_raises():
    chart = make_chart("hyperbolic-halfplane")
    with pytest.raises(DomainError):
        adm.admissible_radius(chart, np.array([0.0, -1.0]), params())


def test_degenerate_error_is_domain_error():
    assert issubclass(adm.DegeneratePointError, DomainError)


def sequential_field(chart, pts, p):
    """radius_field's search run one center and one public is_admissible
    call at a time: (r_prime, r_eps, truncated, iterations, degenerate)."""
    tol = p.bisection_tol
    rows = []
    for c in pts:
        cap = adm.domain_cap(chart, c, tol)
        if cap <= tol or not adm.is_admissible(chart, c, tol, p):
            rows.append((0.0, 0.0, False, 0, True))
            continue
        it, lo, hi, R = 0, tol, None, min(1.0, cap)
        while hi is None:
            it += 1
            if not adm.is_admissible(chart, c, R, p):
                hi = R
            elif R >= cap - 1e-15:
                break
            else:
                lo, R = R, min(2 * R, cap)
        if hi is None:
            rows.append((cap, min(1.0, cap / 2.0), True, it, False))
            continue
        while hi - lo > tol:
            it += 1
            mid = 0.5 * (lo + hi)
            if adm.is_admissible(chart, c, mid, p):
                lo = mid
            else:
                hi = mid
        rows.append((lo, min(1.0, lo / 2.0), False, it, False))
    return [np.array(col) for col in zip(*rows)]


# per chart: centers with at least one truncated (domain-capped) one and,
# on charts with a boundary, a degenerate one on it
LOCKSTEP_CASES = {
    "euclidean": ({}, params(), [[0.0, 5.0], [5.0, 5.0], [0.4, 9.9], [3.0, 7.0]]),
    "flat-torus": ({"L": 4.0}, params(), [[0.0, 0.0], [1.3, 3.9]]),
    "perturbed-euclidean": ({}, params(), [[0.0, 5.0], [5.0, 5.0], [5.2, 4.1], [9.95, 3.0],
                                          [1.0, 1.0]]),
    "hyperbolic-halfplane": ({}, params(), [[0.0, 0.25], [0.0, 0.26], [0.0, 1.0], [0.5, 1.7],
                                           [1.99, 2.0]]),
    "hyperbolic-ball": ({}, params(), [[0.6, 0.0], [0.0, 0.0], [0.1, -0.05], [0.58, 0.3]]),
    "perturbed-euclidean-3d": ({"n": 3}, params(),
                               [[0.0, 5.0, 5.0], [5.0, 5.0, 5.0], [9.5, 5.0, 5.0]]),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_radius_field_matches_sequential_search(case):
    """The lockstep search gives bit for bit what one center at a time
    through the public predicate gives."""
    kw, p, pts = LOCKSTEP_CASES[case]
    chart = make_chart(case.removesuffix("-3d"), **kw)
    pts = np.array(pts)
    fld = adm.radius_field(chart, pts, p)
    got = [fld.r_prime, fld.r_eps, fld.truncated, fld.iterations, fld.degenerate]
    want = sequential_field(chart, pts, p)
    for a, b in zip(got, want):
        assert a.dtype.kind == b.dtype.kind and a.tobytes() == b.astype(a.dtype).tobytes()
    assert fld.truncated.any() and (fld.degenerate.any() or all(chart.periodic))


@pytest.mark.parametrize("name", ["euclidean", "perturbed-euclidean", "hyperbolic-halfplane",
                                  "hyperbolic-ball", "flat-torus"])
def test_radius_field_makes_no_distance_call(name, monkeypatch):
    """The predicate and the domain cap read closed-form boxes and bounds
    only."""
    chart = make_chart(name)
    calls = []
    monkeypatch.setattr(chart, "distance", lambda x, y: calls.append(1))
    fld = adm.radius_field(chart, adm.grid_centers(chart, 4, margin=0.05), params())
    assert not fld.degenerate.all()
    assert calls == []


# (model, chart parameters, params, centers) for the check at R'
CONDITION_CASES = [
    ("perturbed-euclidean", {"a": 0.3, "frequency": 1.3}, params(),
     [[4.7, 5.0], [1.2, 3.0], [2.4, 6.0]]),
    ("perturbed-euclidean", {"n": 3, "a": 0.1}, params(), [[4.7, 5.0, 5.0], [6.0, 4.0, 5.0]]),
    ("hyperbolic-halfplane", {}, params(m=1), [[0.0, 1.0], [1.0, 0.5]]),
    ("hyperbolic-halfplane", {}, params(m=3, eps=0.1), [[0.0, 1.0], [-1.0, 2.0]]),
    ("hyperbolic-ball", {}, params(), [[0.0, 0.0], [0.3, -0.4], [-0.5, 0.1]]),
    ("hyperbolic-ball", {}, params(m=3), [[0.2, 0.1]]),
]


@pytest.mark.parametrize("name,kw,p,centers", CONDITION_CASES,
                         ids=[f"{c[0]}-{c[1].get('n', 2)}d-m{c[2].m}" for c in CONDITION_CASES])
def test_both_conditions_hold_on_dense_points_of_the_ball_at_r_prime(name, kw, p, centers):
    """Seeded points of B(c, R') meet the band and the derivative sum.  On
    the hyperbolic models the distance is exact; on perturbed-euclidean
    the chord is an upper bound on it, so chord <= R' keeps points of the
    ball only."""
    chart = make_chart(name, **kw)
    fld = adm.radius_field(chart, np.array(centers), p)
    rng = np.random.default_rng(31)
    betas = [b for k in range(1, p.m + 1) for b in multi_indices(chart.n, k)]
    for c, R in zip(fld.points, fld.r_prime):
        lo, hi, _ = ball_bbox(chart, c, R)
        pts = lo + rng.random((40_000, chart.n)) * (hi - lo)
        pts = np.concatenate([c[None], pts[chart.distance(pts, c[None]) <= R]])
        assert len(pts) > 10_000
        fc = float(chart.conformal_factor(c))
        ratio = chart.conformal_factor(pts) / fc
        assert 1 - p.eps <= ratio.min() and ratio.max() <= 1 + p.eps
        total = sum(R ** sum(b) * np.abs(chart.conformal_derivative(pts, b)).max() / fc ** (1 + sum(b) / 2)
                    for b in betas)
        assert total <= p.eps


def test_is_admissible_is_a_batch_of_one():
    chart = make_chart("hyperbolic-halfplane")
    p = params()
    c = np.array([0.3, 1.2])
    radii = np.array([0.0, -1.0, 0.01, 0.05, 0.3])
    batch = adm._admissible(chart, np.repeat(c[None], len(radii), axis=0), radii, p)
    assert batch.tolist() == [adm.is_admissible(chart, c, R, p) for R in radii]
    assert batch.tolist() == [False, False, True, True, False]


def test_perturbed_radius_field_is_lipschitz_across_the_minimum_of_f():
    """Centers around x1 = 3 pi / 2, where f = 1 + 0.1 sin(x1) is least
    (x1 = 4.7467 is a center): R' stays near its neighbours' ~0.9 and the
    field is 1-Lipschitz."""
    chart = make_chart("perturbed-euclidean", a=0.1, frequency=1.0, box=[[0.0, 10.0], [0.0, 10.0]])
    axes = [np.linspace(4.48, 5.28, 4), np.linspace(4.47, 5.27, 4)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    fld = adm.radius_field(chart, pts, params(bisection_tol=1e-3))
    assert adm.check_lipschitz(fld)["violations"] == 0
    assert np.all(fld.r_prime > 0.5)


def test_halfplane_domain_cap_is_the_distance_to_the_nearest_face():
    """B((x0, y0), R) spans heights y0 e^-R to y0 e^R and widths x0 +-
    y0 sinh R, so the cap is min(log(y0/lo_y), log(hi_y/y0),
    asinh(gap_x/y0)), up to R_CAP, less tol."""
    chart = make_chart("hyperbolic-halfplane")
    (lo_x, lo_y), (hi_x, hi_y) = chart.lo, chart.hi
    rng = np.random.default_rng(29)
    centers = np.concatenate([rng.uniform(chart.lo, chart.hi, (40, 2)),
                              [[0.0, 0.26], [1.95, 1.0], [0.0, 3.9], [0.0, 1.0]]])
    tol = 1e-3
    for x0, y0 in centers:
        gap_x = min(x0 - lo_x, hi_x - x0)
        want = min(math.log(y0 / lo_y), math.log(hi_y / y0), math.asinh(gap_x / y0), adm.R_CAP)
        assert adm.domain_cap(chart, np.array([x0, y0]), tol) == pytest.approx(max(want - tol, 0.0),
                                                                             abs=1e-12)
    caps = adm.domain_cap(chart, centers, tol)
    assert caps.shape == (len(centers),)
    assert caps.tolist() == [adm.domain_cap(chart, c, tol) for c in centers]


def scrambled_field(chart, pts, seed=0):
    """A RadiusField on pts with seeded R', R and flags, so that the checks
    see many violations, degenerate and truncated centers included."""
    rng = np.random.default_rng(seed)
    r_prime = rng.uniform(0.05, 1.0, len(pts))
    return adm.RadiusField(chart, params(), pts, r_prime, rng.uniform(0.01, 1.0, len(pts)),
                           rng.random(len(pts)) < 0.2, np.zeros(len(pts), dtype=int),
                           rng.random(len(pts)) < 0.1)


@pytest.mark.parametrize("name", ["euclidean", "hyperbolic-halfplane", "flat-torus"])
def test_pairwise_work_runs_in_pair_budget_blocks(name, monkeypatch):
    """lower_bound_at, check_slow_variation and check_lipschitz give the
    results of the full query x center distance matrix when the rows run
    in blocks of at most PAIR_BUDGET pairs, the first 20 violating pairs
    in row-major order included."""
    chart = make_chart(name)
    rng = np.random.default_rng(1)
    lo, hi = np.maximum(chart.lo, [-0.5, 0.6]), np.minimum(chart.hi, [0.5, 1.6])
    fld = scrambled_field(chart, rng.uniform(lo, hi, size=(24, 2)))
    queries = rng.uniform(lo, hi, size=(100, 2))
    tol = 2 * fld.params.bisection_tol
    good, free = ~fld.degenerate, ~fld.degenerate & ~fld.truncated
    pts, rp, re = fld.points[good], fld.r_prime[good], fld.r_eps[good]
    d = chart.distance(queries[:, None, :], pts[None, :, :])
    want_lb = np.minimum(1.0, np.max(rp - d, axis=1) / 2.0)
    d = chart.distance(pts[:, None, :], pts[None, :, :])
    within = d <= re[:, None]
    bad = within & ~((re >= re[:, None] / 2.0 - tol) & (re <= 2.0 * re[:, None] + tol))
    rp, pts = fld.r_prime[free], fld.points[free]
    excess = np.abs(rp[:, None] - rp) - chart.distance(pts[:, None, :], pts[None, :, :]) - tol
    np.fill_diagonal(excess, -np.inf)

    budget = 50  # two rows of at most 24 centers per distance call
    monkeypatch.setattr(adm, "PAIR_BUDGET", budget)
    sizes = []
    distance = chart.distance

    def recording(x, y):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))))
        return distance(x, y)

    monkeypatch.setattr(chart, "distance", recording)
    assert np.array_equal(fld.lower_bound_at(queries), want_lb)
    assert len(sizes) == len(queries) // 2
    assert adm.check_slow_variation(fld) == {
        "pairs_checked": int(within.sum()), "violations": int(bad.sum()),
        "violating_pairs": np.argwhere(bad)[:20].tolist()}
    assert adm.check_lipschitz(fld) == {
        "pairs_checked": len(rp) * (len(rp) - 1), "violations": int(np.count_nonzero(excess > 0)),
        "max_excess": float(np.max(excess))}
    assert bad.sum() > 20 and np.any(excess > 0)
    assert max(sizes) <= budget
