import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soboheat import norms
from soboheat.geometry import CapabilityError, DomainError, christoffel, make_chart


def torus_grid(nx=64, L=2 * math.pi):
    chart = make_chart("flat-torus", n=2, L=L)
    return norms.Grid.over_box(chart, [(0, L), (0, L)], nx)


def euclid_grid(nx=65):
    chart = make_chart("euclidean", n=2)
    return norms.Grid.over_box(chart, [(3.0, 7.0), (3.0, 7.0)], nx)


def test_quadrature_total_mass():
    grid = euclid_grid(33)
    assert float(np.sum(grid.quadrature)) == pytest.approx(16.0, rel=1e-12)
    tg = torus_grid(32)
    assert float(np.sum(tg.quadrature)) == pytest.approx((2 * math.pi) ** 2, rel=1e-12)


def test_l2_norm_of_sine_closed_form():
    grid = torus_grid(64)
    u = norms.DiscreteField(grid, np.sin(grid.points[..., 0]))
    val = norms.sobolev_norm(u, norms.NormRequest(r=2.0))
    assert val == pytest.approx(math.sqrt(2 * math.pi**2), rel=1e-6)


def test_first_order_norm_closed_form():
    # |grad sin x1| = |cos x1|: the order <= 1 norm is twice the L2 norm
    grid = torus_grid(64)
    u = norms.DiscreteField(grid, np.sin(grid.points[..., 0]))
    val = norms.sobolev_norm(u, norms.NormRequest(r=2.0, l=1))
    assert val == pytest.approx(2 * math.sqrt(2 * math.pi**2), rel=2e-3)


def test_quadrature_order_two_on_periodic_grid():
    exact = math.sqrt(2 * math.pi**2)
    errs = []
    for nx in (16, 32):
        grid = torus_grid(nx)
        u = norms.DiscreteField(grid, np.sin(grid.points[..., 0]))
        errs.append(abs(norms.sobolev_norm(u, norms.NormRequest(l=1)) - 2 * exact))
    assert math.log2(errs[0] / errs[1]) >= 1.8


def test_norm_homogeneity_and_triangle():
    grid = euclid_grid(33)
    rng = np.random.default_rng(7)
    a = norms.DiscreteField(grid, rng.standard_normal(grid.shape))
    b = norms.DiscreteField(grid, rng.standard_normal(grid.shape))
    req = norms.NormRequest(r=3.0, l=1)
    na = norms.sobolev_norm(a, req)
    assert norms.sobolev_norm(
        norms.DiscreteField(grid, 2.5 * a.values), req
    ) == pytest.approx(2.5 * na, rel=1e-12)
    nb = norms.sobolev_norm(b, req)
    nab = norms.sobolev_norm(norms.DiscreteField(grid, a.values + b.values), req)
    assert nab <= na + nb + 1e-12


def test_hessian_of_log_on_halfplane():
    # second covariant derivative of log(y) in the hyperbolic half-plane:
    # Hess_xx = -G^y_xx / y = -1/y^2, Hess_yy = -1/y^2 - G^y_yy/y = 0
    chart = make_chart("hyperbolic-halfplane")
    grid = norms.Grid.over_box(chart, [(-0.5, 0.5), (0.75, 1.5)], 65)
    u = norms.DiscreteField(grid, np.log(grid.points[..., 1]))
    tensors = norms.covariant_tensors(u, 2)
    hess = tensors[2]
    y = grid.points[..., 1]
    interior = (slice(4, -4), slice(4, -4))
    assert np.max(np.abs(hess[0, 0] + 1.0 / y**2)[interior]) < 5e-3
    assert np.max(np.abs(hess[0, 1])[interior]) < 1e-10
    assert np.array_equal(hess[0, 1], hess[1, 0])
    assert np.max(np.abs(hess[1, 1])[interior]) < 5e-3


def test_gradient_modulus_uses_inverse_metric():
    # |d(log y)|_g = y * (1/y) = 1 everywhere on the half-plane
    chart = make_chart("hyperbolic-halfplane")
    grid = norms.Grid.over_box(chart, [(-0.5, 0.5), (0.75, 1.5)], 65)
    u = norms.DiscreteField(grid, np.log(grid.points[..., 1]))
    mod = np.sqrt(norms._moduli(u, 1)[0][0])
    interior = (slice(2, -2), slice(2, -2))
    assert np.max(np.abs(mod[interior] - 1.0)) < 1e-3


def test_one_form_requires_dimension_two():
    chart = make_chart("euclidean", n=3)
    grid = norms.Grid.over_box(chart, [(4, 6)] * 3, 9)
    with pytest.raises(CapabilityError):
        norms.DiscreteField(grid, np.zeros(grid.shape + (3,)), kind="one-form")


def test_norm_request_validation():
    with pytest.raises(DomainError):
        norms.NormRequest(r=0.5)
    with pytest.raises(DomainError):
        norms.NormRequest(l=3)


@pytest.mark.parametrize("bad", [{"r": math.nan}, {"r": math.inf}, {"s": 0.0}, {"s": -1.0},
                                 {"s": math.nan}, {"s": math.inf}])
def test_norm_request_rejects_a_bad_exponent(bad):
    with pytest.raises(DomainError, match="finite and >= 1"):
        norms.NormRequest(**bad)


@pytest.mark.parametrize("shape", [(17,), (17, 16), (17, 17, 1), ()])
def test_a_weight_off_the_grid_shape_is_rejected(shape):
    grid = euclid_grid(17)
    field = norms.DiscreteField(grid, np.ones(grid.shape))
    with pytest.raises(DomainError, match="weight of shape"):
        norms.sobolev_norm(field, norms.NormRequest(weight=np.ones(shape)))


def test_times_must_not_decrease():
    grid = euclid_grid(9)
    with pytest.raises(DomainError, match="must not decrease"):
        norms.DiscreteField(grid, np.zeros((3,) + grid.shape), times=[0.0, 0.2, 0.1])


@settings(max_examples=20, deadline=None)
@given(r=st.floats(2.0, 8.0), seed=st.integers(0, 10**6))
def test_holder_volume_inequality_random(r, seed):
    grid = euclid_grid(17)
    rng = np.random.default_rng(seed)
    u = norms.DiscreteField(grid, rng.standard_normal(grid.shape))
    rep = norms.holder_volume_check(u, (np.array([5.0, 5.0]), 1.2), r)
    assert rep["holds"]


def test_holder_equality_for_constants():
    grid = euclid_grid(17)
    u = norms.DiscreteField(grid, np.full(grid.shape, 3.0))
    rep = norms.holder_volume_check(u, (np.array([5.0, 5.0]), 1.0), 2.0)
    assert rep["lhs"] == pytest.approx(rep["rhs"], rel=1e-13)


def test_bochner_time_norm_closed_form():
    # u(t, x) = t * sin(x1) on [0, 1]: L2-in-time of the L2 norm is
    # ||sin||_L2 / sqrt(3)
    grid = torus_grid(32)
    times = np.linspace(0.0, 1.0, 41)
    u = norms.DiscreteField(grid, np.stack([t * np.sin(grid.points[..., 0]) for t in times]),
                            times=times)
    val = norms.sobolev_norm(u, norms.NormRequest(r=2.0, l=0, s=2.0))
    assert val == pytest.approx(math.sqrt(2 * math.pi**2) / math.sqrt(3.0), rel=1e-3)


def test_window_restricts_time_integral():
    grid = torus_grid(16)
    times = np.linspace(0.0, 1.0, 21)
    u = norms.DiscreteField(grid, np.stack([np.sin(grid.points[..., 0]) * (1.0 if t <= 0.5 else 0.0)
                                            for t in times]), times=times)
    full = norms.sobolev_norm(u, norms.NormRequest(r=2.0, s=2.0))
    half = norms.sobolev_norm(u, norms.NormRequest(r=2.0, s=2.0, window=(0.0, 0.5)))
    assert half == pytest.approx(math.sqrt(0.5 * 2 * math.pi**2), rel=1e-6)
    assert full >= half


def test_region_mask_built_once_per_time_indexed_request(monkeypatch):
    grid = euclid_grid(33)
    times = np.linspace(0.0, 0.4, 9)
    vals = np.stack([np.sin(grid.points[..., 0] + t) * np.cos(grid.points[..., 1])
                     for t in times])
    u = norms.DiscreteField(grid, vals, "scalar", times)
    ball = (np.array([5.0, 5.2]), 1.1)
    req = norms.NormRequest(r=3.0, l=1, region=ball, s=2.0, window=(0.0, 0.3))
    sel = times <= 0.3 + 1e-12
    per_slice = np.array([
        norms.sobolev_norm(norms.DiscreteField(grid, vals[j]),
                           norms.NormRequest(r=3.0, l=1, region=ball))
        for j in np.flatnonzero(sel)
    ])
    expect = float(np.trapezoid(per_slice**2.0, times[sel]) ** (1.0 / 2.0))

    calls = []
    ball_mask = norms.Grid.ball_mask

    def counting(self, *args):
        calls.append(args)
        return ball_mask(self, *args)

    monkeypatch.setattr(norms.Grid, "ball_mask", counting)
    value = norms.sobolev_norm(u, req)
    assert len(calls) == 1
    assert value == expect


def _full_grid_norm(field, req):
    """The norm on the whole grid with the full masked weights, one spatial
    norm per time slice from the einsum tensors and the moduli
    sqrt(sum T^2) f^(-rank/2): the reference for time blocks, boxes and
    the kept moduli."""
    grid = field.grid
    q = norms._node_weights(grid, req)
    base = int(field.kind == "one-form")

    def spatial(vals):
        total = 0.0
        for j, T in enumerate(_covariant_tensors_einsum(grid, vals, base, req.l)):
            rank = base + j
            mod = np.sqrt(np.sum(T**2, axis=tuple(range(-rank, 0)))) * grid.f ** (-rank / 2.0)
            total += np.sum(mod**req.r * q) ** (1.0 / req.r)
        return float(total)

    if field.times is None:
        return spatial(field.values)
    s = req.s if req.s is not None else req.r
    t = field.times
    sel = np.ones(len(t), dtype=bool)
    if req.window is not None:
        sel = (t >= req.window[0] - 1e-12) & (t <= req.window[1] + 1e-12)
    idx = np.flatnonzero(sel)
    vals = np.array([spatial(field.values[j]) for j in idx])
    return float(np.trapezoid(vals**s, t[idx]) ** (1.0 / s))


@pytest.mark.parametrize("budget", [1, 3 * 21 * 21, norms.NORM_BUDGET])
@pytest.mark.parametrize("name,kind", [("hyperbolic-halfplane", "scalar"),
                                       ("perturbed-euclidean", "scalar"),
                                       ("flat-torus", "one-form")])
def test_time_blocked_norms_match_slice_by_slice(monkeypatch, budget, name, kind):
    monkeypatch.setattr(norms, "NORM_BUDGET", budget)
    chart = make_chart(name)
    box = {"hyperbolic-halfplane": [(-0.5, 0.5), (0.75, 1.5)],
           "perturbed-euclidean": [(4.0, 6.0), (4.0, 6.0)]}.get(name, [(0.0, chart.hi[0])] * 2)
    grid = norms.Grid.over_box(chart, box, 21)
    times = np.linspace(0.0, 1.0, 11)
    rng = np.random.default_rng(4)
    shape = (len(times),) + grid.shape + ((2,) if kind == "one-form" else ())
    field = norms.DiscreteField(grid, rng.standard_normal(shape), kind, times)
    center = np.array([(lo + hi) / 2.0 for lo, hi in box])
    for req in [norms.NormRequest(r=2.0, l=0), norms.NormRequest(r=3.0, l=1, s=2.0),
                norms.NormRequest(r=4.0, l=2, region=(center, 0.3), window=(0.15, 0.75)),
                norms.NormRequest(r=2.5, l=2, weight=rng.random(grid.shape)),
                norms.NormRequest(r=2.0, l=1, window=(2.0, 3.0))]:  # no slice in the window
        want = _full_grid_norm(field, req)
        assert norms.sobolev_norm(field, req) == pytest.approx(want, rel=1e-12, abs=0.0)


def _gradient(grid, arr, axis, at):
    """np.gradient along grid axis `axis`, axis `at` of arr; on an axis
    that wraps, through two nodes of padding from the other end."""
    h = grid.h[axis]
    if not grid.wraps[axis]:
        return np.gradient(arr, h, axis=at, edge_order=2)
    padded = np.concatenate([np.take(arr, [-2, -1], axis=at), arr, np.take(arr, [0, 1], axis=at)],
                            axis=at)
    return np.take(np.gradient(padded, h, axis=at, edge_order=2),
                   np.arange(2, arr.shape[at] + 2), axis=at)


def _covariant_tensors_einsum(grid, vals, rank, order):
    """Covariant derivatives with the index axes last, contracted with
    einsum against Gamma^u_ij from geometry.christoffel, index-last."""
    n = grid.chart.n
    nd = len(grid.shape)
    gamma = christoffel(grid.chart, grid.points)
    tensors = [vals]
    for _ in range(order):
        parts = np.stack([_gradient(grid, vals, ax, ax) for ax in range(n)], axis=nd)
        if rank == 0:
            vals = parts
        elif rank == 1:
            vals = parts - np.einsum("...lij,...l->...ij", gamma, vals)
        else:
            vals = (parts - np.einsum("...lmi,...lj->...mij", gamma, vals)
                    - np.einsum("...lmj,...il->...mij", gamma, vals))
        rank += 1
        tensors.append(vals)
    return tensors


def _einsum_grids():
    """A half-plane and a disc grid, a euclidean one (flat: no connection
    terms) and a flat-torus grid that wraps on axis 0 only."""
    L = 2 * math.pi
    return {
        "halfplane": norms.Grid.over_box(make_chart("hyperbolic-halfplane"),
                                         [(-0.5, 0.5), (0.75, 1.5)], 17),
        "disc": norms.Grid.over_box(make_chart("hyperbolic-ball"), [(-0.4, 0.4), (-0.3, 0.5)],
                                    [17, 15]),
        "euclidean": norms.Grid.over_box(make_chart("euclidean", n=2), [(4.0, 6.0), (3.5, 6.0)],
                                         [15, 17]),
        "torus": norms.Grid.over_box(make_chart("flat-torus", n=2, L=L), [(0.0, L), (0.0, L / 2)],
                                     [16, 13]),
    }


@pytest.mark.parametrize("kind", ["scalar", "one-form"])
def test_covariant_tensors_match_einsum_reference(kind):
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 1.0, 3)
    for name, grid in _einsum_grids().items():
        assert grid.wraps == ((True, False) if name == "torus" else (False, False))
        shape = (len(times),) + grid.shape + ((2,) if kind == "one-form" else ())
        field = norms.DiscreteField(grid, rng.standard_normal(shape), kind, times)
        blocked = norms.covariant_tensors(field, 2)
        for j in range(len(times)):
            want = _covariant_tensors_einsum(grid, field.values[j], int(kind == "one-form"), 2)
            got = norms.covariant_tensors(field, 2, values=field.values[j])
            for g, b, w in zip(got, blocked, want):
                rank = w.ndim - len(grid.shape)
                w = np.moveaxis(w, tuple(range(-rank, 0)), tuple(range(rank)))
                assert g.shape == w.shape and g.flags.c_contiguous, name
                assert np.array_equal(b[(slice(None),) * rank + (j,)], g), name
                scale = np.max(np.abs(w))
                assert np.max(np.abs(g - w)) <= 1e-13 * scale, name
                if name == "euclidean":  # partials only: bit for bit where computed
                    for idx in itertools.product(range(2), repeat=rank):
                        if not (kind == "scalar" and rank == 2 and idx[0] > idx[1]):
                            assert np.array_equal(g[idx], w[idx]), (name, idx)


def _crop_grids():
    """A half-plane grid with two ends per axis, and a flat-torus grid that
    wraps on axis 0 only."""
    halfplane = norms.Grid.over_box(make_chart("hyperbolic-halfplane"),
                                    [(-0.5, 0.5), (0.75, 1.5)], 21)
    L = 2 * math.pi
    torus = norms.Grid.over_box(make_chart("flat-torus", n=2, L=L), [(0.0, L), (0.0, L / 2)],
                                [24, 13])
    return {"halfplane": halfplane, "torus": torus}


def _node_ball(grid, i, j, nodes):
    """A ball around node (i, j) that holds its `nodes` nearest nodes."""
    center = grid.points[i, j]
    d = np.sort(grid.chart.distance(grid.points.reshape(-1, 2), center[None, :]))
    return center, float(d[nodes - 1])


def _crop_regions(name, grid):
    """(label, ball): inside the grid, across an edge, one or two nodes at
    a corner or an edge, across the torus seam, and off the grid."""
    if name == "torus":
        return [("seam", (np.array([0.1, 1.5]), 0.9)),
                ("seam and edge", (np.array([6.2, 0.2]), 0.7)),
                ("inside", (np.array([3.0, 1.5]), 0.5))]
    mid = grid.shape[1] // 2
    return [("inside", (np.array([0.0, 1.1]), 0.15)),
            ("across an edge", (np.array([0.45, 0.8]), 0.2)),
            ("corner node", _node_ball(grid, 0, 0, 1)),
            ("far corner node", _node_ball(grid, -1, -1, 1)),
            ("edge node", _node_ball(grid, mid, 0, 1)),
            ("two edge nodes", _node_ball(grid, 0, mid, 2)),
            ("off the grid", (np.array([0.0, 3.0]), 0.5))]


@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("kind", ["scalar", "one-form"])
@pytest.mark.parametrize("name", ["halfplane", "torus"])
def test_cropped_norms_match_the_full_grid(name, kind, l):
    grid = _crop_grids()[name]
    rng = np.random.default_rng(11)
    shape = grid.shape + ((2,) if kind == "one-form" else ())
    field = norms.DiscreteField(grid, rng.standard_normal(shape), kind)
    for label, ball in _crop_regions(name, grid):
        req = norms.NormRequest(r=3.0, l=l, region=ball, weight=1.0 + rng.random(grid.shape))
        nodes = int(np.count_nonzero(norms._node_weights(grid, req)))
        if "node" in label:
            assert nodes == (2 if label.startswith("two") else 1), label
        got, want = norms.sobolev_norm(field, req), _full_grid_norm(field, req)
        if label == "off the grid":
            assert nodes == 0 and got == 0.0 and want == 0.0
        else:
            assert want > 0 and abs(got - want) <= 1e-14 * want, label


@pytest.mark.parametrize("budget", [1, 5 * 21, norms.NORM_BUDGET])
@pytest.mark.parametrize("kind", ["scalar", "one-form"])
def test_cropped_time_indexed_norms_match_the_full_grid(monkeypatch, budget, kind):
    monkeypatch.setattr(norms, "NORM_BUDGET", budget)
    grids = _crop_grids()
    times = np.linspace(0.0, 1.0, 9)
    rng = np.random.default_rng(5)
    for name, grid in grids.items():
        shape = (len(times),) + grid.shape + ((2,) if kind == "one-form" else ())
        field = norms.DiscreteField(grid, rng.standard_normal(shape), kind, times)
        for label, ball in _crop_regions(name, grid):
            for req in [norms.NormRequest(r=2.0, l=2, region=ball, s=3.0, window=(0.1, 0.65)),
                        norms.NormRequest(r=4.0, l=1, region=ball),
                        norms.NormRequest(r=2.0, l=0, region=ball, window=(0.25, 0.5))]:
                got, want = norms.sobolev_norm(field, req), _full_grid_norm(field, req)
                if label == "off the grid":
                    assert got == 0.0 and want == 0.0
                else:
                    assert want > 0 and abs(got - want) <= 1e-14 * want, (name, label)


def test_a_zero_weight_gives_zero_without_derivatives(monkeypatch):
    grid = euclid_grid(17)
    field = norms.DiscreteField(grid, np.ones(grid.shape))
    monkeypatch.setattr(norms, "covariant_tensors", None)  # never called
    assert norms.sobolev_norm(field, norms.NormRequest(l=2, weight=np.zeros(grid.shape))) == 0.0


def test_derivatives_need_three_nodes_on_an_axis_with_ends():
    grid = norms.Grid.over_box(make_chart("euclidean", n=2), [(4.0, 6.0), (4.0, 6.0)], [2, 9])
    field = norms.DiscreteField(grid, np.ones(grid.shape))
    assert norms.sobolev_norm(field, norms.NormRequest(l=0)) > 0
    with pytest.raises(DomainError, match="axis 0 has 2 nodes.*at least 3"):
        norms.sobolev_norm(field, norms.NormRequest(l=1))


def test_partial_equals_np_gradient_bit_for_bit():
    L = 2 * math.pi
    grids = [
        norms.Grid.over_box(make_chart("hyperbolic-halfplane"), [(-0.5, 0.5), (0.75, 1.5)], [9, 3]),
        norms.Grid.over_box(make_chart("flat-torus", n=2, L=L), [(0.0, L), (0.0, L / 2)], [16, 13]),
        norms.Grid.over_box(make_chart("flat-torus", n=2, L=L), [(0.0, L), (0.0, L)], [3, 2]),
        norms.Grid.over_box(make_chart("euclidean", n=3), [(4.0, 6.0)] * 3, [5, 3, 4]),
    ]
    rng = np.random.default_rng(17)
    for grid in grids:
        for lead in [(), (2,), (3, 2)]:
            arr = rng.standard_normal(lead + grid.shape)
            for axis in range(grid.chart.n):
                want = _gradient(grid, arr, axis, len(lead) + axis)
                assert np.array_equal(grid.partial(arr, axis), want), (grid.shape, lead, axis)
                out = np.full(arr.shape, np.nan)
                assert grid.partial(arr, axis, out=out) is out and np.array_equal(out, want)


@pytest.mark.parametrize("kind", ["scalar", "one-form"])
def test_one_derivative_pass_serves_every_request_on_a_field(monkeypatch, kind):
    monkeypatch.setattr(norms, "NORM_BUDGET", 3 * 21 * 21)  # 3 slices per block
    grid = _crop_grids()["halfplane"]
    times = np.linspace(0.0, 1.0, 11)
    rng = np.random.default_rng(23)
    values = rng.standard_normal((len(times),) + grid.shape + ((2,) if kind == "one-form" else ()))
    calls = []
    real = norms.covariant_tensors

    def spy(field, order, values=None):
        calls.append((field, order, len(values)))
        return real(field, order, values=values)

    monkeypatch.setattr(norms, "covariant_tensors", spy)
    shared = norms.DiscreteField(grid, values, kind, times)
    ball = (np.array([0.1, 1.0]), 0.25)
    requests = [
        norms.NormRequest(r=4.0, l=2, weight=1.0 + rng.random(grid.shape), window=(0.0, 0.7)),
        norms.NormRequest(r=2.0, l=0, region=ball, s=3.0),
        norms.NormRequest(r=3.0, l=1, region=(np.array([0.45, 0.8]), 0.2), window=(0.25, 0.5)),
        norms.NormRequest(r=2.0, l=2, region=ball, weight=rng.random(grid.shape), s=2.0,
                          window=(0.1, 1.0)),
        norms.NormRequest(r=2.5, l=2, region=_node_ball(grid, 0, 0, 1)),
        norms.NormRequest(r=2.0, l=1, window=(2.0, 3.0)),  # no slice in the window
    ]
    fresh_fields = []
    for req in requests:
        got = norms.sobolev_norm(shared, req)
        # 11 slices in blocks of 3, on the first request only
        assert [(order, slices) for field, order, slices in calls
                if field is shared] == [(2, 3), (2, 3), (2, 3), (2, 2)]
        fresh = norms.DiscreteField(grid, values.copy(), kind, times)
        fresh_fields.append(fresh)
        assert norms.sobolev_norm(fresh, req) == got
        on_fresh = [(order, slices) for field, order, slices in calls if field is fresh]
        if req.l == 0 or req.window == (2.0, 3.0):
            assert not on_fresh
            if req.window == (2.0, 3.0):
                assert got == 0.0
        else:
            assert {order for order, _ in on_fresh} == {req.l}
            assert sum(slices for _, slices in on_fresh) == len(times)
        if got:
            assert got == pytest.approx(_full_grid_norm(shared, req), rel=1e-13)
    assert all(field is shared for field, _, _ in calls[:4])


DPHI_GRIDS = {
    "halfplane": (("hyperbolic-halfplane", {}), [(-0.5, 0.5), (0.75, 1.5)]),
    "disc": (("hyperbolic-ball", {}), [(-0.4, 0.4), (-0.3, 0.5)]),
    "perturbed": (("perturbed-euclidean", {"a": 0.4, "frequency": 2.0}), [(4.0, 6.0), (3.5, 6.0)]),
    "perturbed-3d": (("perturbed-euclidean", {"n": 3, "a": 0.4}), [(4.0, 6.0)] * 3),
    "euclidean": (("euclidean", {}), [(4.0, 6.0), (4.0, 6.0)]),
    "torus-sub-box": (("flat-torus", {"L": 4.0}), [(0.5, 2.5), (0.0, 4.0)]),
}


@pytest.mark.parametrize("case", sorted(DPHI_GRIDS))
@pytest.mark.parametrize("nodes", [17, 33, 81])
def test_dphi_equals_half_the_log_derivative_of_f(case, nodes):
    """Grid.dphi comes from geometry's phi jet, contiguous with the index
    axis first, and equals (1/2) d_a f / f at the nodes bit for bit."""
    (name, kw), box = DPHI_GRIDS[case]
    chart = make_chart(name, **kw)
    if chart.n == 3:
        nodes = nodes // 4 + 1
    grid = norms.Grid.over_box(chart, box, nodes)
    n = chart.n
    flat = grid.points.reshape(-1, n)
    want = np.stack([0.5 * (chart.conformal_derivative(flat, np.eye(n, dtype=int)[a]) / grid.f.reshape(-1))
                     for a in range(n)]).reshape((n,) + grid.shape)
    assert grid.dphi.flags.c_contiguous
    assert np.array_equal(grid.dphi, want)
