import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from soboheat import heatflow as hf
from soboheat import norms
from soboheat.geometry import (AxisProfile, CapabilityError, DomainError, NumericalError,
                               make_chart)

L = 2 * math.pi


def torus_grid(nx=32, n=2):
    chart = make_chart("flat-torus", n=n, L=L)
    return norms.Grid.over_box(chart, [(0, L)] * n, nx)


def euclid_grid(nx=33):
    chart = make_chart("euclidean", n=2)
    return norms.Grid.over_box(chart, [(4.0, 6.0), (4.0, 6.0)], nx)


# per model: a solve box inside its working box
BOXES = {"euclidean": (4.0, 6.0), "perturbed-euclidean": (4.25, 5.75),
         "hyperbolic-halfplane": ((-0.5, 0.5), (0.5, 1.5)), "hyperbolic-ball": (-0.4, 0.4),
         "flat-torus": (0.0, L)}


def model_grid(name, nodes, n=2, box=None):
    chart = make_chart(name, n=n, **({"L": L} if name == "flat-torus" else {}))
    if box is None:
        box = BOXES[name]
        box = list(box) if isinstance(box[0], tuple) else [box] * n
    return norms.Grid.over_box(chart, box, nodes)


def eigen_forcing(t, pts):
    return np.sin(pts[..., 0]) * np.sin(pts[..., 1])


def one_form_forcing(t, pts):
    w = np.zeros(pts.shape)
    w[..., 0] = np.sin(pts[..., 1])
    return w


def test_problem_validation():
    grid = euclid_grid(9)
    with pytest.raises(DomainError):
        hf.ParabolicProblem(grid, eigen_forcing, horizon=1.0, margin=0.0, dt=0.0)
    with pytest.raises(DomainError):
        hf.ParabolicProblem(grid, eigen_forcing, horizon=1.0, margin=0.0, dt=0.1,
                            kind="two-form")
    # one-forms need a fully periodic grid
    with pytest.raises(CapabilityError):
        hf.ParabolicProblem(grid, eigen_forcing, horizon=1.0, margin=0.0, dt=0.1,
                            kind="one-form")
    # (horizon + margin)/dt must be a whole number of steps
    for horizon, margin, dt in [(0.5, 0.0, 0.3), (0.3, 0.1, 0.03), (0.001, 0.0, 1.0)]:
        with pytest.raises(DomainError, match="whole number"):
            hf.ParabolicProblem(grid, eigen_forcing, horizon=horizon, margin=margin, dt=dt)
    # non-finite values, and a step count that overflows to infinity
    for horizon, margin, dt in [(math.inf, 0.0, 0.1), (1.0, math.nan, 0.1), (1.0, 0.0, math.nan),
                                (1.0, 0.0, 1e-320)]:
        with pytest.raises(DomainError, match="finite|overflows"):
            hf.ParabolicProblem(grid, eigen_forcing, horizon=horizon, margin=margin, dt=dt)


def _dense_stiffness(grid):
    """The stencil of discrete_laplacian's edge weights as a dense matrix:
    its rows are K applied to the unit vectors."""
    edges, _ = hf.discrete_laplacian(grid)
    N = math.prod(grid.shape)
    return hf._stencil(0.0, edges, 1.0)(np.eye(N).reshape((N,) + grid.shape)).reshape(N, N)


def test_laplacian_symmetric_and_psd():
    for grid in (torus_grid(16), euclid_grid(17), model_grid("hyperbolic-ball", (13, 11))):
        K = _dense_stiffness(grid)
        assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))
        assert np.linalg.eigvalsh(K)[0] >= -1e-10 * np.max(np.abs(K))


def test_laplacian_annihilates_constants_on_torus():
    grid = torus_grid(16)
    edges, _ = hf.discrete_laplacian(grid)
    assert np.max(np.abs(hf._stencil(0.0, edges, 1.0)(np.ones(grid.shape)))) <= 1e-12


def test_zero_forcing_gives_zero_solution():
    grid = euclid_grid(17)
    prob = hf.ParabolicProblem(grid, lambda t, p: np.zeros(p.shape[:-1]),
                               horizon=0.2, margin=0.1, dt=0.05)
    sol = hf.solve_parabolic(prob)
    assert np.all(sol.u.values == 0.0)
    assert np.all(sol.dt_u.values == 0.0)


def _assert_recurrence(u_last, mode, lam, dt, steps):
    exact = (1.0 - (1.0 + lam * dt) ** -steps) / lam * mode
    assert np.max(np.abs(u_last - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_eigen_forcing_matches_closed_form():
    grid = torus_grid(32)
    prob = hf.ParabolicProblem(grid, eigen_forcing, horizon=0.5, margin=0.0, dt=0.002)
    sol = hf.solve_parabolic(prob)
    exact = (1 - math.exp(-2 * 0.5)) / 2 * np.sin(grid.points[..., 0]) * np.sin(
        grid.points[..., 1]
    )
    err = np.max(np.abs(sol.u.values[-1] - exact))
    h = grid.h[0]
    assert err <= 2.0 * (h**2 + 0.002)
    # the forcing is a discrete eigenvector: 250 steps from u = 0 give
    # exactly the implicit-Euler recurrence (1 - (1 + lam dt)^-N) / lam
    lam = 2.0 * (2.0 - 2.0 * math.cos(h)) / h**2
    mode = np.sin(grid.points[..., 0]) * np.sin(grid.points[..., 1])
    _assert_recurrence(sol.u.values[-1], mode, lam, 0.002, 250)


def test_steady_state_reached():
    # constant-in-time forcing: u(t) approaches the discrete steady state
    grid = torus_grid(24)

    def v(pts):
        return np.sin(pts[..., 0]) + 0.5 * np.cos(2 * pts[..., 1])

    edges, W = hf.discrete_laplacian(grid)
    vvals = v(grid.points)
    omega_vec = hf._stencil(0.0, edges, 1.0)(vvals) / W  # forcing = (positive) Laplacian of v

    def forcing(t, pts):
        return omega_vec

    prob = hf.ParabolicProblem(grid, forcing, horizon=5.0, margin=0.0, dt=0.05)
    sol = hf.solve_parabolic(prob)
    vc = vvals.ravel() - vvals.mean()  # steady state is fixed up to the constant mode
    uc = sol.u.values[-1].ravel() - sol.u.values[-1].mean()
    rel = np.linalg.norm(uc - vc) / np.linalg.norm(vc)
    assert rel < 1e-2


def test_energy_dissipation_after_switch_off():
    grid = torus_grid(24)

    def forcing(t, pts):
        if t <= 0.1:
            return np.sin(pts[..., 0]) * np.cos(pts[..., 1])
        return np.zeros(pts.shape[:-1])

    prob = hf.ParabolicProblem(grid, forcing, horizon=0.5, margin=0.0, dt=0.01)
    sol = hf.solve_parabolic(prob)
    norms_t = hf.l2_norm_at_times(sol.u)
    after = norms_t[sol.times >= 0.12]
    assert np.all(np.diff(after) <= 1e-14)



def whole_series_l2(field):
    """The L2 norm per slice from whole-series temporaries."""
    v, grid = field.values, field.grid
    mod2 = (v[..., 0] ** 2 + v[..., 1] ** 2) / grid.f if field.kind == "one-form" else v**2
    return np.sqrt(np.sum(mod2 * grid.quadrature, axis=tuple(range(1, mod2.ndim))))


@pytest.mark.parametrize("shape,kind", [((21, 21, 21), "scalar"), ((97, 97), "scalar"),
                                        ((33, 41), "one-form"), ((260, 260), "scalar")])
def test_l2_norms_in_blocks_equal_the_whole_series_sums(shape, kind):
    """Blocks of at most NORM_BUDGET nodes, a slice larger than that alone,
    give each slice the bits of the whole-series reduction."""
    n = len(shape)
    chart = make_chart("perturbed-euclidean" if n == 2 else "euclidean", n=n)
    grid = norms.Grid.over_box(chart, [(4.0, 6.0)] * n, list(shape))
    rng = np.random.default_rng(len(shape) + shape[0])
    times = np.arange(17) * 0.05
    values = rng.standard_normal((len(times),) + grid.shape + ((2,) if kind == "one-form" else ()))
    field = norms.DiscreteField(grid, values, kind, times)
    assert np.array_equal(hf.l2_norm_at_times(field), whole_series_l2(field))


def test_l2_norms_hold_a_few_slices_not_the_series():
    """On a 3-D field of 41 slices the call holds a block of at most
    NORM_BUDGET nodes and its square, not the two series-sized temporaries
    of a whole-series sum."""
    grid = norms.Grid.over_box(make_chart("euclidean", n=3), [(4.0, 6.0)] * 3, 21)
    times = np.arange(41) * 0.01
    field = norms.DiscreteField(grid, np.random.default_rng(0).standard_normal((41,) + grid.shape), "scalar",
                                times)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = hf.l2_norm_at_times(field)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, whole_series_l2(field))
    assert peak <= 2 * 8 * norms.NORM_BUDGET < field.values.nbytes / 2


def test_contraction_on_dirichlet_problem():
    grid = euclid_grid(33)

    def forcing(t, pts):
        r2 = np.sum((pts - 5.0) ** 2, axis=-1)
        return np.exp(-r2 / 0.09) * math.sin(5 * t)

    prob = hf.ParabolicProblem(grid, forcing, horizon=0.3, margin=0.1, dt=0.01)
    sol = hf.solve_parabolic(prob)
    rep = hf.check_threshold_contraction(sol)
    assert rep["holds"]


def test_one_form_eigen_mode():
    grid = torus_grid(32)
    prob = hf.ParabolicProblem(grid, one_form_forcing, horizon=0.5, margin=0.0, dt=0.002,
                               kind="one-form")
    sol = hf.solve_parabolic(prob)
    exact = (1 - math.exp(-0.5)) * np.sin(grid.points[..., 1])
    assert np.max(np.abs(sol.u.values[-1][..., 0] - exact)) < 5e-3
    h = grid.h[0]
    lam = (2.0 - 2.0 * math.cos(h)) / h**2
    _assert_recurrence(sol.u.values[-1][..., 0], np.sin(grid.points[..., 1]), lam, 0.002, 250)
    assert np.max(np.abs(sol.u.values[-1][..., 1])) < 1e-10
    assert hf.check_threshold_contraction(sol)["holds"]


def test_local_estimate_zero_for_zero_forcing():
    grid = euclid_grid(17)
    prob = hf.ParabolicProblem(grid, lambda t, p: np.zeros(p.shape[:-1]),
                               horizon=0.2, margin=0.1, dt=0.05)
    sol = hf.solve_parabolic(prob)
    rep = hf.local_estimate_experiment(sol, (np.array([5.0, 5.0]), 0.5))
    assert rep["c_emp"] == 0.0


def test_global_estimate_vacuous_for_zero_forcing():
    from soboheat import admissible, exponents

    grid = euclid_grid(17)
    prob = hf.ParabolicProblem(grid, lambda t, p: np.zeros(p.shape[:-1]),
                               horizon=0.2, margin=0.1, dt=0.05)
    sol = hf.solve_parabolic(prob)
    chart = grid.chart
    fld = admissible.radius_field(
        chart, admissible.grid_centers(chart, 3, margin=2.0),
        admissible.AdmissibilityParams(m=2, eps=0.2),
    )
    table = exponents.bootstrap_table(2, 2, 4)
    rep = hf.global_estimate_experiment(sol, fld, table)
    assert rep["vacuous"]


def test_every_step_records_its_residual():
    problems = [
        hf.ParabolicProblem(euclid_grid(17), eigen_forcing, horizon=0.2, margin=0.1,
                            dt=0.02),
        hf.ParabolicProblem(torus_grid(16), eigen_forcing, horizon=0.1, margin=0.0,
                            dt=0.01),
        hf.ParabolicProblem(torus_grid(16), one_form_forcing, horizon=0.1,
                            margin=0.0, dt=0.01, kind="one-form"),
        hf.ParabolicProblem(model_grid("hyperbolic-ball", 17), eigen_forcing, horizon=0.2,
                            margin=0.1, dt=0.02),
    ]
    for prob in problems:
        sol = hf.solve_parabolic(prob)
        assert len(sol.residuals) == prob.steps == len(sol.times) - 1
        assert np.all(sol.residuals <= 1e-10)


def _nan_one_form(t, pts):
    vals = one_form_forcing(t, pts)
    vals[4, 4, 0] = math.nan
    return vals


def _nan_scalar(t, pts):
    vals = eigen_forcing(t, pts)
    vals[4, 4] = math.nan
    return vals


@pytest.mark.parametrize("grid,kind,forcing", [
    (euclid_grid(9), "scalar", _nan_scalar),
    (torus_grid(8), "scalar", _nan_scalar),
    (torus_grid(8), "one-form", _nan_one_form),
    (model_grid("hyperbolic-ball", 9), "scalar", _nan_scalar),
], ids=["separable", "fft", "fft-one-form", "block"])
def test_nan_forcing_raises(grid, kind, forcing):
    """A NaN residual must fail the step check, not pass it."""
    prob = hf.ParabolicProblem(grid, forcing, horizon=0.1, margin=0.0, dt=0.05, kind=kind)
    with pytest.raises(NumericalError, match="residual nan"):
        hf.solve_parabolic(prob)


def test_torus_sub_box_has_two_ends_like_a_euclidean_box():
    """A torus grid over less than a whole period does not wrap: partial
    derivatives and scalar solves equal the euclidean ones bit for bit."""
    box = [(0.0, 2.0), (0.0, 2.0)]
    grids = [norms.Grid.over_box(make_chart(name, n=2), box, 17)
             for name in ("flat-torus", "euclidean")]
    assert grids[0].wraps == grids[1].wraps == (False, False)
    sine = [np.sin(3.0 * g.points[..., 0]) for g in grids]
    assert np.array_equal(grids[0].partial(sine[0], 0), grids[1].partial(sine[1], 0))
    sols = [hf.solve_parabolic(hf.ParabolicProblem(g, eigen_forcing, horizon=0.1, margin=0.0,
                                                   dt=0.01)) for g in grids]
    assert np.array_equal(sols[0].u.values, sols[1].u.values)
    assert np.all(sols[0].u.values[:, [0, -1], :] == 0)
    whole = norms.Grid.over_box(make_chart("flat-torus", n=2), [(0.0, L), (0.0, L)], 16)
    assert whole.wraps == (True, True)


# -- references: sparse assembly and LU, in the tests only ---------------
#
# The scalar reference assembles the stiffness from the chart, one COO
# entry per edge; the one-form reference assembles the discrete-exterior-
# calculus Hodge Laplacian B = S1 d0 *0^-1 d0^T S1 + d1^T *2 d1 on the
# staggered edge grid.  The solver holds neither matrix.


def _reference_stiffness(grid):
    """The sparse stiffness K: f^(n/2-1) hvol / h_a^2 at each edge midpoint,
    on every edge along every axis (past the end of an axis that wraps)."""
    chart = grid.chart
    n = chart.n
    shape = grid.shape
    N = math.prod(shape)
    idx = np.arange(N).reshape(shape)
    hvol = float(np.prod(grid.h))
    rows, cols, vals = [], [], []
    for ax in range(n):
        keep = [slice(None)] * n
        if not grid.wraps[ax]:
            keep[ax] = slice(0, shape[ax] - 1)
        keep = tuple(keep)
        p = idx[keep].ravel()
        q = np.roll(idx, -1, axis=ax)[keep].ravel()
        step = np.zeros(n)
        step[ax] = grid.h[ax] / 2.0
        fmid = chart.conformal_factor(chart.wrap(grid.points[keep] + step).reshape(-1, n))
        a = fmid ** (n / 2.0 - 1.0) * hvol / grid.h[ax] ** 2
        rows += [p, q, p, q]
        cols += [p, q, q, p]
        vals += [a, a, -a, -a]
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)
    ).tocsr()


def _interior_mask(grid):
    """The unknowns: every node but those at the two ends of an axis that
    does not wrap."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(slice(None) if w else slice(1, -1) for w in grid.wraps)] = True
    return mask.ravel()


def _dec_operators(grid):
    """d0, d1 and the diagonal Hodge stars *0, *1, *2 of a 2-D grid that
    wraps on both axes; edges: all x-edges (node -> node + e_x), then all
    y-edges."""
    shape = grid.shape
    N = math.prod(shape)
    idx = np.arange(N).reshape(shape)
    h1, h2 = grid.h
    base = idx.ravel()
    ex = np.roll(idx, -1, axis=0).ravel()
    ey = np.roll(idx, -1, axis=1).ravel()
    ones = np.ones(N)
    d0 = sp.coo_matrix((np.concatenate([ones, -ones, ones, -ones]),
                        (np.concatenate([base, base, base + N, base + N]),
                         np.concatenate([ex, base, ey, base]))), shape=(2 * N, N)).tocsr()
    # faces at (i+1/2, j+1/2): boundary = +x-edge(i,j) +y-edge(i+1,j)
    # -x-edge(i,j+1) -y-edge(i,j)
    d1 = sp.coo_matrix((np.concatenate([ones, ones, -ones, -ones]),
                        (np.concatenate([base] * 4),
                         np.concatenate([base, ex + N, ey, base + N]))), shape=(N, 2 * N)).tocsr()
    chart = grid.chart
    star0 = grid.f.ravel() * h1 * h2
    star1 = np.concatenate([np.full(N, h2 / h1), np.full(N, h1 / h2)])
    fcent = chart.conformal_factor(chart.wrap(grid.points + 0.5 * grid.h).reshape(-1, 2))
    star2 = 1.0 / (fcent * h1 * h2)
    return d0, d1, star0, star1, star2


def _reference_hodge_matrix(grid):
    d0, d1, s0, s1, s2 = _dec_operators(grid)
    S1 = sp.diags(s1)
    B = S1 @ d0 @ sp.diags(1.0 / s0) @ d0.T @ S1 + d1.T @ sp.diags(s2) @ d1
    return B.tocsr(), s1


def _reference_step(grid, kind, dt):
    """(A, mass): the assembled step matrix on the unknowns and its
    diagonal mass."""
    if kind == "scalar":
        inner = _interior_mask(grid)
        K, mass = _reference_stiffness(grid)[inner][:, inner], grid.quadrature.ravel()[inner]
    else:
        K, mass = _reference_hodge_matrix(grid)
    return (sp.diags(mass) + dt * K).tocsc(), mass


def _solve_and_capture(monkeypatch, prob):
    """The solution, and what solve_parabolic handed its time loop:
    (apply, solve), the mass, the forcing on the unknowns and the states,
    each flat over the unknowns."""
    seen = []
    loop = hf._implicit_euler

    def spy(step, mass, omegas, dt, states):
        residuals = loop(step, mass, omegas, dt, states)
        seen.append((step, mass.ravel(), omegas.reshape(len(omegas), -1),
                     states.reshape(len(states), -1)))
        return residuals

    monkeypatch.setattr(hf, "_implicit_euler", spy)
    sol = hf.solve_parabolic(prob)
    assert len(seen) == 1
    return (sol, *seen[0])


def _mixed_torus(counts, wraps):
    """A flat-torus grid that wraps on the axes flagged in wraps."""
    return model_grid("flat-torus", counts, n=len(counts),
                      box=[(0.0, L if w else 2.0) for w in wraps])


# (id, grid): every model in 2-D, n = 3 where the model allows it, and
# flat-torus grids with an end on some axes
END_CASES = [
    ("euclidean", lambda: model_grid("euclidean", (17, 13))),
    ("perturbed-euclidean", lambda: model_grid("perturbed-euclidean", (15, 18))),
    ("hyperbolic-halfplane", lambda: model_grid("hyperbolic-halfplane", (14, 17))),
    ("hyperbolic-ball", lambda: model_grid("hyperbolic-ball", (17, 14))),
    ("flat-torus-sub-box", lambda: _mixed_torus((11, 9), (False, False))),
    ("euclidean-3d", lambda: model_grid("euclidean", (7, 6, 8), n=3)),
    ("perturbed-euclidean-3d", lambda: model_grid("perturbed-euclidean", (8, 7, 6), n=3)),
    ("flat-torus-wraps-x", lambda: _mixed_torus((12, 9), (True, False))),
    ("flat-torus-wraps-y", lambda: _mixed_torus((9, 11), (False, True))),
    ("flat-torus-3d-wraps-xz", lambda: _mixed_torus((6, 7, 5), (True, False, True))),
    ("flat-torus-3d-wraps-y", lambda: _mixed_torus((7, 6, 5), (False, True, False))),
]


def _bump(grid):
    lo = grid.points.reshape(-1, grid.chart.n).min(axis=0)
    hi = grid.points.reshape(-1, grid.chart.n).max(axis=0)
    return hf.bump_forcing((lo + hi) / 2.0, 0.3 * float(np.min(hi - lo)), 3.0)


def _check_against_lu(monkeypatch, grid, kind, dt):
    """The np.roll stencil is the assembled step matrix, each solve is its
    LU solve, and every state of the time loop is the LU recurrence's.
    Returns the solve and the mass."""
    forcing = _bump(grid) if kind == "scalar" else one_form_forcing
    prob = hf.ParabolicProblem(grid, forcing, horizon=0.1, margin=0.0, dt=dt, kind=kind)
    sol, (apply, solve), mass, omegas, states = _solve_and_capture(monkeypatch, prob)
    assert np.all(sol.residuals <= hf.STEP_RTOL)
    A, ref_mass = _reference_step(grid, kind, dt)
    assert np.array_equal(mass, ref_mass)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(A.shape[0])
    ref = A @ x
    assert np.linalg.norm(apply(x) - ref) <= 1e-14 * np.linalg.norm(ref)
    lu = splu(A)
    b = rng.standard_normal(A.shape[0])
    ref = lu.solve(b)
    assert np.linalg.norm(solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = np.zeros_like(states)
    for j in range(prob.steps):
        ref[j + 1] = lu.solve(mass * (ref[j] + dt * 0.5 * (omegas[j] + omegas[j + 1])))
    assert np.linalg.norm(states - ref) <= 1e-12 * np.linalg.norm(ref)
    if kind == "scalar":
        inner = _interior_mask(grid)
        u = sol.u.values.reshape(len(sol.times), -1)
        assert np.array_equal(u[:, inner], states) and np.all(u[:, ~inner] == 0)
    return solve, mass


@pytest.mark.parametrize("case", END_CASES, ids=[c[0] for c in END_CASES])
def test_steps_on_grids_with_an_end_match_a_sparse_lu_reference(monkeypatch, case):
    _check_against_lu(monkeypatch, case[1](), "scalar", 0.02)


@pytest.mark.parametrize("counts,kind", [
    ((16, 16), "scalar"), ((12, 20), "scalar"), ((15, 9), "scalar"),
    ((6, 8, 5), "scalar"), ((96, 96), "one-form"), ((15, 9), "one-form"),
    ((12, 18), "one-form"), ((12, 18), "scalar"), ((96, 96), "scalar"),
    ((16, 16), "one-form"), ((12, 20), "one-form"),
])
def test_fft_step_matches_a_sparse_lu_reference(monkeypatch, counts, kind):
    """On a grid that wraps on every axis the step matches the LU
    reference too, and it is bit for bit one rfftn of b / mass, a division
    by 1 + dt times the stencil's closed-form symbol and one irfftn."""
    grid = torus_grid(counts, n=len(counts))
    dt = 0.01
    solve, mass = _check_against_lu(monkeypatch, grid, kind, dt)
    shape = grid.shape
    comps = (mass.size // math.prod(shape),) + shape
    axes = tuple(range(1, len(comps)))
    freqs = [np.fft.fftfreq(N) for N in shape[:-1]] + [np.fft.rfftfreq(shape[-1])]
    symbol = sum((2.0 - 2.0 * np.cos(2.0 * np.pi * k)) / ha**2
                 for k, ha in zip(np.meshgrid(*freqs, indexing="ij", sparse=True), grid.h))
    b = np.random.default_rng(5).standard_normal(mass.size)
    expect = np.fft.irfftn(np.fft.rfftn((b / mass).reshape(comps), axes=axes)
                           / (1.0 + dt * symbol), s=shape, axes=axes).ravel()
    assert np.array_equal(solve(b), expect)


def test_one_form_hodge_matrix_symmetric_psd():
    """The reference B has no block between x- and y-edges, and it is
    symmetric PSD."""
    rng = np.random.default_rng(3)
    for counts in [(16, 16), (12, 20), (15, 9), (12, 18), (96, 96)]:
        B, _ = _reference_hodge_matrix(torus_grid(counts))
        N = B.shape[0] // 2
        scale = abs(B).max()
        assert abs(B[:N, N:]).max() <= 1e-15 * scale
        assert abs(B - B.T).max() <= 1e-15 * scale
        for _ in range(5):
            v = rng.standard_normal(B.shape[0])
            assert v @ (B @ v) >= -1e-12 * scale * (v @ v)


def test_wrong_symbol_raises(monkeypatch):
    # the FFT never checks itself: the residual of the np.roll stencil
    # catches a symbol that is off
    modes = hf._modes

    def wrong(m, h, wraps, half):
        lam, Q = modes(m, h, wraps, half)
        return (2.0 * lam if wraps else lam), Q

    monkeypatch.setattr(hf, "_modes", wrong)
    problems = [
        hf.ParabolicProblem(torus_grid(16), eigen_forcing, horizon=0.1, margin=0.0, dt=0.05),
        hf.ParabolicProblem(torus_grid(8, n=3), eigen_forcing, horizon=0.1, margin=0.0,
                            dt=0.05),
        hf.ParabolicProblem(torus_grid(16), one_form_forcing, horizon=0.1, margin=0.0,
                            dt=0.05, kind="one-form"),
        hf.ParabolicProblem(_mixed_torus((9, 12), (False, True)), eigen_forcing, horizon=0.1,
                            margin=0.0, dt=0.05),
    ]
    for prob in problems:
        with pytest.raises(NumericalError, match="residual"):
            hf.solve_parabolic(prob)


def test_wrong_eigenbasis_raises(monkeypatch):
    """A basis that is not the eigenbasis, on the pencil's axis and on every
    stencil axis with ends, leaves residuals far above the guard."""
    eigh = np.linalg.eigh

    def wrong(a):
        lam, V = eigh(a)
        return lam, V[:, ::-1]

    monkeypatch.setattr(np.linalg, "eigh", wrong)
    for grid in (euclid_grid(9), model_grid("perturbed-euclidean", 9),
                 model_grid("hyperbolic-halfplane", 9), model_grid("euclidean", 6, n=3),
                 _mixed_torus((12, 9), (True, False))):
        prob = hf.ParabolicProblem(grid, eigen_forcing, horizon=0.1, margin=0.0, dt=0.05)
        with pytest.raises(NumericalError, match="residual"):
            hf.solve_parabolic(prob)


def test_inaccurate_step_raises(monkeypatch):
    # a Schur complement inverted with an error leaves residuals far above
    # the guard on the block path (the hyperbolic ball)
    inv = np.linalg.inv

    def wrong(a):
        out = inv(a)
        out[..., 0, 0] *= 1.001
        return out

    monkeypatch.setattr(np.linalg, "inv", wrong)
    prob = hf.ParabolicProblem(model_grid("hyperbolic-ball", 9), eigen_forcing, horizon=0.1,
                               margin=0.0, dt=0.05)
    with pytest.raises(NumericalError, match="residual"):
        hf.solve_parabolic(prob)


def test_the_chart_jet_alone_picks_the_solve(monkeypatch):
    """Every chart whose jet is an AxisProfile is solved by the separable
    path, wrapping or not; the hyperbolic ball by block elimination."""
    calls = []
    for name in ("_separable_solve", "_block_solve"):
        real = getattr(hf, name)
        monkeypatch.setattr(hf, name, lambda *a, real=real, name=name: calls.append(name)
                            or real(*a))
    problems = [(model_grid(name, 9), eigen_forcing, "scalar") for name in BOXES]
    problems += [(model_grid(name, 6, n=3), eigen_forcing, "scalar")
                 for name in ("euclidean", "perturbed-euclidean", "flat-torus")]
    problems += [(_mixed_torus((8, 9), (True, False)), eigen_forcing, "scalar"),
                 (torus_grid(8), one_form_forcing, "one-form")]
    for grid, forcing, kind in problems:
        calls.clear()
        sol = hf.solve_parabolic(hf.ParabolicProblem(grid, forcing, horizon=0.1, margin=0.0,
                                                     dt=0.05, kind=kind))
        assert np.all(sol.residuals <= hf.STEP_RTOL)
        ball = grid.chart.name == "hyperbolic-ball"
        assert calls == ["_block_solve" if ball else "_separable_solve"]
        assert isinstance(grid.chart.jet, AxisProfile) != ball


@pytest.mark.parametrize("name,nodes,n,box", [
    ("euclidean", (2, 2), 2, None),
    ("perturbed-euclidean", (2, 2), 2, None),
    ("hyperbolic-halfplane", (2, 2), 2, None),
    ("hyperbolic-halfplane", (2, 9), 2, None),
    ("hyperbolic-halfplane", (9, 2), 2, None),
    ("hyperbolic-ball", (2, 2), 2, None),
    ("hyperbolic-ball", (2, 9), 2, None),
    ("hyperbolic-ball", (9, 2), 2, None),
    ("flat-torus", (2, 2), 2, [(0.0, 2.0), (0.0, 2.0)]),
    ("flat-torus", (2, 8), 2, [(0.0, 2.0), (0.0, L)]),
    ("euclidean", (2, 2, 2), 3, None),
    ("perturbed-euclidean", (5, 2, 5), 3, None),
])
def test_grids_without_interior_nodes_solve_to_zero(name, nodes, n, box):
    """A grid whose every node lies on an end has no unknown: the solve
    returns zeros and raises nothing, on both paths."""
    grid = model_grid(name, nodes, n=n, box=box)
    sol = hf.solve_parabolic(hf.ParabolicProblem(grid, _bump(grid), horizon=0.1, margin=0.0,
                                                 dt=0.05))
    assert np.all(sol.u.values == 0.0) and np.all(sol.residuals == 0.0)


def test_one_form_forcing_must_return_two_components():
    prob = hf.ParabolicProblem(torus_grid(8), eigen_forcing, horizon=0.1, margin=0.0,
                               dt=0.05, kind="one-form")
    with pytest.raises(DomainError, match=r"\(\.\.\., 2\)"):
        hf.solve_parabolic(prob)


def test_edge_midpoints_are_wrapped_once_per_solve(monkeypatch):
    grid = torus_grid(8)
    calls = []
    wrap = grid.chart.wrap
    monkeypatch.setattr(grid.chart, "wrap", lambda x: calls.append(1) or wrap(x))
    counts = []
    for dt in (0.05, 0.01):
        calls.clear()
        hf.solve_parabolic(hf.ParabolicProblem(grid, one_form_forcing, horizon=0.1, margin=0.0,
                                               dt=dt, kind="one-form"))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    mids = hf.edge_midpoints(grid)
    h1, h2 = grid.h
    sampled = hf.sample_one_form_on_edges(one_form_forcing, 0.0, mids)
    x_edges = one_form_forcing(0.0, wrap(grid.points + np.array([h1 / 2.0, 0.0])))[..., 0]
    y_edges = one_form_forcing(0.0, wrap(grid.points + np.array([0.0, h2 / 2.0])))[..., 1]
    assert np.array_equal(sampled, np.concatenate([x_edges.ravel(), y_edges.ravel()]))


@pytest.mark.parametrize("forcing", [
    lambda t, p: 1.0,
    lambda t, p: np.zeros(p.shape[0]),
    lambda t, p: np.zeros(p.shape[:-1] + (2,)),
], ids=["float", "one-axis", "two-components"])
def test_scalar_forcing_must_return_the_grid_shape(forcing):
    """A value that would broadcast into the forcing series, or not fit
    it, is refused with both shapes named."""
    prob = hf.ParabolicProblem(euclid_grid(9), forcing, horizon=0.1, margin=0.0, dt=0.05)
    with pytest.raises(DomainError, match=r"\(9, 9\)"):
        hf.solve_parabolic(prob)


# -- memory: each time series is allocated once ------------------------


def _traced_solve(prob):
    """The solution and the traced peak of its solve, in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        sol = hf.solve_parabolic(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sol, peak


@pytest.mark.parametrize("grid,forcing,kind,series", [
    (torus_grid(96), eigen_forcing, "scalar", 2.6),
    (euclid_grid(81), None, "scalar", 2.6),
    (torus_grid(96), one_form_forcing, "one-form", 3.5),
], ids=["torus-scalar", "euclidean", "torus-one-form"])
def test_solve_holds_each_series_once(grid, forcing, kind, series):
    """A series is one (steps + 1) x nodes x components float array.  A
    solve keeps u and the forcing, each allocated once in its final
    layout; one-forms also hold their edge series until the nodal copies
    exist."""
    prob = hf.ParabolicProblem(grid, forcing or _bump(grid), horizon=0.3, margin=0.1,
                               dt=0.01, kind=kind)
    sol, peak = _traced_solve(prob)
    assert peak <= series * sol.u.values.nbytes


def test_ball_solve_keeps_only_the_inverse_schur_blocks():
    """At 161^2 nodes the inverse blocks alone take 159^3 floats (30.7
    MiB); keeping the Schur blocks beside them would add as much again."""
    grid = model_grid("hyperbolic-ball", 161)
    prob = hf.ParabolicProblem(grid, _bump(grid), horizon=0.3, margin=0.1, dt=0.01)
    sol, peak = _traced_solve(prob)
    assert np.all(sol.residuals <= hf.STEP_RTOL)
    assert peak <= 55 * 2**20


def test_contraction_check_does_not_compute_the_time_derivative():
    grid = euclid_grid(17)
    sol = hf.solve_parabolic(hf.ParabolicProblem(grid, _bump(grid), horizon=0.2, margin=0.1,
                                                 dt=0.05))
    assert hf.check_threshold_contraction(sol)["holds"]
    assert "dt_u" not in sol.__dict__
    u = sol.u.values
    assert np.array_equal(sol.dt_u.values[1:], (u[1:] - u[:-1]) / 0.05)
    assert np.array_equal(sol.dt_u.values[0], sol.dt_u.values[1])
    assert sol.dt_u is sol.dt_u
