import math

import numpy as np
import pytest
import scipy.sparse as sp

from soboheat import heatflow as hf
from soboheat import norms
from soboheat.geometry import CapabilityError, DomainError, NumericalError, make_chart

L = 2 * math.pi


def torus_grid(nx=32, n=2):
    chart = make_chart("flat-torus", n=n, L=L)
    return norms.Grid.over_box(chart, [(0, L)] * n, nx)


def euclid_grid(nx=33):
    chart = make_chart("euclidean", n=2)
    return norms.Grid.over_box(chart, [(4.0, 6.0), (4.0, 6.0)], nx)


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


def test_laplacian_symmetric_and_psd():
    for grid in (torus_grid(16), euclid_grid(17)):
        K, W = hf.discrete_laplacian(grid)
        assert abs(K - K.T).max() <= 1e-12
        # 50-step Lanczos probe for the smallest Ritz value
        vals = sp.linalg.eigsh(K, k=1, which="SA", maxiter=50,
                               return_eigenvectors=False, tol=1e-8)
        assert vals[0] >= -1e-10


def test_laplacian_annihilates_constants_on_torus():
    grid = torus_grid(16)
    K, _ = hf.discrete_laplacian(grid)
    assert np.max(np.abs(K @ np.ones(K.shape[0]))) <= 1e-12


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

    K, W = hf.discrete_laplacian(grid)
    vvals = v(grid.points).ravel()
    omega_vec = (K @ vvals) / W  # forcing = (positive) Laplacian of v

    def forcing(t, pts):
        return omega_vec.reshape(grid.shape)

    prob = hf.ParabolicProblem(grid, forcing, horizon=5.0, margin=0.0, dt=0.05)
    sol = hf.solve_parabolic(prob)
    vc = vvals - vvals.mean()  # steady state is fixed up to the constant mode
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


def test_one_form_hodge_matrix_symmetric_psd():
    grid = torus_grid(16)
    B, s1 = hf.one_form_hodge_matrices(grid)
    assert abs(B - B.T).max() <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(B.shape[0])
        assert v @ (B @ v) >= -1e-10


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
    ]
    for prob in problems:
        sol = hf.solve_parabolic(prob)
        assert len(sol.residuals) == prob.steps == len(sol.times) - 1
        assert np.all(sol.residuals <= 1e-10)


def test_inaccurate_step_raises(monkeypatch):
    # a factor of a different matrix leaves residuals far above the guard
    splu = hf.splu
    monkeypatch.setattr(hf, "splu", lambda A, **kw: splu(2.0 * A, **kw))
    prob = hf.ParabolicProblem(euclid_grid(9), eigen_forcing, horizon=0.1, margin=0.0,
                               dt=0.05)
    with pytest.raises(NumericalError, match="residual"):
        hf.solve_parabolic(prob)


@pytest.mark.parametrize("grid", [euclid_grid(9), torus_grid(8)], ids=["splu", "fft"])
def test_nan_forcing_raises(grid):
    """A NaN residual must fail the step check, not pass it."""
    def forcing(t, pts):
        vals = eigen_forcing(t, pts)
        vals[4, 4] = math.nan
        return vals

    prob = hf.ParabolicProblem(grid, forcing, horizon=0.1, margin=0.0, dt=0.05)
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


# -- FFT steps on grids that wrap on every axis -------------------------


def _step_matrix(grid, kind, dt=0.01):
    if kind == "scalar":
        K, W = hf.discrete_laplacian(grid)
        return sp.diags(W) + dt * K
    B, s1 = hf.one_form_hodge_matrices(grid)
    return sp.diags(s1) + dt * B


@pytest.mark.parametrize("counts,kind", [
    ((16, 16), "scalar"), ((12, 20), "scalar"), ((15, 9), "scalar"),
    ((6, 8, 5), "scalar"), ((96, 96), "one-form"), ((15, 9), "one-form"),
    ((12, 18), "one-form"),
])
def test_fft_step_matches_a_sparse_lu_reference(counts, kind):
    grid = torus_grid(counts, n=len(counts))
    A = _step_matrix(grid, kind)
    b = np.random.default_rng(7).standard_normal(A.shape[0])
    x = hf._fft_solver(A, grid.shape)(b)
    ref = sp.linalg.splu(A.tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_wrong_symbol_raises(monkeypatch):
    # the FFT never checks itself: the residual against the assembled
    # matrix catches a symbol that is off
    symbol = hf._circulant_symbol
    monkeypatch.setattr(hf, "_circulant_symbol", lambda A, shape: 2.0 * symbol(A, shape))
    problems = [
        hf.ParabolicProblem(torus_grid(16), eigen_forcing, horizon=0.1, margin=0.0, dt=0.05),
        hf.ParabolicProblem(torus_grid(16), one_form_forcing, horizon=0.1, margin=0.0,
                            dt=0.05, kind="one-form"),
    ]
    for prob in problems:
        with pytest.raises(NumericalError, match="residual"):
            hf.solve_parabolic(prob)


def test_only_grids_with_an_end_are_factored(monkeypatch):
    factored = []
    splu = hf.splu

    def spy(A, **kw):
        factored.append(A.shape)
        return splu(A, **kw)

    monkeypatch.setattr(hf, "splu", spy)
    torus = make_chart("flat-torus", n=2, L=L)
    sub_boxes = [norms.Grid.over_box(torus, box, 9)
                 for box in ([(0.0, 2.0), (0.0, 2.0)], [(0.0, 2.0), (0.0, L)])]
    assert [g.wraps for g in sub_boxes] == [(False, False), (False, True)]
    for grid in (euclid_grid(9), *sub_boxes):
        factored.clear()
        hf.solve_parabolic(hf.ParabolicProblem(grid, eigen_forcing, horizon=0.1, margin=0.0,
                                               dt=0.05))
        assert len(factored) == 1
    factored.clear()
    for kind, forcing in (("scalar", eigen_forcing), ("one-form", one_form_forcing)):
        sol = hf.solve_parabolic(hf.ParabolicProblem(torus_grid(16), forcing, horizon=0.1,
                                                     margin=0.0, dt=0.05, kind=kind))
        assert np.all(sol.residuals <= hf.STEP_RTOL)
    assert factored == []


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
