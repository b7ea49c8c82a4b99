"""Implicit-Euler heat flow on chart grids, with estimate experiments.

The scalar operator is the positive Laplace-Beltrami operator in
divergence form, assembled as a stiffness matrix K with half-node
metric coefficients so that u^T K v approximates the Dirichlet energy
integral f^(n/2-1) grad u . grad v dx (conformal metric f delta).  With
the lumped mass matrix W of quadrature weights, each implicit Euler step
solves the SPD system (W + dt K) u+ = W (u + dt forcing).
Homogeneous Dirichlet data is imposed by restriction to interior nodes;
an axis that wraps (Grid.wraps: a whole period) has no boundary.

One-forms (2-D grids that wrap on both axes only) use a discrete-exterior-
calculus Hodge Laplacian d delta + delta d with diagonal Hodge stars on
the staggered edge grid.

On a flat chart over a grid that wraps on every axis (the whole flat
torus), each block of the step matrix is circulant, so a step is an FFT,
a solve per Fourier mode with the symbol read off the assembled matrix,
and an inverse FFT.  Every other grid has an end on some axis; its step
matrix is factored once per solve (sparse LU).  Either way, every step's
residual is checked against the assembled sparse matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .geometry import CapabilityError, DomainError, NumericalError
from .norms import DiscreteField, Grid, NormRequest, sobolev_norm

# relative residual ||A x - b|| / ||b|| a step may leave
STEP_RTOL = 1e-10


def _flat_index(shape):
    return np.arange(int(np.prod(shape))).reshape(shape)


def discrete_laplacian(grid: Grid):
    """(K, W): stiffness and lumped mass for the scalar Laplace-Beltrami
    operator; the operator is W^-1 K, symmetric PSD in the W inner
    product."""
    chart = grid.chart
    n = chart.n
    shape = grid.shape
    N = int(np.prod(shape))
    idx = _flat_index(shape)
    hvol = float(np.prod(grid.h))
    rows, cols, vals = [], [], []
    for ax in range(n):
        # half-node metric coefficient f^(n/2-1) on each axis edge; an axis
        # that wraps keeps the edge from its last node to its first
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
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)
    ).tocsr()
    W = grid.quadrature.ravel()
    return K, W


def interior_mask(grid: Grid) -> np.ndarray:
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.chart.n):
        if grid.wraps[ax]:
            continue
        sl = [slice(None)] * grid.chart.n
        for edge in (0, -1):
            sl[ax] = edge
            mask[tuple(sl)] = False
    return mask.ravel()


@dataclass
class ParabolicProblem:
    grid: Grid
    forcing: callable  # (t, points) -> values
    horizon: float  # T
    margin: float  # alpha
    dt: float
    kind: str = "scalar"

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.dt, self.horizon, self.margin)):
            raise DomainError("need finite dt, horizon and margin")
        if self.dt <= 0 or self.horizon <= 0 or self.margin < 0:
            raise DomainError("need dt > 0, horizon > 0, margin >= 0")
        ratio = (self.horizon + self.margin) / self.dt
        if not math.isfinite(ratio):
            raise DomainError(f"(horizon + margin)/dt overflows: dt = {self.dt:g} is too small")
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise DomainError(
                f"(horizon + margin)/dt = {ratio:.12g} is not a whole number of steps"
            )
        if self.kind == "one-form":
            if self.grid.chart.n != 2 or not all(self.grid.wraps):
                raise CapabilityError("one-form problems need a fully periodic 2-D grid")
        elif self.kind != "scalar":
            raise DomainError(f"unknown problem kind {self.kind!r}")

    @property
    def steps(self) -> int:
        return int(round((self.horizon + self.margin) / self.dt))


@dataclass
class ParabolicSolution:
    problem: ParabolicProblem
    times: np.ndarray
    u: DiscreteField
    dt_u: DiscreteField
    forcing_values: np.ndarray
    residuals: np.ndarray  # per step, ||A x - b|| / ||b||

    def forcing_field(self) -> DiscreteField:
        return DiscreteField(self.problem.grid, self.forcing_values,
                             self.u.kind, self.times)


def _circulant_symbol(A, shape):
    """Fourier symbol of A, whose c x c blocks of prod(shape) grid nodes
    are each circulant on the grid: sym[..., i, j] is the rfftn of block
    (i, j)'s column at node 0, read off one matvec per block column."""
    N = math.prod(shape)
    c = A.shape[0] // N
    unit = np.zeros(A.shape[0])
    cols = []
    for j in range(c):
        unit[j * N] = 1.0
        cols.append((A @ unit).reshape((c,) + shape))
        unit[j * N] = 0.0
    sym = np.fft.rfftn(np.stack(cols, axis=1), axes=tuple(range(2, 2 + len(shape))))
    return np.moveaxis(sym, (0, 1), (-2, -1))


def _fft_solver(A, shape):
    """b -> A^-1 b by FFT for A block-circulant on a grid that wraps on
    every axis: one c x c solve per Fourier mode."""
    inv = np.linalg.inv(_circulant_symbol(A, shape))
    c = inv.shape[-1]
    axes = tuple(range(1, 1 + len(shape)))

    def solve(b):
        bh = np.fft.rfftn(b.reshape((c,) + shape), axes=axes)
        xh = np.einsum("...ij,j...->i...", inv, bh)
        return np.fft.irfftn(xh, s=shape, axes=axes).ravel()

    return solve


def _implicit_euler(A, mass, omegas, dt, grid):
    """States x_0 = 0, ..., x_steps of A x_(j+1) = mass (x_j + dt omega_j)
    with the step-averaged forcing omega_j = (omegas[j] + omegas[j+1]) / 2;
    A = diag(mass) + dt (stiffness) is solved by FFT on a flat grid that
    wraps on every axis and factored once otherwise.  Returns the states
    and each step's relative residual against A; raises NumericalError
    when one exceeds STEP_RTOL."""
    if grid.chart.is_flat and all(grid.wraps):
        solve = _fft_solver(A, grid.shape)
    else:
        solve = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    steps = len(omegas) - 1
    x = np.zeros((steps + 1, A.shape[0]))
    residuals = np.zeros(steps)
    for j in range(steps):
        # step-averaged forcing: the discrete L2 bound then telescopes to
        # exactly the trapezoid time integral of the forcing norm
        b = mass * (x[j] + dt * (0.5 * (omegas[j] + omegas[j + 1])))
        x[j + 1] = solve(b)
        res = np.linalg.norm(A @ x[j + 1] - b)
        bnorm = np.linalg.norm(b)
        if not res <= STEP_RTOL * bnorm:  # a NaN residual fails too
            raise NumericalError(
                f"implicit Euler step {j + 1}: residual {res:.3g} exceeds "
                f"{STEP_RTOL:g} x ||b|| = {STEP_RTOL * bnorm:.3g}"
            )
        if bnorm > 0:
            residuals[j] = res / bnorm
    return x, residuals


def _time_derivative(u, dt):
    dtu = np.zeros_like(u)
    dtu[1:] = (u[1:] - u[:-1]) / dt
    dtu[0] = dtu[1]
    return dtu


def solve_parabolic(problem: ParabolicProblem) -> ParabolicSolution:
    """Implicit Euler from u(0) = 0 to horizon + margin."""
    if problem.kind == "one-form":
        return _solve_one_form(problem)
    grid = problem.grid
    K, W = discrete_laplacian(grid)
    inner = interior_mask(grid)
    Ki = K[inner][:, inner]
    Wi = W[inner]
    A = sp.diags(Wi) + problem.dt * Ki
    times = problem.dt * np.arange(problem.steps + 1)
    omegas = np.stack([np.asarray(problem.forcing(t, grid.points), dtype=float)
                       for t in times])
    xi, residuals = _implicit_euler(A, Wi, omegas.reshape(len(times), -1)[:, inner],
                                    problem.dt, grid)
    u = np.zeros((len(times), inner.size))
    u[:, inner] = xi
    u = u.reshape(omegas.shape)
    return ParabolicSolution(
        problem,
        times,
        DiscreteField(grid, u, "scalar", times),
        DiscreteField(grid, _time_derivative(u, problem.dt), "scalar", times),
        omegas,
        residuals,
    )


# -- one-forms via DEC on periodic grids -------------------------------


def _dec_operators(grid: Grid):
    """d0, d1 and diagonal Hodge stars for a fully periodic 2-D grid.

    Edge order: all x-edges (node -> node + e_x) then all y-edges.  In
    two dimensions the star on 1-forms is conformally invariant, so *1
    carries only the flat length ratios; *0 and *2 carry the area factor.
    """
    chart = grid.chart
    shape = grid.shape
    N = int(np.prod(shape))
    idx = _flat_index(shape)
    h1, h2 = grid.h
    ex = np.roll(idx, -1, axis=0).ravel()
    ey = np.roll(idx, -1, axis=1).ravel()
    base = idx.ravel()
    rows = np.concatenate([np.arange(N), np.arange(N), np.arange(N) + N, np.arange(N) + N])
    cols = np.concatenate([ex, base, ey, base])
    vals = np.concatenate([np.ones(N), -np.ones(N), np.ones(N), -np.ones(N)])
    d0 = sp.coo_matrix((vals, (rows, cols)), shape=(2 * N, N)).tocsr()
    # faces at (i+1/2, j+1/2): boundary = +x-edge(i,j) +y-edge(i+1,j) -x-edge(i,j+1) -y-edge(i,j)
    f = np.arange(N)
    x_lo = base
    x_hi = np.roll(idx, -1, axis=1).ravel()  # x-edge shifted in y
    y_lo = base + 0  # y-edge at (i, j)
    y_hi = np.roll(idx, -1, axis=0).ravel()  # y-edge at (i+1, j)
    rows = np.concatenate([f, f, f, f])
    cols = np.concatenate([x_lo, y_hi + N, x_hi, y_lo + N])
    vals = np.concatenate([np.ones(N), np.ones(N), -np.ones(N), -np.ones(N)])
    d1 = sp.coo_matrix((vals, (rows, cols)), shape=(N, 2 * N)).tocsr()
    fnode = grid.f.ravel()
    star0 = fnode * h1 * h2
    star1 = np.concatenate([np.full(N, h2 / h1), np.full(N, h1 / h2)])
    fcent = grid.points + 0.5 * np.array([h1, h2])
    fcent = chart.conformal_factor(chart.wrap(fcent).reshape(-1, 2))
    star2 = 1.0 / (fcent * h1 * h2)
    return d0, d1, star0, star1, star2


def one_form_hodge_matrices(grid: Grid):
    """(B, S1): S1-weighted Hodge Laplacian B = S1 Delta_1 (symmetric PSD)
    and the diagonal edge inner product S1."""
    d0, d1, s0, s1, s2 = _dec_operators(grid)
    S1 = sp.diags(s1)
    B = S1 @ d0 @ sp.diags(1.0 / s0) @ d0.T @ S1 + d1.T @ sp.diags(s2) @ d1
    return B.tocsr(), s1


def edge_midpoints(grid: Grid):
    """Midpoints of the x-edges and of the y-edges, wrapped into the chart."""
    h1, h2 = grid.h
    return (grid.chart.wrap(grid.points + np.array([h1 / 2.0, 0.0])),
            grid.chart.wrap(grid.points + np.array([0.0, h2 / 2.0])))


def sample_one_form_on_edges(fn, t: float, midpoints) -> np.ndarray:
    """Sample a nodal one-form callable, which returns (..., 2) values,
    at the edge midpoints: dx1 on the x-edges, dx2 on the y-edges."""
    vals = [np.asarray(fn(t, mid), dtype=float) for mid in midpoints]
    for val, mid in zip(vals, midpoints):
        if val.shape != mid.shape:
            raise DomainError(f"a one-form forcing must return values of shape (..., 2) "
                              f"= {mid.shape}, not {val.shape}")
    return np.concatenate([vals[0][..., 0].ravel(), vals[1][..., 1].ravel()])


def _solve_one_form(problem: ParabolicProblem) -> ParabolicSolution:
    grid = problem.grid
    B, s1 = one_form_hodge_matrices(grid)
    A = sp.diags(s1) + problem.dt * B
    times = problem.dt * np.arange(problem.steps + 1)
    mids = edge_midpoints(grid)
    omegas = np.stack([sample_one_form_on_edges(problem.forcing, t, mids) for t in times])
    u, residuals = _implicit_euler(A, s1, omegas, problem.dt, grid)
    dtu = _time_derivative(u, problem.dt)
    # edge arrays are packaged as nodal two-component fields for norms:
    # averaging the two staggered samples back onto nodes
    N = int(np.prod(grid.shape))

    def to_nodes(arr):
        wx = arr[:, :N].reshape((-1,) + grid.shape)
        wy = arr[:, N:].reshape((-1,) + grid.shape)
        wx = 0.5 * (wx + np.roll(wx, 1, axis=1))
        wy = 0.5 * (wy + np.roll(wy, 1, axis=2))
        return np.stack([wx, wy], axis=-1)

    return ParabolicSolution(
        problem,
        times,
        DiscreteField(grid, to_nodes(u), "one-form", times),
        DiscreteField(grid, to_nodes(dtu), "one-form", times),
        to_nodes(omegas),
        residuals,
    )


# -- verification harnesses --------------------------------------------


def l2_norm_at_times(field: DiscreteField) -> np.ndarray:
    grid = field.grid
    q = grid.quadrature
    if field.kind == "one-form":
        mod2 = np.sum(field.values**2, axis=-1) / grid.f
    else:
        mod2 = field.values**2
    return np.sqrt(np.sum(mod2 * q, axis=tuple(range(1, mod2.ndim))))


def check_threshold_contraction(solution: ParabolicSolution, slack: float = 1e-8) -> dict:
    """||u(t_j)||_L2 <= integral_0^t_j ||forcing||_L2 ds at every node."""
    un = l2_norm_at_times(solution.u)
    fn = l2_norm_at_times(solution.forcing_field())
    t = solution.times
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(t))])
    ok = un <= cum * (1 + slack) + 1e-300
    return {
        "holds": bool(np.all(ok)),
        "worst_margin": float(np.max(un - cum)),
        "u_norms": un,
        "forcing_integral": cum,
    }


def local_estimate_experiment(solution: ParabolicSolution, ball, m: int = 2,
                              r: float = 2.0, s: float = 2.0) -> dict:
    """Interior-vs-exterior norm ratio on the half ball B(x, R/2) with the
    two time windows [0, T + margin/2] and [0, T + margin]."""
    prob = solution.problem
    center, R = ball
    half = (center, R / 2.0)
    w_half = (0.0, prob.horizon + prob.margin / 2.0)
    w_full = (0.0, prob.horizon + prob.margin)
    lhs = sobolev_norm(solution.dt_u, NormRequest(r=r, l=0, region=half, s=s, window=w_half))
    lhs += R**m * sobolev_norm(solution.u, NormRequest(r=r, l=m, region=half, s=s, window=w_half))
    omega = solution.forcing_field()
    rhs = sobolev_norm(omega, NormRequest(r=r, l=0, region=ball, s=s, window=w_full))
    rhs += R**-m * sobolev_norm(solution.u, NormRequest(r=r, l=0, region=ball, s=s, window=w_full))
    return {"lhs": lhs, "rhs": rhs, "c_emp": 0.0 if rhs == 0 else lhs / rhs}


def global_estimate_experiment(solution: ParabolicSolution, rad_field, table, r=None) -> dict:
    """Weighted global estimate ratio: time-derivative and Sobolev-2 norms
    of u with weights R^(r delta), R^(r gamma) against forcing norms with
    weight R^(r beta) plus a plain L2 term."""
    from .exponents import weight_spec

    prob = solution.problem
    grid = prob.grid
    spec = weight_spec(table, r)
    rr = float(table.r if r is None else r)
    rvals = rad_field.lower_bound_at(grid.points.reshape(-1, grid.chart.n)).reshape(grid.shape)
    w1 = rvals ** float(spec.w1_exp)
    w2 = rvals ** float(spec.w2_exp)
    w3 = rvals ** float(spec.w3_exp)
    w_sol = (0.0, prob.horizon)
    w_src = (0.0, prob.horizon + prob.margin)
    lhs = sobolev_norm(solution.dt_u, NormRequest(r=rr, l=0, weight=w1, s=rr, window=w_sol))
    lhs += sobolev_norm(solution.u, NormRequest(r=rr, l=2, weight=w2, s=rr, window=w_sol))
    omega = solution.forcing_field()
    rhs = sobolev_norm(omega, NormRequest(r=rr, l=0, weight=w3, s=rr, window=w_src))
    rhs += sobolev_norm(omega, NormRequest(r=2.0, l=0, s=rr, window=w_src))
    if rhs == 0:
        return {"lhs": lhs, "rhs": rhs, "ratio": None, "vacuous": True}
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs, "vacuous": False}
