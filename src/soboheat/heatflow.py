"""Implicit-Euler heat flow on chart grids, with estimate experiments.

The scalar operator is the positive Laplace-Beltrami operator in
divergence form, assembled as a stiffness matrix K with half-node
metric coefficients so that u^T K v approximates the Dirichlet energy
integral f^(n/2-1) grad u . grad v dx (conformal metric f delta).  With
the lumped mass matrix W of quadrature weights, each implicit Euler step
solves the SPD system (W + dt K) u+ = W (u + dt forcing).
Homogeneous Dirichlet data is imposed by restriction to interior nodes;
an axis that wraps (Grid.wraps: a whole period) has no boundary.

On a flat chart (f = 1) over a grid that wraps on every axis (the whole
flat torus) nothing is assembled.  There the scalar step matrix is
hvol (I + dt L), with L the periodic stencil sum_a (2 u - u+ - u-)/h_a^2
and hvol the cell volume.  One-forms live only there (2-D grids that
wrap on both axes), on the staggered edge grid with the diagonal Hodge
stars of discrete exterior calculus.  Their Hodge Laplacian
d delta + delta d has no cross block between x- and y-edges, and the
step matrix is (h2/h1)(I + dt L) on the x-edges and (h1/h2)(I + dt L)
on the y-edges.  Each step is one rfftn per component, a division by
1 + dt times the closed-form symbol sum_a (2 - 2 cos(2 pi k_a/N_a))/h_a^2,
and one irfftn.  Every other grid has an end on some axis; its step
matrix is assembled and factored once per solve (sparse LU).  Every
step's residual is checked by applying the step matrix apart from the
solve: the np.roll stencil on the torus, the sparse matrix elsewhere.
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


def discrete_laplacian(grid: Grid):
    """(K, W): stiffness and lumped mass for the scalar Laplace-Beltrami
    operator; the operator is W^-1 K, symmetric PSD in the W inner
    product."""
    chart = grid.chart
    n = chart.n
    shape = grid.shape
    N = int(np.prod(shape))
    idx = np.arange(N).reshape(shape)
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
            if self.grid.chart.n != 2 or not _on_flat_torus(self.grid):
                raise CapabilityError("one-form problems need a fully periodic 2-D flat grid")
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


def bump_forcing(center, width, tfreq):
    """The forcing exp(-|x - center|^2 / width^2) sin(tfreq t)."""
    center = np.asarray(center, dtype=float)

    def forcing(t, pts):
        r2 = np.sum((pts - center) ** 2, axis=-1)
        return np.exp(-r2 / width**2) * math.sin(tfreq * t)

    return forcing


def _on_flat_torus(grid: Grid) -> bool:
    return grid.chart.is_flat and all(grid.wraps)


def _periodic_laplacian(x, h):
    """Sum over the grid axes (the last len(h) axes of x) of the periodic
    stencil (2 x - x+ - x-) / h_a^2."""
    lead = x.ndim - len(h)
    out = np.zeros_like(x)
    for a, ha in enumerate(h):
        out += (2.0 * x - np.roll(x, 1, lead + a) - np.roll(x, -1, lead + a)) / ha**2
    return out


def _periodic_symbol(shape, h):
    """The stencil's Fourier symbol sum_a (2 - 2 cos(2 pi k_a / N_a)) / h_a^2
    on the half spectrum of rfftn."""
    freqs = [np.fft.fftfreq(N) for N in shape[:-1]] + [np.fft.rfftfreq(shape[-1])]
    return sum((2.0 - 2.0 * np.cos(2.0 * np.pi * k)) / ha**2
               for k, ha in zip(np.meshgrid(*freqs, indexing="ij", sparse=True), h))


def _torus_step(mass, grid: Grid, dt):
    """(apply, solve) for the step matrix diag(mass) (I + dt L) on a flat
    grid that wraps on every axis, L the periodic stencil on each of the
    mass.size / nodes components: apply by np.roll, solve by one rfftn,
    a division by the closed-form symbol and one irfftn."""
    shape, h = grid.shape, grid.h
    comps = (mass.size // math.prod(shape),) + shape
    axes = tuple(range(1, len(comps)))
    denom = 1.0 + dt * _periodic_symbol(shape, h)

    def apply(x):
        x = x.reshape(comps)
        return mass * (x + dt * _periodic_laplacian(x, h)).ravel()

    def solve(b):
        bh = np.fft.rfftn((b / mass).reshape(comps), axes=axes)
        return np.fft.irfftn(bh / denom, s=shape, axes=axes).ravel()

    return apply, solve


def _implicit_euler(step, mass, omegas, dt):
    """States x_0 = 0, ..., x_steps of A x_(j+1) = mass (x_j + dt omega_j)
    with the step-averaged forcing omega_j = (omegas[j] + omegas[j+1]) / 2;
    step = (apply, solve) gives x -> A x and b -> A^-1 b.  Returns the
    states and each step's relative residual against apply; raises
    NumericalError when one exceeds STEP_RTOL."""
    apply, solve = step
    steps = len(omegas) - 1
    x = np.zeros((steps + 1, mass.size))
    residuals = np.zeros(steps)
    for j in range(steps):
        # step-averaged forcing: the discrete L2 bound then telescopes to
        # exactly the trapezoid time integral of the forcing norm
        b = mass * (x[j] + dt * (0.5 * (omegas[j] + omegas[j + 1])))
        x[j + 1] = solve(b)
        res = np.linalg.norm(apply(x[j + 1]) - b)
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
    times = problem.dt * np.arange(problem.steps + 1)
    omegas = np.stack([np.asarray(problem.forcing(t, grid.points), dtype=float)
                       for t in times])
    inner = interior_mask(grid)
    if _on_flat_torus(grid):
        mass = grid.quadrature.ravel()
        step = _torus_step(mass, grid, problem.dt)
    else:
        K, W = discrete_laplacian(grid)
        mass = W[inner]
        A = (sp.diags(mass) + problem.dt * K[inner][:, inner]).tocsc()
        step = A.dot, splu(A, permc_spec="MMD_AT_PLUS_A").solve
    xi, residuals = _implicit_euler(step, mass, omegas.reshape(len(times), -1)[:, inner],
                                    problem.dt)
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


# -- one-forms on the flat torus ----------------------------------------


def one_form_hodge_matrices(grid: Grid):
    """Edge weights s1 of the diagonal Hodge star on one-forms: h2/h1 on
    the x-edges, then h1/h2 on the y-edges.  On the flat torus the DEC step
    matrix S1 + dt S1 Delta_1 splits into s1 (I + dt L) on each edge grid,
    L the periodic 5-point stencil, so these are all a one-form step
    needs.  The name stays while the benchmark's span tracer looks it up
    (ROADMAP item 1)."""
    h1, h2 = grid.h
    N = math.prod(grid.shape)
    return np.concatenate([np.full(N, h2 / h1), np.full(N, h1 / h2)])


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
    s1 = one_form_hodge_matrices(grid)
    times = problem.dt * np.arange(problem.steps + 1)
    mids = edge_midpoints(grid)
    omegas = np.stack([sample_one_form_on_edges(problem.forcing, t, mids) for t in times])
    u, residuals = _implicit_euler(_torus_step(s1, grid, problem.dt), s1, omegas, problem.dt)
    dtu = _time_derivative(u, problem.dt)
    # edge arrays are packaged as nodal two-component fields for norms:
    # averaging the two staggered samples back onto nodes
    N = math.prod(grid.shape)

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


def check_threshold_contraction(solution: ParabolicSolution) -> dict:
    """||u(t_j)||_L2 <= integral_0^t_j ||forcing||_L2 ds at every node."""
    un = l2_norm_at_times(solution.u)
    fn = l2_norm_at_times(solution.forcing_field())
    t = solution.times
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(t))])
    ok = un <= cum * (1 + 1e-8) + 1e-300
    return {
        "holds": bool(np.all(ok)),
        "worst_margin": float(np.max(un - cum)),
        "u_norms": un,
        "forcing_integral": cum,
    }


def local_estimate_experiment(solution: ParabolicSolution, ball, r: float = 2.0) -> dict:
    """Interior-vs-exterior norm ratio on the half ball B(x, R/2) with the
    two time windows [0, T + margin/2] and [0, T + margin], at m = 2
    space derivatives and time exponent s = 2."""
    m, s = 2, 2.0
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


def global_estimate_experiment(solution: ParabolicSolution, rad_field, table) -> dict:
    """Weighted global estimate ratio: time-derivative and Sobolev-2 norms
    of u with weights R^(r delta), R^(r gamma) against forcing norms with
    weight R^(r beta) plus a plain L2 term, r = table.r."""
    from .exponents import weight_spec

    prob = solution.problem
    grid = prob.grid
    spec = weight_spec(table)
    rr = float(table.r)
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
