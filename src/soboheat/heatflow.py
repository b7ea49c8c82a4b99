"""Implicit-Euler heat flow on chart grids, with estimate experiments.

The scalar operator is the positive Laplace-Beltrami operator in
divergence form: a stiffness K with half-node metric coefficients, so
that u^T K v approximates the Dirichlet energy integral
f^(n/2-1) grad u . grad v dx (conformal metric f delta).  K is held as
one array of edge weights per axis (discrete_laplacian).  With the
lumped mass W of quadrature weights, each implicit Euler step solves the
SPD system (W + dt K) u+ = W (u + dt forcing).  Homogeneous Dirichlet
data is imposed by restriction to interior nodes; an axis that wraps
(Grid.wraps: a whole period) has no boundary.

The chart's jet picks one of two direct solves, both numpy alone: fast
diagonalisation where f depends on one coordinate (an AxisProfile: every
catalog chart but the hyperbolic ball, see _separable_solve), and block
LDL^T elimination over the grid rows for the hyperbolic ball.  On a grid
that wraps on every axis (the whole flat torus) a step is one rfftn of
b / W, a division by 1 + dt times the stencil's closed-form symbol
sum_a (2 - 2 cos(2 pi k_a/N_a)) / h_a^2, and one irfftn.

One-forms live only there (2-D grids that wrap on both axes), on the
staggered edge grid with the diagonal Hodge stars of discrete exterior
calculus.  Their Hodge Laplacian d delta + delta d has no cross block
between x- and y-edges: the step matrix is (h2/h1)(I + dt L) on the
x-edges and (h1/h2)(I + dt L) on the y-edges, L the periodic stencil,
so they step the same way.

Every step's residual is checked by applying the step matrix apart from
the solve: one np.roll stencil over the edge weights, which are 0 past
the last node of an axis with ends.

A solve holds two time series of (steps + 1) x nodes x components
floats, u and the forcing, each allocated once in its final layout: the
forcing samples and the states are written into them in place (a
one-form's edge series are dropped once their nodal copies exist).
ParabolicSolution.dt_u, a third, is computed when it is first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import AxisProfile, CapabilityError, DomainError, NumericalError, budget_blocks
from .norms import NORM_BUDGET, DiscreteField, Grid, NormRequest, sobolev_norm

# relative residual ||A x - b|| / ||b|| a step may leave
STEP_RTOL = 1e-10


def discrete_laplacian(grid: Grid):
    """(edges, W): the stiffness K as edge weights, and the lumped mass
    W (the quadrature weights).  edges[a][i] joins node i to the next
    node along axis a (the first one, past the end of an axis that
    wraps) with the half-node coefficient f^(n/2-1) hvol / h_a^2; past
    the last node of an axis with ends it is 0.  The operator is
    W^-1 K, symmetric PSD in the W inner product."""
    chart = grid.chart
    n = chart.n
    hvol = float(np.prod(grid.h))
    edges = []
    for ax in range(n):
        keep = tuple(slice(0, -1) if a == ax and not grid.wraps[ax] else slice(None)
                     for a in range(n))
        step = np.zeros(n)
        step[ax] = grid.h[ax] / 2.0
        fmid = chart.conformal_factor(chart.wrap(grid.points[keep] + step))
        e = np.zeros(grid.shape)
        e[keep] = fmid ** (n / 2.0 - 1.0) * hvol / grid.h[ax] ** 2
        edges.append(e)
    return edges, grid.quadrature


def _stencil(mass, edges, dt):
    """x -> (diag(mass) + dt K) x for K held as edge weights
    (discrete_laplacian); the grid axes are the last len(edges) axes of
    x, mass and each edges[a].  np.roll wraps, and the zero weight past
    the last node of an axis with ends keeps the first node's value from
    coming around."""
    n = len(edges)
    pairs = [(a - n, e, np.roll(e, 1, a - n)) for a, e in enumerate(edges)]
    diag = mass + dt * sum(e + back for _, e, back in pairs)

    def apply(x):
        out = diag * x
        for ax, e, back in pairs:
            out -= dt * (e * np.roll(x, -1, ax) + back * np.roll(x, 1, ax))
        return out

    return apply


def _interior(grid: Grid) -> tuple:
    """Index of the unknowns: every node along an axis that wraps, the
    nodes between the two ends along any other."""
    return tuple(slice(None) if w else slice(1, -1) for w in grid.wraps)


def _along(M, x, axis):
    """The matrix M applied along one axis of x."""
    return np.moveaxis(np.tensordot(M, x, axes=(1, axis)), 0, axis)


def _modes(m, h, wraps, half):
    """(eigenvalues, orthogonal basis) of the unit-weight stencil
    (2 u - u+ - u-) / h^2 on an axis of m nodes.  On an axis that wraps
    the rfft transforms it: the eigenvalues are the closed-form symbol
    (2 - 2 cos(2 pi k)) / h^2 over the fft frequencies k (rfft's half
    spectrum if half), and the basis is None.  On an axis with ends,
    np.linalg.eigh of the stencil on the m - 2 interior nodes."""
    if wraps:
        k = np.fft.rfftfreq(m) if half else np.fft.fftfreq(m)
        return (2.0 - 2.0 * np.cos(2.0 * np.pi * k)) / h**2, None
    e = np.full(m, 1.0 / h**2)
    e[-1] = 0.0
    return np.linalg.eigh(_stencil(0.0, [e], 1.0)(np.eye(m))[1:-1, 1:-1])


def _separable_solve(grid: Grid, dt, edges, scale):
    """b -> A^-1 b by fast diagonalisation on a chart whose jet is an
    AxisProfile, f a function of x_p alone.  The edge weights along any
    other axis q are C / h_q^2, C = hvol f^(n/2-1) (hvol in 2-D, by the
    conformal invariance of the Dirichlet energy), so
    A = C (R x I + dt sum_q S_q), S_q the unit-weight stencil of axis q
    and R = C^-1 (W + dt T_p).  An axis that wraps is transformed by
    rfft, where S_q has a closed-form symbol; f is constant along it.
    An axis with ends gets the orthogonal eigenbasis of its 1-D
    operator, on axis p of the symmetric pencil C^-1/2 (W + dt T_p)
    C^-1/2.  The solve divides by the summed eigenvalues.  scale holds C
    at the unknowns, with any leading component axes; where f is
    constant it is the mass."""
    n, p = grid.chart.n, grid.chart.jet.axis
    wrapped = [a - n for a in range(n) if grid.wraps[a]]
    last_wrapped = wrapped[-1] + n if wrapped else None  # rfft's half-spectrum axis

    def along(values, a):
        return values.reshape([-1 if b == a else 1 for b in range(n)])

    base, symbol, into, back = 1.0, 0, {}, {}
    for a in range(n):
        if a == p and not grid.wraps[a]:
            # the pencil C^-1/2 (W + dt T_p) C^-1/2: W + dt T_p is the 1-D
            # step matrix along p, with W and C from f along p
            line = tuple(slice(None) if b == p else 0 for b in range(n))
            f = grid.f[line]
            hvol = float(np.prod(grid.h))
            step = _stencil(hvol * f ** (n / 2.0), [edges[p][line]], dt)(np.eye(len(f)))
            root = np.sqrt(hvol * f[1:-1] ** (n / 2.0 - 1.0))
            lam, V = np.linalg.eigh(step[1:-1, 1:-1] / np.outer(root, root))
            base = along(lam, a)
            into[a], back[a] = V.T * root, V / root[:, None]
        else:
            lam, Q = _modes(grid.shape[a], grid.h[a], grid.wraps[a], a == last_wrapped)
            symbol = symbol + along(lam, a)
            if Q is not None:
                into[a], back[a] = Q.T, Q
    denom = base + dt * symbol

    def solve(b):
        x = b.reshape(scale.shape) / scale
        for a, M in into.items():
            x = _along(M, x, a - n)
        if wrapped:
            x = np.fft.irfftn(np.fft.rfftn(x, axes=wrapped) / denom,
                              s=[x.shape[a] for a in wrapped], axes=wrapped)
        else:
            x = x / denom
        for a, M in back.items():
            x = _along(M, x, a - n)
        return x.reshape(b.shape)

    return solve


def _block_solve(mass, edges, dt):
    """b -> A^-1 b for A = diag(mass) + dt K on the interior of a 2-D grid
    with ends on both axes, by block LDL^T elimination over the rows
    (axis 0).  The diagonal blocks are tridiagonal; the blocks between
    rows are diagonal, -dt times the axis-0 edge weights.  Each row's
    Schur complement is built when its turn comes and only its dense
    inverse is kept: rows x cols^2 floats in all."""
    e0, e1 = edges
    rows, cols = mass.shape
    c = dt * e0[1:-2, 1:-1]  # between interior rows k and k + 1
    diag = mass + dt * (e0[1:-1, 1:-1] + e0[:-2, 1:-1] + e1[1:-1, 1:-1] + e1[1:-1, :-2])
    off = -dt * e1[1:-1, 1:-2]
    i = np.arange(cols)
    inv = np.empty((rows, cols, cols))
    for k in range(rows):
        schur = np.zeros((cols, cols))
        schur[i, i] = diag[k]
        schur[i[1:], i[:-1]] = schur[i[:-1], i[1:]] = off[k]
        if k > 0:
            schur -= c[k - 1][:, None] * inv[k - 1] * c[k - 1]
        inv[k] = np.linalg.inv(schur)

    def solve(b):
        x = b.reshape(rows, cols).copy()
        for k in range(rows):
            x[k] = inv[k] @ (x[k] if k == 0 else x[k] + c[k - 1] * x[k - 1])
        for k in range(rows - 2, -1, -1):
            x[k] += inv[k] @ (c[k] * x[k + 1])
        return x.reshape(b.shape)

    return solve


def _step(grid: Grid, dt, mass, edges, scale):
    """(apply, solve) for the step matrix A = diag(mass) + dt K on the
    unknowns, K given by its edge weights; mass, edges and scale may
    carry leading component axes.  apply embeds x with zero Dirichlet
    values and applies the stencil; solve is chosen by the chart's jet.
    Both take the unknowns flat or in their grid shape and answer in the
    shape they were given."""
    inner = (Ellipsis,) + _interior(grid)
    stencil = _stencil(mass, edges, dt)
    full = np.zeros(np.broadcast_shapes(mass.shape, *(e.shape for e in edges)))

    def apply(x):
        full[inner] = x.reshape(full[inner].shape)
        return stencil(full)[inner].reshape(x.shape)

    if isinstance(grid.chart.jet, AxisProfile):
        return apply, _separable_solve(grid, dt, edges, scale)
    return apply, _block_solve(mass[inner], edges, dt)


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
    forcing_values: np.ndarray
    residuals: np.ndarray  # per step, ||A x - b|| / ||b||

    @functools.cached_property
    def dt_u(self) -> DiscreteField:
        """The backward difference (u_j - u_(j-1)) / dt, with the first
        time node taking the second's.  It is computed on first read, so
        a solve whose caller never reads it holds u and the forcing only."""
        u = self.u.values
        dtu = np.empty_like(u)
        np.subtract(u[1:], u[:-1], out=dtu[1:])
        dtu[1:] /= self.problem.dt
        dtu[0] = dtu[1]
        return DiscreteField(self.problem.grid, dtu, self.u.kind, self.times)

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


def _implicit_euler(step, mass, omegas, dt, x):
    """Writes the states x_0 = 0, ..., x_steps of A x_(j+1) = mass (x_j +
    dt omega_j), with the step-averaged forcing omega_j = (omegas[j] +
    omegas[j+1]) / 2, into x (the unknowns' view of the solution, in the
    layout of omegas); step = (apply, solve) gives x -> A x and b -> A^-1
    b.  Returns each step's relative residual against apply; raises
    NumericalError when one exceeds STEP_RTOL."""
    apply, solve = step
    steps = len(omegas) - 1
    x[0] = 0.0
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
    return residuals


def solve_parabolic(problem: ParabolicProblem) -> ParabolicSolution:
    """Implicit Euler from u(0) = 0 to horizon + margin.  The solution
    holds two series of (steps + 1) x nodes floats, u and the forcing,
    each allocated once; dt_u is a third once it is read."""
    if problem.kind == "one-form":
        return _solve_one_form(problem)
    grid = problem.grid
    times = problem.dt * np.arange(problem.steps + 1)
    omegas = np.empty((len(times),) + grid.shape)
    for j, t in enumerate(times):
        value = np.asarray(problem.forcing(t, grid.points), dtype=float)
        if value.shape != grid.shape:
            raise DomainError(f"a scalar forcing must return values of the grid's shape "
                              f"{grid.shape}, not {value.shape}")
        omegas[j] = value
    edges, W = discrete_laplacian(grid)
    inner = _interior(grid)
    scale = float(np.prod(grid.h)) * grid.f[inner] ** (grid.chart.n / 2.0 - 1.0)
    step = _step(grid, problem.dt, W, edges, scale)
    u = np.zeros(omegas.shape)
    series = (slice(None),) + inner
    residuals = _implicit_euler(step, W[inner], omegas[series], problem.dt, u[series])
    return ParabolicSolution(problem, times, DiscreteField(grid, u, "scalar", times), omegas,
                             residuals)


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


def _edges_to_nodes(values, shape):
    """Edge series (times, x-edges then y-edges) as a nodal two-component
    series (times, *shape, 2): each node takes the mean of its edge and
    the edge before it along that component's axis, which wraps."""
    N = math.prod(shape)
    out = np.empty((len(values),) + shape + (2,))
    for c in range(2):
        w = values[:, c * N:(c + 1) * N].reshape((-1,) + shape)
        o = out[..., c]
        lead = (slice(None),) * (c + 1)  # time, then the axes before c's
        np.add(w[lead + (slice(1, None),)], w[lead + (slice(None, -1),)],
               out=o[lead + (slice(1, None),)])
        np.add(w[lead + (slice(0, 1),)], w[lead + (slice(-1, None),)],
               out=o[lead + (slice(0, 1),)])
    out *= 0.5
    return out


def _solve_one_form(problem: ParabolicProblem) -> ParabolicSolution:
    grid = problem.grid
    s1 = one_form_hodge_matrices(grid)
    mass = s1.reshape((2,) + grid.shape)
    times = problem.dt * np.arange(problem.steps + 1)
    mids = edge_midpoints(grid)
    omegas = np.empty((len(times), s1.size))
    for j, t in enumerate(times):
        omegas[j] = sample_one_form_on_edges(problem.forcing, t, mids)
    step = _step(grid, problem.dt, mass, [mass / h**2 for h in grid.h], mass)
    x = np.empty_like(omegas)
    residuals = _implicit_euler(step, s1, omegas, problem.dt, x)
    # the edge series are packaged as nodal two-component fields for
    # norms; the states' is dropped before the forcing's nodal copy is made
    u = _edges_to_nodes(x, grid.shape)
    del x
    return ParabolicSolution(problem, times, DiscreteField(grid, u, "one-form", times),
                             _edges_to_nodes(omegas, grid.shape), residuals)


# -- verification harnesses --------------------------------------------


def l2_norm_at_times(field: DiscreteField) -> np.ndarray:
    """||v(t_j)||_L2 at every slice, summed over blocks of consecutive
    slices of at most NORM_BUDGET nodes, so no temporary spans the series;
    each slice's sum is the one a whole-series reduction makes."""
    grid = field.grid
    q = grid.quadrature
    sums = np.empty(len(field.values))
    for a, b in budget_blocks(np.full(len(sums), q.size), NORM_BUDGET):
        v = field.values[a:b]
        mod2 = (v[..., 0] ** 2 + v[..., 1] ** 2) / grid.f if field.kind == "one-form" else v**2
        mod2 *= q
        sums[a:b] = np.sum(mod2, axis=tuple(range(1, mod2.ndim)))
    return np.sqrt(sums)


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
