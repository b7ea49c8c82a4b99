"""Weighted Lebesgue/Sobolev norms of gridded fields on chart domains.

Fields live on rectangular chart grids; the quadrature weight per node is
h^n sqrt(det g).  Covariant derivatives use second-order finite
differences plus Christoffel corrections:

  scalars   (grad u)_i   = d_i u
            (Hess u)_ij  = d_i d_j u - Gamma^k_ij d_k u
  one-forms (D w)_ij     = d_i w_j - Gamma^k_ij w_k

and one further covariant step for second derivatives of one-forms.  On
g = f delta the connection needs only d phi, phi = (1/2) log f:

  Gamma^l_ma T_l = d_a phi T_m + d_m phi T_a - delta_ma (d phi . T),

so a grid stores n arrays of d phi, not n^3 of Gamma.  Pointwise moduli
contract all lower indices with g^{-1}; for a conformal metric that is a
factor f^(-rank/2) on the Euclidean modulus.  Time-dependent fields get
Bochner norms: L^s in time (trapezoid rule) of the spatial norm.

A norm runs on the sub-grid over the index box of its nonzero node
weights (quadrature x ball mask x weight), grown by 2l nodes on each axis
that does not wrap and clipped to the grid; an axis that wraps stays
whole.  The kept weighted nodes then get the numbers the whole grid gives
them.  Each derivative step reaches one node further, and the one-sided
edge stencil (-3 f_0 + 4 f_1 - f_2)/2h at a grid edge reaches two nodes
inward, so l steps from a weighted node at the edge reach 2l nodes.  A
growth of l alone leaves a crop edge inside that reach: a one-node ball at
a grid corner then reads a second-order norm that is off by percents.
With l >= 1 the growth keeps the 3 nodes the edge stencil needs on every
axis that has them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import CapabilityError, DomainError, MetricChart, budget_blocks

NORM_BUDGET = 1 << 16  # grid nodes per block of time slices in a Bochner norm


class Grid:
    """Uniform rectangular chart grid with metric quadrature weights.

    wraps[i] says axis i spans a whole period and closes on itself (no end
    node, no boundary); every other axis has two boundary ends."""

    def __init__(self, chart: MetricChart, axes, wraps):
        self.chart = chart
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        if len(self.axes) != chart.n:
            raise DomainError("one axis per chart dimension required")
        self.wraps = tuple(bool(w) for w in wraps)
        self.shape = tuple(len(a) for a in self.axes)
        if min(self.shape) < 2:
            raise DomainError(f"grid {self.shape} needs at least 2 nodes per axis")
        self.h = np.array([a[1] - a[0] for a in self.axes])
        for i, a in enumerate(self.axes):
            if not np.allclose(np.diff(a), self.h[i]):
                raise DomainError("grid axes must be uniform")
        mesh = np.meshgrid(*self.axes, indexing="ij")
        self.points = np.stack(mesh, axis=-1)
        flat = self.points.reshape(-1, chart.n)
        self.f = chart.conformal_factor(flat).reshape(self.shape)
        self.quadrature = float(np.prod(self.h)) * self.f ** (chart.n / 2.0)
        # trapezoid end-weights on the axes with two ends
        for i in range(chart.n):
            if self.wraps[i]:
                continue
            w = np.ones(self.shape[i])
            w[0] = w[-1] = 0.5
            shp = [1] * chart.n
            shp[i] = self.shape[i]
            self.quadrature = self.quadrature * w.reshape(shp)
        self._dphi = None

    @classmethod
    def over_box(cls, chart: MetricChart, box, per_axis):
        """per_axis nodes over a box inside the working box; an axis that
        spans a whole period wraps."""
        per_axis = np.broadcast_to(np.asarray(per_axis, dtype=int), (chart.n,))
        lo, hi = chart.sub_box(box)
        wraps = chart.full_period(lo, hi)
        axes = [np.linspace(lo[i], hi[i], int(per_axis[i]), endpoint=not wraps[i])
                for i in range(chart.n)]
        return cls(chart, axes, wraps)

    @property
    def dphi(self):
        """d_a phi of phi = (1/2) log f at the nodes, index axis first:
        (a, *shape)."""
        if self._dphi is None:
            n = self.chart.n
            flat = self.points.reshape(-1, n)
            f = self.f.reshape(-1)
            self._dphi = np.stack([
                0.5 * (self.chart.conformal_derivative(flat, np.eye(n, dtype=int)[a]) / f)
                for a in range(n)]).reshape((n,) + self.shape)
        return self._dphi

    def crop(self, index: tuple) -> Grid:
        """The sub-grid over index, one slice per axis (whole on an axis
        that wraps): the parent's nodes, f, quadrature and d phi, with its
        h and wraps.  Its edge nodes keep their weights, and f is not
        evaluated again."""
        sub = object.__new__(Grid)
        sub.chart, sub.h, sub.wraps = self.chart, self.h, self.wraps
        sub.axes = [a[i] for a, i in zip(self.axes, index)]
        sub.points = self.points[index]
        sub.shape = sub.points.shape[:-1]
        sub.f = self.f[index]
        sub.quadrature = self.quadrature[index]
        sub._dphi = self.dphi[(slice(None),) + index]
        return sub

    def require_derivative_nodes(self):
        """Raise DomainError unless every axis that does not wrap has the 3
        nodes of the second-order edge stencil."""
        for i, (size, wraps) in enumerate(zip(self.shape, self.wraps)):
            if not wraps and size < 3:
                raise DomainError(f"grid axis {i} has {size} nodes; derivatives need at least 3")

    def partial(self, arr: np.ndarray, axis: int, lead: int = 0) -> np.ndarray:
        """Second-order d/dx_axis of arr, whose grid axes start after lead
        leading axes; wrapping axes wrap, others use one-sided
        second-order stencils at the edges."""
        at = lead + axis
        if self.wraps[axis]:
            padded = np.concatenate(
                [np.take(arr, [-2, -1], axis=at), arr, np.take(arr, [0, 1], axis=at)],
                axis=at,
            )
            g = np.gradient(padded, self.h[axis], axis=at, edge_order=2)
            sl = [slice(None)] * g.ndim
            sl[at] = slice(2, -2)
            return g[tuple(sl)]
        return np.gradient(arr, self.h[axis], axis=at, edge_order=2)

    def ball_mask(self, center, radius: float) -> np.ndarray:
        flat = self.points.reshape(-1, self.chart.n)
        d = self.chart.distance(flat, np.asarray(center, dtype=float)[None, :])
        return (d <= radius).reshape(self.shape)


@dataclass
class DiscreteField:
    """Scalar or one-form samples on a Grid, optionally time-indexed.

    values shape: (*grid.shape) or (*grid.shape, n) without a time axis,
    with a leading time axis of len(times) otherwise.
    """

    grid: Grid
    values: np.ndarray
    kind: str = "scalar"
    times: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("scalar", "one-form"):
            raise DomainError(f"unknown field kind {self.kind!r}")
        if self.kind == "one-form" and self.grid.chart.n != 2:
            raise CapabilityError("one-form fields are supported in dimension 2 only")
        self.values = np.asarray(self.values, dtype=float)
        expect = self.grid.shape + ((self.grid.chart.n,) if self.kind == "one-form" else ())
        if self.times is not None:
            self.times = np.asarray(self.times, dtype=float)
            if self.values.shape != (len(self.times),) + expect:
                raise DomainError("value array shape does not match grid/time axes")
        elif self.values.shape != expect:
            raise DomainError("value array shape does not match the grid")

    def at_time(self, j: int) -> np.ndarray:
        return self.values[j] if self.times is not None else self.values


def _covariant_step(grid: Grid, tensor: np.ndarray, rank: int) -> np.ndarray:
    """One covariant derivative of a rank-(0, rank) lower-index tensor
    field stored index axes first: tensor[idx] is one component over any
    leading (e.g. time) axes and the grid axes.  The new index comes
    first:

      (D T)_{m idx} = d_m T_idx - sum_p sum_l Gamma^l_{m idx_p} T_{idx, idx_p -> l},

    with the inner sum in its d phi form (module docstring), O(n) products
    per index position.  Every operation is on whole contiguous
    components, so the cost of a block of time slices grows with its node
    count only."""
    n = grid.chart.n
    dphi = grid.dphi
    lead = tensor.ndim - rank - len(grid.shape)
    out = np.empty((n,) + tensor.shape)
    for m in range(n):
        for idx in itertools.product(range(n), repeat=rank):
            d = grid.partial(tensor[idx], m, lead)
            for p, a in enumerate(idx):
                d -= dphi[a] * tensor[idx[:p] + (m,) + idx[p + 1:]] + dphi[m] * tensor[idx]
                if m == a:
                    for l in range(n):
                        d += dphi[l] * tensor[idx[:p] + (l,) + idx[p + 1:]]
            out[(m,) + idx] = d
    return out


def covariant_tensors(field: DiscreteField, order: int, values=None) -> list:
    """[T_0, ..., T_order] where T_j is the j-th covariant derivative, its
    index axes last; values may carry leading axes (a block of time
    slices)."""
    grid = field.grid
    if order > 2:
        raise CapabilityError("covariant derivatives available up to order 2")
    vals = field.values if values is None else values
    if order:
        grid.require_derivative_nodes()
    rank = 1 if field.kind == "one-form" else 0
    cur = np.ascontiguousarray(np.moveaxis(vals, -1, 0)) if rank else vals
    tensors = [vals]
    for _ in range(order):
        cur = _covariant_step(grid, cur, rank)
        rank += 1
        tensors.append(np.moveaxis(cur, tuple(range(rank)), tuple(range(-rank, 0))))
    return tensors


def tensor_modulus(grid: Grid, tensor: np.ndarray, rank: int) -> np.ndarray:
    """Pointwise |T|_g of a tensor with rank trailing index axes, indices
    raised with g^{-1} = f^{-1} delta."""
    sq = np.sum(tensor**2, axis=tuple(range(-rank, 0)))
    return np.sqrt(sq) * grid.f ** (-rank / 2.0)


@dataclass
class NormRequest:
    r: float = 2.0
    l: int = 0
    weight: np.ndarray | None = None  # per-node weight, or None for 1
    region: tuple | None = None  # (center, radius) geodesic ball, or None
    s: float | None = None  # time integrability (defaults to r)
    window: tuple | None = None  # (t0, t1), defaults to the whole axis

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("integrability r must be >= 1")
        if not 0 <= self.l <= 2:
            raise DomainError("Sobolev order l must be in {0, 1, 2}")


def _node_weights(grid: Grid, req: NormRequest) -> np.ndarray:
    """Quadrature x ball mask x weight: the measure of one request."""
    q = grid.quadrature
    if req.region is not None:
        q = q * grid.ball_mask(*req.region)
    if req.weight is not None:
        q = q * req.weight
    return q


def _spatial_norms(field: DiscreteField, vals, req: NormRequest, q: np.ndarray) -> np.ndarray:
    """The spatial norm of every slice vals[s] along a leading axis."""
    grid = field.grid
    base_rank = 1 if field.kind == "one-form" else 0
    tensors = covariant_tensors(field, req.l, values=vals)
    total = np.zeros(len(vals))
    for j, T in enumerate(tensors):
        mod = tensor_modulus(grid, T, base_rank + j)
        total += np.sum((mod**req.r * q).reshape(len(vals), -1), axis=1) ** (1.0 / req.r)
    return total


def _crop(field: DiscreteField, q: np.ndarray, l: int):
    """The field and weights on the sub-grid over the support of q, grown
    by 2l nodes on each axis that does not wrap (module docstring); None
    when no weight is nonzero."""
    support = np.nonzero(q)
    if not support[0].size:
        return None
    grid = field.grid
    index = tuple(slice(None) if wraps else slice(max(int(nz.min()) - 2 * l, 0),
                                                  int(nz.max()) + 2 * l + 1)
                  for nz, wraps in zip(support, grid.wraps))
    if all(i.indices(size) == (0, size, 1) for i, size in zip(index, grid.shape)):
        return field, q
    lead = (slice(None),) if field.times is not None else ()
    sub = DiscreteField(grid.crop(index), field.values[lead + index], field.kind, field.times)
    return sub, q[index]


def sobolev_norm(field: DiscreteField, req: NormRequest) -> float:
    """Sum over j <= l of weighted L^r norms of |D^j field|; Bochner L^s
    in time when the field carries a time axis."""
    cropped = _crop(field, _node_weights(field.grid, req), req.l)
    if cropped is None:
        return 0.0
    field, q = cropped
    if field.times is None:
        return float(_spatial_norms(field, field.values[None], req, q)[0])
    s = req.s if req.s is not None else req.r
    t = field.times
    if req.window is not None:
        t0, t1 = req.window
        sel = (t >= t0 - 1e-12) & (t <= t1 + 1e-12)
    else:
        sel = np.ones(len(t), dtype=bool)
    idx = np.flatnonzero(sel)
    # blocks of consecutive slices of at most NORM_BUDGET nodes of the grid it runs on
    blocks = budget_blocks(np.full(len(idx), math.prod(field.grid.shape)), NORM_BUDGET)
    vals = np.concatenate([_spatial_norms(field, field.values[idx[a:b]], req, q)
                           for a, b in blocks] or [np.zeros(0)])
    return float(np.trapezoid(vals**s, t[idx]) ** (1.0 / s))


def holder_volume_check(field: DiscreteField, ball, r: float) -> dict:
    """||w||_{L^2(B)} <= |B|^(1/2 - 1/r) ||w||_{L^r(B)}, exact for any
    discrete measure when r >= 2."""
    if r < 2:
        raise DomainError("needs r >= 2")
    q = _node_weights(field.grid, NormRequest(region=ball))
    vol = float(np.sum(q))
    cropped = _crop(DiscreteField(field.grid, field.at_time(0), field.kind), q, 0)
    if cropped is None:
        lhs = lr = 0.0
    else:
        sub, sub_q = cropped
        lhs, lr = (float(_spatial_norms(sub, sub.values[None], NormRequest(r=p), sub_q)[0])
                   for p in (2.0, r))
    rhs = vol ** (0.5 - 1.0 / r) * lr
    return {"lhs": lhs, "rhs": rhs, "volume": vol, "holds": lhs <= rhs * (1 + 1e-12)}


def covering_sum_norm(field: DiscreteField, covering, weight_exp: float, l: int,
                      tau: float, use_full_balls: bool = False) -> float:
    """(sum over members of R(x)^(weight_exp * tau) * member-norm^tau)^(1/tau),
    members being the cover balls or the full B(x, R(x)/10) family."""
    radii = covering.r_eps / covering.eta if use_full_balls else covering.cover_radii
    total = 0.0
    for j in range(len(covering.centers)):
        nrm = sobolev_norm(field, NormRequest(r=tau, l=l,
                                              region=(covering.centers[j], radii[j])))
        total += covering.r_eps[j] ** (weight_exp * tau) * nrm**tau
    return total ** (1.0 / tau)
