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

A field's pointwise squared moduli |D^j v|^2_g, j = 1..l, are computed in
one derivative pass over the whole grid and every time slice, in blocks of
at most NORM_BUDGET nodes, and kept on the field.  Every norm then sums
|D^j v|^r q over the index box of its nonzero node weights q (quadrature x
ball mask x weight) and the consecutive time slices of its window; order 0
is read from the values on that box and is not kept.  A field's values
must therefore not change after its first norm.
"""

from __future__ import annotations

import functools
import itertools
import math
import dataclasses
from dataclasses import dataclass

import numpy as np

from .geometry import CapabilityError, DomainError, Lattice, MetricChart, _phi_jet, budget_blocks

NORM_BUDGET = 1 << 16  # grid nodes per block of time slices in a derivative pass


class Grid:
    """Uniform rectangular chart grid on a Lattice, with metric quadrature
    weights.

    wraps[i] says axis i spans a whole period and closes on itself (the
    lattice leaves its end node out, and there is no boundary); every
    other axis has two boundary ends.  points holds the lattice's nodes
    with the grid's shape, (*shape, n)."""

    def __init__(self, chart: MetricChart, lattice: Lattice):
        self.chart = chart
        self.wraps = tuple(bool(w) for w in ~lattice.endpoint)
        self.shape = tuple(int(c) for c in lattice.count)
        if min(self.shape) < 2:
            raise DomainError(f"grid {self.shape} needs at least 2 nodes per axis")
        self.h = np.array([a[1] - a[0] for a in lattice.axes])
        self.points = lattice.points.reshape(self.shape + (chart.n,))
        self.f = chart.conformal_factor(lattice.points).reshape(self.shape)
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
        self._inverse_f = {}

    @classmethod
    def over_box(cls, chart: MetricChart, box, per_axis):
        """per_axis nodes over a box inside the working box, laid out by
        MetricChart.lattice_box: an axis that spans a whole period wraps."""
        lo, hi, endpoint = chart.lattice_box(box)
        return cls(chart, Lattice(lo, hi, per_axis, endpoint))

    @functools.cached_property
    def dphi(self):
        """d_a phi of phi = (1/2) log f at the nodes (geometry._phi_jet),
        index axis first and contiguous: (a, *shape)."""
        jet = _phi_jet(self.chart, self.points.reshape(-1, self.chart.n), 1)[0]
        return np.ascontiguousarray(jet.T).reshape((self.chart.n,) + self.shape)

    def inverse_f(self, rank: int) -> np.ndarray:
        """f^-rank at the nodes, taken once per rank: g^{-1} = f^{-1} delta
        raises each of rank indices."""
        if rank not in self._inverse_f:
            self._inverse_f[rank] = self.f ** -float(rank)
        return self._inverse_f[rank]

    def require_derivative_nodes(self):
        """Raise DomainError unless every axis that does not wrap has the 3
        nodes of the second-order edge stencil."""
        for i, (size, wraps) in enumerate(zip(self.shape, self.wraps)):
            if not wraps and size < 3:
                raise DomainError(f"grid axis {i} has {size} nodes; derivatives need at least 3")

    def partial(self, arr: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
        """Second-order d/dx_axis of arr, whose last axes are the grid's,
        into out: np.gradient's uniform-spacing formulas bit for bit.  The
        interior (and every node of an axis that wraps, whose neighbours
        wrap) takes (f_{i+1} - f_{i-1}) / 2h; an axis with ends takes
        (-1.5 f_0 + 2 f_1 - 0.5 f_2) / h and its mirror at the two ends."""
        at = arr.ndim - len(self.shape) + axis
        h = self.h[axis]
        if out is None:
            out = np.empty(arr.shape)

        def cut(a, start, stop):
            return a[(slice(None),) * at + (slice(start, stop),)]

        # (out, f_{i+1}, f_{i-1}) of the central differences
        central = [((1, -1), (2, None), (None, -2))]
        if self.wraps[axis]:
            central += [((0, 1), (1, 2), (-1, None)), ((-1, None), (0, 1), (-2, -1))]
        for at_out, hi, lo in central:
            o = cut(out, *at_out)
            np.subtract(cut(arr, *hi), cut(arr, *lo), out=o)
            o /= 2.0 * h
        if not self.wraps[axis]:
            cut(out, 0, 1)[...] = ((-1.5 / h) * cut(arr, 0, 1) + (2.0 / h) * cut(arr, 1, 2)
                                   + (-0.5 / h) * cut(arr, 2, 3))
            cut(out, -1, None)[...] = ((0.5 / h) * cut(arr, -3, -2) + (-2.0 / h) * cut(arr, -2, -1)
                                       + (1.5 / h) * cut(arr, -1, None))
        return out

    def ball_mask(self, center, radius: float) -> np.ndarray:
        flat = self.points.reshape(-1, self.chart.n)
        d = self.chart.distance(flat, np.asarray(center, dtype=float)[None, :])
        return (d <= radius).reshape(self.shape)


@dataclass
class DiscreteField:
    """Scalar or one-form samples on a Grid, optionally time-indexed.

    values shape: (*grid.shape) or (*grid.shape, n) without a time axis,
    with a leading time axis of len(times) otherwise; times do not
    decrease.  The squared moduli of its derivatives are kept from its
    first norm of each order on (module docstring), so values must not
    change after that.
    """

    grid: Grid
    values: np.ndarray
    kind: str = "scalar"
    times: np.ndarray | None = None
    _moduli: list = dataclasses.field(default_factory=list, init=False, repr=False, compare=False)

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
            if np.any(np.diff(self.times) < 0):
                raise DomainError("times must not decrease")
        elif self.values.shape != expect:
            raise DomainError("value array shape does not match the grid")

    @property
    def series(self) -> np.ndarray:
        """values with a leading slice axis: one slice without a time axis."""
        return self.values if self.times is not None else self.values[None]


def _covariant_step(grid: Grid, tensor: np.ndarray, rank: int, symmetric: bool) -> np.ndarray:
    """One covariant derivative of a rank-(0, rank) lower-index tensor
    field stored index axes first: tensor[idx] is one component over any
    leading (e.g. time) axes and the grid axes.  The new index comes
    first:

      (D T)_{m idx} = d_m T_idx - sum_p sum_l Gamma^l_{m idx_p} T_{idx, idx_p -> l},

    with the inner sum in its d phi form (module docstring), O(n) products
    per index position, and none on a flat chart.  symmetric says the
    result is symmetric (the step from a scalar's gradient to its
    Hessian): only m <= idx_0 is computed and the rest copied.  Every
    operation is on whole contiguous components, so the cost of a block
    of time slices grows with its node count only."""
    n = grid.chart.n
    out = np.empty((n,) + tensor.shape)
    dphi = None if grid.chart.is_flat else grid.dphi
    scratch = np.empty(tensor.shape[rank:]) if rank and dphi is not None else None
    for m in range(n):
        for idx in itertools.product(range(n), repeat=rank):
            d = out[(m,) + idx]
            if symmetric and idx[0] < m:
                d[...] = out[idx + (m,)]
                continue
            grid.partial(tensor[idx], m, out=d)
            if dphi is None:
                continue
            for p, a in enumerate(idx):
                d -= np.multiply(dphi[a], tensor[idx[:p] + (m,) + idx[p + 1:]], out=scratch)
                d -= np.multiply(dphi[m], tensor[idx], out=scratch)
                if m == a:
                    for l in range(n):
                        d += np.multiply(dphi[l], tensor[idx[:p] + (l,) + idx[p + 1:]], out=scratch)
    return out


def covariant_tensors(field: DiscreteField, order: int, values=None) -> list:
    """[T_0, ..., T_order] where T_j is the j-th covariant derivative,
    stored contiguous with its index axes first; values may carry leading
    axes (a block of time slices), which follow the index axes."""
    grid = field.grid
    if order > 2:
        raise CapabilityError("covariant derivatives available up to order 2")
    vals = field.values if values is None else values
    if order:
        grid.require_derivative_nodes()
    rank = 1 if field.kind == "one-form" else 0
    cur = np.ascontiguousarray(np.moveaxis(vals, -1, 0)) if rank else vals
    tensors = [cur]
    for _ in range(order):
        cur = _covariant_step(grid, cur, rank, symmetric=field.kind == "scalar" and rank == 1)
        rank += 1
        tensors.append(cur)
    return tensors


def _squared_modulus(components, f_inverse, out=None) -> np.ndarray:
    """|T|^2_g = f^-rank sum_k T_k^2 from the components of a tensor, its
    index axes flattened into the first; f_inverse is f^-rank (None at
    rank 0)."""
    out = np.square(components[0], out=out)
    if len(components) > 1:
        scratch = np.empty_like(out)
        for c in components[1:]:
            out += np.square(c, out=scratch)
    if f_inverse is not None:
        out *= f_inverse
    return out


def _moduli(field: DiscreteField, order: int) -> list:
    """[|D^1 v|^2_g, ..., |D^order v|^2_g] over every slice of the series
    and the whole grid.  One derivative pass, in blocks of consecutive
    slices of at most NORM_BUDGET nodes, computes them on the first
    request above the order kept; the field keeps them."""
    if len(field._moduli) < order:
        grid = field.grid
        series = field.series
        base = 1 if field.kind == "one-form" else 0
        moduli = [np.empty(series.shape[:1 + len(grid.shape)]) for _ in range(order)]
        for a, b in budget_blocks(np.full(len(series), math.prod(grid.shape)), NORM_BUDGET):
            tensors = covariant_tensors(field, order, values=series[a:b])
            for j, (T, sq) in enumerate(zip(tensors[1:], moduli), start=1):
                rank = base + j
                _squared_modulus(T.reshape((-1,) + T.shape[rank:]), grid.inverse_f(rank),
                                 out=sq[a:b])
            del tensors  # before the next block's are built
        field._moduli = moduli
    return field._moduli[:order]


@dataclass
class NormRequest:
    r: float = 2.0
    l: int = 0
    weight: np.ndarray | None = None  # per-node weight of the grid's shape, or None for 1
    region: tuple | None = None  # (center, radius) geodesic ball, or None
    s: float | None = None  # time integrability (defaults to r)
    window: tuple | None = None  # (t0, t1), defaults to the whole axis

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 1):
            raise DomainError(f"integrability r must be finite and >= 1, got {self.r!r}")
        if self.s is not None and not (math.isfinite(self.s) and self.s >= 1):
            raise DomainError(f"time integrability s must be finite and >= 1, got {self.s!r}")
        if not 0 <= self.l <= 2:
            raise DomainError("Sobolev order l must be in {0, 1, 2}")


def _node_weights(grid: Grid, req: NormRequest) -> np.ndarray:
    """Quadrature x ball mask x weight: the measure of one request."""
    q = grid.quadrature
    if req.region is not None:
        q = q * grid.ball_mask(*req.region)
    if req.weight is not None:
        if np.shape(req.weight) != grid.shape:
            raise DomainError(f"weight of shape {np.shape(req.weight)} on a grid of shape {grid.shape}")
        q = q * req.weight
    return q


def _support_box(q: np.ndarray):
    """The index box (one slice per axis) of q's nonzero entries; None when
    every entry is zero."""
    support = np.nonzero(q)
    if not support[0].size:
        return None
    return tuple(slice(int(nz.min()), int(nz.max()) + 1) for nz in support)


def _value_moduli(field: DiscreteField, index: tuple) -> np.ndarray:
    """|v|^2_g over index = (slices, *box) of the field's series."""
    vals = field.series[index]
    if field.kind == "scalar":
        return _squared_modulus(vals[None], None)
    return _squared_modulus(np.moveaxis(vals, -1, 0), field.grid.inverse_f(1)[index[1:]])


def _lr_norms(sq: np.ndarray, r: float, q: np.ndarray) -> np.ndarray:
    """(sum over the box of |T|^r q)^(1/r) per slice, from the squared
    moduli sq on (slices, *box) and the node weights q on the box."""
    terms = sq ** (r / 2.0)
    terms *= q
    return np.sum(terms.reshape(len(sq), -1), axis=1) ** (1.0 / r)


def _window_slices(field: DiscreteField, window) -> slice:
    """The consecutive slices of the series whose times lie in window."""
    if field.times is None:
        return slice(0, 1)
    t = field.times
    if window is None:
        return slice(0, len(t))
    t0, t1 = window
    return slice(int(np.searchsorted(t, t0 - 1e-12, side="left")),
                 int(np.searchsorted(t, t1 + 1e-12, side="right")))


def sobolev_norm(field: DiscreteField, req: NormRequest) -> float:
    """Sum over j <= l of weighted L^r norms of |D^j field|; Bochner L^s
    in time when the field carries a time axis."""
    q = _node_weights(field.grid, req)
    box = _support_box(q)
    rows = _window_slices(field, req.window)
    if box is None or rows.stop <= rows.start:
        return 0.0
    index, q = (rows,) + box, q[box]
    norms = _lr_norms(_value_moduli(field, index), req.r, q)
    for sq in _moduli(field, req.l):
        norms += _lr_norms(sq[index], req.r, q)
    if field.times is None:
        return float(norms[0])
    s = req.s if req.s is not None else req.r
    return float(np.trapezoid(norms**s, field.times[rows]) ** (1.0 / s))


def holder_volume_check(field: DiscreteField, ball, r: float) -> dict:
    """||w||_{L^2(B)} <= |B|^(1/2 - 1/r) ||w||_{L^r(B)}, exact for any
    discrete measure when r >= 2."""
    if r < 2:
        raise DomainError("needs r >= 2")
    q = _node_weights(field.grid, NormRequest(region=ball))
    vol = float(np.sum(q))
    box = _support_box(q)
    if box is None:
        lhs = lr = 0.0
    else:
        sq = _value_moduli(field, (slice(0, 1),) + box)
        lhs, lr = (float(_lr_norms(sq, p, q[box])[0]) for p in (2.0, r))
    rhs = vol ** (0.5 - 1.0 / r) * lr
    return {"lhs": lhs, "rhs": rhs, "volume": vol, "holds": lhs <= rhs * (1 + 1e-12)}


def covering_sum_norm(field: DiscreteField, covering, weight_exp: float, l: int, tau: float) -> float:
    """(sum over the cover balls of R(x)^(weight_exp * tau) * ball-norm^tau)^(1/tau)."""
    total = 0.0
    for j in range(len(covering.centers)):
        ball = (covering.centers[j], covering.cover_radii[j])
        nrm = sobolev_norm(field, NormRequest(r=tau, l=l, region=ball))
        total += covering.r_eps[j] ** (weight_exp * tau) * nrm**tau
    return total ** (1.0 / tau)
