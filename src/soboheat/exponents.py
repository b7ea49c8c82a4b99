"""Exact bookkeeping for the elliptic/parabolic bootstrap exponents.

Everything here is integer/rational arithmetic (fractions.Fraction); no
floating point enters the tables.  The integrability ladder climbs from
L^2 to L^r in k_star = ceil(n(r-2)/(2mr)) steps, and the radius-power
sequences (a_k, b_k, d_k) are iterated from their level-0 values

    d_0 = m,   b_0 = 2m,   a_0 = m + n/2 - n/r

by the step rules (sections of a bundle)

    d_{k+1} = 3m + b_k,   b_{k+1} = 4m + b_k,   a_{k+1} = min(a_k, 3m + b_k)

or, for plain functions,

    d_{k+1} = 3m - 1 + b_k,  b_{k+1} = 4m - 1 + b_k,
    a_{k+1} = min(a_k, 3m - 1 + b_k).

The terminal weight powers (beta, gamma, delta) come from the closed
forms; for k_star >= 1,

    sections:  beta = min(a_0, 5m),  gamma = (4k+2)m,  delta = (4k+1)m
    functions: beta = min(a_0, 4m),  gamma = (4m-1)k + 2m,
               delta = (4m-1)k + m

and for k_star = 0 the level-0 values are used directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .geometry import NumericalError

RationalLike = Union[int, Fraction, str]

VARIANTS = ("sections", "functions")


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class ExponentTable:
    """Bootstrap sequences and terminal weight powers for one (m, n, r)."""

    m: int
    n: int
    r: Fraction
    variant: str
    k_star: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    rho: tuple  # Fraction per level, math.inf once the ladder saturates

    def to_dict(self) -> dict:
        def render(q):
            if q is math.inf:
                return "inf"
            return str(q)

        return {
            "m": self.m,
            "n": self.n,
            "r": str(self.r),
            "variant": self.variant,
            "k_star": self.k_star,
            "rho": [render(q) for q in self.rho],
            "a": [str(q) for q in self.a],
            "b": [str(q) for q in self.b],
            "d": [str(q) for q in self.d],
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "delta": str(self.delta),
        }


@dataclass(frozen=True)
class WeightSpec:
    """Radius-power weights w_i(x) = R(x)^exp for the global estimate."""

    w1_exp: Fraction  # multiplies the time-derivative term
    w2_exp: Fraction  # multiplies the Sobolev term
    w3_exp: Fraction  # multiplies the forcing term


def k_star(m: int, n: int, r: RationalLike) -> int:
    """Number of bootstrap steps needed to climb from L^2 to L^r."""
    r = Fraction(r)
    if r < 2:
        raise ValueError(f"target integrability r={r} must be >= 2")
    return _ceil(Fraction(n) * (r - 2) / (2 * m * r))


def integrability_chain(m: int, n: int, r: RationalLike) -> list:
    """The ladder rho_0=2, 1/rho_k = 1/2 - k m/n, up to level k_star.

    Entries where the right-hand side is <= 0 are math.inf.
    """
    r = Fraction(r)
    ks = k_star(m, n, r)
    chain = []
    for k in range(ks + 1):
        inv = Fraction(1, 2) - Fraction(k * m, n)
        chain.append(1 / inv if inv > 0 else math.inf)
    return chain


def bootstrap_table(m: int, n: int, r: RationalLike, variant: str = "sections") -> ExponentTable:
    """Iterate the bootstrap recurrence and cross-check the closed forms."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if m < 1 or n < 2:
        raise ValueError(f"need m >= 1 and n >= 2, got m={m}, n={n}")
    r = Fraction(r)
    if r < 2:
        raise ValueError(f"target integrability r={r} must be >= 2")

    ks = k_star(m, n, r)
    a0 = Fraction(m) + Fraction(n, 2) - Fraction(n) / r
    a = [a0]
    b = [Fraction(2 * m)]
    d = [Fraction(m)]
    step_d = 3 * m if variant == "sections" else 3 * m - 1
    step_b = 4 * m if variant == "sections" else 4 * m - 1
    for _ in range(ks):
        d.append(step_d + b[-1])
        a.append(min(a[-1], step_d + b[-1]))
        b.append(step_b + b[-1])

    # Closed forms for the iterated sequences (exact equality by construction,
    # kept as a guard against regressions in the step rules).
    for k in range(ks + 1):
        if variant == "sections":
            closed = (b[k] == 4 * m * k + 2 * m,
                      d[k] == (4 * m * k + m if k >= 1 else m),
                      k == 0 or a[k] == min(a0, Fraction(5 * m)))
        else:
            closed = (b[k] == k * (4 * m - 1) + 2 * m,
                      d[k] == m + k * (4 * m - 1))
        if not all(closed):
            raise NumericalError(f"bootstrap step {k} departs from the closed forms "
                                 f"(m={m}, n={n}, r={r}, variant {variant})")

    if ks == 0:
        beta, gamma, delta = a0, b[0], d[0]
    elif variant == "sections":
        beta = min(a0, Fraction(5 * m))
        gamma = Fraction((4 * ks + 2) * m)
        delta = Fraction((4 * ks + 1) * m)
    else:
        beta = min(a0, Fraction(4 * m))
        gamma = Fraction((4 * m - 1) * ks + 2 * m)
        delta = Fraction((4 * m - 1) * ks + m)

    return ExponentTable(
        m=m,
        n=n,
        r=r,
        variant=variant,
        k_star=ks,
        a=tuple(a),
        b=tuple(b),
        d=tuple(d),
        beta=beta,
        gamma=gamma,
        delta=delta,
        rho=tuple(integrability_chain(m, n, r)),
    )


def weight_spec(table: ExponentTable) -> WeightSpec:
    """Weight powers r (delta, gamma, beta), r = table.r, for the global estimate."""
    r = table.r
    return WeightSpec(w1_exp=r * table.delta, w2_exp=r * table.gamma, w3_exp=r * table.beta)


def render_table(table: ExponentTable) -> str:
    """Aligned text rendering of the bootstrap table."""
    header = f"{'k':>3} {'rho_k':>10} {'a_k':>10} {'b_k':>8} {'d_k':>8}"
    lines = [
        f"m={table.m} n={table.n} r={table.r} variant={table.variant} k_star={table.k_star}",
        header,
        "-" * len(header),
    ]
    for k in range(table.k_star + 1):
        rho = "inf" if table.rho[k] is math.inf else str(table.rho[k])
        lines.append(
            f"{k:>3} {rho:>10} {str(table.a[k]):>10} {str(table.b[k]):>8} {str(table.d[k]):>8}"
        )
    lines.append(f"beta={table.beta}  gamma={table.gamma}  delta={table.delta}")
    ws = weight_spec(table)
    lines.append(f"w1_exp={ws.w1_exp}  w2_exp={ws.w2_exp}  w3_exp={ws.w3_exp}")
    return "\n".join(lines)
