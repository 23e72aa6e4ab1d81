"""Explicit N=3 quantitative content: error envelopes and the exact
multiplicity-sum inequality behind the rate of convergence.

Envelope values carry an implied constant of 1: they report shapes, not
certified inequalities.  The multiplicity bound is exact arithmetic and
is asserted: a spec's exact sum depends only on its counts (a, b) of
size-1 and size-2 factors, so the sweep walks that grid once per call,
one ``characters._zero_one_step`` per cell, under the spec-count limit
alone.  The closed forms (P, the envelope, the closed bound) share
``_normal``'s float-range rule, which the envelope leaves above T ~ 1e61.

This module reads only the exact algebra (``characters``, ``weights``).
The measured deviation |L_T - a_0| is ``EquidistRow.difference``; the
CLI's ``gl3_error_bound`` column is ``rate_report``'s envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characters import TensorSpec, _zero_one_step
from .weights import _check_finite, _check_int, _check_prime, _check_scale

__all__ = [
    "Gl3BoundParams",
    "THETA_DEFAULT",
    "p_total",
    "convergence_error",
    "verify_multiplicity_bound",
    "verify_multiplicity_bounds",
    "MultiplicityBoundRow",
    "rate_report",
    "RateRow",
    "specialization_bound_n3",
]

THETA_DEFAULT = 7.0 / 64.0


@dataclass(frozen=True)
class Gl3BoundParams:
    """Inputs of the N=3 rate bound."""

    p: int
    exponents: tuple[int, int, int, int]
    theta: float = THETA_DEFAULT
    eps: float = 1e-6

    def __post_init__(self):
        _check_prime(self.p)
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0 <= self.theta <= THETA_DEFAULT:
            raise ValueError(f"theta must lie in [0, 7/64], got {self.theta}")
        object.__setattr__(self, "exponents", TensorSpec(3, self.exponents).exponents)


def _normal(says: str, evaluate, *inputs) -> float:
    """evaluate()'s last float if no power overflows and each is positive and normal; else ValueError(says.format(*inputs))."""
    try:
        values = evaluate()
    except (OverflowError, ZeroDivisionError):  # a power above the float range; 1 / p^alpha at a p^alpha that is 0.0
        values = (math.inf,)
    if not all(2.0**-1022 <= v < math.inf for v in values):  # 2^-1022, the least normal float
        raise ValueError(says.format(*inputs))
    return values[-1]


def p_total(params: Gl3BoundParams) -> float:
    """P = p^(i1 + i1' + i2 + i2')."""
    p, d = params.p, sum(params.exponents)
    return _normal("P = p^d is out of range of a normal float at p={}, d={}", lambda: (float(p) ** d,), p, d)


def convergence_error(t: float, p_big: float, theta: float, eps: float) -> float:
    """(T^2 sqrt(P) + T^3 P^theta + P^(5/3)) * T^(-5+eps) * P^eps, at finite T >= 1 and P >= 1 and finite theta, eps."""
    _check_scale(t)
    if not 1 <= p_big < math.inf:
        raise ValueError(f"p_big must be >= 1 and finite, got {p_big}")
    for name, x in (("theta", theta), ("eps", eps)):
        _check_finite(x, name)
    return _normal("envelope is out of range of a normal float at t={}, p_big={}, theta={}, eps={}",
                   lambda: (core := t**2 * math.sqrt(p_big) + t**3 * p_big**theta + p_big ** (5.0 / 3.0),
                            decay := t ** (-5.0 + eps), size := p_big**eps, core * decay * size), t, p_big, theta, eps)


def _weighted_part_sum(coeffs: dict[tuple[int, ...], int], p: int, alpha: float) -> float:
    """sum_w c_w p^(alpha*|l|), |l| = w[0] - w[-1] for a dominant w.  Summed by
    math.fsum, so the value depends only on the integer coefficients."""
    return math.fsum(c * float(p) ** (alpha * (w[0] - w[-1])) for w, c in coeffs.items())


def specialization_bound_n3(spec: TensorSpec, p: int, alpha: float) -> float:
    """(p^alpha + 1 + p^{-alpha})^(total degree) for p > 1; closed-form bound, N=3 only.
    A bound outside the float range raises, naming p, alpha and the degree."""
    if spec.n != 3:
        raise ValueError(f"closed-form bound requires N=3, got N={spec.n}")
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p!r}")
    d = spec.degree
    return _normal("closed bound (p^|alpha| + 1 + p^-|alpha|)^d overflows a float at p={}, alpha={}, d={}",
                   lambda: (x := float(p) ** _check_finite(alpha, "alpha"), (x + 1.0 + 1.0 / x) ** d), p, alpha, d)


@dataclass(frozen=True)
class MultiplicityBoundRow:
    exponents: tuple[int, int, int, int]
    exact_sum: float
    closed_bound: float
    passed: bool


def verify_multiplicity_bound(p: int, alpha: float, max_degree: int) -> list[MultiplicityBoundRow]:
    """Check exact <= closed bound for every exponent tuple of degree <= max_degree.  A failing tuple
    raises: it would contradict the inequality the rate bound rests on (or expose a bug upstream)."""
    return verify_multiplicity_bounds([(p, alpha)], max_degree)[0]


def verify_multiplicity_bounds(pairs, max_degree: int) -> list[list[MultiplicityBoundRow]]:
    """One ``verify_multiplicity_bound`` row list per (p, alpha): every pair's closed bounds, then the spec list and
    its limit (the sweep's one budget), then one walk over the (a, b) grid, each cell's sum taken once per pair.  A
    spec's dominant coefficients are those of e_1^a e_2^b, a = i1 + i2' and b = i1' + i2 (conj(e_1) = e_2)."""
    _check_int(max_degree, "max_degree")
    # the bound reads only the degree: the largest first, so an overflow names max_degree
    closed = [(p, alpha, {d: specialization_bound_n3(TensorSpec(3, (d, 0, 0, 0)), p, alpha)
                          for d in range(max_degree, -1, -1)}) for p, alpha in pairs]
    if not closed:
        return []
    specs = TensorSpec.up_to_degree(3, max_degree)  # C(d+4, 4) specs, never fewer than the (d+1)(d+2)/2 cells
    sums, first = {}, {(0, 0, 0): 1}
    for a in range(max_degree + 1):
        state = first = _zero_one_step(first, 3, 1) if a else first
        for b in range(max_degree + 1 - a):
            state = _zero_one_step(state, 3, 2) if b else state
            sums[a, b] = [_weighted_part_sum(state, p, alpha) for p, alpha, _ in closed]
    out = []
    for j, (p, alpha, bounds) in enumerate(closed):
        rows = []
        for spec in specs:
            i1, i1c, i2, i2c = spec.exponents
            exact, bound = sums[i1 + i2c, i1c + i2][j], bounds[spec.degree]
            rows.append(MultiplicityBoundRow(spec.exponents, exact, bound, exact <= bound))
            if not rows[-1].passed:
                raise RuntimeError(f"multiplicity bound violated at {spec.exponents}: {exact} > {bound}")
        out.append(rows)
    return out


@dataclass(frozen=True)
class RateRow:
    t: float
    envelope: float


def rate_report(params: Gl3BoundParams, t_grid) -> list[RateRow]:
    """Envelope of the rate bound across a scale grid."""
    p_big = p_total(params)
    return [RateRow(t, convergence_error(t, p_big, params.theta, params.eps)) for t in map(float, t_grid)]
