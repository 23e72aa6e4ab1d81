"""Explicit N=3 quantitative content: error envelopes and the exact
multiplicity-sum inequality behind the rate of convergence.

Envelope values carry an implied constant of 1: they report shapes, not
certified inequalities.  The multiplicity bound is exact arithmetic and
is asserted.

This module reads only the exact algebra (``characters``, ``weights``).
The measured deviation |L_T - a_0| is ``EquidistRow.difference``; the
CLI's ``gl3_error_bound`` column is ``rate_report``'s envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characters import TensorSpec, _dominant_coefficients, _weighted_part_sum, specialization_bound_n3
from .weights import _check_finite, _check_prime, _check_scale

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


def p_total(params: Gl3BoundParams) -> float:
    """P = p^(i1 + i1' + i2 + i2')."""
    return float(params.p) ** sum(params.exponents)


def convergence_error(t: float, p_big: float, theta: float, eps: float) -> float:
    """(T^2 sqrt(P) + T^3 P^theta + P^(5/3)) * T^(-5+eps) * P^eps, at a finite scale T >= 1 and finite P, theta, eps."""
    _check_scale(t)
    for name, x in (("p_big", p_big), ("theta", theta), ("eps", eps)):
        _check_finite(x, name)
    core = t**2 * math.sqrt(p_big) + t**3 * p_big**theta + p_big ** (5.0 / 3.0)
    return core * t ** (-5.0 + eps) * p_big**eps


@dataclass(frozen=True)
class MultiplicityBoundRow:
    exponents: tuple[int, int, int, int]
    exact_sum: float
    closed_bound: float
    passed: bool


def verify_multiplicity_bound(
    p: int, alpha: float, max_degree: int
) -> list[MultiplicityBoundRow]:
    """Check exact <= closed bound for every exponent tuple of degree <= max_degree.

    Raises on any failing tuple: a failure would contradict the inequality
    the rate bound rests on (or expose a bug upstream).
    """
    return verify_multiplicity_bounds([(p, alpha)], max_degree)[0]


def verify_multiplicity_bounds(pairs, max_degree: int) -> list[list[MultiplicityBoundRow]]:
    """One ``verify_multiplicity_bound`` row list per (p, alpha), building each spec's coefficients once."""
    out, table, memo = [], None, {}
    for p, alpha in pairs:
        specialization_bound_n3(TensorSpec(3, (max_degree, 0, 0, 0)), p, alpha)  # the sweep's largest value fits
        if table is None:
            table = [(spec, _dominant_coefficients(spec, memo)) for spec in TensorSpec.up_to_degree(3, max_degree)]
        rows = []
        for spec, coeffs in table:
            exact = _weighted_part_sum(coeffs, p, alpha)
            bound = specialization_bound_n3(spec, p, alpha)
            ok = exact <= bound
            rows.append(MultiplicityBoundRow(spec.exponents, exact, bound, ok))
            if not ok:
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
