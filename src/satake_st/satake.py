"""Satake parameters as canonical Weyl-coset representatives.

A parameter is an N-tuple of nonzero complex numbers with product 1, fixed
to a deterministic coset representative by sorting on (principal argument
in [0, 2pi), then modulus).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .characters import _eigenvalue_rows, _schur, elementary_symmetric
from .weights import CoefficientIndex, _check_rank, _store

__all__ = [
    "SatakeParameter",
    "canonicalize",
    "canonicalize_batch",
    "coefficient",
    "varrho",
]

PRODUCT_TOL = 1e-6  # of a raw tuple, before canonicalize rescales it
PARAMETER_TOL = 1e-12  # of a SatakeParameter


@dataclass(frozen=True)
class SatakeParameter:
    """N >= 2 eigenvalues with product 1 within 1e-12, kept in the order given; the
    canonical order, a Weyl-coset representative, is the one canonicalize() gives."""

    n: int
    alphas: tuple[complex, ...]

    def __post_init__(self):
        alphas = _store(self, "alphas", complex, _check_rank(self.n))
        prod = math.prod(alphas[1:], start=alphas[0])  # as np.prod: no factor 1 + 0j
        # hypot is abs, but inf where abs would overflow; negated, so that NaN fails
        if not math.hypot(prod.real - 1.0, prod.imag) <= PARAMETER_TOL:
            raise ValueError(
                f"eigenvalue product {prod} deviates from 1 beyond 1e-12; "
                "build parameters through canonicalize()"
            )

    def as_array(self) -> np.ndarray:
        return np.asarray(self.alphas, dtype=np.complex128)


def _sort_canonical(arr: np.ndarray) -> np.ndarray:
    """Sort rows of (..., N) by (argument in [0, 2pi), modulus)."""
    args = np.mod(np.angle(arr), 2 * np.pi)
    mods = np.abs(arr)
    order = np.lexsort((mods, args), axis=-1)
    return np.take_along_axis(arr, order, axis=-1)


def canonicalize_batch(raw: np.ndarray) -> np.ndarray:
    """Canonicalize a batch of eigenvalue tuples of shape (..., N).

    Rescales each tuple by the minimal-rotation N-th root of the inverse
    product (the principal root), then sorts canonically.  Every row of the
    result is a valid SatakeParameter.
    """
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim == 0:
        raise ValueError(f"expected eigenvalue rows (..., N), got shape {arr.shape}")
    n = _check_rank(arr.shape[-1])
    if np.any(arr == 0):
        raise ValueError("zero entry in Satake parameter")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product is judged below
        prod = np.prod(arr, axis=-1)
        rel = np.abs(prod - 1.0)
    if not np.all(rel <= PRODUCT_TOL):  # negated, so that a NaN product fails
        raise ValueError(
            f"product deviates from 1 by {float(np.max(rel)):.3g} (tolerance {PRODUCT_TOL})"
        )
    # leave rows whose product already sits at roundoff level untouched, so
    # canonicalization is idempotent (re-scaling by prod^(-1/n) ~ 1 would
    # drift entries by an ulp on every pass)
    scale = np.where(rel > 1e-13, prod ** (-1.0 / n), 1.0)
    out = _sort_canonical(arr * scale[..., None])
    # entries far apart in size can under- or overflow the product in the canonical
    # order; half the parameter's tolerance leaves room for math.prod's last bits
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.abs(np.prod(out, axis=-1) - 1.0)
    if not np.all(drift <= PARAMETER_TOL / 2):
        raise ValueError(
            f"product of the canonical entries deviates from 1 by {float(np.max(drift)):.3g} (tolerance 5e-13)"
        )
    return out


def canonicalize(raw) -> SatakeParameter:
    """Build the canonical representative of an eigenvalue tuple."""
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat eigenvalue tuple, got shape {arr.shape}")
    return SatakeParameter(arr.shape[0], tuple(canonicalize_batch(arr)))


def coefficient(x: SatakeParameter, idx: CoefficientIndex) -> complex:
    """Prime-power Fourier coefficient: the character at aleph(idx), whose positive parts are the positive
    partial sums of idx.l, largest first; x has N nonzero entries, as _schur needs; an overflow raises ValueError."""
    if idx.n != x.n:
        raise ValueError(f"rank mismatch: index N={idx.n}, parameter N={x.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        value = complex(_schur(x.as_array(), [[v for v in accumulate(idx.l) if v > 0][::-1]])[0])
    if not cmath.isfinite(value):
        raise ValueError(f"coefficient at N={x.n}, l={idx.l} is not finite: {value}")
    return value


def varrho(x: SatakeParameter) -> tuple[complex, ...]:
    """Fundamental character values (chi_1(x), ..., chi_{N-1}(x)).

    Elementary symmetric polynomials of the eigenvalues; injective on the
    containment region modulo the Weyl action.
    """
    return tuple(elementary_symmetric(x.as_array()).tolist())


def hecke_residuals_n3(alphas: np.ndarray) -> np.ndarray:
    """Vectorized residuals of the N=3 Hecke identity over rows of (..., 3), from one ``_schur`` call."""
    chi1, chi2, adj = _schur(_eigenvalue_rows(alphas, 3), [[1], [1, 1], [2, 1]])
    return np.abs(chi1 * chi2 - adj - 1.0)
