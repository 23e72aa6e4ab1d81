"""Sampling from the pushforward of Haar measure on SU(N) to conjugacy classes.

The sampler is exact and builds no matrix: Killip-Nenciu's independent
Verblunsky coefficients a_k give the characteristic polynomial of a Haar U(N)
matrix V, and fixing the last one, on which alone the determinant depends, at -1
gives det V = (-1)^N, so -V is Haar SU(N).  Each |a_k|^2 ~ Beta(1, b) is the least of b uniforms, each phase
the cos/sin of a uniform angle, so a draw runs only min, sqrt, cos, sin and
complex arithmetic: its bits do not depend on numpy's SIMD target, save for
complex multiply with or without FMA.  A draw is the row (e_1, ..., e_{N-1})
of its coefficients, the paper's varrho coordinates, in which class functions are polynomials;
``mc_integrate`` integrates these rows and never forms eigenvalues, which
``sample_st_batch`` and ``sample_bank`` take as the polynomial's roots.
A bank is one stream, a pure function of (N, sample count, seed).  It is a read-only
column-major (m, N-1) array, written column by column by the Szego recursion,
so an integrand reads each e_k as one contiguous column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .satake import canonicalize_batch, elementary_symmetric
from .characters import TensorSpec
from .weights import _check_int, _check_prime, _check_rank

__all__ = [
    "RngSeed",
    "McEstimate",
    "sample_st_batch",
    "sample_bank",
    "varrho_bank",
    "perturb_radial",
    "mc_integrate",
    "char_monomial",
    "st_density_gl2",
    "st_cdf_gl2",
    "plancherel_density_gl2",
]


@dataclass(frozen=True)
class RngSeed:
    """Seed plus stream index, Python ints >= 0; each (seed, stream) pair spawns its own independent generator."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        _check_int(self.seed, "seed")
        _check_int(self.stream, "stream")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class McEstimate:
    mean: complex
    std_error: float
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("estimate needs at least one sample")
        if self.std_error < 0:
            raise ValueError("standard error must be non-negative")

    def z_score(self, reference: complex) -> float:
        """|mean - reference| in units of the standard error (inf if se=0 and off)."""
        diff = abs(self.mean - reference)
        if self.std_error == 0.0:
            return 0.0 if diff == 0.0 else math.inf
        return diff / self.std_error


def _haar_su_varrho(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n-1) rows e_1..e_{n-1} of Haar SU(n) characteristic polynomials.

    The Szego recursion Phi_{k+1} = z Phi_k - conj(a_k) Phi_k^*, with independent a_k of uniform phase,
    |a_k|^2 ~ Beta(1, n-1-k) (the least of n-1-k uniforms) for k < n-1 and |a_{n-1}| = 1, ends in the
    Haar U(n) characteristic polynomial det(z - V) (R. Killip and I. Nenciu, "Matrix models for circular
    ensembles", IMRN 2004).  Its constant term -conj(a_{n-1}) is (-1)^n det V, and a_{n-1} is independent
    of the rest, so fixing a_{n-1} = -1 conditions Haar U(n) on det V = (-1)^n; then U = -V is Haar SU(n).
    The coefficient of z^(n-k) in det(z - V) is (-1)^k e_k(V) = e_k(U), so the recursion's coefficients
    are the rows as they stand.
    """
    _check_rank(n)
    a = np.full((n, count), -1.0, dtype=np.complex128)
    radius = a[:-1].real  # a view: |a_k|^2, then |a_k|, then Re a_k
    for k in range(n - 1):
        np.min(rng.random((n - 1 - k, count)), axis=0, out=radius[k])
    np.sqrt(radius, out=radius)
    theta = rng.random((n - 1, count))
    theta *= 2 * np.pi
    a[:-1].imag = radius * np.sin(theta)
    radius *= np.cos(theta)
    del theta  # freed before the recursion, whose three arrays set the peak
    # phi[j - 1] is the coefficient of z^(k-j) in Phi_k: the result's columns, then the constant term.
    # The monic 1 is not stored: step k sets phi[k] = -conj(a[k]) and forms the k + 1 products a[k] *
    # phi[k::-1], the first unused, in one call, which keeps numpy's FMA path (and bits) even at count 1.
    buf = np.empty((count, n), dtype=np.complex128, order="F")
    phi, tmp = buf.T, np.empty((n, count), dtype=np.complex128)
    for k in range(n):
        np.negative(np.conjugate(a[k], out=phi[k]), out=phi[k])
        term = np.multiply(a[k], phi[k::-1], out=tmp[: k + 1])[1:]
        phi[:k] -= np.conjugate(term, out=term)
    del phi
    buf.resize((count, n - 1), refcheck=False)  # drops the constant term in place; no view of buf is left
    return buf


def _canonical_roots(e: np.ndarray) -> np.ndarray:
    """Canonical roots of z^n - e_1 z^(n-1) + ... + (-1)^n, one polynomial per e-row, (count, n)."""
    count, n = e.shape[0], e.shape[1] + 1
    comp = np.zeros((count, n, n), dtype=np.complex128)
    comp[:, 0] = np.concatenate([e, np.ones((count, 1))], axis=1) * (-1.0) ** np.arange(n)
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return canonicalize_batch(np.linalg.eigvals(comp))


def sample_st_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) array of canonicalized Satake parameters drawn Haar-SU(n); count is a Python int >= 0."""
    return _canonical_roots(_haar_su_varrho(n, _check_int(count, "count"), rng))


def perturb_radial(bank: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """Canonical rows of unit-torus rows times radial noise staying inside |alpha| <= p^{1/2}; row i
    stays row i.  Per-row log-radii are zero-sum, so products stay at 1; the largest |log_p radius|
    is capped strictly below 1/2."""
    _check_prime(p)
    m, n = bank.shape
    shifts = rng.uniform(-1.0, 1.0, size=(m, n))
    shifts -= shifts.mean(axis=1, keepdims=True)
    peak = np.abs(shifts).max(axis=1, keepdims=True)
    scale = rng.uniform(0.0, 1.0, size=(m, 1))
    shifts *= scale * 0.5 / np.maximum(peak, 1e-12)
    return canonicalize_batch(bank * float(p) ** shifts)


def varrho_bank(n: int, m: int, seed: int) -> np.ndarray:
    """Read-only column-major (m, n-1) bank of rows e_1..e_{n-1} drawn from RngSeed(seed), for a Python int m >= 1;
    memoized, since the draw is a pure function of (n, m, seed)."""
    return _varrho_bank(n, _check_int(m, "m", 1), seed)


@lru_cache(maxsize=8)
def _varrho_bank(n: int, m: int, seed: int) -> np.ndarray:
    """The bank of ``varrho_bank``; called positionally so every caller shares one key."""
    bank = _haar_su_varrho(n, m, RngSeed(seed).generator())
    bank.setflags(write=False)
    return bank


def sample_bank(n: int, m: int, seed: int) -> np.ndarray:
    """(m, n) canonical eigenvalue rows, a fresh array: the roots of the read-only column-major
    (m, n-1) bank ``varrho_bank`` returns for the same arguments."""
    return _canonical_roots(varrho_bank(n, m, seed))


def mc_integrate(f, n: int, m: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the conjugacy-class integral of f.

    f is applied to the read-only column-major (m, n-1) bank ``varrho_bank(n, m, seed)``
    of rows (e_1, ..., e_{n-1}), the varrho coordinates of the draws, not to eigenvalues
    (``sample_bank`` holds those), and must return a length-m array, e.g. ``char_monomial(spec)``; m is a Python
    int >= 2.
    The estimate's bits are a function of (f, n, m, seed); a row's monomial out of its bank need not keep its bits.
    """
    _check_int(m, "m", 2)
    vals = np.asarray(f(varrho_bank(n, m, seed)), dtype=np.complex128)
    if vals.shape != (m,):
        raise ValueError(f"integrand returned shape {vals.shape}, expected ({m},)")
    mean = np.add.reduce(vals) / m  # vals.mean() without its Python-level overhead
    dev = vals - mean
    # |dev|^2 as real part squared plus imaginary part squared, formed in dev and summed
    # by numpy's pairwise sum, not BLAS, so the bits do not depend on the thread count
    parts = dev.view(np.float64)
    np.multiply(parts, parts, out=parts)
    std_error = math.sqrt(float(np.sum(np.add(dev.real, dev.imag, out=dev.real))) / (m * (m - 1)))
    return McEstimate(mean=complex(mean), std_error=std_error, samples=m)


def char_monomial(spec: TensorSpec):
    """prod_k chi_k^{i_k} * conj(chi_k)^{i'_k} on one row or a batch, of eigenvalue rows (width N) or e-rows (N-1)."""

    def integrand(rows):
        width = np.shape(rows)[-1:]
        if width not in ((spec.n,), (spec.n - 1,)):
            raise ValueError(f"rows must have width {spec.n} or {spec.n - 1}, got shape {np.shape(rows)}")
        return spec.monomial(elementary_symmetric(rows) if width == (spec.n,) else np.asarray(rows))

    return integrand


def st_density_gl2(x: float) -> float:
    """Semicircle density (1/pi) sqrt(1 - x^2/4) on [-2, 2], else 0."""
    if abs(x) > 2.0:
        return 0.0
    return math.sqrt(1.0 - x * x / 4.0) / math.pi


def st_cdf_gl2(x) -> np.ndarray:
    """Closed-form CDF of the semicircle law, vectorized."""
    t = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + (np.arcsin(t / 2.0) + (t / 2.0) * np.sqrt(1.0 - t * t / 4.0)) / np.pi


def plancherel_density_gl2(x: float, p: int) -> float:
    """Vertical unweighted density (p+1)/((p^{1/2}+p^{-1/2})^2 - x^2) d(semicircle)."""
    edge = math.sqrt(_check_prime(p)) + 1.0 / math.sqrt(p)
    if abs(x) >= edge:
        raise ValueError(f"|x| must be < p^{{1/2}} + p^{{-1/2}} = {edge:.6g}")
    return (p + 1) / (edge * edge - x * x) * st_density_gl2(x)
