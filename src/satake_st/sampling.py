"""Sampling from the pushforward of Haar measure on SU(N) to conjugacy classes.

The sampler is exact: a complex Ginibre matrix orthonormalized by QR with
the R-diagonal phase correction is Haar on U(N); dividing by a uniformly
random N-th root of the determinant lands Haar on SU(N).  Streams are
split deterministically so estimates are reproducible for a fixed
(seed, sample count, worker count).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .satake import SatakeParameter, canonicalize_batch, elementary_symmetric
from .characters import TensorSpec

__all__ = [
    "RngSeed",
    "McEstimate",
    "sample_st",
    "sample_st_batch",
    "sample_bank",
    "perturb_radial",
    "mc_integrate",
    "char_monomial",
    "st_density_gl2",
    "st_cdf_gl2",
    "plancherel_density_gl2",
]


@dataclass(frozen=True)
class RngSeed:
    """Seed plus worker stream index; distinct streams never overlap."""

    seed: int
    stream: int = 0

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


def _haar_su_eigs(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalue tuples of `count` Haar-distributed SU(n) matrices, (count, n)."""
    for _ in range(3):
        try:
            z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
            z /= math.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.einsum("...ii->...i", r)
            q *= (d / np.abs(d))[:, None, :]
            # q is Haar on U(n); divide by a uniform random n-th root of det(q)
            det = np.linalg.det(q)
            k = rng.integers(0, n, size=count)
            root = det ** (1.0 / n) * np.exp(2j * np.pi * k / n)
            q /= root[:, None, None]
            return np.linalg.eigvals(q)
        except np.linalg.LinAlgError:
            # factorization failure is a measure-zero event: redraw
            continue
    raise np.linalg.LinAlgError("QR/eigenvalue factorization failed on 3 redraws")


def sample_st_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) array of canonicalized Satake parameters drawn Haar-SU(n)."""
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
    return canonicalize_batch(_haar_su_eigs(n, count, rng))


def sample_st(n: int, rng: np.random.Generator) -> SatakeParameter:
    """One draw from the conjugacy-class measure of SU(n)."""
    row = sample_st_batch(n, 1, rng)[0]
    return SatakeParameter(n, tuple(row))


def perturb_radial(bank: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """Multiply unit-torus rows by radial noise staying inside |alpha| <= p^{1/2}.

    Per-row log-radii are zero-sum, so products stay at 1; the largest
    |log_p radius| is capped strictly below 1/2.
    """
    m, n = bank.shape
    shifts = rng.uniform(-1.0, 1.0, size=(m, n))
    shifts -= shifts.mean(axis=1, keepdims=True)
    peak = np.abs(shifts).max(axis=1, keepdims=True)
    scale = rng.uniform(0.0, 1.0, size=(m, 1))
    shifts *= scale * 0.5 / np.maximum(peak, 1e-12)
    return bank * float(p) ** shifts


_BANK_CACHE: dict = {}
_BANK_LOCK = threading.Lock()
_BANK_CACHE_LIMIT = 8


def _stream_counts(m: int, workers: int) -> list[int]:
    base, extra = divmod(m, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def sample_bank(
    n: int, m: int, seed: int, workers: int = 1, stream_offset: int = 0
) -> np.ndarray:
    """Deterministic (m, n) bank of samples, partitioned across worker streams.

    Stream w draws its count from RngSeed(seed, stream_offset + w); banks are
    memoized since the draw is a pure function of the key.
    """
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    key = (n, m, seed, workers, stream_offset)
    with _BANK_LOCK:
        if key in _BANK_CACHE:
            return _BANK_CACHE[key]
    chunks = [
        sample_st_batch(n, count, RngSeed(seed, stream_offset + stream).generator())
        for stream, count in enumerate(_stream_counts(m, workers))
        if count > 0
    ]
    bank = np.concatenate(chunks, axis=0)
    bank.setflags(write=False)
    with _BANK_LOCK:
        if len(_BANK_CACHE) >= _BANK_CACHE_LIMIT:
            _BANK_CACHE.pop(next(iter(_BANK_CACHE)))
        _BANK_CACHE[key] = bank
    return bank


def mc_integrate(f, n: int, m: int, seed: int | RngSeed, workers: int = 1) -> McEstimate:
    """Monte Carlo estimate of the conjugacy-class integral of f.

    Parameters
    ----------
    f : callable
        Applied to the full (m, n) array of canonicalized eigenvalue rows;
        must return a length-m array (vectorized over rows).  Wrap a
        per-point function g with ``lambda a: np.array([g(row) for row in a])``
        if needed.
    n, m : int
        Rank and sample count (m >= 2).
    seed : int or RngSeed
        Base seed; a RngSeed contributes its stream as an offset.
    workers : int
        Number of RNG streams the samples are pre-assigned to.
    """
    if m < 2:
        raise ValueError("need at least 2 samples")
    if isinstance(seed, RngSeed):
        base, offset = seed.seed, seed.stream
    else:
        base, offset = int(seed), 0
    bank = sample_bank(n, m, base, workers, stream_offset=offset)
    vals = np.asarray(f(bank), dtype=np.complex128)
    if vals.shape != (m,):
        raise ValueError(f"integrand returned shape {vals.shape}, expected ({m},)")
    mean = vals.mean()
    var = np.abs(vals - mean) ** 2
    std_error = math.sqrt(float(var.sum()) / (m * (m - 1)))
    return McEstimate(mean=complex(mean), std_error=std_error, samples=m)


def char_monomial(spec: TensorSpec):
    """Vectorized integrand for prod_k chi_k^{i_k} * conj(chi_k)^{i'_k}."""
    return lambda alphas: spec.monomial(elementary_symmetric(alphas))


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
    edge = math.sqrt(p) + 1.0 / math.sqrt(p)
    if abs(x) >= edge:
        raise ValueError(f"|x| must be < p^{{1/2}} + p^{{-1/2}} = {edge:.6g}")
    return (p + 1) / (edge * edge - x * x) * st_density_gl2(x)
