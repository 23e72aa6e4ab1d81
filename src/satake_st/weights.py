"""Type A_{N-1} weight combinatorics and spectral parameters.

Weights of SL(N)/SU(N) are stored in GL-style partition coordinates: an
integer vector of length N read modulo the all-ones vector, canonicalized
so the minimum entry is 0.  This keeps every computation in exact integer
arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "DominantWeight",
    "CoefficientIndex",
    "SpectralParameter",
    "aleph",
    "aleph_inv",
    "langlands",
    "laplace_eigenvalue",
    "laplace_eigenvalues",
]


def _check_rank(n: int) -> int:
    """The rank n, once checked to be a Python int >= 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"rank parameter must be an integer >= 2, got {n!r}")
    return n


def _exact(raw: tuple, kind: type) -> tuple | None:
    """raw as a tuple of Python ints or complexes, or None if an entry does not convert or, for int, is not equal to its int."""
    try:
        values = tuple(map(kind, raw))
    except (TypeError, ValueError, OverflowError):
        return None
    return values if kind is not int or values == raw else None


def _store(obj, name: str, kind: type, length: int, noun: str = "entries") -> tuple:
    """Set a frozen dataclass's field `name` to a tuple of `length` Python ints or complexes; an int
    field takes only entries equal to their int, so 0.5, inf, NaN, '1' and None raise, not truncate."""
    raw = tuple(getattr(obj, name))
    values = _exact(raw, kind)
    if values is None:
        raise ValueError(f"{type(obj).__name__}.{name} must be {'integers' if kind is int else 'complex numbers'}, got {raw}")
    if len(values) != length:
        raise ValueError(f"expected {length} {noun}, got {len(values)}")
    object.__setattr__(obj, name, values)
    return values


@dataclass(frozen=True)
class DominantWeight:
    """Highest weight of an SU(N) irreducible: a partition with last part 0."""

    n: int
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = _store(self, "parts", int, _check_rank(self.n), "parts")
        if any(map(operator.lt, parts, parts[1:])):
            raise ValueError(f"parts must be non-increasing: {parts}")
        if parts[-1] != 0:
            raise ValueError(f"normalized parts must end in 0: {parts}")

    @classmethod
    def _unchecked(cls, n: int, parts: tuple[int, ...]) -> "DominantWeight":
        """The weight of a tuple of n Python ints known to be non-increasing and to end in 0, unchecked."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["n"], fields["parts"] = n, parts
        return self

    @classmethod
    def zero(cls, n: int) -> "DominantWeight":
        return cls(n, (0,) * n)

    @classmethod
    def fundamental(cls, n: int, k: int) -> "DominantWeight":
        """Highest weight of the k-th exterior power of the defining module."""
        if not 1 <= k <= n - 1:
            raise ValueError(f"fundamental index must be in 1..{n - 1}, got {k}")
        return cls(n, (1,) * k + (0,) * (n - k))

    @property
    def is_zero(self) -> bool:
        return self.parts[0] == 0

    def size(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class CoefficientIndex:
    """Index (l_1, ..., l_{N-1}) of a prime-power Fourier coefficient."""

    n: int
    l: tuple[int, ...]

    def __post_init__(self):
        l = _store(self, "l", int, _check_rank(self.n) - 1)
        if any(v < 0 for v in l):
            raise ValueError(f"entries must be non-negative: {l}")

    @classmethod
    def zero(cls, n: int) -> "CoefficientIndex":
        return cls(n, (0,) * (n - 1))

    @classmethod
    def unit(cls, n: int, position: int) -> "CoefficientIndex":
        """Index with a single 1 at 1-based position."""
        if not 1 <= position <= n - 1:
            raise ValueError(f"position must be in 1..{n - 1}, got {position}")
        l = [0] * (n - 1)
        l[position - 1] = 1
        return cls(n, tuple(l))


@dataclass(frozen=True)
class SpectralParameter:
    """Archimedean parameter nu in C^{N-1}."""

    n: int
    nu: tuple[complex, ...]

    def __post_init__(self):
        _store(self, "nu", complex, _check_rank(self.n) - 1)

    @classmethod
    def _unchecked(cls, n: int, nu: tuple[complex, ...]) -> "SpectralParameter":
        """The parameter of a tuple of n - 1 Python complexes, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)  # as the dataclass __init__ sets fields: no instance dict is formed
        object.__setattr__(self, "nu", nu)
        return self


def aleph(idx: CoefficientIndex) -> DominantWeight:
    """Bijection from coefficient indices onto dominant weights.

    parts[i-1] = l_1 + ... + l_{N-i}; tail partial sums of the index.
    """
    return DominantWeight(idx.n, tuple(accumulate(idx.l))[::-1] + (0,))


def aleph_inv(mu: DominantWeight) -> CoefficientIndex:
    """Inverse of :func:`aleph`: successive differences read from the tail."""
    n = mu.n
    l = tuple(mu.parts[n - k - 1] - mu.parts[n - k] for k in range(1, n))
    return CoefficientIndex(n, l)


def _ell(n: int, nu_rows) -> np.ndarray:
    """ell for each row of an (m, N-1) array of nu, by two cumulative sums; a row's value is independent of m."""
    nu = np.asarray(nu_rows, dtype=np.complex128).reshape(-1, n - 1)
    j = np.arange(1, n)
    ell = np.zeros((len(nu), n), dtype=np.complex128)
    ell[:, :-1] = np.cumsum(((n - j) * nu)[:, ::-1], axis=1)[:, ::-1]
    ell[:, 1:] -= np.cumsum(j * nu, axis=1)
    return ell


def langlands(nu: SpectralParameter) -> np.ndarray:
    """Length-N parameter ell_i = sum_{j>=i} (N-j) nu_j - sum_{j<i} j nu_j; entries sum to zero."""
    return _ell(nu.n, [nu.nu])[0]


def laplace_eigenvalues(n: int, nu_rows) -> np.ndarray:
    """(N^3 - N)/24 - (1/2) sum ell_i^2 for each row of an (m, N-1) array of nu,
    with ell_i = sum_{j>=i} (N-j) nu_j - sum_{j<i} j nu_j as in langlands."""
    ell = _ell(n, nu_rows)
    return (n**3 - n) / 24 - 0.5 * np.sum(ell * ell, axis=-1)


def laplace_eigenvalue(nu: SpectralParameter) -> complex:
    """Laplace eigenvalue of one spectral parameter; see laplace_eigenvalues."""
    return complex(laplace_eigenvalues(nu.n, [nu.nu])[0])
