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
    "langlands",
    "laplace_eigenvalue",
    "laplace_eigenvalues",
]


def _check_rank(n: int) -> int:
    """The rank n, once checked to be a Python int >= 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"rank parameter must be an integer >= 2, got {n!r}")
    return n


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the first thirteen primes as bases, exact below 3.3e24
    (Sorenson-Webster); trial division would take minutes on a 19-digit prime."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        for _ in range(s):
            y = x * x % p
            if y == 1 and x not in (1, p - 1):
                return False
            x = y
        if x != 1:
            return False
    return True


def _check_prime(p: int) -> int:
    """The prime p, once checked to be a Python int (not a bool) that is prime."""
    if not (type(p) is int and _is_prime(p)):
        raise ValueError(f"p must be a prime Python integer, got {p!r}")
    return p


def _check_scale(t: float) -> float:
    """The scale t, once checked to be finite and >= 1; a NaN fails."""
    if not 1 <= t < np.inf:
        raise ValueError(f"scale must be finite and >= 1, got {t}")
    return t


def _check_finite(x: float, name: str) -> float:
    """The real x, once checked to be finite; a NaN or an infinity fails, naming the argument."""
    if not -np.inf < x < np.inf:
        raise ValueError(f"{name} must be finite, got {x}")
    return x


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


def _unchecked(cls, n: int, values: tuple):
    """cls(n, values) with no check, for a value type of a rank and a tuple (its second field) read back from data
    checked as cls checks it.  Both fields are set as the dataclass __init__ sets them, so no instance dict is formed."""
    self = object.__new__(cls)
    object.__setattr__(self, "n", n)
    object.__setattr__(self, cls.__match_args__[1], values)
    return self


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


def aleph(idx: CoefficientIndex) -> DominantWeight:
    """Bijection from coefficient indices onto dominant weights.

    parts[i-1] = l_1 + ... + l_{N-i}; tail partial sums of the index.
    """
    return DominantWeight(idx.n, tuple(accumulate(idx.l))[::-1] + (0,))


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
