"""Exact characters of SU(N) irreducibles.

Weight multiplicities come from the branching rule in integer arithmetic
(Macdonald I.5.11: peel off one variable over every horizontal strip);
tensor products of fundamental modules are decomposed by the iterated
Pieri rule on partitions, with no weight tables (one strip table per
factor size, filtered by each partition's tie mask), and the bound sweep's
dominant sums are those Pieri multiplicities times branching-rule table
entries; numeric character values use the Jacobi-Trudi determinant with
complete homogeneous symmetric functions h_r, taken from the e-row by the
h-e duality (finite at coincident eigenvalues, unlike the bialternant ratio).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, eq, ge, gt

import numpy as np

from .weights import DominantWeight, WeightVector

__all__ = [
    "CharacterTable",
    "TensorSpec",
    "TermBudgetExceeded",
    "DEFAULT_TERM_BUDGET",
    "weight_table",
    "dim",
    "product",
    "spec_product_table",
    "tensor_decompose",
    "trivial_multiplicity",
    "eval_char",
    "dominant_part_sum",
    "specialization_bound_n3",
]

DEFAULT_TERM_BUDGET = 10**6


class TermBudgetExceeded(RuntimeError):
    """A character table would exceed the configured number of terms."""


@dataclass(frozen=True)
class CharacterTable:
    """Finite weight-multiplicity map of a (virtual) character.

    Keys are canonical weight coordinate tuples (min entry 0); values are
    integers, negative only in intermediate virtual characters.  Treat
    instances as immutable values: operations return new tables.
    """

    n: int
    terms: dict

    def multiplicity(self, w: WeightVector | tuple) -> int:
        key = w.coords if isinstance(w, WeightVector) else _canon(w)
        return self.terms.get(key, 0)

    def mass(self) -> int:
        """Sum of all multiplicities (the dimension, for a genuine character)."""
        return sum(self.terms.values())


@dataclass(frozen=True)
class TensorSpec:
    """Exponent vector (i_1, i'_1, ..., i_{N-1}, i'_{N-1}).

    Encodes the product prod_k chi_k^{i_k} * chi_{N-k}^{i'_k}, i.e. the
    character of tensor powers of the fundamental modules with primed
    exponents attached to the conjugate (N-k)-th factor.
    """

    n: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) != 2 * (self.n - 1):
            raise ValueError(
                f"expected {2 * (self.n - 1)} exponents for N={self.n}, got {len(exps)}"
            )
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be non-negative: {exps}")

    @classmethod
    def up_to_degree(cls, n: int, d: int) -> list[TensorSpec]:
        """Every spec of rank n and degree <= d, exponent tuples in lexicographic order;
        more than DEFAULT_TERM_BUDGET of them raise TermBudgetExceeded before any is listed."""
        k = 2 * (n - 1)
        count = math.comb(d + k, k) if d >= 0 else 0
        if count > DEFAULT_TERM_BUDGET:
            raise TermBudgetExceeded(f"{count} specs of rank {n} and degree <= {d} exceed budget {DEFAULT_TERM_BUDGET}")
        rows = [()]
        for _ in range(k):
            rows = [row + (e,) for row in rows for e in range(d - sum(row) + 1)]
        return [cls(n, row) for row in rows]

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def plain(self, k: int) -> int:
        """Exponent i_k."""
        return self.exponents[2 * (k - 1)]

    def conjugate(self, k: int) -> int:
        """Exponent i'_k."""
        return self.exponents[2 * (k - 1) + 1]

    def monomial(self, e: np.ndarray) -> np.ndarray:
        """prod_k e_k^{i_k} conj(e_k)^{i'_k} on rows (..., N-1) of e; unused columns are not read."""
        out = np.ones(e.shape[:-1], dtype=np.complex128)
        for k, (ik, ikp) in enumerate(zip(self.exponents[::2], self.exponents[1::2])):
            if ik:
                out = out * e[..., k] ** ik
            if ikp:
                out = out * np.conj(e[..., k]) ** ikp
        return out

    def factor_weights(self) -> list[DominantWeight]:
        """Fundamental highest weights of the factors, with multiplicity."""
        out = []
        for k in range(1, self.n):
            out.extend([DominantWeight.fundamental(self.n, k)] * self.plain(k))
            out.extend([DominantWeight.fundamental(self.n, self.n - k)] * self.conjugate(k))
        return out


def _canon(coords) -> tuple[int, ...]:
    t = tuple(int(c) for c in coords)
    m = min(t)
    if m:
        t = tuple(c - m for c in t)
    return t


def dim(mu: DominantWeight) -> int:
    """Weyl dimension formula: prod_{i<j} (m_i - m_j + j - i)/(j - i)."""
    parts = mu.parts
    n = mu.n
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def _weight_table_terms(n: int, parts: tuple[int, ...]) -> dict:
    """Full weight multiplicity map of the irreducible with highest weight parts.

    Branching rule (Macdonald I.5.11): s_lam(x_1..x_k) is the sum of
    s_mu(x_1..x_{k-1}) x_k^(|lam|-|mu|) over the mu interlacing lam,
    lam_{i+1} <= mu_i <= lam_i.  Sub-tables are memoised per call on full
    weight coordinates, canonicalised once at the end.  Cached; safe for
    concurrent readers (lru_cache locks insertion).
    """
    memo: dict[tuple[int, ...], dict] = {(): {(): 1}}

    def table(lam: tuple[int, ...]) -> dict:
        if lam not in memo:
            out: dict[tuple[int, ...], int] = {}
            ranges = [range(lo, hi + 1) for hi, lo in zip(lam, lam[1:])]
            for mu in itertools.product(*ranges):
                last = (sum(lam) - sum(mu),)
                for w, m in table(mu).items():
                    out[w + last] = out.get(w + last, 0) + m
            memo[lam] = out
        return memo[lam]

    terms = {_canon(w): m for w, m in table(parts).items()}
    assert sum(terms.values()) == dim(DominantWeight(n, parts))
    return terms


def weight_table(mu: DominantWeight, budget: int = DEFAULT_TERM_BUDGET) -> CharacterTable:
    """Exact weight multiplicities of the irreducible with highest weight mu,
    by the branching rule; each call returns a copy of the cached table."""
    est = dim(mu)
    if est > budget:
        raise TermBudgetExceeded(
            f"weight table of {mu.parts} has {est} weights (budget {budget})"
        )
    return CharacterTable(mu.n, dict(_weight_table_terms(mu.n, mu.parts)))


def product(
    a: CharacterTable, b: CharacterTable, budget: int = DEFAULT_TERM_BUDGET
) -> CharacterTable:
    """Convolution of weight multiplicity maps (product of characters)."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} != {b.n}")
    if len(a.terms) * len(b.terms) > 64 * budget:
        raise TermBudgetExceeded(
            f"product of {len(a.terms)} x {len(b.terms)} terms exceeds budget {budget}"
        )
    out: dict[tuple[int, ...], int] = {}
    for wa, ma in a.terms.items():
        for wb, mb in b.terms.items():
            key = _canon(tuple(x + y for x, y in zip(wa, wb)))
            new = out.get(key, 0) + ma * mb
            if new:
                out[key] = new
            elif key in out:
                del out[key]
    if len(out) > budget:
        raise TermBudgetExceeded(f"product table has {len(out)} terms (budget {budget})")
    return CharacterTable(a.n, out)


def spec_product_table(spec: TensorSpec, budget: int = DEFAULT_TERM_BUDGET) -> CharacterTable:
    """Weight table of prod_k chi_k^{i_k} chi_{N-k}^{i'_k}."""
    table = CharacterTable(spec.n, {(0,) * spec.n: 1})
    for w in spec.factor_weights():
        table = product(table, weight_table(w, budget), budget)
    return table


def tensor_decompose(
    spec: TensorSpec, budget: int = DEFAULT_TERM_BUDGET
) -> dict[DominantWeight, int]:
    """Multiplicities a_mu in the tensor product encoded by spec.

    Iterated Pieri rule (Macdonald I.5.17): every factor is an exterior
    power e_k, and s_lam * e_k is the sum of s_nu over the nu obtained by
    adding a vertical k-strip to lam within N rows.  Each size k gets one
    strip table per call, in combinations order, of (skipped, shift): the
    bit mask of the empty rows i above a filled row i+1, and the strip less
    one full column (the determinant, trivial on SU(N)) when it fills the
    last row, so each nu ends in 0.  A strip fits lam iff skipped misses
    lam's tie mask (bit i set iff lam_i == lam_{i+1}).  The budget bounds
    the candidate strips summed over all steps, sum of len(current) *
    C(N, k), masked ones included; every step tries at least one, so a
    degree above the budget fails before the factors are listed.
    """
    n = spec.n
    if spec.degree > budget:
        raise TermBudgetExceeded(f"degree {spec.degree} exceeds budget {budget}")
    bits = [1 << i for i in range(n - 1)]
    tables: dict[int, list] = {}
    tried = 0
    current = {(0,) * n: 1}
    for j in range(1, n):
        for k in [j] * spec.plain(j) + [n - j] * spec.conjugate(j):
            tried += len(current) * math.comb(n, k)
            if tried > budget:
                raise TermBudgetExceeded(
                    f"Pieri steps with {tried} candidate strips in total exceed budget {budget}"
                )
            table = tables.get(k)
            if table is None:
                table = tables[k] = []
                for rows in itertools.combinations(range(n), k):
                    strip = [int(i in rows) for i in range(n)]
                    skipped = sum(itertools.compress(bits, map(gt, strip[1:], strip)))
                    table.append((skipped, tuple(x - strip[-1] for x in strip)))
            out: dict[tuple[int, ...], int] = {}
            for lam, c in current.items():
                ties = sum(itertools.compress(bits, map(eq, lam, lam[1:])))
                for skipped, shift in table:
                    if not ties & skipped:
                        nu = tuple(map(add, lam, shift))
                        out[nu] = out.get(nu, 0) + c
            current = out
    return {DominantWeight(n, lam): c for lam, c in current.items()}


def trivial_multiplicity(spec: TensorSpec, budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Multiplicity a_0 of the trivial module in the tensor product."""
    zero = DominantWeight.zero(spec.n)
    return tensor_decompose(spec, budget).get(zero, 0)


def _signed_e_row(a: np.ndarray) -> np.ndarray:
    """(1, -e_1, e_2, ..., (-1)^N e_N) of (..., N) eigenvalue rows, on a leading axis.

    The coefficients of prod_i (1 - a_i t), one vector update per eigenvalue.
    """
    n = a.shape[-1]
    row = np.zeros((n + 1,) + a.shape[:-1], dtype=np.complex128)
    row[0] = 1.0
    for i in range(n):
        row[1 : i + 2] -= a[..., i] * row[: i + 1]
    return row


def elementary_symmetric(arr: np.ndarray) -> tuple[complex, ...] | np.ndarray:
    """e_1..e_{N-1} of (..., N) eigenvalue arrays, vectorized."""
    a = np.asarray(arr, dtype=np.complex128)
    e = _signed_e_row(a)[1 : a.shape[-1]]
    np.negative(e[::2], out=e[::2])  # e_k = (-1)^k row[k]: negate odd k
    out = np.moveaxis(e, 0, -1)
    return tuple(complex(v) for v in out) if out.ndim == 1 else out


def _schur(arr: np.ndarray, lams) -> list[np.ndarray]:
    """s_lam at (..., N) eigenvalue rows for each list lam of positive parts, from one h recurrence.

    h runs up to the largest lam_1 + len(lam) - 1, from the e-row by the duality
    sum_{i=0..N} (-1)^i e_i h_{r-i} = 0 for r >= 1 (Macdonald I.2.6'); each s_lam
    is the Jacobi-Trudi determinant det(h_{lam_i - i + j}).
    """
    n = arr.shape[-1]
    r_max = max((lam[0] + len(lam) - 1 for lam in lams if lam), default=0)
    coeffs = -_signed_e_row(arr)[:0:-1]  # (-1)^(i-1) e_i for i = N..1
    # h[n - 1 + r] holds h_r; the n - 1 leading zeros are h_r for r < 0
    h = np.zeros((n + r_max,) + arr.shape[:-1], dtype=np.complex128)
    h[n - 1] = 1.0
    for r in range(n, n + r_max):
        h[r] = (coeffs * h[r - n : r]).sum(axis=0)
    out = []
    for lam in lams:
        m = len(lam)
        mat = np.empty(arr.shape[:-1] + (m, m), dtype=np.complex128)
        for i in range(m):
            for j in range(m):
                mat[..., i, j] = h[n - 1 + lam[i] - i + j]
        out.append(mat[..., 0, 0] if m == 1 else np.linalg.det(mat))  # 1 for the empty matrix, m = 0
    return out


def eval_char(mu: DominantWeight, alphas) -> complex | np.ndarray:
    """Schur polynomial s_mu at the eigenvalue tuple(s) alphas.

    Vectorized over leading axes: alphas of shape (..., N) gives a result
    of shape (...).  Jacobi-Trudi determinant in the complete homogeneous
    basis, with h from the e-row by the h-e duality (``_schur``); e_N is the
    product of the eigenvalues, so values off SU(N) are right too.
    """
    arr = np.asarray(alphas, dtype=np.complex128)
    n = mu.n
    if arr.shape[-1] != n:
        raise ValueError(f"expected last axis of length {n}, got shape {arr.shape}")
    if not arr.all():
        raise ValueError("zero eigenvalue in character evaluation")
    lam = [p for p in mu.parts if p > 0]
    (out,) = _schur(arr, [lam])
    return complex(out) if out.ndim == 0 else out


def dominant_part_sum(spec: TensorSpec, p: int, alpha: float) -> float:
    """Sum of product-table coefficients c_w at dominant weights w, weighted p^(alpha*|l|).

    c_w = sum_lam a_lam K_{lam,w}, from the Pieri multiplicities and the
    branching-rule tables; an upper bound for the decomposition
    multiplicities.  |l| = w[0] for a canonical dominant w.  Summed by
    math.fsum, so the value depends only on the integer coefficients.
    """
    coeffs: dict[tuple[int, ...], int] = {}
    for lam, a in tensor_decompose(spec).items():
        for w, k in weight_table(lam).terms.items():
            if all(map(ge, w, w[1:])):
                coeffs[w] = coeffs.get(w, 0) + a * k
    return math.fsum(c * float(p) ** (alpha * w[0]) for w, c in coeffs.items())


def specialization_bound_n3(spec: TensorSpec, p: int, alpha: float) -> float:
    """(p^alpha + 1 + p^{-alpha})^(total degree); closed-form bound, N=3 only."""
    if spec.n != 3:
        raise ValueError(f"closed-form bound requires N=3, got N={spec.n}")
    x = float(p) ** alpha
    return (x + 1.0 + 1.0 / x) ** spec.degree
