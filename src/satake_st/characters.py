"""Exact characters of SU(N) irreducibles.

Weight multiplicities come from the branching rule in integer arithmetic
(Macdonald I.5.11: peel off one variable over every horizontal strip);
tensor products of fundamental modules are decomposed by the iterated
Pieri rule on partitions, with no weight tables (one strip table per
factor size and call, from row bit masks, filtered by each partition's tie
mask; unchecked result keys), and the bound sweep's dominant sums are those
Pieri multiplicities times branching-rule table entries; numeric character
values use the smaller Jacobi-Trudi determinant, in the e_k or in the h_r from
them by the h-e duality (finite at coincident eigenvalues, unlike the bialternant ratio).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, eq, ge, neg

import numpy as np

from .weights import DominantWeight, _check_rank, _exact, _store

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

    def multiplicity(self, w: tuple) -> int:
        """The multiplicity of w, read modulo the all-ones vector; an entry not equal to its int, or a
        weight of other than N entries, raises."""
        w = tuple(w)
        if _exact(w, int) is None:
            raise ValueError(f"weight entries must be integers, got {w}")
        if len(w) != self.n:
            raise ValueError(f"expected {self.n} entries, got {len(w)}")
        return self.terms.get(_canon(w), 0)

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
        exps = _store(self, "exponents", int, 2 * (_check_rank(self.n) - 1), f"exponents for N={self.n}")
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be non-negative: {exps}")

    @classmethod
    def up_to_degree(cls, n: int, d: int) -> list[TensorSpec]:
        """Every spec of rank n and degree <= d, exponent tuples in lexicographic order;
        more than DEFAULT_TERM_BUDGET of them raise TermBudgetExceeded before any is listed."""
        k = 2 * (_check_rank(n) - 1)
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
        """prod_k e_k^{i_k} conj(e_k)^{i'_k} on rows (..., N-1) of e, an array of shape (...); unused columns are
        not read. A factor is |e_k|^(2 min(i_k, i'_k)) times (e_k or its conjugate)^|i_k - i'_k|, by repeated
        squaring; the product starts from the first factor, not from a multiplication by 1. Unlike ``_schur``, it
        is not batch-independent: numpy's complex multiply rounds differently on short and long arrays, so a row
        taken out of its bank need not keep its bits; an estimate is a function of (spec, N, m, seed)."""
        rows = e.reshape(-1, e.shape[-1])  # a view of a 2-D e
        factors = self._factors(rows)
        out = next(factors, None)
        if out is None:
            return np.ones(e.shape[:-1], dtype=np.complex128)
        out = out.astype(np.complex128, copy=np.may_share_memory(out, rows))  # never a view of e
        for f in factors:
            out *= f
        return out.reshape(e.shape[:-1])

    def _factors(self, e: np.ndarray):
        """The factors of ``monomial``, one per nonzero exponent pair, in column order."""
        for k, (ik, ikp) in enumerate(zip(self.exponents[::2], self.exponents[1::2])):
            col = e[..., k]
            if min(ik, ikp):
                yield _power(col.real * col.real + col.imag * col.imag, min(ik, ikp))
            if ik != ikp:
                yield _power(col if ik > ikp else np.conj(col), abs(ik - ikp))

    def factor_weights(self) -> list[DominantWeight]:
        """Fundamental highest weights of the factors, with multiplicity."""
        out = []
        for k in range(1, self.n):
            out.extend([DominantWeight.fundamental(self.n, k)] * self.plain(k))
            out.extend([DominantWeight.fundamental(self.n, self.n - k)] * self.conjugate(k))
        return out


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for an integer k >= 1, by repeated squaring."""
    if k == 1:
        return x
    half = _power(x * x, k // 2)
    return half * x if k & 1 else half


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
    strip table per call (``_strip_table``), in combinations order, of
    (skipped, shift): the bit mask of the empty rows i above a filled row
    i+1, and the strip less one full column (the determinant, trivial on
    SU(N)) when it fills the last row, so each nu ends in 0.  A strip fits
    lam iff skipped misses lam's tie mask (bit i set iff lam_i == lam_{i+1}).
    The budget bounds the candidate strips summed over all steps, sum of
    len(current) * C(N, k), masked ones included; every step tries at least
    one, so a degree above the budget fails before the factors are listed.
    Each nu is a partition of Python ints ending in 0, so its key is unchecked.
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
                table = tables[k] = _strip_table(n, k)
            out: dict[tuple[int, ...], int] = {}
            for lam, c in current.items():
                ties = sum(itertools.compress(bits, map(eq, lam, lam[1:])))
                for skipped, shift in table:
                    if not ties & skipped:
                        nu = tuple(map(add, lam, shift))
                        out[nu] = out.get(nu, 0) + c
            current = out
    return {DominantWeight._unchecked(n, lam): c for lam, c in current.items()}


def _strip_table(n: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """(skipped, shift) of every vertical k-strip in n rows, in combinations order.  A strip on rows R has
    row mask m = sum 2^i and 0/1 rows the bytes of s = sum 256^i over R; skipped = (m >> 1) & ~m, and a strip
    that fills the last row loses one full column: its shift is minus the bytes of its complement."""
    ones = (1 << 8 * n) // 255  # a 1 byte in every row
    masks = map(sum, itertools.combinations([1 << i for i in range(n)], k))
    spreads = map(sum, itertools.combinations([1 << 8 * i for i in range(n)], k))  # in the order of masks
    return [
        ((m >> 1) & ~m, tuple(map(neg, (ones - s).to_bytes(n, "little")) if m >> (n - 1) else s.to_bytes(n, "little")))
        for m, s in zip(masks, spreads)
    ]


def trivial_multiplicity(spec: TensorSpec, budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Multiplicity a_0 of the trivial module in the tensor product."""
    zero = DominantWeight.zero(spec.n)
    return tensor_decompose(spec, budget).get(zero, 0)


def _signed_e_row(a: np.ndarray) -> np.ndarray:
    """(1, -e_1, e_2, ..., (-1)^N e_N, 0) of (..., N) eigenvalue rows, on a leading axis.

    The coefficients of prod_i (1 - a_i t), one vector update per eigenvalue; the last 0 is every k outside 0..N."""
    n = a.shape[-1]
    row = np.zeros((n + 2,) + a.shape[:-1], dtype=np.complex128)
    row[0] = 1.0
    for i in range(n):
        row[1 : i + 2] -= a[..., i] * row[: i + 1]
    return row


def elementary_symmetric(arr: np.ndarray) -> np.ndarray:
    """e_1..e_{N-1} of (..., N) eigenvalue arrays, vectorized: an array of shape (..., N-1)."""
    a = np.asarray(arr, dtype=np.complex128)
    e = _signed_e_row(a)[1 : a.shape[-1]]
    np.negative(e[::2], out=e[::2])  # e_k = (-1)^k row[k]: negate odd k
    return np.moveaxis(e, 0, -1)


def _schur(arr: np.ndarray, lams) -> list[np.ndarray]:
    """s_lam at (..., N) eigenvalue rows for each list lam of positive parts, by the smaller Jacobi-Trudi
    matrix (Macdonald I.3.4-5): if lam_1 <= len(lam), (-1)^|lam| det(row[lam'_i - i + j]) on the signed e-row
    row[k] = (-1)^k e_k, lam' the conjugate; else det(h_{lam_i - i + j}), h up to the largest such lam_1 +
    len(lam) - 1 by sum_{i=0..N} (-1)^i e_i h_{r-i} = 0 for r >= 1 (I.2.6').  A 1 x 1 determinant is its
    entry, a 2 x 2 one a00 a11 - a01 a10 (exact at integer points), a larger one LAPACK's.  A row's bits
    do not depend on its batch: products are array ops (a lone row's two 2 x 2 products one array), each
    h step's N products are added left to right by Python's sum over the leading axis (``.sum(axis=0)``
    adds a lone 1-D row of four or more pairwise), and complex adds are per component."""
    n = arr.shape[-1]
    row = _signed_e_row(arr)
    r_max = max((lam[0] + len(lam) - 1 for lam in lams if lam and lam[0] > len(lam)), default=0)
    if r_max:
        coeffs = -row[n:0:-1]  # (-1)^(i-1) e_i for i = N..1
        # h[n - 1 + r] holds h_r; the n - 1 leading zeros are h_r for r < 0, the last entry 0 any r > r_max
        h = np.zeros((n + r_max + 1,) + arr.shape[:-1], dtype=np.complex128)
        h[n - 1] = 1.0
        for r in range(n, n + r_max):
            terms = coeffs * h[r - n : r]
            h[r] = sum(terms[1:], terms[0])
    out = []
    for lam in lams:
        e_form = not lam or lam[0] <= len(lam)
        src, top = (row, n) if e_form else (h[n - 1 :], r_max)
        parts = [sum(v > i for v in lam) for i in range(lam[0] if lam else 0)] if e_form else lam
        k = [[v - i + j if 0 <= v - i + j <= top else -1 for j in range(len(parts))] for i, v in enumerate(parts)]
        if len(k) > 2:
            value = np.linalg.det(np.moveaxis(src[k], (0, 1), (-2, -1)))
        elif len(k) == 2:
            prods = src[[k[0][0], k[0][1]]] * src[[k[1][1], k[1][0]]]
            value = prods[0] - prods[1]
        else:
            value = src[k[0][0]] if k else row[0]  # row[0] = 1, the empty determinant
        out.append(0 - value if e_form and sum(lam) & 1 else value)  # 0 - value gives no -0j
    return out


def eval_char(mu: DominantWeight, alphas) -> np.ndarray:
    """Schur polynomial s_mu at the eigenvalue tuple(s) alphas.

    Vectorized over leading axes: alphas of shape (..., N) gives a result
    of shape (...).  The smaller Jacobi-Trudi determinant (``_schur``); e_N is
    the product of the eigenvalues, so values off SU(N) are right too.
    """
    arr = np.asarray(alphas, dtype=np.complex128)
    if arr.shape[-1] != mu.n:
        raise ValueError(f"expected last axis of length {mu.n}, got shape {arr.shape}")
    if not arr.all():
        raise ValueError("zero eigenvalue in character evaluation")
    return _schur(arr, [[p for p in mu.parts if p > 0]])[0]


def dominant_part_sum(spec: TensorSpec, p: int, alpha: float) -> float:
    """Sum of product-table coefficients c_w at dominant weights w, weighted p^(alpha*|l|)."""
    return _weighted_part_sum(_dominant_coefficients(spec), p, alpha)


def _dominant_coefficients(spec: TensorSpec) -> dict[tuple[int, ...], int]:
    """c_w = sum_lam a_lam K_{lam,w} at each dominant weight w, from the Pieri multiplicities
    and the branching-rule tables; an upper bound for the decomposition multiplicities."""
    coeffs: dict[tuple[int, ...], int] = {}
    for lam, a in tensor_decompose(spec).items():
        for w, k in weight_table(lam).terms.items():
            if all(map(ge, w, w[1:])):
                coeffs[w] = coeffs.get(w, 0) + a * k
    return coeffs


def _weighted_part_sum(coeffs: dict[tuple[int, ...], int], p: int, alpha: float) -> float:
    """sum_w c_w p^(alpha*|l|), |l| = w[0] for a canonical dominant w.  Summed by
    math.fsum, so the value depends only on the integer coefficients."""
    return math.fsum(c * float(p) ** (alpha * w[0]) for w, c in coeffs.items())


def specialization_bound_n3(spec: TensorSpec, p: int, alpha: float) -> float:
    """(p^alpha + 1 + p^{-alpha})^(total degree); closed-form bound, N=3 only."""
    if spec.n != 3:
        raise ValueError(f"closed-form bound requires N=3, got N={spec.n}")
    x = float(p) ** alpha
    return (x + 1.0 + 1.0 / x) ** spec.degree
