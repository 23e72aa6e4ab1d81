"""Exact characters of SU(N) irreducibles.

Weight multiplicities come from the branching rule in integer arithmetic
(Macdonald I.5.11: peel off one variable over every horizontal strip), built
for dominant weights only; tensor products of fundamental modules are
decomposed by the iterated Pieri rule on partitions, with no weight tables (one
strip table per factor size and call, from row bit masks, filtered by each
partition's tie mask; unchecked result keys).  The trivial multiplicity needs no
decomposition: it is the rectangular Kostka number K_{(N^q),mu} of the factor
sizes mu, a walk of horizontal strips inside the q x N box.  Nor do the bound
sweep's dominant sums: the coefficient of x^w in a product of factors e_k counts
the (0,1)-matrices with row sums the factor sizes and column sums w (Macdonald
I.6), walked over dominant weights one factor at a time, memoised per call and
not cached.  Numeric character values use the smaller Jacobi-Trudi determinant, in the
e_k or in the h_r from them by the h-e duality (finite at coincident eigenvalues, unlike the bialternant ratio).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, eq, neg, sub

import numpy as np

from .weights import DominantWeight, _check_rank, _exact, _store, _unchecked

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
        taken out of its bank need not keep its bits; an estimate is a function of (spec, N, m, seed). Rows of
        eigenvalues (width N) raise: take their e-rows first."""
        if e.shape[-1:] != (self.n - 1,):
            got = f"width {e.shape[-1]}" if e.ndim else f"shape {e.shape}"
            raise ValueError(f"expected e-rows of width {self.n - 1}, got {got}")
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
        return [DominantWeight.fundamental(self.n, k) for k in _factor_sizes(self)]


def _factor_sizes(spec: TensorSpec) -> list[int]:
    """The sizes of the factors e_k of spec's product in exponent order: k per i_k, N - k per i'_k (conj(e_k) = e_{N-k})."""
    n, exps = spec.n, spec.exponents
    return [k for j in range(1, n) for k in [j] * exps[2 * j - 2] + [n - j] * exps[2 * j - 1]]


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


def _dominant_table(parts: tuple[int, ...], memo: dict) -> dict:
    """Dominant weight multiplicities K_{lam,w} of the irreducible with highest weight parts.

    Branching rule (Macdonald I.5.11): s_lam(x_1..x_k) is the sum of
    s_mu(x_1..x_{k-1}) x_k^(|lam|-|mu|) over the mu interlacing lam,
    lam_{i+1} <= mu_i <= lam_i.  A dominant w comes only from a dominant entry
    of a mu table that ends at or above w_k, so only those entries are built,
    on full weight coordinates.  Sub-tables are memoised in the caller's memo.
    """
    if len(parts) < 2:
        return {parts: 1}
    if parts not in memo:
        out = memo[parts] = {}
        ranges = [range(lo, hi + 1) for hi, lo in zip(parts, parts[1:])]
        for mu in itertools.product(*ranges):
            last = (sum(parts) - sum(mu),)
            for w, m in _dominant_table(mu, memo).items():
                if w[-1] >= last[0]:
                    out[w + last] = out.get(w + last, 0) + m
    return memo[parts]


def weight_table(mu: DominantWeight, budget: int = DEFAULT_TERM_BUDGET) -> CharacterTable:
    """Exact weight multiplicities of the irreducible with highest weight mu: its dominant
    entries w by the branching rule, keyed by w - w[-1] and each spread over its distinct
    permutations; a new table per call.  Asserts that the mass, sum_w K_{mu,w} |W.w|, is dim(mu)."""
    est = dim(mu)
    if est > budget:
        raise TermBudgetExceeded(f"weight table of {mu.parts} has {est} weights (budget {budget})")
    terms = {}
    for w, m in _dominant_table(mu.parts, {}).items():
        perms = [()]  # each entry of w goes in only left of its first copy placed, so no arrangement repeats
        for x in (c - w[-1] for c in w):
            perms = [p[:i] + (x,) + p[i:] for p in perms for i in range((p + (x,)).index(x) + 1)]
        terms.update(dict.fromkeys(perms, m))
    assert sum(terms.values()) == est
    return CharacterTable(mu.n, terms)


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
    for k in _factor_sizes(spec):
        tried += len(current) * math.comb(n, k)
        if tried > budget:
            raise TermBudgetExceeded(f"Pieri steps with {tried} candidate strips in total exceed budget {budget}")
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
    return {_unchecked(DominantWeight, n, lam): c for lam, c in current.items()}


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
    """Multiplicity a_0 of the trivial module in the tensor product, the Haar moment of the spec's monomial.

    With mu the factor sizes, e_mu = sum_lam K_{lam',mu} s_lam (Macdonald I.6), and s_lam is trivial on SU(N) only at
    lam = (q^N); so a_0 = K_{(N^q),mu} if |mu| = qN, else 0: the chains of horizontal strips of sizes mu, in any order,
    from the empty partition to (N^q).  They are walked over a dict of partitions in the q x N box (row-length
    multiplicities), largest strip first, for the spec or its conjugate (sizes N - k), whichever has the smaller q.
    The budget bounds the strips tried, summed over all steps; a degree above it fails before any is tried."""
    n = spec.n
    if spec.degree > budget:
        raise TermBudgetExceeded(f"degree {spec.degree} exceeds budget {budget}")
    sizes = _factor_sizes(spec)
    q, rest = divmod(sum(sizes), n)
    if rest:
        return 0
    if 2 * q > len(sizes):
        sizes, q = [n - k for k in sizes], len(sizes) - q
    current, tried = {(q,) + (0,) * n: 1}, 0
    for k in sorted(sizes, reverse=True):
        out: dict[tuple[int, ...], int] = {}
        for lam, c in current.items():
            strips = _horizontal_strips(lam, k)
            tried += len(strips)
            if tried > budget:
                raise TermBudgetExceeded(f"rectangle walk with {tried} strips tried in total exceeds budget {budget}")
            for nu in strips:
                out[nu] = out.get(nu, 0) + c
        current = out
    return current.get((0,) * n + (q,), 0)


def _horizontal_strips(m: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Each lam + a horizontal k-strip inside the box of width len(m) - 1, lam and each result as row-length
    multiplicities (m[v] rows of length v).  A strip grows only the top row of each block of equal rows, from v to at
    most the old length above it (the width, for the longest block); so the blocks from one on take at most above -
    (the shortest length) boxes, and no branch of the search ends empty."""
    nu, out = list(m), []
    lengths = [*itertools.compress(range(len(m) - 1, -1, -1), reversed(m))]  # longest first

    def grow(first: int, k: int):
        for b in range(first, len(lengths)):
            v, above = lengths[b], lengths[b - 1] if b else len(m) - 1
            if above - lengths[-1] < k:
                break
            for d in range(max(1, k - v + lengths[-1]), min(above - v, k) + 1):
                nu[v], nu[v + d] = nu[v] - 1, nu[v + d] + 1  # the top row of length v grows by d
                if d < k:
                    grow(b + 1, k - d)
                else:
                    out.append(tuple(nu))
                nu[v], nu[v + d] = nu[v] + 1, nu[v + d] - 1

    grow(0, k)
    return out


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
    if a.ndim == 0:
        raise ValueError(f"expected eigenvalue rows (..., N), got shape {a.shape}")
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
    return _schur(_eigenvalue_rows(alphas, mu.n), [[p for p in mu.parts if p > 0]])[0]


def _eigenvalue_rows(alphas, n: int) -> np.ndarray:
    """alphas as complex rows (..., n) with no zero entry, as a character value needs."""
    arr = np.asarray(alphas, dtype=np.complex128)
    if arr.shape[-1:] != (n,):
        raise ValueError(f"expected last axis of length {n}, got shape {arr.shape}")
    if not arr.all():
        raise ValueError("zero eigenvalue in character evaluation")
    return arr


def _dominant_coefficients(spec: TensorSpec, memo: dict) -> dict[tuple[int, ...], int]:
    """c_w, the coefficient of x^w in the product of the factors e_k (k per i_k, N - k per i'_k), keyed by w - w[-1]
    at each dominant w: the number of (0,1)-matrices with row sums the factor sizes and column sums w (Macdonald I.6).
    A walk over dominant full weights, sizes sorted: a step of size k maps c to c'(v) = sum_eps c(sort(v - eps)) over
    the 0/1 vectors eps of weight k, at each v = sort(u + eps).  The caller's memo keeps each size prefix's state and
    each size tuple's result.  The budget bounds len(state) * C(N, k) summed over all steps, memoised or not, so a
    degree above it fails before the first step."""
    n = spec.n
    if spec.degree > DEFAULT_TERM_BUDGET:
        raise TermBudgetExceeded(f"degree {spec.degree} exceeds budget {DEFAULT_TERM_BUDGET}")
    sizes = tuple(sorted(_factor_sizes(spec)))
    state, tried = {(0,) * n: 1}, 0
    for i, k in enumerate(sizes, 1):
        tried += len(state) * math.comb(n, k)
        if tried > DEFAULT_TERM_BUDGET:
            raise TermBudgetExceeded(f"walk steps with {tried} candidate vectors in total exceed budget {DEFAULT_TERM_BUDGET}")
        if (n, sizes[:i]) not in memo:
            eps = [tuple(int(r in rows) for r in range(n)) for rows in itertools.combinations(range(n), k)]
            targets = {tuple(sorted(map(add, u, e), reverse=True)) for u in state for e in eps}
            memo[n, sizes[:i]] = {v: sum(state.get(tuple(sorted(map(sub, v, e), reverse=True)), 0) for e in eps)
                                  for v in targets}
        state = memo[n, sizes[:i]]
    if (n, sizes, "canonical") not in memo:  # e_k and conj(e_{N-k}) have the same size, so specs share results
        memo[n, sizes, "canonical"] = {tuple(c - w[-1] for c in w): m for w, m in state.items()}
    return memo[n, sizes, "canonical"]
