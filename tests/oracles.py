"""Independent reference implementations the library is checked against.

None of these is used by the library itself:

- ``freudenthal_weight_table`` computes the weight multiplicities of an
  irreducible by Freudenthal's recursion over dominant weights, extended
  by Weyl symmetry;
- ``peel_decompose`` decomposes a tensor product by highest-weight peeling
  against the exact weight-multiplicity product table;
- ``strip_by_strip_pieri`` decomposes a tensor product by the iterated
  Pieri rule, building every candidate strip as a tuple and testing the sum
  for dominance (the library's loop before its strip tables and tie masks);
  ``strip_by_strip_pieri_total`` also reports its total of candidate strips;
- ``strip_table_by_combinations`` builds the library's table of vertical
  strips from one 0/1 list per combination of rows, as a row mask and a
  tuple (its form before packed fields; tests decode the packed table);
- ``haar_moment_by_matrix_count`` gives the Haar moment of a spec whose
  plain and conjugate box-degrees are equal and at most N as a count of
  non-negative integer matrices (the library walks rectangular Kostka
  numbers instead);
- ``eval_char_bialternant`` evaluates a Schur polynomial as a ratio of
  alternants (distinct eigenvalues only);
- ``monomial_by_complex_power`` evaluates a spec's character monomial as
  ``e**i * conj(e)**i'`` column by column, with numpy's complex power;
- ``haar_su_varrho_row_major`` is the Szego-recursion draw from a
  row-major (N+1, count) work array with the monic row, then a transposing
  copy (the draw's layout before banks were column-major);
- ``monomial_from_ones`` is ``TensorSpec.monomial`` multiplying each factor
  into a fresh array of ones, and ``mc_estimate_from_bank`` is
  ``mc_integrate``'s mean and standard error by ``mean()`` and three
  temporaries: they pin the bits of the library's leaner forms;
- ``sample_st_rejection`` draws SU(2) or SU(3) conjugacy classes by
  rejection against the Weyl density;
- ``family_from_dict_per_member`` loads a family document one member at a
  time, canonicalising and coherence-checking each member before the next;
- ``b_entry``, ``b_matrix`` and ``langlands_matrix`` tabulate the integer
  matrix L with ell = L @ nu from the b_ij values, column by column;
- ``sample_st``, ``in_T0``, ``in_T1``, ``hecke_check_n3``,
  ``zero_one_coefficients``, ``dominant_part_sum``, ``aleph_inv``,
  ``orthogonality_error`` and ``h_eval`` are scalar conveniences over
  library internals (one draw, the tempered and containment regions, one
  Hecke residual, one spec's dominant coefficients and their weighted sum,
  the inverse index bijection, the orthogonality envelope, one
  test-function value) that only the tests read.
"""

import itertools
import math
from operator import gt

import numpy as np

from satake_st.bounds import _weighted_part_sum
from satake_st.characters import (
    DEFAULT_TERM_BUDGET,
    TensorSpec,
    TermBudgetExceeded,
    _canon,
    _factor_sizes,
    _power,
    _schur,
    _zero_one_step,
    spec_product_table,
    weight_table,
)
from satake_st.families import (
    _MEMBER_KEYS,
    _TOP_KEYS,
    CS_COHERENCE_TOL,
    MAX_INDEX_DEGREE,
    Family,
    FamilyMember,
    FamilyValidationError,
    TestFunctionH,
    _decimal,
    _is_prime,
    _pair_to_complex,
)
from satake_st.sampling import sample_st_batch
from satake_st.satake import SatakeParameter, canonicalize, canonicalize_batch, hecke_residuals_n3
from satake_st.weights import (
    CoefficientIndex,
    DominantWeight,
    SpectralParameter,
    _check_int,
    _check_prime,
    _check_rank,
    aleph,
    laplace_eigenvalue,
)


def _height_key(coords: tuple[int, ...]) -> tuple:
    """Sort key strictly increasing along the dominance order.

    For same-coset weights mu, nu: mu dominates nu implies
    key(mu) > key(nu).  N * sum_k f_k where f_k are the fundamental-weight
    coordinates, kept integral; ties broken lexicographically.
    """
    n = len(coords)
    total = sum(coords)
    height = sum((n - 1 - i) * c * n for i, c in enumerate(coords)) - total * n * (n - 1) // 2
    return (height, coords)


def _dominated_partitions(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Partitions of |lam| into len(lam) non-negative parts dominated by lam."""
    n = len(lam)
    total = sum(lam)
    out = []

    def rec(prefix, remaining, prev, prefix_sum):
        i = len(prefix)
        if i == n - 1:
            last = remaining
            if 0 <= last <= prev:
                out.append(tuple(prefix) + (last,))
            return
        lam_prefix = sum(lam[: i + 1])
        # next part p: p <= prev, prefix_sum + p <= lam_prefix (dominance),
        # and the tail must be fillable: remaining - p <= p * (n - i - 1)
        lo = -(-remaining // (n - i))  # ceil(remaining / slots)
        hi = min(prev, lam_prefix - prefix_sum, remaining)
        for p in range(hi, lo - 1, -1):
            rec(prefix + [p], remaining - p, p, prefix_sum + p)

    rec([], total, total, 0)
    return out


def _orbit(coords: tuple[int, ...]):
    """Distinct permutations of a coordinate tuple."""
    return set(itertools.permutations(coords))


def freudenthal_weight_table(n: int, parts: tuple[int, ...]) -> dict:
    """Full weight multiplicity map of the irreducible with highest weight parts.

    Freudenthal recursion over dominant weights, extended by Weyl symmetry.
    """
    lam = parts
    rho = tuple(range(n - 1, -1, -1))
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    lam_rho_sq = sum(a * a for a in lam_rho)

    pos_roots = []
    for i in range(n):
        for j in range(i + 1, n):
            r = [0] * n
            r[i], r[j] = 1, -1
            pos_roots.append(tuple(r))

    dominants = sorted(_dominated_partitions(lam), key=_height_key, reverse=True)
    mult: dict[tuple[int, ...], int] = {}
    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        acc = 0
        for alpha in pos_roots:
            k = 1
            while True:
                shifted = tuple(m + k * a for m, a in zip(mu, alpha))
                key = tuple(sorted(shifted, reverse=True))
                m_up = mult.get(key, 0)
                if m_up == 0:
                    # weights of V_lam dominated by lam form a saturated set:
                    # once we leave it along alpha we never re-enter
                    break
                acc += m_up * sum(s * a for s, a in zip(shifted, alpha))
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        den = lam_rho_sq - sum(a * a for a in mu_rho)
        assert den > 0 and (2 * acc) % den == 0
        m = 2 * acc // den
        if m:
            mult[mu] = m

    table: dict[tuple[int, ...], int] = {}
    for mu, m in mult.items():
        for w in _orbit(mu):
            table[_canon(w)] = m
    return table


def peel_decompose(spec: TensorSpec, budget: int = DEFAULT_TERM_BUDGET) -> dict:
    """Multiplicities a_mu by highest-weight peeling.

    Repeatedly remove a_w copies of the irreducible table at the
    dominance-maximal surviving weight w of the product table.
    """
    remaining = dict(spec_product_table(spec, budget).terms)
    out = {}
    while remaining:
        w = max(remaining, key=_height_key)
        c = remaining[w]
        # the maximal weight of a W-invariant table is dominant, and its
        # coefficient is a genuine multiplicity
        assert all(x >= y for x, y in zip(w, w[1:])), f"peeled non-dominant weight {w}"
        assert c > 0, f"negative multiplicity {c} at {w}: peeling bug"
        mu = DominantWeight(spec.n, w)
        out[mu] = c
        for wk, mk in weight_table(mu, budget).terms.items():
            new = remaining.get(wk, 0) - c * mk
            if new:
                remaining[wk] = new
            else:
                remaining.pop(wk, None)
    return out


def strip_by_strip_pieri(spec: TensorSpec, budget: int = DEFAULT_TERM_BUDGET) -> dict:
    """Multiplicities a_mu by the iterated Pieri rule, one candidate strip at a time."""
    return strip_by_strip_pieri_total(spec, budget)[0]


def strip_by_strip_pieri_total(spec: TensorSpec, budget: int = DEFAULT_TERM_BUDGET) -> tuple[dict, int]:
    """``strip_by_strip_pieri``'s multiplicities and its total of candidate strips, the least budget it succeeds at.

    Same budget contract as ``tensor_decompose``: the budget checked to be a
    non-negative int, then the degree, then sum of len(current) * C(N, k) over
    the steps (at least twice the degree, as every step tries two strips or more).
    """
    n = spec.n
    if spec.degree > _check_int(budget, "budget"):
        raise TermBudgetExceeded(f"degree {spec.degree} exceeds budget {budget}")
    tried = 0
    current = {(0,) * n: 1}
    for w in spec.factor_weights():
        k = w.size()
        tried += len(current) * math.comb(n, k)
        if tried > budget:
            raise TermBudgetExceeded(
                f"Pieri steps with {tried} candidate strips in total exceed budget {budget}"
            )
        strips = [
            tuple(1 if i in rows else 0 for i in range(n))
            for rows in itertools.combinations(range(n), k)
        ]
        out: dict[tuple[int, ...], int] = {}
        for lam, c in current.items():
            for strip in strips:
                nu = tuple(a + b for a, b in zip(lam, strip))
                if all(x >= y for x, y in zip(nu, nu[1:])):
                    if nu[-1]:
                        nu = tuple(x - 1 for x in nu)
                    out[nu] = out.get(nu, 0) + c
        current = out
    return {DominantWeight(n, lam): c for lam, c in current.items()}, tried


def strip_table_by_combinations(n: int, k: int) -> list:
    """``tensor_decompose``'s (skipped, shift) table of vertical k-strips in n rows, unpacked (a row
    mask and a tuple), built as it was before bit masks: a 0/1 list per combination of rows, its
    skipped mask summed from the rows i where strip[i] < strip[i+1], and the strip less its last
    entry in every row."""
    bits = [1 << i for i in range(n - 1)]
    table = []
    for rows in itertools.combinations(range(n), k):
        strip = [int(i in rows) for i in range(n)]
        skipped = sum(itertools.compress(bits, map(gt, strip[1:], strip)))
        table.append((skipped, tuple(x - strip[-1] for x in strip)))
    return table


def haar_moment_by_matrix_count(spec: TensorSpec) -> int:
    """The Haar moment of spec's monomial as the number of non-negative integer matrices with row sums mu (a part k
    per i_k) and column sums nu (a part k per i'_k), for a spec with |mu| = |nu| <= N; any other spec raises.

    Then every s_lam in e_mu = sum K_{lam',mu} s_lam has at most N rows and size |mu|, so the s_lam stay orthonormal
    on SU(N), and the moment <e_mu, e_nu> = <h_mu, h_nu> counts those matrices (RSK; P. Diaconis and A. Gamburd,
    Electron. J. Combin. 11(2), 2004).  Rows are filled one at a time, memoised on the sorted column sums left.
    """
    mu = [k for k in range(1, spec.n) for _ in range(spec.plain(k))]
    nu = [k for k in range(1, spec.n) for _ in range(spec.conjugate(k))]
    if sum(mu) != sum(nu) or sum(mu) > spec.n:
        raise ValueError(f"box-degrees {sum(mu)} and {sum(nu)} are not equal and at most N={spec.n}")
    memo = {}

    def fillings(total, caps):
        if not caps:
            yield from [()] if not total else []
            return
        for x in range(max(0, total - sum(caps[1:])), min(caps[0], total) + 1):
            for rest in fillings(total - x, caps[1:]):
                yield (x,) + rest

    def count(row, cols):
        if row == len(mu):
            return 1
        if (row, cols) not in memo:
            memo[row, cols] = sum(
                count(row + 1, tuple(sorted(c - x for c, x in zip(cols, filling)))) for filling in fillings(mu[row], cols)
            )
        return memo[row, cols]

    return count(0, tuple(sorted(nu)))


def eval_char_bialternant(mu: DominantWeight, alphas):
    """Ratio-of-alternants evaluation of s_mu; valid only for distinct eigenvalues."""
    arr = np.asarray(alphas, dtype=np.complex128)
    n = mu.n
    exps_num = np.array([mu.parts[i] + n - 1 - i for i in range(n)])
    exps_den = np.arange(n - 1, -1, -1)
    num = np.linalg.det(arr[..., :, None] ** exps_num[None, :])
    den = np.linalg.det(arr[..., :, None] ** exps_den[None, :])
    out = num / den
    return complex(out) if out.ndim == 0 else out


def monomial_by_complex_power(spec: TensorSpec, e: np.ndarray) -> np.ndarray:
    """prod_k e_k^{i_k} conj(e_k)^{i'_k}, skipping the columns whose exponents are both 0."""
    out = np.ones(e.shape[:-1], dtype=np.complex128)
    for k, (ik, ikp) in enumerate(zip(spec.exponents[::2], spec.exponents[1::2])):
        if ik:
            out = out * e[..., k] ** ik
        if ikp:
            out = out * np.conj(e[..., k]) ** ikp
    return out


def haar_su_varrho_row_major(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The draw of ``sampling._haar_su_varrho`` from a row-major work array, C-ordered."""
    radius = np.sqrt([rng.random((n - 1 - k, count)).min(axis=0) for k in range(n - 1)])
    theta = 2 * np.pi * rng.random((n - 1, count))
    a = np.concatenate([(np.cos(theta) + 1j * np.sin(theta)) * radius, np.full((1, count), -1.0 + 0j)])
    # phi[j] is the coefficient of z^(k-j) in Phi_k; Phi_k^* has them reversed and conjugated
    phi = np.zeros((n + 1, count), dtype=np.complex128)
    phi[0] = 1.0
    tmp = np.empty((n, count), dtype=np.complex128)
    for k in range(n):
        term = np.multiply(a[k], phi[k::-1], out=tmp[: k + 1])
        phi[1 : k + 2] -= np.conjugate(term, out=term)
    return phi[1:n].T.copy()


def monomial_from_ones(spec: TensorSpec, e: np.ndarray) -> np.ndarray:
    """``spec.monomial(e)``, each factor multiplied into a product that starts from ones."""
    out = np.ones(e.shape[:-1], dtype=np.complex128)
    for k, (ik, ikp) in enumerate(zip(spec.exponents[::2], spec.exponents[1::2])):
        col = e[..., k]
        if min(ik, ikp):
            out *= _power(col.real * col.real + col.imag * col.imag, min(ik, ikp))
        if ik != ikp:
            out *= _power(col if ik > ikp else np.conj(col), abs(ik - ikp))
    return out


def mc_estimate_from_bank(spec: TensorSpec, bank: np.ndarray) -> tuple[complex, float]:
    """Mean and standard error of ``monomial_from_ones`` over the rows of bank, as ``mc_integrate`` forms them."""
    vals = monomial_from_ones(spec, bank)
    m = len(vals)
    mean = vals.mean()
    dev = vals - mean
    return complex(mean), math.sqrt(float(np.sum(dev.real * dev.real + dev.imag * dev.imag)) / (m * (m - 1)))


def sample_st_rejection(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Cross-check sampler for n <= 3: rejection against the Weyl density.

    Eigenphase tuples are proposed uniformly on the determinant-1 torus and
    accepted with probability proportional to the squared Vandermonde of
    the eigenvalues.
    """
    if n not in (2, 3):
        raise ValueError("rejection sampler implemented for n in {2, 3} only")
    rows = []
    have = 0
    while have < count:
        batch = max(count - have, 1) * 4
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(batch, n - 1))
        eigs = np.exp(1j * np.concatenate([theta, -theta.sum(axis=1, keepdims=True)], axis=1))
        vand = np.ones(batch)
        for i in range(n):
            for j in range(i + 1, n):
                vand *= np.abs(eigs[:, i] - eigs[:, j]) ** 2
        cap = 4.0 if n == 2 else 27.0  # max of |Vandermonde|^2 on the torus
        keep = rng.uniform(0.0, cap, size=batch) < vand
        rows.append(eigs[keep])
        have += int(keep.sum())
    return canonicalize_batch(np.concatenate(rows, axis=0)[:count])


def family_from_dict_per_member(data: dict) -> Family:
    """Parse and validate the family JSON document one member at a time."""
    if not isinstance(data, dict):
        raise FamilyValidationError("family document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise FamilyValidationError(f"unknown top-level fields: {sorted(unknown)}")
    try:
        n = data["N"]
        raw_members = data["members"]
    except KeyError as exc:
        raise FamilyValidationError(f"missing required field {exc}") from exc
    if not isinstance(raw_members, list):
        raise FamilyValidationError("members must be a JSON array")
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise FamilyValidationError(f"N must be a JSON integer >= 2, got {n!r}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise FamilyValidationError(f"label must be a JSON string, got {label!r}")
    members = []
    for pos, raw in enumerate(raw_members):
        try:
            members.append(_member_from_dict(raw, n))
        except (ValueError, OverflowError) as exc:  # FamilyValidationError; an integer too large for a float
            raise FamilyValidationError(f"member {pos}: {exc}") from exc
    return Family(n=n, members=tuple(members), label=label)


def _member_from_dict(raw, n: int) -> FamilyMember:
    """One member of the family document; any malformed field raises ValueError."""
    if not isinstance(raw, dict):
        raise FamilyValidationError(f"expected a JSON object, got {raw!r}")
    unknown = set(raw) - set(_MEMBER_KEYS)
    if unknown:
        raise FamilyValidationError(f"unknown fields {sorted(unknown)}")
    missing = sorted({"nu", "L1Ad"} - set(raw))
    if missing:
        raise FamilyValidationError(f"missing fields {missing}")
    wrong = sorted(key for key, kind in _MEMBER_KEYS.items()
                   if key in raw and (isinstance(raw[key], bool) or not isinstance(raw[key], kind)))
    if wrong:
        raise FamilyValidationError(f"wrong JSON type for {wrong}")
    nu = SpectralParameter(n, tuple(_pair_to_complex(v) for v in raw["nu"]))
    coeffs = None
    if "coefficients" in raw:
        coeffs = {}
        for key, pair in raw["coefficients"].items():
            l = tuple(_decimal(v) for v in key.split(","))
            if sum(l) > MAX_INDEX_DEGREE:
                raise FamilyValidationError(f"coefficient index {key!r}: |l| = {sum(l)} exceeds {MAX_INDEX_DEGREE}")
            coeffs[CoefficientIndex(n, l)] = _pair_to_complex(pair)
    satake = None
    if "satake" in raw:
        satake = {}
        for key, vec in raw["satake"].items():
            p = _decimal(key)
            if not _is_prime(p):
                raise FamilyValidationError(f"key {key!r} is not prime")
            if not (isinstance(vec, list) and len(vec) == n):
                raise FamilyValidationError(f"p={p}: expected a list of {n} pairs")
            try:
                satake[p] = canonicalize([_pair_to_complex(v) for v in vec])
            except ValueError as exc:
                raise FamilyValidationError(f"p={p}: {exc}") from exc
    member = FamilyMember(nu=nu, l1_adjoint=float(raw["L1Ad"]), coefficients=coeffs, satake=satake)
    _check_member_coherence(member)
    return member


def _check_member_coherence(member: FamilyMember) -> None:
    """Coefficients must match the character values of every stored parameter
    (``coefficient(x, idx)``, with one h recurrence per parameter for all keys)."""
    if member.coefficients is None or member.satake is None:
        return
    lams = [[v for v in aleph(idx).parts if v > 0] for idx in member.coefficients]
    for p, x in member.satake.items():
        for (idx, val), s_lam in zip(member.coefficients.items(), _schur(x.as_array(), lams)):
            residual = abs(val - complex(s_lam))
            if not residual <= CS_COHERENCE_TOL:
                raise FamilyValidationError(
                    f"coefficient {idx.l} incoherent with the "
                    f"parameter at p={p} (residual {residual:.3g})"
                )


def b_entry(i: int, j: int, n: int) -> int:
    """b_ij = ij when i+j <= N, else (N-i)(N-j)."""
    _check_rank(n)
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise ValueError(f"indices must be in 1..{n - 1}, got ({i}, {j})")
    if i + j <= n:
        return i * j
    return (n - i) * (n - j)


def b_matrix(n: int) -> np.ndarray:
    """The (N-1)x(N-1) integer matrix of b_entry values, by broadcasting."""
    _check_rank(n)
    i = np.arange(1, n, dtype=np.int64)
    return np.where(i[:, None] + i <= n, np.outer(i, i), np.outer(n - i, n - i))


def langlands_matrix(n: int) -> np.ndarray:
    """Integer matrix L with ell = L @ nu; every column of L sums to 0 exactly."""
    b = b_matrix(n)
    rows = np.empty((n, n - 1), dtype=np.int64)
    rows[0] = b[:, n - 2]  # B_{N-1}
    for i in range(2, n):
        rows[i - 1] = b[:, n - i - 1] - b[:, n - i]  # B_{N-i} - B_{N-i+1}
    rows[n - 1] = -b[:, 0]  # -B_1
    return rows


def sample_st(n: int, rng: np.random.Generator) -> SatakeParameter:
    """One draw from the conjugacy-class measure of SU(n)."""
    row = sample_st_batch(n, 1, rng)[0]
    return SatakeParameter(n, tuple(row))


def in_T0(x: SatakeParameter, tol: float = 1e-9) -> bool:
    """True iff every |alpha_i| lies in the closed band [1 - tol, 1 + tol]."""
    mods = np.abs(x.as_array())
    return bool(np.all(mods >= 1.0 - tol) and np.all(mods <= 1.0 + tol))


def in_T1(x: SatakeParameter, p: int, refined: bool = False) -> bool:
    """True iff every |alpha_i| <= p^{1/2} (or the refined exponent)."""
    exponent = 0.5 - (1.0 / (x.n**2 + 1) if refined else 0.0)
    bound = float(_check_prime(p)) ** exponent
    return bool(np.all(np.abs(x.as_array()) <= bound))


def hecke_check_n3(x: SatakeParameter) -> float:
    """Residual of the degree-2 Hecke identity A(1,p)A(p,1) = A(p,p) + 1."""
    return float(hecke_residuals_n3(x.as_array()))


def zero_one_coefficients(spec: TensorSpec) -> dict:
    """The product table's c_w at each dominant w, keyed by w - w[-1]: one ``_zero_one_step`` per factor of spec, in
    exponent order (the sweep steps sizes 1 then 2)."""
    state = {(0,) * spec.n: 1}
    for k in _factor_sizes(spec):
        state = _zero_one_step(state, spec.n, k)
    return {_canon(w): c for w, c in state.items()}


def dominant_part_sum(spec: TensorSpec, p: int, alpha: float) -> float:
    """Sum of product-table coefficients c_w at dominant weights w, weighted p^(alpha*|l|), for p > 1."""
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p!r}")
    return _weighted_part_sum(zero_one_coefficients(spec), p, alpha)


def aleph_inv(mu: DominantWeight) -> CoefficientIndex:
    """Inverse of :func:`aleph`: successive differences read from the tail."""
    n = mu.n
    l = tuple(mu.parts[n - k - 1] - mu.parts[n - k] for k in range(1, n))
    return CoefficientIndex(n, l)


def orthogonality_error(t: float, p_big: float, theta: float, eps: float) -> float:
    """(T^2 sqrt(P) + T^3 P^theta + P^(5/3)) * (T P)^eps."""
    core = t**2 * math.sqrt(p_big) + t**3 * p_big**theta + p_big ** (5.0 / 3.0)
    return core * (t * p_big) ** eps


def h_eval(h: TestFunctionH, nu: SpectralParameter, t: float) -> float:
    """Evaluate the test function at scale t >= 1."""
    return float(h.evaluate(laplace_eigenvalue(nu).real, t))
