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
- ``eval_char_bialternant`` evaluates a Schur polynomial as a ratio of
  alternants (distinct eigenvalues only);
- ``monomial_by_complex_power`` evaluates a spec's character monomial as
  ``e**i * conj(e)**i'`` column by column, with numpy's complex power;
- ``sample_st_rejection`` draws SU(2) or SU(3) conjugacy classes by
  rejection against the Weyl density;
- ``family_from_dict_per_member`` loads a family document one member at a
  time, canonicalising and coherence-checking each member before the next.
"""

import itertools
import math

import numpy as np

from satake_st.characters import (
    DEFAULT_TERM_BUDGET,
    TensorSpec,
    TermBudgetExceeded,
    _canon,
    _schur,
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
    _decimal,
    _is_prime,
    _pair_to_complex,
)
from satake_st.satake import canonicalize, canonicalize_batch
from satake_st.weights import CoefficientIndex, DominantWeight, SpectralParameter, aleph


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
    """Multiplicities a_mu by the iterated Pieri rule, one candidate strip at a time.

    Same budget accounting as ``tensor_decompose``: sum of len(current) *
    C(N, k) over the steps, and the degree checked first.
    """
    n = spec.n
    if spec.degree > budget:
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
    return {DominantWeight(n, lam): c for lam, c in current.items()}


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
    if isinstance(n, bool) or not isinstance(n, int):
        raise FamilyValidationError(f"N must be a JSON integer, got {n!r}")
    if n < 2 or not isinstance(raw_members, list):
        raise FamilyValidationError("need N >= 2 and a JSON array of members")
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
