"""Weighted spectral-family statistics.

A family is a finite stand-in for a cuspidal spectrum: spectral
parameters, adjoint L-value weights, and per-prime Satake parameters
and/or coefficient tables.  The weighted average of a test function over
the family is the statistic whose large-family limit is the
conjugacy-class integral.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .characters import TensorSpec, _schur, trivial_multiplicity
from .satake import SatakeParameter, canonicalize, canonicalize_batch, elementary_symmetric
from .sampling import RngSeed, perturb_radial, sample_st_batch
from .weights import CoefficientIndex, SpectralParameter, aleph, laplace_eigenvalue, laplace_eigenvalues

__all__ = [
    "TestFunctionH",
    "FamilyMember",
    "Family",
    "FamilyValidationError",
    "h_eval",
    "weight",
    "l_functional",
    "weighted_stat",
    "synth_family",
    "equidist_report",
    "EquidistRow",
    "load_family",
    "save_family",
    "family_to_dict",
    "family_from_dict",
]

CS_COHERENCE_TOL = 1e-6
MAX_INDEX_DEGREE = 1000  # largest |l| = l_1 + ... + l_{N-1} of a stored coefficient


class FamilyValidationError(ValueError):
    """A family file or member violates the ingestion contract."""


@dataclass(frozen=True)
class TestFunctionH:
    """Non-negative bounded test function of the spectral parameter.

    kind 'gaussian': exp(-Re lambda(nu) / T^2); kind 'indicator':
    1 on Re lambda(nu) <= T^2 (closed); kind 'custom-table': linear
    interpolation of (xs, ys) sampled against Re lambda(nu) / T^2.
    """

    __test__ = False  # keep pytest from collecting the Test* name

    kind: str
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("gaussian", "indicator", "custom-table"):
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if self.kind == "custom-table":
            if len(self.xs) != len(self.ys) or len(self.xs) < 2:
                raise ValueError("custom-table needs matching xs/ys with >= 2 points")
            if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
                raise ValueError("custom-table xs must be strictly increasing")
            if any(y < 0 for y in self.ys):
                raise ValueError("custom-table values must be non-negative")

    @classmethod
    def gaussian(cls) -> "TestFunctionH":
        return cls("gaussian")

    @classmethod
    def indicator(cls) -> "TestFunctionH":
        return cls("indicator")

    @classmethod
    def from_table(cls, xs, ys) -> "TestFunctionH":
        return cls("custom-table", tuple(float(x) for x in xs), tuple(float(y) for y in ys))

    def evaluate(self, lam: np.ndarray, t: float) -> np.ndarray:
        """The function at a finite scale t >= 1 on an array of Re lambda(nu)."""
        if not 1 <= t < math.inf:
            raise ValueError(f"scale must be finite and >= 1, got {t}")
        if self.kind == "gaussian":
            return np.exp(-lam / (t * t))
        if self.kind == "indicator":
            return np.where(lam <= t * t, 1.0, 0.0)
        return np.interp(lam / (t * t), self.xs, self.ys)


def h_eval(h: TestFunctionH, nu: SpectralParameter, t: float) -> float:
    """Evaluate the test function at scale t >= 1."""
    return float(h.evaluate(laplace_eigenvalue(nu).real, t))


@dataclass(frozen=True)
class FamilyMember:
    """One spectral datum: nu, adjoint L-value, optional local data."""

    nu: SpectralParameter
    l1_adjoint: float
    coefficients: dict | None = None  # CoefficientIndex -> complex
    satake: dict | None = None  # prime -> SatakeParameter

    def __post_init__(self):
        if not (math.isfinite(self.l1_adjoint) and self.l1_adjoint > 0):
            raise FamilyValidationError(
                f"adjoint L-value weight must be finite and positive, got {self.l1_adjoint}"
            )
        if self.coefficients is not None:
            zero = CoefficientIndex.zero(self.nu.n)
            c0 = self.coefficients.get(zero)
            if c0 is not None and abs(c0 - 1.0) > 1e-9:
                raise FamilyValidationError(
                    f"coefficient at the zero index must be 1, got {c0}"
                )

    def satake_at(self, p: int) -> SatakeParameter:
        if self.satake is None or p not in self.satake:
            raise FamilyValidationError(f"member has no Satake parameter at p={p}")
        return self.satake[p]


@dataclass(frozen=True)
class Family:
    n: int
    members: tuple[FamilyMember, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for mem in self.members:
            if mem.nu.n != self.n:
                raise ValueError("all members must share the family rank")

    def __len__(self) -> int:
        return len(self.members)


def weight(member: FamilyMember, h: TestFunctionH, t: float) -> float:
    """Member weight: h_T(nu) / L(1, Ad)."""
    return h_eval(h, member.nu, t) / member.l1_adjoint


def weighted_stat(values: np.ndarray, weights: np.ndarray) -> tuple[complex, float]:
    """Weighted mean and its linearized standard error."""
    values = np.asarray(values, dtype=np.complex128)
    weights = np.asarray(weights, dtype=float)
    # summing numerator and denominator in the same dtype keeps the mean of a
    # constant integrand exact
    wc = weights.astype(np.complex128)
    total = wc.sum()
    if not total.real > 0:
        raise FamilyValidationError("all member weights vanish")
    # divide as Python complex: numpy's complex scalar division is inexact
    # even for equal operands, and a constant integrand must average to 1
    mean = complex((values * wc).sum()) / complex(total)
    se = math.sqrt(float((weights**2 * np.abs(values - mean) ** 2).sum())) / total.real
    return mean, se


def _weight_columns(family: Family, h: TestFunctionH, t_grid) -> list[np.ndarray]:
    """The weight of every member, one array per scale in t_grid."""
    lam = laplace_eigenvalues(family.n, [mem.nu.nu for mem in family.members]).real
    l1 = np.array([mem.l1_adjoint for mem in family.members], dtype=float)
    return [h.evaluate(lam, float(t)) / l1 for t in t_grid]


def _e_columns(family: Family, p: int) -> np.ndarray:
    """(m, N-1) columns of e_k at p: from each member's Satake parameter at p,
    else from its stored A[k] = e_k, with NaN for an A[k] it lacks."""
    n = family.n
    units = [CoefficientIndex.unit(n, n - k) for k in range(1, n)]  # A[k]: p in slot N-k
    no_satake = (np.nan,) * n
    alphas = [mem.satake[p].alphas if mem.satake and p in mem.satake else no_satake for mem in family.members]
    e = elementary_symmetric(np.array(alphas, dtype=np.complex128).reshape(-1, n))
    for i in np.flatnonzero(np.isnan(e[:, 0])):
        e[i] = [(family.members[i].coefficients or {}).get(idx, np.nan) for idx in units]
    return e


def _spec_values(spec: TensorSpec, e: np.ndarray, p: int) -> np.ndarray:
    """The spec's monomial on every row of e; NaN marks a member lacking an A[k] it uses."""
    if spec.n != e.shape[1] + 1:
        raise ValueError("spec rank does not match family rank")
    vals = spec.monomial(e)
    lacking = np.flatnonzero(np.isnan(vals))
    if lacking.size:
        raise FamilyValidationError(f"member {lacking[0]}: no Satake parameter at p={p} and a missing A[k]")
    return vals


def l_functional(
    family: Family, p: int, f, h: TestFunctionH, t: float
) -> complex:
    """Weighted family average of f at the prime p.

    f is either a callable on SatakeParameter or a TensorSpec, in which
    case members lacking a Satake parameter at p are evaluated through
    their stored A[k], and need one for every k with i_k or i'_k nonzero.
    """
    if len(family) == 0:
        raise FamilyValidationError("empty family")
    (weights,) = _weight_columns(family, h, [t])
    if isinstance(f, TensorSpec):
        vals = _spec_values(f, _e_columns(family, p), p)
    else:
        vals = np.array([f(mem.satake_at(p)) for mem in family.members], dtype=np.complex128)
    mean, _ = weighted_stat(vals, weights)
    return mean


def synth_family(
    n: int,
    m: int,
    mode: str = "sato-tate",
    primes: tuple[int, ...] = (2,),
    seed: int = 0,
) -> Family:
    """Synthetic family with Satake data drawn from the Haar class measure.

    'sato-tate' members sit on the unit torus; 't1-perturbed' members get
    radial noise capped so each |alpha_i| stays within p^{1/2}.  Spectral
    parameters are purely imaginary on an integer grid; adjoint L-values
    are log-uniform in [0.1, 10].
    """
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
    if m < 1:
        raise ValueError("family size must be >= 1")
    if mode not in ("sato-tate", "t1-perturbed"):
        raise ValueError(f"unknown synthesis mode {mode!r}")
    rng = RngSeed(seed).generator()

    grid_side = max(2, math.ceil(m ** (1.0 / (n - 1))))
    # member j sits at 1 + the base-grid_side digits of j, least significant first
    nus = (1j * (1 + np.arange(m)[:, None] // grid_side ** np.arange(n - 1) % grid_side)).tolist()
    members = []
    banks = {p: sample_st_batch(n, m, rng) for p in primes}
    if mode == "t1-perturbed":
        banks = {p: perturb_radial(bank, p, rng) for p, bank in banks.items()}
    banks = {p: canonicalize_batch(bank).tolist() for p, bank in banks.items()}
    l1 = 10.0 ** rng.uniform(-1.0, 1.0, size=m)

    for j in range(m):
        nu = SpectralParameter(n, nus[j])
        satake = {p: SatakeParameter(n, banks[p][j]) for p in primes}
        members.append(FamilyMember(nu=nu, l1_adjoint=float(l1[j]), satake=satake))
    return Family(n=n, members=tuple(members), label=f"synthetic-{mode}")


@dataclass(frozen=True)
class EquidistRow:
    spec: TensorSpec
    t: float
    estimate: complex
    std_error: float
    oracle: int
    gl3_bound: float | None

    @property
    def difference(self) -> float:
        return abs(self.estimate - self.oracle)


def equidist_report(
    family: Family,
    p: int,
    specs: list[TensorSpec],
    h: TestFunctionH,
    t_grid,
) -> list[EquidistRow]:
    """Weighted statistic vs. exact moment for each spec and scale; a member
    without a Satake parameter at p needs a stored A[k] for every k some spec uses."""
    from .bounds import THETA_DEFAULT, Gl3BoundParams, convergence_error

    weight_columns = _weight_columns(family, h, t_grid)
    e = _e_columns(family, p)
    rows = []
    for spec in specs:
        oracle = trivial_multiplicity(spec)
        vals = _spec_values(spec, e, p)
        for t, weights in zip(t_grid, weight_columns):
            mean, se = weighted_stat(vals, weights)
            bound = None
            if family.n == 3:
                p_big = float(p) ** spec.degree
                bound = convergence_error(t, p_big, THETA_DEFAULT, Gl3BoundParams.eps)
            rows.append(
                EquidistRow(
                    spec=spec, t=float(t), estimate=mean, std_error=se,
                    oracle=oracle, gl3_bound=bound,
                )
            )
    return rows


# --- family (de)serialization ------------------------------------------------

_TOP_KEYS = {"N", "label", "members"}
# member fields and the JSON type each must have; L1Ad may be a number or a numeric string.
# A JSON true/false is a Python bool, hence an int, and is rejected separately.
_MEMBER_KEYS = {"nu": list, "L1Ad": (int, float, str), "coefficients": dict, "satake": dict}


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


def _decimal(text: str) -> int:
    """The integer spelled by a key in canonical decimal form (no sign, space or leading 0)."""
    if not re.fullmatch(r"0|[1-9][0-9]*", text):
        raise FamilyValidationError(f"key part {text!r} is not a canonical decimal integer")
    return int(text)


def _pair_to_complex(pair) -> complex:
    numbers = isinstance(pair, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
    if numbers and len(pair) == 2:
        z = complex(float(pair[0]), float(pair[1]))
        if cmath.isfinite(z):
            return z
    raise FamilyValidationError(f"expected a finite [re, im] pair, got {pair!r}")


def family_from_dict(data: dict) -> Family:
    """Parse and validate the family JSON document."""
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
            if residual > CS_COHERENCE_TOL:
                raise FamilyValidationError(
                    f"coefficient {idx.l} incoherent with the "
                    f"parameter at p={p} (residual {residual:.3g})"
                )


def family_to_dict(family: Family) -> dict:
    out_members = []
    for mem in family.members:
        raw = {
            "nu": [[v.real, v.imag] for v in mem.nu.nu],
            "L1Ad": mem.l1_adjoint,
        }
        if mem.coefficients is not None:
            raw["coefficients"] = {
                ",".join(str(v) for v in idx.l): [c.real, c.imag]
                for idx, c in mem.coefficients.items()
            }
        if mem.satake is not None:
            raw["satake"] = {
                str(p): [[a.real, a.imag] for a in x.alphas]
                for p, x in mem.satake.items()
            }
        out_members.append(raw)
    return {"N": family.n, "label": family.label, "members": out_members}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a repeated key raises (plain json keeps the last value)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        repeated = Counter(k for k, _ in pairs).most_common(1)[0][0]
        raise FamilyValidationError(f"duplicate key {repeated!r} in a JSON object")
    return obj


def load_family(path) -> Family:
    with open(path) as fh:
        return family_from_dict(json.load(fh, object_pairs_hook=_unique_keys))


def save_family(family: Family, path) -> None:
    with open(path, "w") as fh:
        json.dump(family_to_dict(family), fh)
