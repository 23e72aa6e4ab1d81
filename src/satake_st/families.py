"""Weighted spectral-family statistics.

A family is a finite stand-in for a cuspidal spectrum: spectral
parameters, adjoint L-value weights, and per-prime Satake parameters
and/or coefficient tables.  The weighted average of a test function over
the family is the statistic whose large-family limit is the
conjugacy-class integral.

A ``Family`` holds that data as read-only columns with one row per member,
built once at construction.  ``Family(n, members)`` and the loader validate
alike and hold canonical Satake parameters.  Every check reads one member, so
they check all members as one batch and, on a fault, check halves again until
one member is left, whose own fault they report as ``member j: ...``;
synthesis writes trusted columns directly, and the writer reads them.
``Family.members`` builds ``FamilyMember`` views of the rows, forming roots as read.

The statistic holds at every N and imports nothing from ``bounds``, whose N=3
envelope reads only the exact algebra; the CLI sets the two side by side.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .characters import TensorSpec, _schur, trivial_multiplicity
from .satake import SatakeParameter, canonicalize_batch, elementary_symmetric
from .sampling import RngSeed, _canonical_roots, _haar_su_varrho, perturb_radial
from .weights import (
    CoefficientIndex, SpectralParameter, _check_prime, _check_scale, _is_prime, _unchecked, aleph, laplace_eigenvalue, laplace_eigenvalues,
)

__all__ = [
    "TestFunctionH",
    "FamilyMember",
    "Family",
    "FamilyValidationError",
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
            if not all(map(math.isfinite, self.xs + self.ys)):
                raise ValueError("custom-table xs and values must be finite")
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
        _check_scale(t)
        if self.kind == "gaussian":
            return np.exp(-lam / (t * t))
        if self.kind == "indicator":
            return np.where(lam <= t * t, 1.0, 0.0)
        return np.interp(lam / (t * t), self.xs, self.ys)


def _check_member(l1_adjoint: float, c0: complex | None) -> None:
    """A member's weight must be finite and positive, its A(0) (c0, if stored) 1."""
    if not (math.isfinite(l1_adjoint) and l1_adjoint > 0):
        raise FamilyValidationError(f"adjoint L-value weight must be finite and positive, got {l1_adjoint}")
    if c0 is not None and abs(c0 - 1.0) > 1e-9:
        raise FamilyValidationError(f"coefficient at the zero index must be 1, got {c0}")


@dataclass(frozen=True)
class FamilyMember:
    """One spectral datum: nu, adjoint L-value, optional local data."""

    nu: SpectralParameter
    l1_adjoint: float
    coefficients: dict | None = None  # CoefficientIndex -> complex
    satake: Mapping | None = None  # prime -> SatakeParameter

    def __post_init__(self):
        c0 = None
        if self.coefficients is not None and isinstance(self.nu, SpectralParameter):  # else Family rejects nu
            n = self.nu.n  # checked when nu was built, so the zero index needs no check
            c0 = self.coefficients.get(_unchecked(CoefficientIndex, n, (0,) * (n - 1)))
        _check_member(self.l1_adjoint, c0)


class Family:
    """A family as read-only columns with one row per member, built once at construction.

    ``nu`` (m, N-1), ``l1`` (m,), ``lam`` (m,), the real part of the Laplace
    eigenvalue; ``e[p]`` (m, N-1) at each prime some member has a Satake
    parameter at: the e-rows of that parameter, else of the member's stored
    A[k] (the index with a single 1 in slot N-k), else NaN; and per stored
    index idx, ``coefficients[idx]`` (m,), valid where ``coefficient_mask[idx]``.
    Members are validated as the loader validates a document, the first fault
    raising FamilyValidationError("member j: ..."), and held in canonical order.
    """

    def __init__(self, n: int, members, label: str = ""):
        _Columns(n).build(self, label, tuple(members), _Columns.add)

    def _fill(self, n, label, nu, l1, keys, coefficients, alphas, e) -> None:
        """keys[j]: member j's (indices, primes), each a tuple or None; coefficients:
        index -> (values, mask); alphas: prime -> (m, N) canonical rows, or None for the roots of e[p]."""
        self.n, self.label, self._keys, self._alphas = n, label, keys, alphas
        with np.errstate(over="ignore", invalid="ignore"):  # huge valid entries give inf, as in a report
            # an empty family's N is bounded by no nu, and even the index vector of ell would not fit at N = 10^9
            self.lam = _read_only(laplace_eigenvalues(n, nu).real if len(nu) else np.zeros(0))
            e = {**e, **{p: elementary_symmetric(_read_only(rows)) for p, rows in alphas.items() if rows is not None}}
        self.nu, self.l1 = _read_only(nu), _read_only(l1)
        self.coefficients = MappingProxyType({idx: _read_only(v) for idx, (v, _) in coefficients.items()})
        self.coefficient_mask = MappingProxyType({idx: _read_only(k) for idx, (_, k) in coefficients.items()})
        self._a_rows = np.full((len(l1), n - 1), np.nan, dtype=np.complex128)  # e-rows from the stored A[k]
        for idx, (values, mask) in coefficients.items():
            if sum(idx.l) == 1:  # A[k] has its 1 in slot N-k
                self._a_rows[mask, n - 2 - idx.l.index(1)] = values[mask]
        for p, rows in e.items():
            if alphas[p] is not None:  # a member without a parameter at p has a NaN row
                lacking = np.isnan(rows[:, 0])
                rows[lacking] = self._a_rows[lacking]
        self.e = MappingProxyType({p: _read_only(rows) for p, rows in e.items()})
        _read_only(self._a_rows)

    def __len__(self) -> int:
        return len(self.l1)

    def alphas(self, p: int) -> np.ndarray:
        """(m, N) canonical Satake parameters at p, NaN where a member has none."""
        rows = self._alphas[p]
        return _canonical_roots(self.e[p]) if rows is None else rows

    @property
    def members(self) -> tuple[FamilyMember, ...]:
        """The rows as FamilyMember values, built anew on each access.  Each satake is a read-only
        mapping; a prime's roots are formed once per access, when some view first reads it."""
        n, roots = self.n, functools.cache(lambda p: self.alphas(p).tolist())  # this access's roots
        coefficients = {idx: v.tolist() for idx, v in self.coefficients.items()}
        return tuple(
            FamilyMember(
                _unchecked(SpectralParameter, n, tuple(nu)), l1,
                None if keys is None else {idx: coefficients[idx][j] for idx in keys},
                None if primes is None else _SatakeView(n, roots, j, primes),
            )
            for j, (nu, l1, (keys, primes)) in enumerate(zip(self.nu.tolist(), self.l1.tolist(), self._keys))
        )


class _SatakeView(Mapping):
    """Member j's read-only prime -> SatakeParameter, each read built from roots(p): the
    family's canonical rows at p as lists, formed by the first read of p in one members access."""

    __slots__ = ("_n", "_roots", "_j", "_primes")

    def __init__(self, n: int, roots, j: int, primes: tuple):
        self._n, self._roots, self._j, self._primes = n, roots, j, primes

    def __getitem__(self, p):
        if p not in self._primes:
            raise KeyError(p)
        return _unchecked(SatakeParameter, self._n, tuple(self._roots(p)[self._j]))

    def __contains__(self, p) -> bool:  # a key test forms no roots
        return p in self._primes

    def __iter__(self):
        return iter(self._primes)

    def __len__(self) -> int:
        return len(self._primes)

    def __repr__(self) -> str:
        return repr(dict(self))


def weight(member: FamilyMember, h: TestFunctionH, t: float) -> float:
    """Member weight: h_T(nu) / L(1, Ad)."""
    return float(h.evaluate(laplace_eigenvalue(member.nu).real, t)) / member.l1_adjoint


def weighted_stat(values: np.ndarray, weights: np.ndarray) -> tuple[complex, float]:
    """Weighted mean and its linearized standard error; FamilyValidationError unless both are finite."""
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
    # from the normalised weights, so that huge weights do not overflow when squared
    se = math.sqrt(float(((weights / total.real) ** 2 * np.abs(values - mean) ** 2).sum()))
    if not (cmath.isfinite(mean) and math.isfinite(se)):
        raise FamilyValidationError(f"weighted mean {mean} or its standard error {se} is not finite")
    return mean, se


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _kish_ess(weights: np.ndarray) -> float:
    """Kish's effective sample size (sum w)^2 / sum w^2, from the normalised
    weights so that tiny weights do not underflow when squared."""
    q = weights / weights.sum()
    return float(1.0 / (q * q).sum())


def _spec_values(spec: TensorSpec, e: np.ndarray, p: int) -> np.ndarray:
    """The spec's monomial on every row of e; NaN marks a member lacking an A[k] it uses."""
    if spec.n != e.shape[1] + 1:
        raise ValueError("spec rank does not match family rank")
    vals = spec.monomial(e)
    lacking = np.flatnonzero(np.isnan(vals))
    if lacking.size:
        raise FamilyValidationError(f"member {lacking[0]}: no Satake parameter at p={p} and a missing A[k]")
    return vals


def _open_rows(family: Family, p: int) -> np.ndarray:
    """The e-rows a statistic at the prime p reads: the stored A[k] where no member has a parameter at p."""
    if len(family) == 0:
        raise FamilyValidationError("empty family")
    if type(p) is not int or p not in family.e:  # every key of family.e was checked as prime when the family was built
        _check_prime(p)
    return family.e.get(p, family._a_rows)


# an overflowing weight or value gives a non-finite statistic, which weighted_stat rejects
@np.errstate(over="ignore", invalid="ignore")
def l_functional(
    family: Family, p: int, f, h: TestFunctionH, t: float
) -> complex:
    """Weighted family average of f at the prime p.

    f is either a callable on SatakeParameter or a TensorSpec, in which
    case members lacking a Satake parameter at p are evaluated through
    their stored A[k], and need one for every k with i_k or i'_k nonzero.
    """
    e = _open_rows(family, p)
    weights = h.evaluate(family.lam, float(t)) / family.l1
    if isinstance(f, TensorSpec):
        vals = _spec_values(f, e, p)
    else:
        rows = family.alphas(p) if p in family.e else np.full((len(family), 1), np.nan)
        lacking = np.flatnonzero(np.isnan(rows[:, 0]))
        if lacking.size:
            raise FamilyValidationError(f"member {lacking[0]}: no Satake parameter at p={p}")
        vals = np.array([f(_unchecked(SatakeParameter, family.n, tuple(row))) for row in rows.tolist()], dtype=np.complex128)
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
    parameters are purely imaginary on an integer grid, scaled by a factor
    that is 1 up to N=3; adjoint L-values are log-uniform in [0.1, 10].
    Each prime, listed once, draws its e-rows from one stream, so the canonical
    roots are those of ``sample_st_batch`` on the same generator.
    """
    if m < 1:
        raise ValueError("family size must be >= 1")
    if mode not in ("sato-tate", "t1-perturbed"):
        raise ValueError(f"unknown synthesis mode {mode!r}")
    _check_header(n)
    primes = tuple(primes)  # read once: an iterator would be spent by the first check
    if not all(type(p) is int and _is_prime(p) for p in primes):  # so that the saved keys load
        raise FamilyValidationError(f"primes must be prime Python integers, got {primes!r}")
    if len(set(primes)) < len(primes):  # each listed prime draws a bank: a repeat would draw one and discard it
        repeated = next(p for p in primes if primes.count(p) > 1)
        raise FamilyValidationError(f"primes must be distinct: {repeated} is repeated in {primes!r}")
    rng = RngSeed(seed).generator()

    grid_side = max(2, math.ceil(m ** (1.0 / (n - 1))))
    # member j sits at 1 + the base-grid_side digits of j, least significant first,
    # times (3/N)^2.5 above N=3: Laplace eigenvalues on the integer grid grow like
    # N^5, and the smallest would make every Gaussian weight at T=10 underflow
    nu = np.zeros((m, n - 1), dtype=np.complex128)
    nu.imag = min(1.0, (3 / n) ** 2.5) * (1 + np.arange(m)[:, None] // grid_side ** np.arange(n - 1) % grid_side)
    e = {p: _haar_su_varrho(n, m, rng) for p in primes}  # column-major, as a monomial reads them
    alphas = dict.fromkeys(e)  # None: the roots of e[p], formed where eigenvalues are needed
    if mode == "t1-perturbed":
        alphas = {p: perturb_radial(_canonical_roots(rows), p, rng) for p, rows in e.items()}
        e = {}
    l1 = 10.0 ** rng.uniform(-1.0, 1.0, size=m)
    fam = Family.__new__(Family)
    fam._fill(n, f"synthetic-{mode}", nu, l1, ((None, tuple(alphas)),) * m, {}, alphas, e)
    return fam


@dataclass(frozen=True)
class EquidistRow:
    spec: TensorSpec
    t: float
    estimate: complex
    std_error: float
    oracle: int
    ess: float = math.nan  # Kish's effective sample size (sum w)^2 / sum w^2 at scale t

    @property
    def difference(self) -> float:
        return abs(self.estimate - self.oracle)


@np.errstate(over="ignore", invalid="ignore")  # as for l_functional
def equidist_report(
    family: Family,
    p: int,
    specs: list[TensorSpec],
    h: TestFunctionH,
    t_grid,
) -> list[EquidistRow]:
    """Weighted statistic vs. exact moment for each spec and scale; a member
    without a Satake parameter at p needs a stored A[k] for every k some spec uses."""
    e = _open_rows(family, p)
    t_grid = tuple(t_grid)  # read twice, here and per spec below
    weight_columns = [h.evaluate(family.lam, float(t)) / family.l1 for t in t_grid]  # per member, one per scale
    rows = []
    for spec in specs:
        oracle = trivial_multiplicity(spec)
        vals = _spec_values(spec, e, p)
        for t, weights in zip(t_grid, weight_columns):
            mean, se = weighted_stat(vals, weights)
            rows.append(
                EquidistRow(
                    spec=spec, t=float(t), estimate=mean, std_error=se,
                    oracle=oracle,
                    ess=_kish_ess(weights),
                )
            )
    return rows


# --- family (de)serialization ------------------------------------------------

_TOP_KEYS = {"N", "label", "members"}
# member fields and the JSON type each must have; L1Ad may be a number or a numeric string.
# A JSON true/false is a Python bool, hence an int, and is rejected separately.
_MEMBER_KEYS = {"nu": list, "L1Ad": (int, float, str), "coefficients": dict, "satake": dict}
_JSON_NUMBERS = (float, int)  # the types json gives numbers; a subclass takes the longer check


def _check_header(n, label: str = "") -> None:
    """The checks of N and label that Family, synth_family and the loader share."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise FamilyValidationError(f"N must be a JSON integer >= 2, got {n!r}")
    if not isinstance(label, str):
        raise FamilyValidationError(f"label must be a JSON string, got {label!r}")


def _decimal(text: str) -> int:
    """The integer spelled by a key in canonical decimal form (no sign, space or leading 0)."""
    if not re.fullmatch(r"0|[1-9][0-9]*", text):
        raise FamilyValidationError(f"key part {text!r} is not a canonical decimal integer")
    return int(text)


def _is_number(v) -> bool:
    """An int or a float, and not a bool: a JSON true/false is a Python bool, hence an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _pair_to_complex(pair) -> complex:
    if isinstance(pair, list) and len(pair) == 2:
        a, b = pair
        if (type(a) in _JSON_NUMBERS or _is_number(a)) and (type(b) in _JSON_NUMBERS or _is_number(b)):
            z = complex(a, b)
            if cmath.isfinite(z):
                return z
    raise FamilyValidationError(f"expected a finite [re, im] pair, got {pair!r}")


def family_from_dict(data: dict) -> Family:
    """Parse and validate the family JSON document, as Family validates its members."""
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
    return _Columns(n).build(Family.__new__(Family), data.get("label", ""), raw_members, _Columns.parse)


class _Columns:
    """A family's columns as lists, appended one member at a time."""

    def __init__(self, n: int):
        self.n = n
        self.members: list[tuple] = []  # (nu, l1, (indices, primes)), each of the last two a tuple or None
        self.coef: dict = {}  # coefficient key -> (index, members, values)
        self.rows: dict = {}  # prime -> (members, eigenvalue rows)
        self.primes, self.layouts = {}, {}  # Satake key -> prime; (coefficient keys, Satake keys) -> keys

    def build(self, family: Family, label: str, items, append) -> Family:
        """Give family the columns of the sequence items, appended in order by append (add
        or parse) and checked as one batch: one canonicalize_batch per prime, one Schur
        evaluation per prime and tuple of coefficient keys.  Every check reads one member,
        so on a fault the lower half of the run that still fails is kept, checked again in
        fresh columns, until the member left raises its own fault as "member j: ..."."""
        _check_header(self.n, label)
        if self.check(family, label, items, append) is None:
            return family
        lo, hi = 0, min(len(self.members) + 1, len(items))  # an append fault ends the run at its member

        def fault(run):  # a fresh batch's fault, or None
            return _Columns(self.n).check(Family.__new__(Family), label, run, append)

        while hi - lo > 1:  # the first member that fails alone is in items[lo:hi]
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if fault(items[lo:mid]) else (mid, hi)
        exc = fault(items[lo:hi])
        raise FamilyValidationError(f"member {lo}: {exc}") from exc

    def check(self, family: Family, label: str, items, append) -> ValueError | OverflowError | None:
        """Append items to family as one checked batch; the fault of a member that fails, or None.
        Rows appended before a malformed field are checked first, as its member's field order asks."""
        try:
            try:
                for item in items:
                    append(self, item)
            finally:
                rows = self.canonicalize()
            self.fill(family, label, rows)
            _check_coherence(family)
        except (ValueError, OverflowError) as exc:  # FamilyValidationError; an integer too large for a float
            return exc

    def add(self, mem: FamilyMember) -> None:
        """Append one FamilyMember after the field checks parse makes."""
        n, pos = self.n, len(self.members)
        if not (isinstance(mem.nu, SpectralParameter) and mem.nu.n == n and all(map(cmath.isfinite, mem.nu.nu))):
            raise FamilyValidationError(f"nu must be a SpectralParameter of {n - 1} finite entries, got {mem.nu!r}")
        for idx, value in (mem.coefficients or {}).items():
            if not (isinstance(idx, CoefficientIndex) and isinstance(value, (int, float, complex, np.number))):
                raise FamilyValidationError(f"coefficient {idx!r} = {value!r}: need a CoefficientIndex and a number")
            if idx not in self.coef and (idx.n != n or sum(idx.l) > MAX_INDEX_DEGREE) or not cmath.isfinite(value):
                raise FamilyValidationError(
                    f"coefficient {idx.l} = {value}: need rank {n}, |l| <= {MAX_INDEX_DEGREE} and a finite value"
                )
            self._append(idx, idx, pos, value)
        for p, x in (mem.satake or {}).items():
            if not (type(p) is int and (p in self.rows or _is_prime(p))):  # as synth_family and the statistics ask
                raise FamilyValidationError(f"key {p!r} is not a prime Python integer")
            if not (isinstance(x, SatakeParameter) and x.n == n):
                raise FamilyValidationError(f"p={p}: need a SatakeParameter of {n} entries, got {x!r}")
            self._row(p, pos, x.alphas)
        keys = tuple(None if d is None else tuple(d) for d in (mem.coefficients, mem.satake))
        self.members.append((mem.nu.nu, mem.l1_adjoint, keys))

    def parse(self, raw) -> None:
        """Append one member of the family document; a malformed field raises
        ValueError (or OverflowError), after the member's Satake rows before it are appended."""
        n, pos = self.n, len(self.members)
        if not isinstance(raw, dict):
            raise FamilyValidationError(f"expected a JSON object, got {raw!r}")
        if not raw.keys() <= _MEMBER_KEYS.keys():
            raise FamilyValidationError(f"unknown fields {sorted(raw.keys() - _MEMBER_KEYS.keys())}")
        if "nu" not in raw or "L1Ad" not in raw:
            raise FamilyValidationError(f"missing fields {sorted({'nu', 'L1Ad'} - raw.keys())}")
        nu, coefficients, satake = raw["nu"], raw.get("coefficients"), raw.get("satake")
        wrong = [key for key, kind in _MEMBER_KEYS.items()
                 if key in raw and (isinstance(raw[key], bool) or not isinstance(raw[key], kind))]
        if wrong:
            raise FamilyValidationError(f"wrong JSON type for {sorted(wrong)}")
        nu = [_pair_to_complex(v) for v in nu]
        if len(nu) != n - 1:
            raise FamilyValidationError(f"expected {n - 1} entries, got {len(nu)}")
        for key, pair in (coefficients or {}).items():
            if key not in self.coef:  # a key seen before is valid
                l = tuple(_decimal(v) for v in key.split(","))
                if sum(l) > MAX_INDEX_DEGREE:
                    raise FamilyValidationError(f"coefficient index {key!r}: |l| = {sum(l)} exceeds {MAX_INDEX_DEGREE}")
                _pair_to_complex(pair)  # the pair is checked before the index's length
                self.coef[key] = (CoefficientIndex(n, l), [], [])
            self._append(key, None, pos, _pair_to_complex(pair))
        for key, vec in (satake or {}).items():
            p = self.primes.get(key) or _decimal(key)
            if not (key in self.primes or _is_prime(p)):
                raise FamilyValidationError(f"key {key!r} is not prime")
            self.primes[key] = p
            if not (isinstance(vec, list) and len(vec) == n):
                raise FamilyValidationError(f"p={p}: expected a list of {n} pairs")
            try:
                self._row(p, pos, [_pair_to_complex(v) for v in vec])
            except ValueError as exc:
                raise FamilyValidationError(f"p={p}: {exc}") from exc
        l1, c0 = float(raw["L1Ad"]), coefficients.get("0" + ",0" * (n - 2)) if coefficients else None
        _check_member(l1, None if c0 is None else _pair_to_complex(c0))
        layout = tuple(None if d is None else tuple(d) for d in (coefficients, satake))
        if layout not in self.layouts:
            self.layouts[layout] = (
                None if coefficients is None else tuple(self.coef[key][0] for key in coefficients),
                None if satake is None else tuple(self.primes[key] for key in satake),
            )
        self.members.append((nu, l1, self.layouts[layout]))

    def _append(self, key, idx, pos: int, value: complex) -> None:
        column = self.coef.get(key) or self.coef.setdefault(key, (idx, [], []))
        column[1].append(pos)
        column[2].append(value)

    def _row(self, p: int, pos: int, row) -> None:
        members, rows = self.rows.get(p) or self.rows.setdefault(p, ([], []))
        members.append(pos)
        rows.append(row)

    def canonicalize(self) -> dict:
        """Each prime's rows in canonical form, one canonicalize_batch per prime."""
        rows = {}
        for p, (_, batch) in self.rows.items():
            try:
                rows[p] = canonicalize_batch(batch)
            except ValueError as exc:
                raise FamilyValidationError(f"p={p}: {exc}") from exc
        return rows

    def fill(self, family: Family, label: str, rows: dict) -> None:
        """Give family the columns of the members, with the canonical rows[p] at p."""
        n, m, alphas, coefficients = self.n, len(self.members), {}, {}
        for p, (members, _) in self.rows.items():
            alphas[p] = np.full((m, n), np.nan, dtype=np.complex128)
            alphas[p][members] = rows[p]
        for idx, members, values in self.coef.values():
            col, mask = coefficients[idx] = np.zeros(m, dtype=np.complex128), np.zeros(m, dtype=bool)
            col[members], mask[members] = values, True
        nu = np.array([mem[0] for mem in self.members], dtype=np.complex128).reshape(m, n - 1)
        l1 = np.array([mem[1] for mem in self.members], dtype=float)
        family._fill(n, label, nu, l1, tuple(mem[2] for mem in self.members), coefficients, alphas, {})


def _check_coherence(family: Family) -> None:
    """Raise FamilyValidationError at the first coefficient found that misses the
    character value ``coefficient(x, idx)`` of a stored parameter by more than
    CS_COHERENCE_TOL, or by a residual that is not a number (an overflowing value);
    for one member, that is its first in prime and key order.  One _schur call
    (one h recurrence) per prime and tuple of coefficient keys."""
    groups: dict[tuple, list[int]] = {}
    for j, (keys, primes) in enumerate(family._keys):
        if keys and primes:
            for p in primes:
                groups.setdefault((p, keys), []).append(j)
    for (p, keys), members in groups.items():
        lams = [[v for v in aleph(idx).parts if v > 0] for idx in keys]
        vals = np.stack([family.coefficients[idx][members] for idx in keys], axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is judged below
            chars = np.stack(_schur(family.alphas(p)[members], lams), axis=-1)
        # numpy's complex abs may differ from Python's in the last bit: screen
        # with a margin, then decide and report with abs() on the scalars;
        # both tests are negated <= so that a NaN residual fails
        for g, k in np.argwhere(~(np.abs(vals - chars) <= CS_COHERENCE_TOL * (1 - 1e-9))):
            residual = abs(complex(vals[g, k]) - complex(chars[g, k]))
            if not residual <= CS_COHERENCE_TOL:
                raise FamilyValidationError(
                    f"coefficient {keys[k].l} incoherent with the "
                    f"parameter at p={p} (residual {residual:.3g})"
                )


def family_to_dict(family: Family) -> dict:
    """The family document, written from the columns in each member's key order."""
    def pairs(a: np.ndarray) -> list:
        return np.stack((a.real, a.imag), axis=-1).tolist()

    nus = pairs(family.nu)
    coefficients = {idx: (",".join(str(v) for v in idx.l), pairs(v)) for idx, v in family.coefficients.items()}
    satake = {p: (str(p), pairs(family.alphas(p))) for p in family.e}
    members = []
    for j, (l1, (keys, primes)) in enumerate(zip(family.l1.tolist(), family._keys)):
        raw = {"nu": nus[j], "L1Ad": l1}
        if keys is not None:
            raw["coefficients"] = {coefficients[idx][0]: coefficients[idx][1][j] for idx in keys}
        if primes is not None:
            raw["satake"] = {satake[p][0]: satake[p][1][j] for p in primes}
        members.append(raw)
    return {"N": family.n, "label": family.label, "members": members}


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
    # json.dumps takes the C encoder; json.dump streams through the pure-Python one
    text = json.dumps(family_to_dict(family))
    with open(path, "w") as fh:
        fh.write(text)
