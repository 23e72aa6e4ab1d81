"""Fuzzed inputs: every CLI run ends in output or the JSON error object, the
family loader lets only FamilyValidationError escape, and an out-of-domain
argument to the Python API, whose public names are pinned, ends in ValueError."""

import ast
import graphlib
import importlib
import json
import math
import os
import pkgutil
import types

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import satake_st
from satake_st.bounds import (
    Gl3BoundParams, convergence_error, p_total, rate_report, specialization_bound_n3, verify_multiplicity_bound,
)
from satake_st.characters import TensorSpec, elementary_symmetric, eval_char
from satake_st.cli import cli
from satake_st.families import (
    Family, FamilyMember, FamilyValidationError, TestFunctionH, equidist_report, family_from_dict, family_to_dict,
    l_functional, save_family, synth_family,
)
from satake_st.sampling import char_monomial, perturb_radial, plancherel_density_gl2, sample_st_batch
from satake_st.satake import canonicalize, canonicalize_batch, coefficient
from satake_st.weights import CoefficientIndex, DominantWeight, SpectralParameter

JUNK = ["", "abc", "nan", "inf", "-inf", ",", "1,,2", "-1", "0", "1.5", "1e3", "--"]
UNWRITABLE = os.path.join(os.devnull, "x.csv")  # a path under a file cannot be opened


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def int_lists(lo, hi, min_size=0, max_size=4):
    return st.lists(st.integers(lo, hi), min_size=min_size, max_size=max_size).map(lambda v: ",".join(map(str, v)))


PRIMES = st.sampled_from([2, 3, 5, 7, 11])


def prime_lists():
    return st.lists(PRIMES, min_size=1, max_size=3, unique=True).map(lambda v: ",".join(map(str, v)))


def floats(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, **kwargs).map(repr)


# Bounded so that a well-formed run stays small: m <= 500, exponents <= 3, bins <= 200, N <= 5.
FLAGS = {
    "--n": ints(-1, 5),
    "--m": ints(-2, 500),
    "--spec": st.one_of(int_lists(0, 3, 4, 4), int_lists(0, 3, max_size=8)),  # 4 wide half the time, as N=3 reads
    "--bins": ints(-1, 200),
    # mostly one prime (bound --rate takes one) or a few distinct ones; a fifth of the draws any
    # integers, so mostly a non-prime, a repeat or an empty list
    "--p": st.one_of(PRIMES.map(str), PRIMES.map(str), PRIMES.map(str), prime_lists(), int_lists(-3, 12)),
    "--alpha": st.lists(floats(-3, 3), min_size=1, max_size=2).map(lambda v: ",".join(v)),
    "--max-degree": ints(-1, 3),
    "--t-grid": st.lists(floats(1, 1e3), min_size=1, max_size=3).map(lambda v: ",".join(v)),
    "--theta": floats(0, 7 / 64),
    "--eps": floats(0, 1, exclude_min=True),
    "--tol": floats(-1, 1),
    "--synth-size": ints(-1, 200),
    "--seed": ints(-1, 5),
    "--budget": ints(0, 2000),
    "--format": st.sampled_from(["csv", "json"]),
    "--out": st.just("-"),
}

COMMANDS = {
    "decompose": ["--n", "--spec", "--budget", "--format", "--out"],
    "moment": ["--n", "--spec", "--m", "--seed", "--budget", "--format", "--out"],
    "sample": ["--n", "--m", "--bins", "--seed", "--format", "--out"],
    "equidist": ["--n", "--p", "--synth-size", "--max-degree", "--t-grid", "--seed", "--format", "--out"],
    "bound --verify": ["--p", "--alpha", "--max-degree", "--format", "--out"],
    "bound --rate": ["--p", "--spec", "--t-grid", "--theta", "--eps", "--format", "--out"],
    "hecke": ["--n", "--m", "--p", "--tol", "--seed", "--format", "--out"],
    "ingest": ["--format", "--out", "--seed"],
}


@pytest.fixture(scope="module")
def family_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("families")
    good, bad = root / "good.json", root / "bad.json"
    save_family(synth_family(3, 20, primes=(2,), seed=1), good)
    bad.write_text('{"N": 3, "members": [{"nu": 5}]}')
    return [str(good), str(bad), str(root / "missing.json"), str(root)]


@st.composite
def invocations(draw, paths):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    args = command.split()  # bound's two modes read different flags
    if command == "ingest":
        args.append(draw(st.sampled_from(paths)))
    flags = draw(st.lists(st.sampled_from(COMMANDS[command]), unique=True))
    # about a third of the runs give one flag a junk value; --out's is a path that cannot be opened, as a
    # junk path would be written to
    junk = draw(st.one_of(st.none(), st.none(), st.sampled_from(flags))) if flags else None
    for flag in flags:
        bad = st.just(UNWRITABLE) if flag == "--out" else st.sampled_from(JUNK)
        args += [flag, draw(bad if flag == junk else FLAGS[flag])]
    return args


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_ends_in_output_or_json_error(family_paths, data):
    args = data.draw(invocations(family_paths))
    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    if result.exit_code == 0:
        return
    err = json.loads(result.stderr)["error"]
    assert set(err) == {"type", "message"}
    if result.exit_code == 1:  # hecke's residual check reports after writing its rows
        assert args[0] == "hecke" and "exceeds tolerance" in err["message"]
    else:
        assert result.exit_code == 2 and result.stdout == ""


# 10**400 is a JSON integer too large for a float; strings are legal only for L1Ad
NUMBERS = st.one_of(st.floats(), st.integers(), st.booleans(), st.sampled_from([10**400, "1e400", "nan", "2.5"]))


def pairs():
    return st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), st.lists(NUMBERS, max_size=3), NUMBERS, st.none())


VALID_DOCUMENTS = [json.dumps(family_to_dict(synth_family(2, m, primes=(2, 3), seed=m))) for m in (1, 2, 3)]


@st.composite
def family_documents(draw):
    """Valid documents with up to three fields replaced, dropped or added."""
    doc = json.loads(VALID_DOCUMENTS[draw(st.integers(0, len(VALID_DOCUMENTS) - 1))])
    json_values = st.recursive(
        st.none() | NUMBERS | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )
    # small keys only: a large coefficient index is legitimately expensive to check
    keys = st.sampled_from(["2", "3", "4", "02", "0", "1", "2,1", "a", "", "-1", "1, 0"])
    members = doc["members"]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            target, key = doc, draw(st.sampled_from(["N", "label", "members", "extra"]))
        else:
            target = draw(st.sampled_from(members))
            key = draw(st.sampled_from(["nu", "L1Ad", "satake", "coefficients", "extra"]))
        target[key] = draw(st.one_of(
            json_values, pairs(), st.lists(pairs(), max_size=3),
            st.dictionaries(keys, st.one_of(pairs(), st.lists(pairs(), max_size=3)), max_size=2),
        ))
        if draw(st.integers(0, 4)) == 0:
            del target[key]
    return doc


@settings(max_examples=200, deadline=None)
@given(family_documents())
def test_family_loader_raises_only_validation_errors(doc):
    try:
        fam = family_from_dict(doc)
    except FamilyValidationError:
        return
    assert isinstance(fam, Family)
    assert all(math.isfinite(mem.l1_adjoint) and mem.l1_adjoint > 0 for mem in fam.members)


PUBLIC_NAMES = {
    "CharacterTable", "CoefficientIndex", "DominantWeight", "Family", "FamilyMember", "FamilyValidationError",
    "Gl3BoundParams", "McEstimate", "RngSeed", "SatakeParameter", "SpectralParameter", "TensorSpec",
    "TermBudgetExceeded", "TestFunctionH", "aleph", "canonicalize", "char_monomial", "coefficient",
    "convergence_error", "dim", "equidist_report", "eval_char", "l_functional", "langlands", "laplace_eigenvalue",
    "load_family", "mc_integrate", "p_total", "plancherel_density_gl2", "product", "rate_report", "save_family",
    "specialization_bound_n3", "st_density_gl2", "synth_family", "tensor_decompose", "trivial_multiplicity",
    "varrho", "verify_multiplicity_bound", "weight", "weight_table",
}


def test_the_public_namespace_is_pinned():
    """Adding or removing a public name is a decision, made here too."""
    public = {k for k, v in vars(satake_st).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == PUBLIC_NAMES


def test_the_package_holds_one_module_level_cache():
    """Module state is a decision too: the one cache is the sample bank's, which moment sweeps reuse."""
    modules = [satake_st] + [importlib.import_module(f"satake_st.{m.name}") for m in pkgutil.iter_modules(satake_st.__path__)]
    cached = {f"{mod.__name__}.{k}" for mod in modules for k, v in vars(mod).items() if hasattr(v, "cache_info")}
    assert cached == {"satake_st.sampling._varrho_bank"}


def relative_imports(module: str) -> set[str]:
    """The package modules ``module`` imports, function bodies included."""
    with open(os.path.join(os.path.dirname(satake_st.__file__), f"{module}.py")) as fh:
        nodes = [n for n in ast.walk(ast.parse(fh.read())) if isinstance(n, ast.ImportFrom) and n.level == 1]
    modules = {n.module.split(".")[0] for n in nodes if n.module}  # from .bounds import ...
    return modules | {a.name for n in nodes if not n.module for a in n.names}  # from . import sampling


def test_the_module_imports_are_acyclic():
    """Layering is a decision too: no chain of relative imports, function bodies included, leads back to its start."""
    graph = {m.name: relative_imports(m.name) for m in pkgutil.iter_modules(satake_st.__path__)}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


def test_the_bounds_module_reads_only_the_exact_algebra():
    """The rate envelope and the multiplicity bound need no family: the measured deviation is the statistic's own."""
    assert relative_imports("bounds") == {"characters", "weights"}


SPEC_N3 = TensorSpec(3, (1, 0, 0, 0))
SPEC_N2 = TensorSpec(2, (1, 0))
SPEC_11 = TensorSpec(3, (1, 1, 0, 0))


def coefficient_family() -> Family:
    """Five N=3 members with stored A[1], A[2] and no Satake parameter, so a statistic reads the same rows at any p."""
    x = canonicalize([1, 1j, -1j])
    coeffs = {idx: coefficient(x, idx) for idx in (CoefficientIndex.unit(3, 1), CoefficientIndex.unit(3, 2))}
    return Family(3, tuple(FamilyMember(SpectralParameter(3, (0, 0)), 1.0 + j, coeffs) for j in range(5)))


def satake_family() -> Family:
    """Five N=3 members with a Satake parameter at p=2."""
    return synth_family(3, 5, primes=(2,), seed=1)


def perturbed(p):
    """perturb_radial at p on a 4-row N=3 bank; p=1 would return the rows unperturbed."""
    return perturb_radial(sample_st_batch(3, 4, np.random.default_rng(0)), p, np.random.default_rng(1))


OUT_OF_DOMAIN = {
    "plancherel at p=0": lambda: plancherel_density_gl2(0.1, 0),
    "specialization bound at p=0": lambda: specialization_bound_n3(SPEC_N3, 0, 1),
    "specialization bound at p=1": lambda: specialization_bound_n3(SPEC_N3, 1, 1),
    "convergence error at t=0": lambda: convergence_error(0, 1, 0.1, 1e-6),
    "convergence error at P=nan": lambda: convergence_error(10, math.nan, 0.1, 1e-6),
    "convergence error at P=inf": lambda: convergence_error(10, math.inf, 0.1, 1e-6),
    "convergence error at P=-1": lambda: convergence_error(10, -1.0, 0.1, 1e-6),
    "convergence error at P=0.5": lambda: convergence_error(10, 0.5, 0.1, 1e-6),
    "convergence error at theta=nan": lambda: convergence_error(10, 8, math.nan, 1e-6),
    "convergence error at eps=nan": lambda: convergence_error(10, 8, 0.1, math.nan),
    # T^(eps-5) is subnormal at 1e64 and 0.0 at 1e100; T^3 overflows at 1e300
    "convergence error at t=1e64": lambda: convergence_error(1e64, 2.0, 7 / 64, 1e-6),
    "convergence error at t=1e100": lambda: convergence_error(1e100, 2.0, 7 / 64, 1e-6),
    "convergence error at t=1e300": lambda: convergence_error(1e300, 2.0, 7 / 64, 1e-6),
    "p_total at degree 5000": lambda: p_total(Gl3BoundParams(2, (5000, 0, 0, 0))),
    "rate_report at degree 5000": lambda: rate_report(Gl3BoundParams(2, (5000, 0, 0, 0)), [10.0]),
    "specialization bound at alpha=-inf": lambda: specialization_bound_n3(SPEC_N3, 2, -math.inf),
    "specialization bound at alpha=nan": lambda: specialization_bound_n3(SPEC_N3, 2, math.nan),
    "specialization bound at alpha=2000": lambda: specialization_bound_n3(SPEC_N3, 2, 2000.0),
    "specialization bound at alpha=-2000": lambda: specialization_bound_n3(SPEC_N3, 2, -2000.0),
    "equidist_report at p=4": lambda: equidist_report(coefficient_family(), 4, [TensorSpec(3, (1, 1, 0, 0))], TestFunctionH.gaussian(), [10]),
    "l_functional at p=0": lambda: l_functional(coefficient_family(), 0, TensorSpec(3, (1, 1, 0, 0)), TestFunctionH.gaussian(), 10),
    # 2.0 and numpy's 2 hash as the stored key 2 does
    "equidist_report at p=2.0": lambda: equidist_report(satake_family(), 2.0, [SPEC_11], TestFunctionH.gaussian(), [10]),
    "l_functional at p=2.0": lambda: l_functional(satake_family(), 2.0, SPEC_11, TestFunctionH.gaussian(), 10),
    "l_functional at p=int64(2)": lambda: l_functional(satake_family(), np.int64(2), SPEC_11, TestFunctionH.gaussian(), 10),
    "perturb_radial at p=1": lambda: perturbed(1),
    "perturb_radial at p=2.5": lambda: perturbed(2.5),
    "canonicalize of no entries": lambda: canonicalize(()),
    "eval_char of no eigenvalue axis": lambda: eval_char(DominantWeight(3, (1, 0, 0)), None),
    "multiplicity bound at p=0": lambda: verify_multiplicity_bound(0, 0.5, 2),
    "multiplicity bound at p=-2": lambda: verify_multiplicity_bound(-2, 0.5, 2),
    "elementary_symmetric of no row axis": lambda: elementary_symmetric(np.complex128(1)),
    "char_monomial of no row axis": lambda: char_monomial(SPEC_N2)(np.complex128(1)),
    "monomial of no row axis": lambda: SPEC_N2.monomial(np.complex128(1)),
    "canonicalize_batch of no row axis": lambda: canonicalize_batch(np.complex128(1)),
    "canonicalize_batch of empty rows": lambda: canonicalize_batch(np.zeros((2, 0))),
}


@pytest.mark.parametrize("call", OUT_OF_DOMAIN.values(), ids=OUT_OF_DOMAIN)
def test_out_of_domain_argument_raises_value_error(call):
    """Never a ZeroDivisionError, an IndexError, or a value returned silently."""
    with pytest.raises(ValueError):
        call()
