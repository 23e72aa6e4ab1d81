"""Family statistics, synthesis, and the ingestion contract."""

import itertools
import math
import time

import numpy as np
import pytest

from satake_st.characters import TensorSpec, eval_char
from satake_st.families import (
    MAX_INDEX_DEGREE,
    _is_prime,
    Family,
    FamilyMember,
    FamilyValidationError,
    TestFunctionH,
    equidist_report,
    family_from_dict,
    family_to_dict,
    h_eval,
    l_functional,
    load_family,
    save_family,
    synth_family,
    weight,
    weighted_stat,
)
from satake_st.satake import canonicalize, coefficient, elementary_symmetric, in_T1
from satake_st.weights import CoefficientIndex, SpectralParameter, aleph

from oracles import eval_char_bialternant


NU0 = SpectralParameter(3, (0, 0))


def coherent_member(seed=0, primes=(2,), with_coeffs=False):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, size=2)
    x = canonicalize(np.exp(1j * np.array([theta[0], theta[1], -theta.sum()])))
    satake = {p: x for p in primes}
    coeffs = None
    if with_coeffs:
        coeffs = {
            idx: coefficient(x, idx)
            for idx in (CoefficientIndex(3, l) for l in [(0, 0), (0, 1), (1, 0), (1, 1)])
        }
    return FamilyMember(nu=NU0, l1_adjoint=2.0, coefficients=coeffs, satake=satake)


class TestTestFunction:
    def test_gaussian_at_origin(self):
        assert h_eval(TestFunctionH.gaussian(), NU0, 1.0) == pytest.approx(math.exp(-1))

    def test_indicator_boundary_closed(self):
        # lambda(0) = 1 for N=3 and T=1 sits exactly on the cut
        assert h_eval(TestFunctionH.indicator(), NU0, 1.0) == 1.0
        nu = SpectralParameter(3, (1j, 1j))
        assert h_eval(TestFunctionH.indicator(), nu, 1.0) == 0.0

    def test_gaussian_large_scale_limit(self):
        assert h_eval(TestFunctionH.gaussian(), NU0, 1e9) == pytest.approx(1.0)

    def test_custom_table(self):
        h = TestFunctionH.from_table([0.0, 1.0, 2.0], [1.0, 0.5, 0.0])
        assert h_eval(h, NU0, 1.0) == pytest.approx(0.5)  # lambda/T^2 = 1

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            h_eval(TestFunctionH.gaussian(), NU0, 0.5)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TestFunctionH.from_table([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            TestFunctionH.from_table([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            TestFunctionH("banana")


class TestWeight:
    def test_divides_by_adjoint_value(self):
        mem = FamilyMember(nu=NU0, l1_adjoint=2.0)
        huge_t = TestFunctionH.indicator()
        assert weight(mem, huge_t, 1e6) == 0.5

    def test_gaussian_weight(self):
        mem = FamilyMember(nu=NU0, l1_adjoint=1.0)
        assert weight(mem, TestFunctionH.gaussian(), 1.0) == pytest.approx(math.exp(-1))

    def test_vanishing_h(self):
        nu = SpectralParameter(3, (100j, 100j))
        mem = FamilyMember(nu=nu, l1_adjoint=1.0)
        assert weight(mem, TestFunctionH.indicator(), 1.0) == 0.0

    def test_positive_l1_required(self):
        with pytest.raises(ValueError):
            FamilyMember(nu=NU0, l1_adjoint=0.0)


class TestLFunctional:
    def test_constant_is_exactly_one(self):
        fam = synth_family(3, 500, seed=1)
        val = l_functional(fam, 2, lambda x: 1.0, TestFunctionH.gaussian(), 10.0)
        assert val == 1.0

    def test_single_member_ignores_weights(self):
        mem = coherent_member(seed=2)
        fam = Family(3, (mem,))
        got = l_functional(fam, 2, TensorSpec(3, (1, 0, 0, 0)), TestFunctionH.gaussian(), 5.0)
        x = mem.satake[2]
        assert abs(got - coefficient(x, CoefficientIndex(3, (0, 1)))) < 1e-12

    def test_linearity(self):
        fam = synth_family(3, 200, seed=3)
        h = TestFunctionH.gaussian()
        f1 = l_functional(fam, 2, lambda x: x.alphas[0], h, 10.0)
        f2 = l_functional(fam, 2, lambda x: x.alphas[1], h, 10.0)
        both = l_functional(fam, 2, lambda x: x.alphas[0] + 2 * x.alphas[1], h, 10.0)
        assert abs(both - (f1 + 2 * f2)) < 1e-12

    def test_sup_norm_bound(self):
        fam = synth_family(3, 300, seed=4)
        h = TestFunctionH.gaussian()
        vals = [abs(complex(np.sum(mem.satake[2].as_array()))) for mem in fam.members]
        stat = l_functional(fam, 2, lambda x: complex(np.sum(x.as_array())), h, 10.0)
        assert abs(stat) <= max(vals) + 1e-12

    def test_coefficient_fallback_matches_satake_route(self):
        mem = coherent_member(seed=5, with_coeffs=True)
        stripped = FamilyMember(nu=mem.nu, l1_adjoint=mem.l1_adjoint, coefficients=mem.coefficients)
        spec = TensorSpec(3, (1, 2, 1, 0))
        h = TestFunctionH.gaussian()
        with_x = l_functional(Family(3, (mem,)), 2, spec, h, 5.0)
        without_x = l_functional(Family(3, (stripped,)), 2, spec, h, 5.0)
        assert abs(with_x - without_x) < 1e-10

    def test_missing_data_rejected(self):
        mem = FamilyMember(nu=NU0, l1_adjoint=1.0)
        with pytest.raises(FamilyValidationError):
            l_functional(Family(3, (mem,)), 2, TensorSpec(3, (1, 0, 0, 0)), TestFunctionH.gaussian(), 5.0)

    def test_all_weights_zero_rejected(self):
        nu = SpectralParameter(3, (100j, 100j))
        mem = FamilyMember(nu=nu, l1_adjoint=1.0, satake={2: coherent_member().satake[2]})
        with pytest.raises(FamilyValidationError):
            l_functional(Family(3, (mem,)), 2, lambda x: 1.0, TestFunctionH.indicator(), 1.0)

    def test_weighted_stat_se(self):
        values = np.array([1.0, 0.0, 1.0, 0.0])
        weights = np.ones(4)
        mean, se = weighted_stat(values, weights)
        assert mean == 0.5
        assert se == pytest.approx(0.25)


class TestSynthFamily:
    def test_minimal_family(self):
        fam = synth_family(3, 1, seed=6)
        assert len(fam) == 1 and fam.n == 3

    def test_sato_tate_moment(self):
        fam = synth_family(3, 4000, seed=7)
        h = TestFunctionH.gaussian()
        vals = np.array(
            [abs(complex(np.sum(mem.satake[2].as_array()))) ** 2 for mem in fam.members]
        )
        weights = np.array([weight(mem, h, 50.0) for mem in fam.members])
        mean, se = weighted_stat(vals, weights)
        assert abs(mean - 1.0) < 5 * se

    def test_t1_members_inside_containment(self):
        fam = synth_family(3, 300, mode="t1-perturbed", primes=(2, 5), seed=8)
        for mem in fam.members:
            for p in (2, 5):
                assert in_T1(mem.satake[p], p)

    def test_purely_imaginary_grid(self):
        fam = synth_family(4, 50, seed=9)
        for mem in fam.members:
            assert all(v.real == 0 and v.imag >= 1 for v in mem.nu.nu)

    def test_l1_range(self):
        fam = synth_family(3, 200, seed=10)
        vals = [mem.l1_adjoint for mem in fam.members]
        assert min(vals) >= 0.1 and max(vals) <= 10.0

    def test_coefficient_orthogonality(self):
        # weighted averages of A(m) conj(A(n)) converge to delta_{m,n}
        fam = synth_family(3, 4000, seed=11)
        h = TestFunctionH.gaussian()
        t = 50.0
        weights = np.array([weight(mem, h, t) for mem in fam.members])
        bank = np.stack([mem.satake[2].as_array() for mem in fam.members])
        indices = [(l1, l2) for l1 in range(3) for l2 in range(3)]
        values = {
            l: eval_char(aleph(CoefficientIndex(3, l)), bank) for l in indices
        }
        for m_idx in indices:
            for n_idx in indices:
                prods = values[m_idx] * np.conj(values[n_idx])
                mean, se = weighted_stat(prods, weights)
                oracle = 1.0 if m_idx == n_idx else 0.0
                assert abs(mean - oracle) < 5 * max(se, 1e-12), (m_idx, n_idx)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            synth_family(3, 10, mode="bogus")


class TestEquidistReport:
    def test_zero_spec_has_zero_difference(self):
        fam = synth_family(3, 100, seed=12)
        rows = equidist_report(fam, 2, [TensorSpec(3, (0, 0, 0, 0))], TestFunctionH.gaussian(), [10.0, 100.0])
        assert all(r.difference == 0.0 for r in rows)

    def test_error_bound_column_present_for_n3(self):
        fam = synth_family(3, 50, seed=13)
        rows = equidist_report(fam, 2, [TensorSpec(3, (1, 0, 0, 0))], TestFunctionH.gaussian(), [10.0])
        assert rows[0].gl3_bound is not None and rows[0].gl3_bound > 0

    def test_no_bound_column_for_other_ranks(self):
        fam = synth_family(2, 50, seed=14)
        rows = equidist_report(fam, 2, [TensorSpec(2, (1, 0))], TestFunctionH.gaussian(), [10.0])
        assert rows[0].gl3_bound is None

    def test_difference_shrinks_with_family_size(self):
        h = TestFunctionH.gaussian()
        spec = TensorSpec(3, (1, 1, 0, 0))
        diffs = []
        for m in (100, 10000):
            fam = synth_family(3, m, seed=15)
            rows = equidist_report(fam, 2, [spec], h, [100.0])
            diffs.append(rows[0].difference)
        assert diffs[1] < diffs[0]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        fam = synth_family(3, 20, mode="t1-perturbed", primes=(2, 3), seed=16)
        path = tmp_path / "fam.json"
        save_family(fam, path)
        back = load_family(path)
        assert back.n == fam.n and len(back) == len(fam)
        assert back.members[0].satake[2] == fam.members[0].satake[2]
        assert back.members[0].l1_adjoint == pytest.approx(fam.members[0].l1_adjoint)

    def test_coefficients_round_trip(self, tmp_path):
        mem = coherent_member(seed=17, with_coeffs=True)
        fam = Family(3, (mem,), label="with-coeffs")
        path = tmp_path / "fam.json"
        save_family(fam, path)
        back = load_family(path)
        assert back.label == "with-coeffs"
        for idx, val in mem.coefficients.items():
            assert abs(back.members[0].coefficients[idx] - val) < 1e-12

    def test_rejects_unknown_top_level_field(self):
        with pytest.raises(FamilyValidationError, match="unknown top-level"):
            family_from_dict({"N": 3, "members": [], "extra": 1})

    def test_rejects_unknown_member_field(self):
        doc = {"N": 3, "members": [{"nu": [[0, 1], [0, 1]], "L1Ad": 1.0, "junk": 2}]}
        with pytest.raises(FamilyValidationError, match="unknown fields"):
            family_from_dict(doc)

    def test_rejects_missing_required_field(self):
        with pytest.raises(FamilyValidationError):
            family_from_dict({"members": []})
        with pytest.raises(FamilyValidationError):
            family_from_dict({"N": 3, "members": [{"L1Ad": 1.0}]})

    def test_rejects_non_prime_satake_key(self):
        doc = family_to_dict(Family(3, (coherent_member(seed=18),)))
        doc["members"][0]["satake"]["4"] = doc["members"][0]["satake"]["2"]
        with pytest.raises(FamilyValidationError, match="not prime"):
            family_from_dict(doc)

    def test_rejects_incoherent_coefficients(self):
        mem = coherent_member(seed=19, with_coeffs=True)
        doc = family_to_dict(Family(3, (mem,)))
        doc["members"][0]["coefficients"]["1,1"] = [99.0, 0.0]
        with pytest.raises(FamilyValidationError, match="incoherent"):
            family_from_dict(doc)

    def test_rejects_bad_zero_coefficient(self):
        mem = coherent_member(seed=20, with_coeffs=True)
        doc = family_to_dict(Family(3, (mem,)))
        doc["members"][0]["coefficients"]["0,0"] = [2.0, 0.0]
        with pytest.raises(FamilyValidationError):
            family_from_dict(doc)

    def test_coherent_coefficient_at_the_index_bound_loads(self):
        mem = coherent_member(seed=22)
        value = coefficient(mem.satake[2], CoefficientIndex(3, (1000, 0)))
        doc = family_to_dict(Family(3, (mem,)))
        doc["members"][0]["coefficients"] = {"1000,0": [value.real, value.imag]}
        back = family_from_dict(doc)
        assert back.members[0].coefficients[CoefficientIndex(3, (1000, 0))] == value

    def test_keys_spanning_every_degree_up_to_the_bound(self):
        mem = coherent_member(seed=24)
        alphas = mem.satake[2].as_array()
        doc = family_to_dict(Family(3, (mem,)))
        coeffs = doc["members"][0]["coefficients"] = {}
        for k in range(MAX_INDEX_DEGREE + 1):
            value = eval_char_bialternant(aleph(CoefficientIndex(3, (k - k // 2, k // 2))), alphas)
            coeffs[f"{k - k // 2},{k // 2}"] = [value.real, value.imag]
        assert len(family_from_dict(doc).members[0].coefficients) == MAX_INDEX_DEGREE + 1
        coeffs["500,500"][0] += 1e-3
        with pytest.raises(FamilyValidationError, match=r"coefficient \(500, 500\) incoherent"):
            family_from_dict(doc)

    def test_rejects_coefficient_index_above_the_bound(self):
        doc = family_to_dict(Family(3, (coherent_member(seed=23),)))
        doc["members"][0]["coefficients"] = {"1001,0": [0.0, 0.0]}
        with pytest.raises(FamilyValidationError, match="member 0: coefficient index '1001,0'"):
            family_from_dict(doc)

    def test_rejects_bad_satake_product(self):
        doc = {
            "N": 2,
            "members": [
                {"nu": [[0, 1]], "L1Ad": 1.0, "satake": {"2": [[2.0, 0.0], [2.0, 0.0]]}}
            ],
        }
        with pytest.raises(FamilyValidationError):
            family_from_dict(doc)


def reference_values(family, p, spec):
    """The monomial member by member, Satake parameter first, else A[k]."""
    n = spec.n
    vals = []
    for mem in family.members:
        if mem.satake is not None and p in mem.satake:
            e = elementary_symmetric(mem.satake[p].as_array())
        else:
            e = [mem.coefficients[CoefficientIndex.unit(n, n - k)] for k in range(1, n)]
        v = 1.0 + 0.0j
        for k in range(1, n):
            v *= e[k - 1] ** spec.plain(k) * np.conj(e[k - 1]) ** spec.conjugate(k)
        vals.append(v)
    return np.array(vals)


def reference_stat(family, p, spec, h, t):
    weights = np.array([weight(mem, h, t) for mem in family.members])
    return weighted_stat(reference_values(family, p, spec), weights)


def mixed_family(m=90, seed=21):
    """Thirds: Satake only, coefficients A[1], A[2] only, and both kinds."""
    base = synth_family(3, m, mode="t1-perturbed", primes=(2,), seed=seed)
    units = [CoefficientIndex.unit(3, pos) for pos in (1, 2)]
    members = []
    for j, mem in enumerate(base.members):
        x = mem.satake[2]
        coeffs = {idx: coefficient(x, idx) for idx in units}
        kind = j % 3
        members.append(
            FamilyMember(
                nu=mem.nu, l1_adjoint=mem.l1_adjoint,
                coefficients=None if kind == 0 else coeffs,
                satake=None if kind == 1 else {2: x},
            )
        )
    return Family(3, tuple(members))


H_KINDS = [
    TestFunctionH.gaussian(),
    TestFunctionH.indicator(),
    TestFunctionH.from_table([0.0, 0.2, 1.0, 4.0], [1.0, 0.9, 0.3, 0.0]),
]
MIXED_SPECS = [
    TensorSpec(3, exps)
    for exps in itertools.product(range(3), repeat=4)
    if sum(exps) <= 3
]


class TestColumnsMatchMemberLoop:
    @pytest.mark.parametrize("h", H_KINDS, ids=lambda h: h.kind)
    def test_equidist_report(self, h):
        fam = mixed_family()
        t_grid = [10.0, 25.0]
        rows = equidist_report(fam, 2, MIXED_SPECS, h, t_grid)
        assert len(rows) == len(MIXED_SPECS) * len(t_grid)
        for row in rows:
            mean, se = reference_stat(fam, 2, row.spec, h, row.t)
            assert abs(row.estimate - mean) <= 1e-12 * max(abs(mean), 1.0)
            assert row.std_error == pytest.approx(se, rel=1e-12)

    @pytest.mark.parametrize("h", H_KINDS, ids=lambda h: h.kind)
    def test_l_functional(self, h):
        fam = mixed_family()
        for spec in MIXED_SPECS:
            mean, _ = reference_stat(fam, 2, spec, h, 25.0)
            got = l_functional(fam, 2, spec, h, 25.0)
            assert abs(got - mean) <= 1e-12 * max(abs(mean), 1.0)

    def test_missing_coefficient_matters_only_when_used(self):
        x = coherent_member(seed=22).satake[2]
        a1 = CoefficientIndex(3, (0, 1))
        only_a1 = FamilyMember(nu=NU0, l1_adjoint=1.0, coefficients={a1: coefficient(x, a1)})
        fam = Family(3, (coherent_member(seed=23), only_a1))
        h = TestFunctionH.gaussian()
        l_functional(fam, 2, TensorSpec(3, (1, 1, 0, 0)), h, 5.0)
        with pytest.raises(FamilyValidationError, match="member 1"):
            l_functional(fam, 2, TensorSpec(3, (0, 0, 1, 0)), h, 5.0)
        with pytest.raises(FamilyValidationError, match="member 1"):
            equidist_report(fam, 2, [TensorSpec(3, (0, 0, 0, 1))], h, [5.0])


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert all(_is_prime(n) == trial(n) for n in range(-3, 20_000))

    def test_large_keys_decided_fast(self):
        # strong pseudoprimes to every prime base up to 37 and below; 2^61 - 1 is prime
        composites = [3215031751, 3825123056546413051, 318665857834031151167461]
        start = time.perf_counter()
        assert not any(_is_prime(n) for n in composites)
        assert _is_prime(2**61 - 1) and _is_prime(10**18 + 3)
        assert time.perf_counter() - start < 1.0
