"""Family statistics, synthesis, and the ingestion contract."""

import copy
import itertools
import math
import pathlib
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satake_st import families
from satake_st.characters import TensorSpec, eval_char, tensor_decompose, trivial_multiplicity
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
    l_functional,
    load_family,
    save_family,
    synth_family,
    weight,
    weighted_stat,
)
from satake_st.satake import SatakeParameter, canonicalize, coefficient, elementary_symmetric
from satake_st.weights import CoefficientIndex, DominantWeight, SpectralParameter, _unchecked, aleph

from oracles import eval_char_bialternant, family_from_dict_per_member, h_eval, in_T1


NU0 = SpectralParameter(3, (0, 0))


def coherent_member(seed=0, primes=(2,), with_coeffs=False, n=3):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, size=n - 1)
    x = canonicalize(np.exp(1j * np.append(theta, -theta.sum())))
    satake = {p: x for p in primes}
    coeffs = None
    if with_coeffs:
        coeffs = {
            idx: coefficient(x, idx)
            for idx in (CoefficientIndex(n, l) for l in itertools.product((0, 1), repeat=n - 1))
        }
    return FamilyMember(nu=SpectralParameter(n, (0,) * (n - 1)), l1_adjoint=2.0, coefficients=coeffs, satake=satake)


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
        # NaN fails every comparison, so only a finiteness check rejects these
        for xs, ys in [
            ([0.0, math.nan, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, math.inf], [1.0, 1.0]),
            ([0.0, 1.0], [1.0, math.nan]),
            ([0.0, 1.0], [math.inf, 0.0]),
        ]:
            with pytest.raises(ValueError, match="must be finite"):
                TestFunctionH.from_table(xs, ys)


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

    def test_callable_reads_the_rows_at_p_alone(self, monkeypatch):
        only_at_3 = FamilyMember(nu=NU0, l1_adjoint=1.0, satake={3: coherent_member(seed=4).satake[2]})
        fam = Family(3, (coherent_member(seed=3, primes=(2, 3)), only_at_3))
        monkeypatch.setattr(Family, "members", property(lambda self: pytest.fail("members built")))
        h = TestFunctionH.gaussian()
        assert l_functional(fam, 3, lambda x: 1.0, h, 5.0) == 1.0
        with pytest.raises(FamilyValidationError, match=r"^member 1: no Satake parameter at p=2$"):
            l_functional(fam, 2, lambda x: 1.0, h, 5.0)
        with pytest.raises(FamilyValidationError, match=r"^member 0: no Satake parameter at p=5$"):
            l_functional(fam, 5, lambda x: 1.0, h, 5.0)

    def test_weighted_stat_se(self):
        values = np.array([1.0, 0.0, 1.0, 0.0])
        weights = np.ones(4)
        mean, se = weighted_stat(values, weights)
        assert mean == 0.5
        assert se == pytest.approx(0.25)


class TestOverflowingWeights:
    # L(1, Ad) = 1e-320 is finite and positive, but h_T(nu) / L(1, Ad) overflows to inf
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_statistics_reject_the_overflow_quietly(self):
        fam = Family(3, (FamilyMember(nu=NU0, l1_adjoint=1e-320, satake=coherent_member().satake),))
        h = TestFunctionH.gaussian()
        with pytest.raises(FamilyValidationError, match="not finite"):
            equidist_report(fam, 2, [TensorSpec(3, (0, 0, 0, 0))], h, [10.0])
        with pytest.raises(FamilyValidationError, match="not finite"):
            l_functional(fam, 2, lambda x: 1.0, h, 10.0)

    # L(1, Ad) = 1e-200 gives finite weights near 1e200, whose squares overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_weights_give_a_finite_standard_error(self):
        fam = Family(3, (FamilyMember(nu=NU0, l1_adjoint=1e-200, satake=coherent_member().satake),))
        (row,) = equidist_report(fam, 2, [TensorSpec(3, (0, 0, 0, 0))], TestFunctionH.gaussian(), [10.0])
        assert (row.estimate, row.std_error, row.ess) == (1.0, 0.0, 1.0)
        assert weighted_stat(np.array([1.0, 3.0]), np.array([1e200, 1e200])) == (2.0, pytest.approx(math.sqrt(0.5)))


def _faulty_members():
    x, a10 = coherent_member(seed=50).satake[2], CoefficientIndex(3, (1, 0))
    return {
        "incoherent coefficient": FamilyMember(NU0, 1.0, {a10: coefficient(x, a10) + 1}, {2: x}),
        "rank-4 index": FamilyMember(NU0, 1.0, {CoefficientIndex(4, (1, 0, 0)): 0.5}),
        "non-prime key": FamilyMember(NU0, 1.0, None, {4: x}),
        "nan coefficient": FamilyMember(NU0, 1.0, {a10: complex(math.nan, 0.0)}),
        "index above the bound": FamilyMember(NU0, 1.0, {CoefficientIndex(3, (MAX_INDEX_DEGREE + 1, 0)): 0.0}),
        "infinite nu": FamilyMember(SpectralParameter(3, (math.inf, 0.0)), 1.0),
        "rank-4 parameter": FamilyMember(NU0, 1.0, None, {2: coherent_member(seed=51, n=4).satake[2]}),
        # wrong Python types, which a family file cannot give
        "string coefficient": FamilyMember(NU0, 1.0, {a10: "x"}),
        "tuple coefficient key": FamilyMember(NU0, 1.0, {(1, 0): 0.5}),
        "tuple Satake parameter": FamilyMember(NU0, 1.0, None, {2: (1, 1, 1)}),
        "tuple nu": FamilyMember((1j, 1j), 1.0),
        "tuple nu with coefficients": FamilyMember((1j, 1j), 1.0, {a10: 0.5}),
    }


class TestFamilyValidatesItsMembers:
    @pytest.mark.parametrize("kind", list(_faulty_members()))
    def test_rejects_what_the_loader_rejects(self, kind):
        mem = _faulty_members()[kind]
        with pytest.raises(FamilyValidationError, match="^member 0: "):
            Family(3, (mem,))
        with pytest.raises(FamilyValidationError, match="^member 1: "):
            Family(3, (coherent_member(seed=52, with_coeffs=True), mem))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_built_family_round_trips_bit_for_bit(self, data):
        # permuted parameters are held in canonical order, so the saved file loads back equal
        n = data.draw(st.sampled_from([2, 3, 4]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        keys = [CoefficientIndex(n, l) for l in itertools.product(range(3), repeat=n - 1) if sum(l) <= 2]
        members, params = [], []
        for _ in range(data.draw(st.integers(0, 5))):
            z = np.exp(rng.normal(scale=0.3, size=n - 1) + 1j * rng.uniform(0, 2 * np.pi, size=n - 1))
            x = canonicalize(np.append(z, 1 / np.prod(z)))
            primes = data.draw(st.lists(st.sampled_from([2, 3, 5]), unique=True, max_size=3))
            chosen = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
            permuted = SatakeParameter(n, tuple(rng.permutation(x.as_array())))
            coeffs = {idx: coefficient(x, idx) for idx in chosen}
            members.append(FamilyMember(
                nu=SpectralParameter(n, tuple(rng.normal(size=n - 1) + 1j * rng.uniform(1, 20, size=n - 1))),
                l1_adjoint=float(10 ** rng.uniform(-1, 1)),
                coefficients=coeffs if chosen or data.draw(st.booleans()) else None,
                satake=dict.fromkeys(primes, permuted) if primes or data.draw(st.booleans()) else None,
            ))
            params.append(x)
        fam = Family(n, tuple(members), label="built")
        assert all(y == x for mem, x in zip(fam.members, params) for y in (mem.satake or {}).values())
        assert same_bits(family_from_dict(family_to_dict(fam)), fam)


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
        scale = (3 / 4) ** 2.5  # the integer grid's factor at N=4 (1 up to N=3)
        for mem in fam.members:
            steps = [v.imag / scale for v in mem.nu.nu]
            assert all(v.real == 0 for v in mem.nu.nu)
            assert all(s >= 1 - 1e-12 and abs(s - round(s)) < 1e-9 for s in steps)

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

    @pytest.mark.parametrize("mode", ["sato-tate", "t1-perturbed"])
    def test_primes_may_be_any_iterable(self, mode):
        # the primes are read once, so an iterator gives the family its tuple gives
        fam = synth_family(3, 5, mode=mode, primes=iter((2, 3)), seed=1)
        assert fam.members == synth_family(3, 5, mode=mode, primes=(2, 3), seed=1).members


def saved_and_loaded(fam, directory: pathlib.Path):
    path = directory / "family.json"
    save_family(fam, path)
    return load_family(path)


# builder, and whether it must raise: every other builder saves a file that loads back
BUILDERS = {
    "label-none": (lambda: Family(3, (coherent_member(),), label=None), True),
    "label-int": (lambda: Family(3, (coherent_member(),), label=7), True),
    "rank-bool": (lambda: Family(True, ()), True),
    "rank-float": (lambda: Family(3.0, (coherent_member(),)), True),
    "rank-numpy": (lambda: Family(np.int64(3), (coherent_member(),)), True),
    "rank-1": (lambda: Family(1, ()), True),
    "synth-composite": (lambda: synth_family(3, 5, primes=(4,)), True),
    "synth-one": (lambda: synth_family(3, 5, primes=(1,)), True),
    "synth-bool": (lambda: synth_family(3, 5, primes=(True,)), True),
    "synth-float-prime": (lambda: synth_family(3, 5, primes=(2.0,)), True),
    "synth-rank-numpy": (lambda: synth_family(np.int64(3), 5), True),
    "synth-numpy-prime": (lambda: synth_family(3, 5, primes=(np.int64(3),)), True),
    "member-numpy-prime": (lambda: Family(3, (coherent_member(primes=(np.int64(2),)),)), True),
    "synth-no-primes": (lambda: synth_family(3, 5, primes=()), False),
    "labelled": (lambda: Family(3, (coherent_member(),), label="kept"), False),
}


class TestEveryBuilderSavesALoadableFamily:
    @pytest.mark.parametrize("build, raises", BUILDERS.values(), ids=BUILDERS.keys())
    def test_raises_or_round_trips(self, build, raises, tmp_path):
        if raises:
            with pytest.raises(FamilyValidationError):
                build()
        else:
            fam = build()
            assert same_bits(saved_and_loaded(fam, tmp_path), fam)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        mode=st.sampled_from(["sato-tate", "t1-perturbed"]),
        primes=st.lists(st.integers(-2, 30) | st.booleans(), max_size=3),
    )
    def test_synthetic_family_raises_or_round_trips(self, tmp_path_factory, n, mode, primes):
        if all(type(p) is int and _is_prime(p) for p in primes) and len(set(primes)) == len(primes):
            fam = synth_family(n, 4, mode=mode, primes=tuple(primes), seed=1)
            assert same_bits(saved_and_loaded(fam, tmp_path_factory.mktemp("synth")), fam)
        else:
            with pytest.raises(FamilyValidationError, match="prime"):
                synth_family(n, 4, mode=mode, primes=tuple(primes), seed=1)

    def test_a_repeated_prime_is_named_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a bank")

        monkeypatch.setattr(families, "_haar_su_varrho", no_draw)
        with pytest.raises(FamilyValidationError, match="primes must be distinct: 3 is repeated"):
            synth_family(3, 5, primes=(3, 2, 3), seed=1)


class TestEquidistReport:
    def test_zero_spec_has_zero_difference(self):
        fam = synth_family(3, 100, seed=12)
        rows = equidist_report(fam, 2, [TensorSpec(3, (0, 0, 0, 0))], TestFunctionH.gaussian(), [10.0, 100.0])
        assert all(r.difference == 0.0 for r in rows)

    def test_difference_shrinks_with_family_size(self):
        # the mean over ten seeds, since one seed's two differences may fall in either order by chance
        h = TestFunctionH.gaussian()
        spec = TensorSpec(3, (1, 1, 0, 0))
        diffs = []
        for m in (100, 10000):
            rows = [equidist_report(synth_family(3, m, seed=seed), 2, [spec], h, [100.0])[0] for seed in range(15, 25)]
            diffs.append(np.mean([row.difference for row in rows]))
        assert diffs[1] < diffs[0]

    def test_scale_grid_may_be_any_iterable(self):
        # the scales are read once, so a generator gives the rows its list gives
        fam, h, spec = synth_family(3, 50, seed=13), TestFunctionH.gaussian(), TensorSpec(3, (1, 1, 0, 0))
        rows = equidist_report(fam, 2, [spec], h, (t for t in [10.0, 30.0]))
        assert len(rows) == 2 and rows == equidist_report(fam, 2, [spec], h, [10.0, 30.0])

    def test_zero_spec_measures_zero(self):
        fam = synth_family(3, 50, seed=1)
        rows = equidist_report(fam, 2, [TensorSpec(3, (0, 0, 0, 0))], TestFunctionH.gaussian(), [10.0])
        assert rows[0].difference == 0.0

    def test_difference_of_a_healthy_family(self):
        fam = synth_family(3, 2000, seed=2)
        rows = equidist_report(fam, 2, [TensorSpec(3, (1, 1, 0, 0))], TestFunctionH.gaussian(), [50.0])
        assert rows[0].difference < 0.5  # statistic near its mean 1 for a healthy family

    def test_difference_equals_l_functional(self):
        fam = synth_family(3, 500, seed=3)
        spec = TensorSpec(3, (1, 1, 0, 0))
        h = TestFunctionH.gaussian()
        grid = [10.0, 30.0, 100.0]
        a0 = trivial_multiplicity(spec)
        rows = equidist_report(fam, 2, [spec], h, grid)
        assert [r.t for r in rows] == grid
        for t, row in zip(grid, rows):
            assert row.difference == abs(l_functional(fam, 2, spec, h, t) - a0)


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

    # warnings are errors: the overflow must be judged, not reported on stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_coefficient_next_to_an_overflowing_character(self):
        # h_r overflow to inf and s_lam is NaN; the true value is about 1e200
        doc = {"N": 3, "members": [{
            "nu": [[0, 1], [0, 1]], "L1Ad": 1,
            "satake": {"2": [[1e200, 0], [1e-200, 0], [1, 0]]},
            "coefficients": {"1,0": [12345, 0]},
        }]}
        with pytest.raises(FamilyValidationError, match=r"^member 0: coefficient \(1, 0\) incoherent"):
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

    # warnings are errors: the overflow must be judged, not reported on stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_satake_product_that_is_not_a_number(self):
        doc = {"N": 3, "members": [{
            "nu": [[0, 1], [0, 1]], "L1Ad": 1.0,
            "satake": {"2": [[1e200, 1e200], [1e200, 1e200], [1e-300, 0]]},
        }]}
        with pytest.raises(FamilyValidationError, match=r"^member 0: p=2: product deviates from 1 by nan"):
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


class TestColumnsBuiltOnce:
    def test_repeated_reports_equal_a_fresh_family(self):
        fam = mixed_family()
        h = TestFunctionH.gaussian()
        first = equidist_report(fam, 2, MIXED_SPECS, h, [10.0, 25.0])
        second = equidist_report(fam, 2, MIXED_SPECS, h, [10.0, 25.0])
        fresh = equidist_report(Family(fam.n, fam.members, fam.label), 2, MIXED_SPECS, h, [10.0, 25.0])
        assert first == second == fresh

    @pytest.mark.parametrize(
        "make", [lambda: synth_family(3, 50, primes=(2, 3), seed=25), mixed_family], ids=["synthetic", "mixed"]
    )
    def test_public_columns_are_read_only(self, make):
        fam = make()
        columns = [fam.nu, fam.l1, fam.lam, *fam.e.values(), *fam.coefficients.values(), *fam.coefficient_mask.values()]
        assert len(columns) >= 4
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        with pytest.raises(TypeError):
            fam.e[7] = fam.e[2]


GOLDEN = pathlib.Path(__file__).parent / "data" / "family-golden.json"


class TestColumnStore:
    def test_saving_a_loaded_file_reproduces_its_bytes(self, tmp_path):
        # written by the member-by-member writer: a member without Satake data, one with
        # coefficients only, two primes and the coefficient keys each in two orders
        again = tmp_path / "again.json"
        save_family(load_family(GOLDEN), again)
        assert again.read_bytes() == GOLDEN.read_bytes()

    def test_members_are_the_members_a_family_was_built_from(self):
        x, y = (coherent_member(seed=s).satake[2] for s in (40, 41))
        idx = [CoefficientIndex(3, l) for l in [(1, 0), (0, 0), (0, 1)]]
        members = (
            FamilyMember(SpectralParameter(3, (complex(-0.0, 1), 2j)), 0.5, {i: coefficient(x, i) for i in idx}, {5: x, 2: x}),
            FamilyMember(NU0, 3.0, {i: coefficient(y, i) for i in idx[::-1]}),
            FamilyMember(NU0, 1.5, {}, {}),
            FamilyMember(SpectralParameter(3, (1j, -0.0j)), 2.0, None, {2: x, 5: y}),
            *load_family(GOLDEN).members,
        )
        fam = Family(3, members, label="views")
        assert fam.label == "views" and len(fam) == len(members)
        assert same_bits(fam, SimpleNamespace(n=3, label="views", members=members))

    @pytest.mark.parametrize("n", [18, 20, 24, 30])
    def test_synthetic_weights_do_not_vanish_at_high_rank(self, n):
        # the integer grid's smallest Laplace eigenvalue, 133,332 at N=20, underflowed exp(-lam/T^2)
        fam = synth_family(n, 10, seed=0)
        assert fam.lam.min() < 1200
        h = TestFunctionH.gaussian()
        assert all(weight(mem, h, 10.0) > 0 for mem in fam.members)
        (row,) = equidist_report(fam, 2, [TensorSpec(n, (0,) * (2 * n - 2))], h, [10.0])
        assert row.estimate == 1.0 and row.ess >= 1.0


def eager_members(fam):
    """The members with dict Satake views, every prime's roots formed at once from fam.alphas."""
    alphas = {p: fam.alphas(p).tolist() for p in fam.e}
    return tuple(
        FamilyMember(
            mem.nu, mem.l1_adjoint, mem.coefficients,
            None if mem.satake is None else {p: SatakeParameter(fam.n, alphas[p][j]) for p in mem.satake},
        )
        for j, mem in enumerate(fam.members)
    )


@pytest.fixture
def roots_formed(monkeypatch):
    """The e-row arrays families._canonical_roots is called on, in call order."""
    formed = []
    roots = families._canonical_roots

    def counted(e):
        formed.append(e)
        return roots(e)

    monkeypatch.setattr(families, "_canonical_roots", counted)
    return formed


class TestLazyMemberRoots:
    def test_roots_are_formed_once_per_access_and_only_where_read(self, roots_formed):
        fam = synth_family(3, 50, primes=(2, 3, 5), seed=29)
        members = fam.members
        assert roots_formed == []
        assert all(2 in mem.satake and list(mem.satake) == [2, 3, 5] for mem in members)  # keys form no roots
        assert roots_formed == []
        first = [mem.satake[2] for mem in members]
        assert [mem.satake[2] for mem in members] == first
        assert len(roots_formed) == 1 and roots_formed[0] is fam.e[2]
        fam.members[0].satake[2]  # a new access forms its own roots
        assert len(roots_formed) == 2

    @pytest.mark.parametrize(
        "make, forms_roots",
        [
            (lambda: synth_family(3, 40, primes=(2, 3, 5), seed=30), True),
            (lambda: synth_family(4, 40, mode="t1-perturbed", primes=(3, 2), seed=31), False),
            (lambda: load_family(GOLDEN), False),
            (mixed_family, False),
        ],
        ids=["sato-tate", "t1-perturbed", "loaded", "mixed"],
    )
    def test_views_have_the_bits_of_eager_views(self, make, forms_roots, roots_formed):
        fam = make()
        roots_formed.clear()  # t1-perturbed synthesis forms its roots to perturb them
        eager = eager_members(fam)
        assert bool(roots_formed) == forms_roots  # stored rows need no roots
        assert same_bits(fam, SimpleNamespace(n=fam.n, label=fam.label, members=eager))
        assert fam.members == eager and eager == fam.members
        assert same_bits(Family(fam.n, fam.members, fam.label), fam)

    def test_unchecked_member_values_hold_what_the_checked_constructors_store(self):
        fam = synth_family(3, 5, primes=(2,), seed=33)
        for mem in fam.members:
            nu, x = mem.nu, mem.satake[2]
            assert nu == SpectralParameter(3, nu.nu) and x == SatakeParameter(3, x.alphas)
            assert all(type(t) is tuple and all(type(v) is complex for v in t) for t in (nu.nu, x.alphas))
        for cls, values in [
            (CoefficientIndex, (2, 0)), (SpectralParameter, nu.nu), (SatakeParameter, x.alphas), (DominantWeight, (2, 1, 0)),
        ]:
            value, checked = _unchecked(cls, 3, values), cls(3, values)
            assert type(value) is cls and value == checked and hash(value) == hash(checked) and repr(value) == repr(checked)

    def test_values_read_back_from_checked_rows_are_not_checked_again(self, monkeypatch):
        loaded, synthetic = load_family(GOLDEN), synth_family(3, 20, primes=(2,), seed=34)
        nu, coefficients = SpectralParameter(3, (1j, 2j)), {CoefficientIndex(3, (0, 0)): 1.0, CoefficientIndex(3, (1, 0)): 0.5}
        spec = TensorSpec(4, (2, 1, 1, 0, 0, 1))
        checks = Counter()
        for cls in (CoefficientIndex, SpectralParameter, SatakeParameter, DominantWeight):
            def counted(self, check=cls.__post_init__):
                checks[type(self).__name__] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        FamilyMember(nu, 1.0, coefficients)
        members = loaded.members
        assert any(mem.coefficients for mem in members)
        assert sum(len([mem.satake[p] for p in mem.satake]) for mem in members if mem.satake) > 0
        l_functional(synthetic, 2, lambda x: x.alphas[0], TestFunctionH.gaussian(), 10.0)
        assert tensor_decompose(spec)
        assert checks == Counter()

    def test_a_view_is_a_read_only_mapping_that_shows_its_parameters(self):
        fam = synth_family(3, 2, primes=(2, 3), seed=32)
        mem, eager = fam.members[0], eager_members(fam)[0]
        assert repr(mem) == repr(eager) and "object at" not in repr(mem.satake)
        assert repr(mem.satake) == repr({p: mem.satake[p] for p in (2, 3)})
        assert mem.satake.get(7) is None and 7 not in mem.satake and len(mem.satake) == 2
        with pytest.raises(KeyError):
            mem.satake[7]
        with pytest.raises(TypeError):
            mem.satake[7] = mem.satake[2]


class TestEffectiveSampleSize:
    def test_equal_weights_give_the_family_size(self):
        mem = coherent_member(seed=26)
        fam = Family(3, (mem,) * 40)
        rows = equidist_report(fam, 2, [TensorSpec(3, (1, 0, 0, 0))], TestFunctionH.gaussian(), [10.0, 100.0])
        assert [r.ess for r in rows] == pytest.approx([40.0, 40.0], rel=1e-12)

    def test_one_nonzero_weight_gives_one(self):
        far = FamilyMember(nu=SpectralParameter(3, (100j, 100j)), l1_adjoint=1.0, satake=coherent_member(seed=27).satake)
        fam = Family(3, (far, coherent_member(seed=28), far))
        (row,) = equidist_report(fam, 2, [TensorSpec(3, (1, 1, 0, 0))], TestFunctionH.indicator(), [2.0])
        assert row.ess == 1.0


class TestEmptyFamily:
    def test_an_empty_family_of_a_huge_rank_loads_at_once(self):
        # a member's nu has N-1 entries, but an empty family's rank is only a number
        start = time.perf_counter()
        fam = family_from_dict({"N": 10**9, "members": []})
        assert (fam.n, len(fam), time.perf_counter() - start < 1.0) == (10**9, 0, True)

    def test_report_and_rate_name_the_empty_family(self):
        empty = Family(3, ())
        with pytest.raises(FamilyValidationError, match="^empty family$"):
            equidist_report(empty, 2, [TensorSpec(3, (0, 0, 0, 0))], TestFunctionH.gaussian(), [10.0])


# --- the batched loader against the member-by-member oracle -------------------

BAD_PAIRS = [["x", 0.0], [1.0], [10**400, 0.0]]  # 10**400 overflows a float
FAULT_KINDS = [
    "short nu", "unknown field", "missing L1Ad", "non-prime key", "short entry", "bad Satake pair",
    "bad coefficient pair", "zero entry", "product", "L1Ad", "c0", "incoherent",
]


def pair(z):
    return [z.real, z.imag]


def same_bits(a, b):
    """Bitwise equality of two loaded families, down to key order and signed zeros."""
    def bits(z):
        return (float(z.real).hex(), float(z.imag).hex())

    def member(mem):
        return (
            [bits(v) for v in mem.nu.nu],
            float(mem.l1_adjoint).hex(),
            None if mem.coefficients is None else [(idx.l, bits(v)) for idx, v in mem.coefficients.items()],
            None if mem.satake is None else [(p, [bits(v) for v in x.alphas]) for p, x in mem.satake.items()],
        )

    return (a.n, a.label, [member(m) for m in a.members]) == (b.n, b.label, [member(m) for m in b.members])


@st.composite
def faulty_documents(draw):
    """Coherent documents of up to six members with heterogeneous coefficient
    keys and prime sets, then up to three faults in random members."""
    n = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = (80,) if n == 2 else (0,) * (n - 3) + (40, 40)  # h_r large enough to show summation order
    keys = [high] + [l for l in itertools.product(range(3), repeat=n - 1) if sum(l) <= 2]
    zero_key = ",".join(["0"] * (n - 1))

    def entries(x, rescaled=True):  # permuted; product off 1 by up to 1e-8 if rescaled on load
        alphas = rng.permutation(x.as_array())
        if rescaled:
            alphas = alphas * np.append(1 + rng.uniform(-1e-8, 1e-8), np.ones(n - 1))
        return [pair(a) for a in alphas]

    members, params = [], []
    for _ in range(draw(st.integers(1, 6))):
        z = np.exp(rng.normal(scale=0.3, size=n - 1) + 1j * rng.uniform(0, 2 * np.pi, size=n - 1))
        x = canonicalize(np.append(z, 1 / np.prod(z)))
        raw = {"nu": [[0.0, float(v)] for v in rng.uniform(1, 20, size=n - 1)], "L1Ad": float(10 ** rng.uniform(-1, 1))}
        chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
        primes = draw(st.lists(st.sampled_from(["2", "3", "5"]), unique=True, max_size=3))
        if primes or draw(st.booleans()):
            # a rescaled entry moves a high-degree character value by far more than 1e-6
            raw["satake"] = {p: entries(x, rescaled=high not in chosen) for p in primes}
        if chosen or draw(st.booleans()):
            raw["coefficients"] = {
                ",".join(map(str, l)): pair(coefficient(x, CoefficientIndex(n, l))) for l in chosen
            }
        members.append(raw)
        params.append(x)
    for _ in range(draw(st.sampled_from([1, 2, 3, 0]))):
        # drawn from rng: hypothesis favours the first of a list, and every kind should be common
        j = int(rng.integers(len(members)))
        raw, kind = members[j], FAULT_KINDS[rng.integers(len(FAULT_KINDS))]
        satake = raw.setdefault("satake", {})
        if not satake and kind in ("short entry", "bad Satake pair", "zero entry", "product", "incoherent"):
            satake["7"] = entries(params[j])
        coeffs = raw.setdefault("coefficients", {})
        if kind == "short nu":
            raw["nu"] = raw["nu"][1:]
        elif kind == "unknown field":
            raw["junk"] = 1
        elif kind == "missing L1Ad":
            raw.pop("L1Ad", None)
        elif kind == "non-prime key":  # at a random place among the primes
            items = list(satake.items())
            items.insert(draw(st.integers(0, len(items))), ("4", [[1.0, 0.0]] * n))
            raw["satake"] = dict(items)
        elif kind == "short entry":  # idempotent, so a later fault still finds n - 1 pairs
            p = draw(st.sampled_from(sorted(satake)))
            satake[p] = satake[p][: n - 1]
        elif kind == "bad Satake pair":
            p = draw(st.sampled_from(sorted(satake)))
            satake[p][draw(st.integers(0, len(satake[p]) - 1))] = draw(st.sampled_from(BAD_PAIRS))
        elif kind == "bad coefficient pair":
            coeffs[zero_key] = draw(st.sampled_from(BAD_PAIRS))
        elif kind in ("zero entry", "product"):
            p = draw(st.sampled_from(sorted(satake)))
            i = draw(st.integers(0, len(satake[p]) - 1))
            if kind == "zero entry":
                satake[p][i] = [0.0, 0.0]
            elif draw(st.booleans()):
                satake[p][i] = [2 * v for v in satake[p][i]]
            else:  # product 1 in file order; at N=4 it underflows in the canonical order
                satake[p] = [[1e200, 0.0], [1e-200, 0.0]] * (n // 2) + [[1.0, 0.0]] * (n % 2)
        elif kind == "L1Ad":
            raw["L1Ad"] = draw(st.sampled_from([0, -1.5, "abc", "nan", "inf", 10**400]))
        elif kind == "c0":
            coeffs[zero_key] = [2.0, 0.0]
        else:
            # a "bad coefficient pair" fault may have left a malformed pair such as [1.0]
            numeric = sorted(k for k, v in coeffs.items() if len(v) == 2 and all(isinstance(x, float) for x in v))
            key = draw(st.sampled_from(numeric)) if numeric else ",".join(["1"] + ["0"] * (n - 2))
            re, im = coeffs.get(key, [0.0, 0.0])
            coeffs[key] = [re + draw(st.sampled_from([1e-3, 0.5, 99.0])), im]
    return {"N": n, "label": "fuzz", "members": members}


class TestBatchedLoader:
    # a document with entries 1e200 and 1e-200 overflows the character values
    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(faulty_documents())
    def test_matches_member_by_member_loader(self, doc):
        try:
            want = family_from_dict_per_member(doc)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)) as got:
                family_from_dict(doc)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        assert same_bits(family_from_dict(doc), want)

    def test_reports_the_lowest_numbered_faulty_member(self):
        members = [coherent_member(seed=s, primes=(2, 3), with_coeffs=True) for s in (30, 31, 32)]
        doc = family_to_dict(Family(3, tuple(members)))
        doc["members"][2]["nu"] = "junk"
        doc["members"][1]["coefficients"]["1,0"][0] += 0.5
        with pytest.raises(FamilyValidationError, match=r"^member 1: coefficient \(1, 0\) incoherent"):
            family_from_dict(doc)

    def test_keeps_the_field_order_within_a_member(self):
        doc = family_to_dict(Family(3, (coherent_member(seed=33, primes=(2, 3)),)))
        satake = doc["members"][0]["satake"]
        satake["2"][0] = [2 * v for v in satake["2"][0]]
        satake["3"] = satake["3"][1:]
        with pytest.raises(FamilyValidationError, match=r"^member 0: p=2: product deviates"):
            family_from_dict(doc)

    def test_reports_the_first_failing_satake_row_in_file_order(self):
        members = [coherent_member(seed=s, primes=(2, 3)) for s in (34, 35, 36)]
        doc = family_to_dict(Family(3, tuple(members)))
        doc["members"][2]["satake"]["2"][0] = [0.0, 0.0]
        doc["members"][1]["satake"]["3"][1] = [0.0, 0.0]
        doc["members"][1]["satake"]["2"][0] = [2 * v for v in doc["members"][1]["satake"]["2"][0]]
        with pytest.raises(FamilyValidationError, match=r"^member 1: p=2: product deviates"):
            family_from_dict(doc)

    def test_high_degree_coefficients_at_n4_load_as_member_by_member(self):
        # at |l| = 80 slightly off the torus the h_r reach 1e4 or more, and another
        # order of adding up the h recurrence moves s_lam by more than 1e-6
        idx = CoefficientIndex(4, (0, 40, 40))
        rng = np.random.default_rng(3)
        members = []
        for _ in range(8):
            z = np.exp(rng.normal(scale=0.05, size=3) + 1j * rng.uniform(0, 2 * np.pi, size=3))
            x = canonicalize(np.append(z, 1 / np.prod(z)))
            members.append(FamilyMember(
                nu=SpectralParameter(4, (1j, 1j, 1j)), l1_adjoint=1.0,
                coefficients={idx: coefficient(x, idx)}, satake={2: x},
            ))
        doc = family_to_dict(Family(4, tuple(members)))
        assert same_bits(family_from_dict(doc), family_from_dict_per_member(doc))

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_batch_per_prime_and_one_schur_call_per_key_tuple(self, monkeypatch, n):
        members = [coherent_member(seed=s, primes=(2, 3), with_coeffs=True, n=n) for s in range(40)]
        doc = family_to_dict(Family(n, tuple(members)))  # built before counting: Family validates too
        calls = {"canonicalize_batch": 0, "_schur": 0}
        for name in calls:
            def counted(*args, _f=getattr(families, name), _name=name):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(families, name, counted)
        fam = family_from_dict(doc)
        assert len(fam) == 40
        assert calls == {"canonicalize_batch": 2, "_schur": 2}

    @staticmethod
    def coherent_document(m):
        members = [coherent_member(seed=s, primes=(2, 3), with_coeffs=True) for s in range(m)]
        return family_to_dict(Family(3, tuple(members)))

    @staticmethod
    def inject(raw, kind):
        """One fault in a member of coherent_document; the malformed field follows a valid row at p=2."""
        if kind == "malformed-field":
            raw["satake"]["3"] = raw["satake"]["3"][1:]
        elif kind == "bad-satake-row":
            raw["satake"]["2"][0] = [2 * v for v in raw["satake"]["2"][0]]
        else:
            raw["coefficients"]["1,0"][0] += 0.5

    @pytest.mark.parametrize("kind", ["malformed-field", "bad-satake-row", "incoherent-coefficient"])
    def test_halving_finds_a_single_fault_at_every_position(self, kind):
        # 37 members: an odd size, not a power of two, so the halves are uneven
        clean = self.coherent_document(37)
        for j in range(37):
            doc = copy.deepcopy(clean)
            self.inject(doc["members"][j], kind)
            with pytest.raises(FamilyValidationError) as want:
                family_from_dict_per_member(doc)
            with pytest.raises(FamilyValidationError, match=f"^member {j}: ") as got:
                family_from_dict(doc)
            assert str(got.value) == str(want.value)

    def test_the_first_of_two_faulty_members_is_reported(self):
        doc = self.coherent_document(37)
        self.inject(doc["members"][0], "incoherent-coefficient")
        self.inject(doc["members"][36], "bad-satake-row")
        with pytest.raises(FamilyValidationError, match=r"^member 0: coefficient \(1, 0\) incoherent"):
            family_from_dict(doc)

    def test_a_fault_in_the_last_member_takes_logarithmically_many_batches(self, monkeypatch):
        m, primes = 256, 2
        doc = self.coherent_document(m)  # built before counting: Family validates too
        self.inject(doc["members"][m - 1], "bad-satake-row")
        calls = []

        def counted(rows, _f=families.canonicalize_batch):
            calls.append(len(rows))
            return _f(rows)

        monkeypatch.setattr(families, "canonicalize_batch", counted)
        with pytest.raises(FamilyValidationError, match=f"^member {m - 1}: p=2: product deviates"):
            family_from_dict(doc)
        # one batch per prime for the whole run, for each halving step and for the member left;
        # checking the members one at a time would take about m batches per prime
        assert len(calls) <= primes * (2 * math.log2(m) + 3)

