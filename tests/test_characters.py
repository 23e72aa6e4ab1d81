"""Character algebra against brute-force monomial oracles.

The oracle never touches the recursion under test: fundamental tables come
from exterior-power combinatorics, products from raw monomial convolution,
and numeric values from the bialternant ratio.
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satake_st.characters import (
    TensorSpec,
    TermBudgetExceeded,
    dim,
    dominant_part_sum,
    eval_char,
    product,
    specialization_bound_n3,
    tensor_decompose,
    trivial_multiplicity,
    weight_table,
)
from satake_st.satake import canonicalize, coefficient
from satake_st.weights import CoefficientIndex, DominantWeight, aleph, aleph_inv

from oracles import eval_char_bialternant, freudenthal_weight_table, strip_by_strip_pieri


def canon(v):
    m = min(v)
    return tuple(int(c) - m for c in v)


def fundamental_oracle(n, k):
    """Weights of the k-th exterior power: sums of k distinct basis vectors."""
    terms = {}
    for comb in itertools.combinations(range(n), k):
        v = [0] * n
        for i in comb:
            v[i] = 1
        terms[canon(v)] = 1
    return terms


def convolve_oracle(a, b):
    out = {}
    for wa, ma in a.items():
        for wb, mb in b.items():
            key = canon([x + y for x, y in zip(wa, wb)])
            out[key] = out.get(key, 0) + ma * mb
    return {k: v for k, v in out.items() if v}


def spec_table_oracle(spec):
    table = {(0,) * spec.n: 1}
    for k in range(1, spec.n):
        for _ in range(spec.plain(k)):
            table = convolve_oracle(table, fundamental_oracle(spec.n, k))
        for _ in range(spec.conjugate(k)):
            table = convolve_oracle(table, fundamental_oracle(spec.n, spec.n - k))
    return table


def all_specs(n, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=2 * (n - 1)):
        if sum(exps) <= max_degree:
            yield TensorSpec(n, exps)


def random_torus_point(n, rng):
    """Random point with unit-modulus entries and product exactly forced to 1."""
    theta = rng.uniform(0, 2 * np.pi, size=n - 1)
    return np.exp(1j * np.append(theta, -theta.sum()))


class TestWeightTable:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fundamentals_match_exterior_powers(self, n):
        for k in range(1, n):
            got = weight_table(DominantWeight.fundamental(n, k))
            assert got.terms == fundamental_oracle(n, k)

    def test_adjoint_n3(self):
        # chi_1 * chi_2 = chi_adjoint + 1, so the adjoint table is the
        # convolution minus the trivial term
        expected = convolve_oracle(fundamental_oracle(3, 1), fundamental_oracle(3, 2))
        expected[(0, 0, 0)] -= 1
        got = weight_table(DominantWeight(3, (2, 1, 0)))
        assert got.terms == expected
        assert got.multiplicity((0, 0, 0)) == 2
        assert sum(1 for w, m in got.terms.items() if w != (0, 0, 0) and m == 1) == 6

    @pytest.mark.parametrize(
        "n, parts",
        [(3, (2, 0, 0)), (3, (3, 1, 0)), (3, (2, 2, 0)), (4, (2, 1, 1, 0)), (4, (2, 2, 0, 0))],
    )
    def test_mass_equals_dimension(self, n, parts):
        mu = DominantWeight(n, parts)
        assert weight_table(mu).mass() == dim(mu)

    @pytest.mark.parametrize(
        "n, parts", [(3, (3, 1, 0)), (4, (2, 1, 1, 0)), (5, (3, 2, 1, 0, 0))], ids=["n3", "n4", "n5"]
    )
    def test_weyl_invariance(self, n, parts):
        table = weight_table(DominantWeight(n, parts))
        for w, m in table.terms.items():
            for perm in itertools.permutations(w):
                assert table.terms[canon(perm)] == m

    def test_budget_guard(self):
        with pytest.raises(TermBudgetExceeded):
            weight_table(DominantWeight(3, (40, 20, 0)), budget=100)

    def test_matches_freudenthal_on_every_small_constituent(self):
        mus = set()
        for n, d in [(2, 8), (3, 6), (4, 4), (5, 3), (6, 3)]:
            for spec in TensorSpec.up_to_degree(n, d):
                mus.update(tensor_decompose(spec))
        assert len(mus) == 163
        for mu in mus:
            assert weight_table(mu).terms == freudenthal_weight_table(mu.n, mu.parts), mu.parts


class TestDim:
    def test_examples(self):
        assert dim(DominantWeight(3, (1, 0, 0))) == 3
        assert dim(DominantWeight(3, (2, 1, 0))) == 8
        assert dim(DominantWeight(5, (0,) * 5)) == 1

    def test_hook_content_values(self):
        assert dim(DominantWeight(3, (3, 0, 0))) == 10
        assert dim(DominantWeight(4, (1, 1, 0, 0))) == 6
        assert dim(DominantWeight(4, (2, 1, 0, 0))) == 20
        assert dim(DominantWeight(4, (2, 1, 1, 0))) == 15


class TestProduct:
    def test_trivial_identity(self):
        one = weight_table(DominantWeight.zero(3))
        t = weight_table(DominantWeight(3, (2, 1, 0)))
        assert product(one, t).terms == t.terms

    def test_n2_square(self):
        t = weight_table(DominantWeight(2, (1, 0)))
        sq = product(t, t)
        assert sq.terms == {(2, 0): 1, (0, 0): 2, (0, 2): 1}
        assert sq.mass() == 4
        assert sq.multiplicity((2, 0)) == 1

    def test_n3_chi1_chi2(self):
        got = product(
            weight_table(DominantWeight(3, (1, 0, 0))),
            weight_table(DominantWeight(3, (1, 1, 0))),
        )
        expected = convolve_oracle(fundamental_oracle(3, 1), fundamental_oracle(3, 2))
        assert got.terms == expected
        assert got.multiplicity((0, 0, 0)) == 3

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            product(weight_table(DominantWeight(2, (1, 0))), weight_table(DominantWeight(3, (1, 0, 0))))


class TestTensorDecompose:
    def test_defining_times_conjugate(self):
        dec = tensor_decompose(TensorSpec(3, (1, 1, 0, 0)))
        assert {mu.parts: a for mu, a in dec.items()} == {(2, 1, 0): 1, (0, 0, 0): 1}

    def test_defining_cubed(self):
        dec = tensor_decompose(TensorSpec(3, (3, 0, 0, 0)))
        assert {mu.parts: a for mu, a in dec.items()} == {
            (3, 0, 0): 1,
            (2, 1, 0): 2,
            (0, 0, 0): 1,
        }
        assert sum(a * dim(mu) for mu, a in dec.items()) == 27

    def test_empty_spec(self):
        dec = tensor_decompose(TensorSpec(4, (0,) * 6))
        assert dec == {DominantWeight.zero(4): 1}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_peeling_reconstructs_product_table(self, n):
        for spec in all_specs(n, 3):
            expected = spec_table_oracle(spec)
            dec = tensor_decompose(spec)
            rebuilt = {}
            for mu, a in dec.items():
                for w, m in weight_table(mu).terms.items():
                    rebuilt[w] = rebuilt.get(w, 0) + a * m
            rebuilt = {k: v for k, v in rebuilt.items() if v}
            assert rebuilt == expected, spec

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dimension_checksum(self, n):
        for spec in all_specs(n, 3):
            dec = tensor_decompose(spec)
            total = sum(a * dim(mu) for mu, a in dec.items())
            expected = math.prod(dim(w) for w in spec.factor_weights())
            assert total == expected

    def test_trivial_multiplicity_examples(self):
        assert trivial_multiplicity(TensorSpec(3, (1, 1, 0, 0))) == 1
        assert trivial_multiplicity(TensorSpec(3, (3, 0, 0, 0))) == 1
        assert trivial_multiplicity(TensorSpec(3, (1, 0, 0, 0))) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_central_character_constraint(self, n):
        # a_0 > 0 forces sum(k i_k) + sum((N-k) i'_k) = 0 mod N
        for spec in all_specs(n, 4):
            if trivial_multiplicity(spec) > 0:
                charge = sum(
                    k * spec.plain(k) + (n - k) * spec.conjugate(k) for k in range(1, n)
                )
                assert charge % n == 0, spec


@st.composite
def pieri_specs(draw, max_n=8, max_degree=8):
    """A spec of rank 2..max_n with at most max_degree factors, as a multiset of slots."""
    n = draw(st.integers(2, max_n))
    exps = [0] * (2 * (n - 1))
    for slot in draw(st.lists(st.integers(0, 2 * n - 3), max_size=max_degree)):
        exps[slot] += 1
    return TensorSpec(n, tuple(exps))


def reference_tried(spec):
    """The reference's total of candidate strips, the least budget it succeeds at.

    A failing try names the running total through its failing step; the next
    try allows exactly that, so each try gets at least one step further.
    """
    budget = spec.degree
    while True:
        try:
            strip_by_strip_pieri(spec, budget)
            return budget
        except TermBudgetExceeded as exc:
            budget = int(re.search(r"with (\d+) candidate strips", str(exc)).group(1))


def budget_verdict(decompose, spec, budget):
    try:
        decompose(spec, budget)
    except TermBudgetExceeded as exc:
        return str(exc)
    return None


class TestStripTables:
    """The strip-table Pieri loop against the strip-by-strip one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(pieri_specs(), st.data())
    def test_matches_strip_by_strip_pieri(self, spec, data):
        want = strip_by_strip_pieri(spec)
        got = tensor_decompose(spec)
        assert got == want
        assert list(got) == list(want)
        total = reference_tried(spec)
        offset = data.draw(st.one_of(st.integers(-2, 2), st.integers(-total, total)), label="offset")
        for budget in (total - 1, total, total + offset):
            assert budget_verdict(tensor_decompose, spec, budget) == budget_verdict(
                strip_by_strip_pieri, spec, budget
            ), budget

    def test_every_spec_up_to_the_exact_workload_degrees(self):
        for n, d in [(3, 7), (4, 5), (5, 4)]:
            for spec in TensorSpec.up_to_degree(n, d):
                want = strip_by_strip_pieri(spec)
                got = tensor_decompose(spec)
                assert got == want and list(got) == list(want), spec.exponents

    def test_budget_message_names_the_running_total(self):
        want = "Pieri steps with 1148 candidate strips in total exceed budget 1000"
        for decompose in (strip_by_strip_pieri, tensor_decompose):
            assert budget_verdict(decompose, TensorSpec(4, (4,) * 6), 1000) == want


class TestEvalChar:
    def test_defining_is_trace(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            a = random_torus_point(n, rng)
            got = eval_char(DominantWeight.fundamental(n, 1), a)
            assert abs(got - a.sum()) < 1e-12

    def test_identity_values_are_dimensions(self):
        ones = np.ones(3, dtype=complex)
        assert abs(eval_char(DominantWeight(3, (1, 1, 0)), ones) - 3) < 1e-10
        assert abs(eval_char(DominantWeight(3, (2, 1, 0)), ones) - 8) < 1e-10

    @pytest.mark.parametrize(
        "n, parts",
        [
            (3, (2, 1, 0)),
            (3, (3, 1, 0)),
            (3, (4, 2, 0)),  # dim 27
            (4, (2, 1, 1, 0)),
            (4, (2, 2, 1, 0)),
        ],
    )
    def test_matches_weight_table_sum(self, n, parts):
        mu = DominantWeight(n, parts)
        assert dim(mu) <= 200
        table = weight_table(mu)
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_torus_point(n, rng)
            brute = sum(m * np.prod(a ** np.array(w)) for w, m in table.terms.items())
            got = eval_char(mu, a)
            assert abs(got - brute) <= 1e-10 * max(1.0, abs(brute))

    def test_matches_bialternant_at_distinct_eigenvalues(self):
        rng = np.random.default_rng(23)
        for n, parts in [(3, (3, 1, 0)), (4, (2, 1, 1, 0))]:
            mu = DominantWeight(n, parts)
            for _ in range(20):
                a = random_torus_point(n, rng)
                assert abs(eval_char(mu, a) - eval_char_bialternant(mu, a)) < 1e-9

    def test_finite_at_coincident_eigenvalues(self):
        a = np.array([1j, 1j, -1.0])  # product 1, repeated entry
        got = eval_char(DominantWeight(3, (2, 1, 0)), a)
        assert np.isfinite(got.real) and np.isfinite(got.imag)

    def test_vectorized_shape(self):
        rng = np.random.default_rng(3)
        batch = np.stack([random_torus_point(3, rng) for _ in range(8)])
        out = eval_char(DominantWeight(3, (2, 1, 0)), batch)
        assert out.shape == (8,)

    def test_conjugation_pairs_fundamentals_on_torus(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 4, 5):
            a = random_torus_point(n, rng)
            for k in range(1, n):
                lhs = eval_char(DominantWeight.fundamental(n, k), a)
                rhs = eval_char(DominantWeight.fundamental(n, n - k), a)
                assert abs(lhs - np.conj(rhs)) < 1e-10

    def test_rejects_zero_eigenvalue(self):
        with pytest.raises(ValueError):
            eval_char(DominantWeight(3, (1, 0, 0)), np.array([0.0, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "n, parts", [(3, (40, 7, 0)), (3, (1000, 0, 0)), (4, (30, 12, 5, 0))], ids=["40-7", "1000", "n4"]
    )
    def test_matches_bialternant_at_high_degree(self, n, parts):
        mu = DominantWeight(n, parts)
        rng = np.random.default_rng(31)
        batch = np.stack([random_torus_point(n, rng) for _ in range(10)])
        want = eval_char_bialternant(mu, batch)
        assert np.max(np.abs(eval_char(mu, batch) - want) / np.abs(want)) < 1e-9

    @pytest.mark.parametrize(
        "n, parts", [(3, (2, 1, 0)), (3, (5, 3, 0)), (4, (3, 2, 1, 0)), (5, (4, 2, 2, 1, 0))]
    )
    def test_rows_off_su_n_keep_the_e_n_term(self, n, parts):
        mu = DominantWeight(n, parts)
        rng = np.random.default_rng(37)
        rows = rng.normal(size=(20, n)) + 1j * rng.normal(size=(20, n))
        assert np.min(np.abs(np.prod(rows, axis=-1) - 1.0)) > 0.1
        want = eval_char_bialternant(mu, rows)
        assert np.max(np.abs(eval_char(mu, rows) - want) / np.abs(want)) < 1e-9

    def test_coefficient_at_index_1000_matches_bialternant(self):
        x = canonicalize(random_torus_point(3, np.random.default_rng(41)))
        idx = CoefficientIndex(3, (1000, 0))
        want = eval_char_bialternant(aleph(idx), x.as_array())
        assert abs(coefficient(x, idx) - want) < 1e-9 * abs(want)


class TestUpToDegree:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_filtered_product_scan_in_order(self, n):
        for d in range(5):
            assert TensorSpec.up_to_degree(n, d) == list(all_specs(n, d))

    def test_negative_degree_is_empty(self):
        assert TensorSpec.up_to_degree(3, -1) == []


class TestDominantPartSum:
    def test_single_defining_factor(self):
        assert dominant_part_sum(TensorSpec(3, (1, 0, 0, 0)), 4, 0.5) == pytest.approx(2.0)

    def test_defining_times_conjugate(self):
        # zero weight carries product-table coefficient 3, adjoint weight 1
        assert dominant_part_sum(TensorSpec(3, (1, 1, 0, 0)), 4, 0.5) == pytest.approx(7.0)

    def test_degree_zero(self):
        assert dominant_part_sum(TensorSpec(3, (0, 0, 0, 0)), 4, 0.5) == 1.0

    def test_brute_force_agreement(self):
        # independent route: oracle table, dominant entries, explicit weights
        from satake_st.weights import aleph_inv

        spec = TensorSpec(3, (1, 1, 1, 0))
        p, alpha = 3, 0.5
        table = spec_table_oracle(spec)
        expected = 0.0
        for w, c in table.items():
            if w[0] >= w[1] >= w[2]:
                l = aleph_inv(DominantWeight(3, w)).l
                expected += c * p ** (alpha * sum(l))
        assert dominant_part_sum(spec, p, alpha) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("exps", [(2, 1, 1, 0), (0, 3, 1, 0), (1, 1, 1, 1)])
    def test_sum_does_not_depend_on_table_order(self, exps):
        # the oracle lists its weights in another order; both orders give the same float
        spec = TensorSpec(3, exps)
        for p, alpha in [(2, 7 / 64), (5, 5 / 3)]:
            terms = [
                c * float(p) ** (alpha * sum(aleph_inv(DominantWeight(3, w)).l))
                for w, c in spec_table_oracle(spec).items()
                if w[0] >= w[1] >= w[2]
            ]
            assert dominant_part_sum(spec, p, alpha) == math.fsum(terms[::-1])

    @pytest.mark.parametrize(
        "n, degree, points",
        [
            (3, 4, [(p, alpha) for p in (2, 3, 5) for alpha in (7 / 64, 0.5, 5 / 3)]),
            (4, 3, [(2, 7 / 64), (5, 5 / 3)]),
        ],
        ids=["n3", "n4"],
    )
    def test_equals_oracle_product_table(self, n, degree, points):
        # the oracle convolves exterior-power tables; the library never builds a product table
        for spec in all_specs(n, degree):
            dominant = [
                (c, sum(aleph_inv(DominantWeight(n, w)).l))
                for w, c in spec_table_oracle(spec).items()
                if all(x >= y for x, y in zip(w, w[1:]))
            ]
            for p, alpha in points:
                expected = math.fsum(c * float(p) ** (alpha * l) for c, l in dominant)
                assert dominant_part_sum(spec, p, alpha) == expected, (spec, p, alpha)

    def test_degree_above_budget_fails_at_once(self):
        with pytest.raises(TermBudgetExceeded):
            dominant_part_sum(TensorSpec(3, (10**6 + 1, 0, 0, 0)), 2, 0.5)


class TestSpecializationBound:
    def test_closed_form_values(self):
        assert specialization_bound_n3(TensorSpec(3, (1, 0, 0, 0)), 4, 0.5) == pytest.approx(3.5)
        assert specialization_bound_n3(TensorSpec(3, (0, 0, 0, 0)), 7, 1.0) == 1.0
        # frozen from an independent high-precision evaluation of
        # (2^(7/64) + 1 + 2^(-7/64))^2
        assert specialization_bound_n3(TensorSpec(3, (1, 1, 0, 0)), 2, 7 / 64) == pytest.approx(
            9.034535228436442, rel=1e-12
        )

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            specialization_bound_n3(TensorSpec(4, (1, 0, 0, 0, 0, 0)), 2, 0.5)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [7 / 64, 0.5, 5 / 3])
    def test_dominant_sum_below_bound(self, p, alpha):
        for spec in all_specs(3, 3):
            exact = dominant_part_sum(spec, p, alpha)
            bound = specialization_bound_n3(spec, p, alpha)
            assert exact <= bound
            if spec.degree >= 1:
                assert exact < bound
