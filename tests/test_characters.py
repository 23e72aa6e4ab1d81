"""Character algebra against brute-force monomial oracles.

The oracle never touches the recursion under test: fundamental tables come
from exterior-power combinatorics, products from raw monomial convolution,
and numeric values from the bialternant ratio.
"""

import cmath
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
    _schur,
    _strip_table,
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

from oracles import (
    eval_char_bialternant,
    freudenthal_weight_table,
    monomial_by_complex_power,
    strip_by_strip_pieri,
    strip_table_by_combinations,
)


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

    def test_result_keys_are_checked_weights(self):
        for n, d in [(3, 7), (4, 5), (5, 4)]:
            for spec in TensorSpec.up_to_degree(n, d):
                for mu in tensor_decompose(spec):
                    checked = DominantWeight(mu.n, mu.parts)
                    assert type(mu) is DominantWeight and type(mu.parts) is tuple
                    assert mu == checked and hash(mu) == hash(checked) and repr(mu) == repr(checked)
                    assert all(type(x) is int for x in mu.parts), mu


@st.composite
def pieri_specs(draw, min_n=2, max_n=8, max_degree=8):
    """A spec of rank min_n..max_n with at most max_degree factors, as a multiset of slots."""
    n = draw(st.integers(min_n, max_n))
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
        self.assert_matches_strip_by_strip_pieri(spec, data)

    @settings(max_examples=60, deadline=None)
    @given(pieri_specs(min_n=9, max_n=12, max_degree=2), st.data())
    def test_matches_strip_by_strip_pieri_at_ranks_9_to_12(self, spec, data):
        self.assert_matches_strip_by_strip_pieri(spec, data)

    @staticmethod
    def assert_matches_strip_by_strip_pieri(spec, data):
        """Equal dicts in equal order, and equal budget verdicts at, below and around the reference's total."""
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

    def test_bit_mask_tables_match_the_combinations_builder(self):
        for n in range(2, 13):
            for k in range(1, n):
                assert _strip_table(n, k) == strip_table_by_combinations(n, k), (n, k)


def rows_off_the_torus(n: int, count: int, rng) -> np.ndarray:
    """(count, n-1) complex rows with moduli in [1/2, 2] and uniform phases."""
    modulus = 2.0 ** rng.uniform(-1.0, 1.0, size=(count, n - 1))
    return modulus * np.exp(2j * np.pi * rng.random((count, n - 1)))


class TestMonomial:
    """TensorSpec.monomial by |e|^2 powers and repeated squaring, against numpy's complex power."""

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), np.max(np.abs(got - want) / np.abs(want))

    @staticmethod
    def spec_with(n, k, ik, ikp):
        exps = [0] * (2 * (n - 1))
        exps[2 * (k - 1)], exps[2 * (k - 1) + 1] = ik, ikp
        return TensorSpec(n, tuple(exps))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_spec_of_low_degree(self, n):
        e = rows_off_the_torus(n, 200, np.random.default_rng(n))
        for spec in TensorSpec.up_to_degree(n, 4 if n <= 4 else 3):
            self.assert_close(spec.monomial(e), monomial_by_complex_power(spec, e))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equal_unequal_and_zero_exponents(self, n):
        e = rows_off_the_torus(n, 200, np.random.default_rng(10 + n))
        zero = TensorSpec(n, (0,) * (2 * (n - 1)))
        assert np.array_equal(zero.monomial(e), np.ones(200, dtype=np.complex128))
        for k in range(1, n):
            for ik, ikp in [(3, 3), (5, 2), (2, 5), (7, 0), (0, 7), (1, 1), (0, 1), (1, 0)]:
                spec = self.spec_with(n, k, ik, ikp)
                self.assert_close(spec.monomial(e), monomial_by_complex_power(spec, e))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exponent_200(self, n):
        e = rows_off_the_torus(n, 200, np.random.default_rng(20 + n))
        for ik, ikp in [(200, 0), (0, 200), (200, 3), (7, 200), (200, 200)]:
            spec = self.spec_with(n, n - 1, ik, ikp)
            want = monomial_by_complex_power(spec, e)
            assert np.all(np.isfinite(want))
            self.assert_close(spec.monomial(e), want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_nan_only_where_a_used_column_is_nan(self, n):
        e = rows_off_the_torus(n, 50, np.random.default_rng(30 + n))
        e[3, 0] = np.nan
        e[7, n - 2] = complex(0.5, np.nan)
        for ik, ikp in [(1, 0), (0, 1), (2, 2), (3, 1), (1, 4)]:
            first = self.spec_with(n, 1, ik, ikp)
            got = first.monomial(e)
            assert np.isnan(got[3]) and np.isnan(monomial_by_complex_power(first, e)[3])
            rest = np.delete(np.arange(50), [3, 7])
            self.assert_close(got[rest], monomial_by_complex_power(first, e[rest]))
            last = self.spec_with(n, n - 1, ik, ikp)
            assert np.isnan(last.monomial(e)[7])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_an_unused_nan_column_is_not_read(self, n):
        # the family statistic's contract: NaN stands for a missing A[k], and only used columns count
        e = rows_off_the_torus(n, 50, np.random.default_rng(40 + n))
        e[:, 1:] = np.nan
        spec = self.spec_with(n, 1, 3, 2)
        got = spec.monomial(e)
        assert np.all(np.isfinite(got))
        self.assert_close(got, monomial_by_complex_power(spec, e))


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

    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_values_are_exact_dimensions_up_to_2x2(self, n):
        # a Jacobi-Trudi matrix of at most 2 x 2 is read or expanded, with no division
        shapes = [parts + (0,) for parts in itertools.combinations_with_replacement(range(6, -1, -1), n - 1)]
        mus = [DominantWeight(n, p) for p in shapes if sum(p) <= 6 and min(p[0], n - p.count(0)) <= 2]
        assert len(mus) > 5
        for mu in mus:
            assert eval_char(mu, np.ones(n)) == dim(mu), mu.parts

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
        "n, parts",
        [(3, (2, 1, 0)), (3, (5, 3, 0)), (4, (3, 2, 1, 0)), (5, (4, 2, 2, 1, 0)), (4, (3, 3, 3, 0)), (4, (3, 1, 1, 0))],
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


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


class TestShapeIndependence:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_a_row_has_the_same_bits_alone_as_one_row_and_in_a_batch(self, n):
        # off the torus at |l| = 80 another order of adding up the h recurrence
        # moves the last bits (numpy's .sum adds a 1-D row of four or more pairwise)
        rng = np.random.default_rng(43)
        batch = np.exp(rng.normal(scale=0.05, size=(300, n)) + 1j * rng.uniform(0, 2 * np.pi, size=(300, n)))
        lams = [lam for lam in ([80], [40, 40], [3, 2, 1], [1, 1, 1], [2, 1, 1], [2, 2]) if len(lam) <= n]
        mus = [DominantWeight(n, tuple(lam) + (0,) * (n - len(lam))) for lam in lams if len(lam) < n]
        together = np.stack(_schur(batch, lams), axis=-1)
        chars = np.stack([eval_char(mu, batch) for mu in mus], axis=-1)
        for g in range(0, 300, 25):
            row = batch[g]
            assert np.array_equal(bits(_schur(row, lams)), bits(together[g]))
            assert np.array_equal(bits(np.concatenate(_schur(row[None], lams))), bits(together[g]))
            assert np.array_equal(bits([eval_char(mu, row) for mu in mus]), bits(chars[g]))
            assert np.array_equal(bits([eval_char(mu, row[None])[0] for mu in mus]), bits(chars[g]))


def coefficient_indices(n: int) -> list[CoefficientIndex]:
    """The zero index, every unit index and two mixed ones."""
    mixed = [CoefficientIndex(n, tuple(range(1, n))), CoefficientIndex(n, (3,) + (0,) * (n - 3) + (2,) if n > 2 else (5,))]
    return [CoefficientIndex.zero(n)] + [CoefficientIndex.unit(n, k) for k in range(1, n)] + mixed


class TestCoefficientBits:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_coefficient_has_the_bits_of_eval_char_and_of_its_batch_row(self, n):
        # near the torus, so that |l| = 1000 stays finite; off it, so that every h_r is a general sum
        rng = np.random.default_rng(45)
        head = np.exp(rng.normal(scale=0.05, size=(12, n - 1)) + 1j * rng.uniform(0, 2 * np.pi, size=(12, n - 1)))
        params = [canonicalize(np.append(z, 1 / np.prod(z))) for z in head]
        idxs = coefficient_indices(n) + ([CoefficientIndex(3, (1000, 0))] if n == 3 else [])
        batch = np.stack([x.as_array() for x in params])
        together = np.stack(_schur(batch, [[v for v in aleph(idx).parts if v > 0] for idx in idxs]), axis=-1)
        for g, x in enumerate(params):
            values = [coefficient(x, idx) for idx in idxs]
            assert all(type(v) is complex and cmath.isfinite(v) for v in values)
            assert np.array_equal(bits(values), bits([complex(eval_char(aleph(idx), x.as_array())) for idx in idxs]))
            assert np.array_equal(bits(values), bits(together[g]))

    def test_a_rank_mismatch_raises(self):
        x = canonicalize([1j, -1j, 1])
        with pytest.raises(ValueError, match=re.escape("rank mismatch: index N=4, parameter N=3")):
            coefficient(x, CoefficientIndex(4, (1, 0, 0)))


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
