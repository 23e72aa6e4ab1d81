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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satake_st.bounds import specialization_bound_n3, verify_multiplicity_bound
from satake_st.characters import (
    DEFAULT_TERM_BUDGET,
    TensorSpec,
    TermBudgetExceeded,
    _schur,
    _strip_table,
    dim,
    eval_char,
    product,
    tensor_decompose,
    trivial_multiplicity,
    weight_table,
)
from satake_st.satake import canonicalize, coefficient
from satake_st.weights import CoefficientIndex, DominantWeight, aleph

from oracles import (
    aleph_inv,
    dominant_part_sum,
    eval_char_bialternant,
    freudenthal_weight_table,
    haar_moment_by_matrix_count,
    monomial_by_complex_power,
    strip_by_strip_pieri,
    strip_by_strip_pieri_total,
    strip_table_by_combinations,
    zero_one_coefficients,
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
        # and long runs of equal entries, whose orbits the table lists as distinct permutations
        for n, parts in [(7, (2, 1)), (7, (1, 1, 1)), (7, (2, 2, 1, 1)), (8, (1, 1, 1, 1)), (8, (2, 1, 1)), (8, (3, 1))]:
            mus.add(DominantWeight(n, parts + (0,) * (n - len(parts))))
        for mu in mus:
            assert weight_table(mu).terms == freudenthal_weight_table(mu.n, mu.parts), mu.parts

    @pytest.mark.parametrize("n, d", [(2, 6), (3, 5), (3, 7), (4, 4), (5, 3), (6, 3)])
    def test_dominant_coefficients_match_convolution(self, n, d):
        """c_w is the product table's entry at each dominant w, by monomial convolution: no walk over dominant weights."""
        for spec in TensorSpec.up_to_degree(n, d):
            table = spec_table_oracle(spec)
            expected = {w: c for w, c in table.items() if all(a >= b for a, b in zip(w, w[1:]))}
            assert zero_one_coefficients(spec) == expected, spec.exponents


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


def budget_verdict(decompose, spec, budget):
    """None on success, else the message: a budget exceeded, or one refused (a negative total - 1)."""
    try:
        decompose(spec, budget)
    except (TermBudgetExceeded, ValueError) as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("budget", [math.nan, math.inf, "1000", None, True, -1, 1000.0])
@pytest.mark.parametrize("walk", [tensor_decompose, trivial_multiplicity])
def test_budget_is_a_non_negative_int_or_named(walk, budget):
    """At budget NaN, tensor_decompose returned all 459 terms of (4,)*6, where 1000 raises."""
    with pytest.raises(ValueError, match=re.escape(f"budget must be a Python integer >= 0, got {budget!r}")):
        walk(TensorSpec(4, (4,) * 6), budget)


def decode_strip(skipped: int, shift: int, n: int, w: int) -> tuple:
    """A packed (skipped, shift) entry of n fields of w bits as the (row mask, 0/1/-1 tuple) entry of
    ``strip_table_by_combinations``; a bit of skipped off the fields' top bits raises."""
    ones = (1 << w * n) // ((1 << w) - 1)
    assert skipped & ~(ones << w - 1) == 0, hex(skipped)
    mask = sum(1 << i for i in range(n) if skipped >> w * i + w - 1 & 1)
    fields = shift + ones  # each field of shift is -1, 0 or 1
    assert 0 <= fields < 1 << w * n
    return mask, tuple((fields >> w * i & (1 << w) - 1) - 1 for i in range(n))


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
        want, total = strip_by_strip_pieri_total(spec)
        got = tensor_decompose(spec)
        assert got == want
        assert list(got) == list(want)
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
        for w in (8, 16):
            for n in range(2, 13):
                for k in range(1, n):
                    decoded = [decode_strip(skipped, shift, n, w) for skipped, shift in _strip_table(n, k, w)]
                    assert decoded == strip_table_by_combinations(n, k), (w, n, k)

    @pytest.mark.parametrize(
        "spec",
        [TensorSpec(2, (100, 27)), TensorSpec(2, (64, 64)), TensorSpec(2, (70, 60)), TensorSpec(3, (43, 43, 21, 21))],
        ids=["n2-d127", "n2-d128", "n2-d130", "n3-d128"],
    )
    def test_matches_strip_by_strip_pieri_across_the_field_width(self, spec):
        """Degree 127 packs a part per byte, degree 128 and up two bytes (parts stay below each field's top bit)."""
        want = strip_by_strip_pieri(spec)
        got = tensor_decompose(spec)
        assert got == want and list(got) == list(want)
        assert max(mu.parts[0] for mu in got) == spec.degree

    def test_budget_verdicts_at_two_byte_fields(self):
        spec = TensorSpec(2, (128, 0))
        total = strip_by_strip_pieri_total(spec)[1]
        for budget in (total - 1, total):
            assert budget_verdict(tensor_decompose, spec, budget) == budget_verdict(strip_by_strip_pieri, spec, budget)
        assert budget_verdict(tensor_decompose, spec, total - 1) == (
            f"Pieri steps with {total} candidate strips in total exceed budget {total - 1}"
        )
        assert budget_verdict(tensor_decompose, spec, total) is None


def spec_of_parts(n: int, plain: list[int], conjugate: list[int]) -> TensorSpec:
    """The spec with one factor e_k per part k of plain and one conj(e_k) per part k of conjugate."""
    exps = [0] * (2 * (n - 1))
    for offset, parts in ((0, plain), (1, conjugate)):
        for k in parts:
            exps[2 * (k - 1) + offset] += 1
    return TensorSpec(n, tuple(exps))


def partitions(b: int, largest: int) -> list[list[int]]:
    """Every partition of b into parts of at most largest, each as a non-increasing list."""
    if not b:
        return [[]]
    return [[k] + rest for k in range(min(b, largest), 0, -1) for rest in partitions(b - k, k)]


@st.composite
def equal_box_degree_specs(draw, ranks=(10, 16, 24)):
    """A spec whose plain and conjugate box-degrees are one b <= N, each split into parts below N at random cuts."""
    n = draw(st.sampled_from(ranks))
    b = draw(st.integers(0, n))
    sides = []
    for _ in range(2):
        cuts = sorted(draw(st.sets(st.integers(1, b - 1), max_size=b)) if b > 1 else ())
        parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, b]) if hi > lo]
        assume(all(k < n for k in parts))
        sides.append(parts)
    return spec_of_parts(n, *sides)


class TestRectangleWalk:
    """trivial_multiplicity walks rectangular Kostka numbers; Pieri and a matrix count are its two checks."""

    @pytest.mark.parametrize("n, d", [(2, 10), (3, 7), (4, 6), (5, 4), (6, 3)])
    def test_equals_the_pieri_trivial_entry_on_every_spec(self, n, d):
        zero = DominantWeight.zero(n)
        for spec in TensorSpec.up_to_degree(n, d):
            assert trivial_multiplicity(spec) == tensor_decompose(spec).get(zero, 0), spec.exponents

    @settings(max_examples=150, deadline=None)
    @given(pieri_specs())
    def test_equals_the_pieri_trivial_entry(self, spec):
        assert trivial_multiplicity(spec) == tensor_decompose(spec).get(DominantWeight.zero(spec.n), 0)

    @pytest.mark.parametrize("n", [10, 16, 24])
    def test_equals_the_matrix_count_at_every_box_degree_up_to_6(self, n):
        for b in range(7):
            for plain in partitions(b, n - 1):
                for conjugate in partitions(b, n - 1):
                    spec = spec_of_parts(n, plain, conjugate)
                    assert trivial_multiplicity(spec) == haar_moment_by_matrix_count(spec), (plain, conjugate)

    @settings(max_examples=60, deadline=None)
    @given(equal_box_degree_specs())
    def test_equals_the_matrix_count(self, spec):
        assert trivial_multiplicity(spec) == haar_moment_by_matrix_count(spec)

    def test_e6_eighth_moment_at_n24_where_pieri_exceeds_its_budget(self):
        spec = spec_of_parts(24, [6] * 4, [6] * 4)  # E|e_6|^8: 4 x 4 matrices with line sums 6
        assert trivial_multiplicity(spec) == haar_moment_by_matrix_count(spec) == 132_724
        with pytest.raises(TermBudgetExceeded, match="Pieri steps"):
            tensor_decompose(spec)

    def test_the_budget_counts_the_strips_tried(self):
        spec = TensorSpec(2, (6, 6))  # E|chi_1|^12 on SU(2), the Catalan number 132
        lo, hi = spec.degree, DEFAULT_TERM_BUDGET  # the least budget that succeeds lies in (lo, hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if budget_verdict(trivial_multiplicity, spec, mid) is None else (mid, hi)
        assert trivial_multiplicity(spec, hi) == 132
        assert budget_verdict(trivial_multiplicity, spec, hi - 1) == (
            f"rectangle walk with {hi} strips tried in total exceeds budget {hi - 1}"
        )

    def test_a_degree_above_the_budget_fails_before_any_strip(self):
        # |mu| = 1001 is odd, so only the degree rule can raise here
        with pytest.raises(TermBudgetExceeded, match="^degree 1001 exceeds budget 1000$"):
            trivial_multiplicity(TensorSpec(2, (1001, 0)), 1000)


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_of_other_than_n_minus_1_entries_raise(self, n):
        # an eigenvalue row (width N) is not read as an e-row, and a narrow row is no IndexError
        spec = self.spec_with(n, 1, 1, 0)
        for width in (n - 2, n):
            for e in (np.ones((4, width), dtype=np.complex128), np.ones(width, dtype=np.complex128)):
                with pytest.raises(ValueError, match=f"^expected e-rows of width {n - 1}, got width {width}$"):
                    spec.monomial(e)

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
        # the closed bound at the largest degree comes first, and it overflows
        with pytest.raises(ValueError, match=re.escape("overflows a float at p=2, alpha=0.5, d=1000001")):
            verify_multiplicity_bound(2, 0.5, 10**6 + 1)


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

    @pytest.mark.parametrize("alpha", [2000.0, -2000.0, -1074.0])
    def test_a_bound_outside_the_float_range_names_p_alpha_and_degree(self, alpha):
        # 2^2000 overflows, 2^-2000 underflows to 0.0, and 1 / 2^-1074 is inf
        with pytest.raises(ValueError, match=re.escape(f"overflows a float at p=2, alpha={alpha}, d=1")):
            specialization_bound_n3(TensorSpec(3, (1, 0, 0, 0)), 2, alpha)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [7 / 64, 0.5, 5 / 3])
    def test_dominant_sum_below_bound(self, p, alpha):
        for spec in all_specs(3, 3):
            exact = dominant_part_sum(spec, p, alpha)
            bound = specialization_bound_n3(spec, p, alpha)
            assert exact <= bound
            if spec.degree >= 1:
                assert exact < bound
