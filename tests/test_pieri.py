"""Pieri-rule decomposition against the highest-weight peeling oracle."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satake_st.characters import TensorSpec, TermBudgetExceeded, dim, tensor_decompose, weight_table

from oracles import freudenthal_weight_table, peel_decompose


def all_specs(n, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=2 * (n - 1)):
        if sum(exps) <= max_degree:
            yield TensorSpec(n, exps)


@st.composite
def small_specs(draw, max_n=6, max_degree=5):
    """A spec of rank <= max_n with at most max_degree factors, as a multiset of slots."""
    n = draw(st.integers(2, max_n))
    slots = draw(st.lists(st.integers(0, 2 * n - 3), max_size=max_degree))
    exps = [0] * (2 * (n - 1))
    for s in slots:
        exps[s] += 1
    return TensorSpec(n, tuple(exps))


class TestPieriMatchesPeeling:
    @pytest.mark.parametrize("n, max_degree", [(2, 4), (3, 4), (4, 4), (5, 3)])
    def test_every_small_spec(self, n, max_degree):
        for spec in all_specs(n, max_degree):
            assert tensor_decompose(spec) == peel_decompose(spec), spec.exponents

    @pytest.mark.parametrize(
        "exps", [(4, 4, 0, 0, 0, 0, 0, 0, 0, 0), (0, 2, 0, 1, 2, 0, 0, 0, 3, 0)]
    )
    def test_rank_6_degree_8(self, exps):
        spec = TensorSpec(6, exps)
        assert tensor_decompose(spec) == peel_decompose(spec)

    def test_rank_6_degree_8_constituent_tables_match_freudenthal(self):
        mus = set()
        for exps in [(4, 4, 0, 0, 0, 0, 0, 0, 0, 0), (0, 2, 0, 1, 2, 0, 0, 0, 3, 0)]:
            mus.update(tensor_decompose(TensorSpec(6, exps)))
        assert len(mus) == 91
        for mu in mus:
            assert weight_table(mu).terms == freudenthal_weight_table(6, mu.parts), mu.parts

    @settings(max_examples=40, deadline=None)
    @given(small_specs())
    def test_random_specs(self, spec):
        assert tensor_decompose(spec) == peel_decompose(spec)

    def test_budget_bounds_candidate_strips(self):
        spec = TensorSpec(4, (4,) * 6)
        with pytest.raises(TermBudgetExceeded):
            tensor_decompose(spec, budget=1000)
        dec = tensor_decompose(spec)
        assert sum(a * dim(mu) for mu, a in dec.items()) == math.prod(
            dim(w) for w in spec.factor_weights()
        )

    def test_budget_bounds_strips_summed_over_steps(self):
        # every step of (200, 0) tries at most 202 candidates, but their sum is about 20,000
        with pytest.raises(TermBudgetExceeded, match="in total"):
            tensor_decompose(TensorSpec(2, (200, 0)), budget=10_000)
        tensor_decompose(TensorSpec(2, (100, 0)), budget=10_000)

    def test_degree_above_budget_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(TermBudgetExceeded, match="degree"):
            tensor_decompose(TensorSpec(2, (10**8, 0)))
        assert time.perf_counter() - start < 1.0
