"""Error envelopes and the exact multiplicity-sum inequality."""

import math
import re

import numpy as np
import pytest

from satake_st import bounds
from satake_st.bounds import (
    Gl3BoundParams,
    convergence_error,
    p_total,
    rate_report,
    specialization_bound_n3,
    verify_multiplicity_bound,
    verify_multiplicity_bounds,
)
from satake_st.characters import TensorSpec, TermBudgetExceeded, _zero_one_step

from oracles import dominant_part_sum, orthogonality_error


class TestPTotal:
    def test_values(self):
        assert p_total(Gl3BoundParams(2, (1, 0, 0, 0))) == 2.0
        assert p_total(Gl3BoundParams(7, (0, 0, 0, 0))) == 1.0
        assert p_total(Gl3BoundParams(3, (1, 1, 1, 1))) == 81.0


class TestEnvelopes:
    def test_orthogonality_at_unit_p(self):
        t = 10.0
        assert orthogonality_error(t, 1.0, 7 / 64, 0.0) == t**2 + t**3 + 1

    def test_orthogonality_frozen_value(self):
        # frozen from an independent high-precision evaluation of
        # 100*2 + 1000*4^(7/64) + 4^(5/3)
        got = orthogonality_error(10.0, 4.0, 7 / 64, 0.0)
        assert got == pytest.approx(1373.8042271767365, rel=1e-12)

    def test_convergence_at_unit_p(self):
        t = 10.0
        expected = t**-3 + t**-2 + t**-5
        assert convergence_error(t, 1.0, 7 / 64, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_convergence_frozen_value(self):
        got = convergence_error(100.0, 2.0, 7 / 64, 0.01)
        assert got == pytest.approx(1.1523732094198821e-4, rel=1e-10)

    def test_convergence_vanishes_at_large_scale(self):
        vals = [convergence_error(t, 8.0, 7 / 64, 0.5) for t in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    @pytest.mark.parametrize("t", [1.0, 10.0, 250.0])
    @pytest.mark.parametrize("p_big", [1.0, 2.0, 81.0])
    def test_ratio_is_exact_t_power(self, t, p_big):
        ratio = convergence_error(t, p_big, 7 / 64, 0.0) / orthogonality_error(t, p_big, 7 / 64, 0.0)
        assert ratio == pytest.approx(t**-5, rel=1e-12)

    @pytest.mark.parametrize("p_big", [-1.0, 0.0, 0.5, math.nan, math.inf])
    def test_p_big_below_one_or_not_finite_is_named(self, p_big):
        # P = p^d is at least 1, and the message names the argument
        with pytest.raises(ValueError, match=re.escape(f"p_big must be >= 1 and finite, got {p_big}")):
            convergence_error(10.0, p_big, 0.1, 1e-6)

    def test_monotone_in_arguments(self):
        base = orthogonality_error(10.0, 4.0, 7 / 64, 0.01)
        assert orthogonality_error(20.0, 4.0, 7 / 64, 0.01) > base
        assert orthogonality_error(10.0, 8.0, 7 / 64, 0.01) > base
        assert orthogonality_error(10.0, 4.0, 0.109, 0.01) < base or 0.109 > 7 / 64
        assert orthogonality_error(10.0, 4.0, 7 / 64, 0.02) > base

    def test_params_validation(self):
        with pytest.raises(ValueError):
            Gl3BoundParams(2, (1, 0, 0, 0), eps=0.0)
        with pytest.raises(ValueError):
            Gl3BoundParams(2, (1, 0, 0, 0), eps=float("inf"))
        with pytest.raises(ValueError):
            Gl3BoundParams(2, (1, 0, 0, 0), theta=0.2)
        with pytest.raises(ValueError):
            Gl3BoundParams(2, (1, 0, 0))
        for p in (-2, 0, 1, 4, 2.0, True, np.int64(2), "2"):
            with pytest.raises(ValueError, match=f"^p must be a prime Python integer, got {re.escape(repr(p))}$"):
                Gl3BoundParams(p, (1, 0, 0, 0))


class TestMultiplicityBound:
    def test_pinned_examples(self):
        rows = {r.exponents: r for r in verify_multiplicity_bound(4, 0.5, 1)}
        r = rows[(1, 0, 0, 0)]
        assert r.exact_sum == pytest.approx(2.0) and r.closed_bound == pytest.approx(3.5)
        r0 = rows[(0, 0, 0, 0)]
        assert r0.exact_sum == 1.0 and r0.closed_bound == 1.0

    def test_mixed_exponents_pinned(self):
        rows = {r.exponents: r for r in verify_multiplicity_bound(2, 7 / 64, 2)}
        r = rows[(1, 1, 0, 0)]
        # product table: zero weight coefficient 3, adjoint coefficient 1
        assert r.exact_sum == pytest.approx(3.0 + 2.0 ** (2 * 7 / 64), rel=1e-12)
        assert r.closed_bound == pytest.approx(9.034535228436442, rel=1e-12)
        assert r.passed

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [7 / 64, 0.5, 5 / 3])
    def test_full_sweep_passes_strictly(self, p, alpha):
        rows = verify_multiplicity_bound(p, alpha, 4)
        assert len(rows) == 70  # exponent 4-tuples of degree <= 4
        assert all(r.passed for r in rows)
        for r in rows:
            if sum(r.exponents) >= 1:
                assert r.exact_sum < r.closed_bound


class TestMultiplicityBounds:
    """The multi-pair sweep walks the (a, b) grid once; its rows must not move by a bit."""

    PAIRS = [(p, alpha) for p in (2, 3, 5) for alpha in (0.109375, 0.5, 1.6666666667)]

    @staticmethod
    def bits(rows):
        return [(r.exponents, r.exact_sum.hex(), r.closed_bound.hex(), r.passed) for r in rows]

    @pytest.mark.parametrize("max_degree", [0, 1, 2, 4])
    def test_rows_equal_the_per_pair_rows_bit_for_bit(self, max_degree):
        multi = verify_multiplicity_bounds(self.PAIRS, max_degree)
        assert len(multi) == len(self.PAIRS)
        for (p, alpha), rows in zip(self.PAIRS, multi):
            assert self.bits(rows) == self.bits(verify_multiplicity_bound(p, alpha, max_degree))

    def test_rows_are_the_fsum_of_each_spec_alone(self):
        (rows,) = verify_multiplicity_bounds([(3, 0.5)], 3)
        for r in rows:
            assert r.exact_sum == dominant_part_sum(TensorSpec(3, r.exponents), 3, 0.5)

    def test_no_pairs_and_a_non_finite_alpha(self):
        assert verify_multiplicity_bounds([], 4) == []
        with pytest.raises(ValueError, match="alpha must be finite, got nan"):
            verify_multiplicity_bounds([(2, 0.5), (3, float("nan"))], 2)

    @pytest.mark.parametrize("alpha", [256.0, -256.0, 1e308, -1e308])
    def test_an_overflowing_closed_bound_names_p_alpha_and_degree(self, alpha):
        # 2^256 is finite, but (2^256 + 1 + 2^-256)^4 is not; 2^-1e308 is 0.0
        with pytest.raises(ValueError, match=re.escape(f"overflows a float at p=2, alpha={alpha}, d=4")):
            verify_multiplicity_bounds([(3, 0.5), (2, alpha)], 4)

    @pytest.mark.parametrize("p", [0, -2])
    def test_p_at_most_one_is_named_before_the_overflow_probe(self, p):
        # p=0 was reported as an overflow, and (-2.0)^0.5 is complex
        with pytest.raises(ValueError, match=f"^p must be > 1, got {p}$"):
            verify_multiplicity_bound(p, 0.5, 2)

    def test_one_closed_bound_per_degree_the_largest_first(self, monkeypatch):
        degrees = []

        def counted(spec, p, alpha):
            degrees.append(spec.degree)
            return specialization_bound_n3(spec, p, alpha)

        monkeypatch.setattr(bounds, "specialization_bound_n3", counted)
        verify_multiplicity_bounds(self.PAIRS, 4)
        assert degrees == [4, 3, 2, 1, 0] * len(self.PAIRS)

    def test_one_walk_step_per_cell_and_none_before_the_spec_limit(self, monkeypatch):
        steps = []

        def counted(state, n, k):
            steps.append(k)
            return _zero_one_step(state, n, k)

        monkeypatch.setattr(bounds, "_zero_one_step", counted)
        verify_multiplicity_bounds(self.PAIRS, 4)
        # 15 cells of a + b <= 4: every column start but (0, 0) is a size-1 step, every other cell a size-2 one
        assert sorted(steps) == [1] * 4 + [2] * 10
        steps.clear()
        assert verify_multiplicity_bounds([], 4) == []
        # C(72, 4) specs at degree 68: the limit of 10^6 allows degree 67 at most
        with pytest.raises(TermBudgetExceeded, match="^1028790 specs of rank 3 and degree <= 68 exceed budget 1000000$"):
            verify_multiplicity_bound(2, 0.5, 68)
        assert steps == []

    def test_the_largest_finite_closed_bound_still_verifies(self):
        (rows,) = verify_multiplicity_bounds([(2, -255.0)], 4)
        assert all(r.passed and math.isfinite(r.closed_bound) for r in rows)
        assert verify_multiplicity_bounds([(2, 300.0)], 0)[0][0].closed_bound == 1.0  # degree 0 fits


class TestRateReport:
    def test_envelope_reproduces_convergence_error(self):
        params = Gl3BoundParams(2, (1, 0, 1, 0), eps=0.01)
        grid = [10.0, 50.0, 250.0]
        rows = rate_report(params, grid)
        for t, row in zip(grid, rows):
            assert row.envelope == convergence_error(t, 4.0, params.theta, params.eps)

    def test_generator_grid_gives_the_same_rows(self):
        params = Gl3BoundParams(2, (1, 0, 0, 0), eps=0.01)
        grid = [10.0, 30.0, 100.0]
        assert rate_report(params, iter(grid)) == rate_report(params, grid)
