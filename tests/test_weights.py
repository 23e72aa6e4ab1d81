"""Weight lattice, index bijection, and spectral-parameter formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satake_st.bounds import Gl3BoundParams
from satake_st.characters import TensorSpec, tensor_decompose, weight_table
from satake_st.satake import SatakeParameter
from satake_st.weights import (
    CoefficientIndex,
    DominantWeight,
    SpectralParameter,
    aleph,
    langlands,
    laplace_eigenvalue,
    laplace_eigenvalues,
)

from oracles import aleph_inv, b_entry, b_matrix


def idx_strategy(max_n=5, max_entry=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, max_entry), min_size=n - 1, max_size=n - 1),
        )
    )


class TestAleph:
    def test_fundamental_generators_n3(self):
        assert aleph(CoefficientIndex(3, (0, 1))).parts == (1, 0, 0)
        assert aleph(CoefficientIndex(3, (1, 0))).parts == (1, 1, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_maps_to_zero(self, n):
        assert aleph(CoefficientIndex.zero(n)) == DominantWeight.zero(n)

    def test_inverse_examples(self):
        assert aleph_inv(DominantWeight(3, (2, 1, 0))).l == (1, 1)
        assert aleph_inv(DominantWeight(3, (1, 0, 0))).l == (0, 1)
        assert aleph_inv(DominantWeight(4, (0, 0, 0, 0))).l == (0, 0, 0)

    def test_unit_indices_hit_fundamental_weights(self):
        for n in (2, 3, 4, 5):
            for k in range(1, n):
                idx = CoefficientIndex.unit(n, n - k)
                assert aleph(idx) == DominantWeight.fundamental(n, k)

    @given(idx_strategy())
    @settings(max_examples=300)
    def test_round_trip(self, data):
        n, l = data
        idx = CoefficientIndex(n, tuple(l))
        assert aleph_inv(aleph(idx)) == idx

    @given(idx_strategy())
    def test_zero_weight_iff_zero_index(self, data):
        n, l = data
        idx = CoefficientIndex(n, tuple(l))
        assert aleph(idx).is_zero == (sum(l) == 0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CoefficientIndex(3, (1, -1))


class TestBMatrix:
    def test_small_rank_values(self):
        assert b_entry(1, 1, 3) == 1
        assert b_entry(2, 2, 3) == 1
        assert b_entry(1, 3, 4) == 3

    @pytest.mark.parametrize("n", range(2, 9))
    def test_symmetry(self, n):
        b = b_matrix(n)
        assert np.array_equal(b, b.T)

    def test_matrix_is_the_entry_table(self):
        for n in range(2, 41):
            b = b_matrix(n)
            table = [[b_entry(i, j, n) for j in range(1, n)] for i in range(1, n)]
            assert b.dtype == np.int64 and b.tolist() == table

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            b_entry(0, 1, 3)
        with pytest.raises(ValueError):
            b_entry(1, 3, 3)


class TestLanglands:
    def test_n2_is_plus_minus(self):
        v = 0.375 + 0.25j  # exact binary fractions: equality is exact
        ell = langlands(SpectralParameter(2, (v,)))
        assert ell[0] == v and ell[1] == -v

    def test_n3_closed_form(self):
        nu1, nu2 = 1 + 2j, 3 - 1j
        ell = langlands(SpectralParameter(3, (nu1, nu2)))
        assert tuple(ell) == (2 * nu1 + nu2, nu2 - nu1, -nu1 - 2 * nu2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_zero_maps_to_zero(self, n):
        ell = langlands(SpectralParameter(n, (0,) * (n - 1)))
        assert np.all(ell == 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sum_vanishes_on_random_input(self, n):
        rng = np.random.default_rng(7)
        for _ in range(200):
            nu = tuple(rng.standard_normal() + 1j * rng.standard_normal() for _ in range(n - 1))
            ell = langlands(SpectralParameter(n, nu))
            assert abs(ell.sum()) < 1e-12


class TestLaplaceEigenvalue:
    def test_value_at_origin_n3(self):
        assert laplace_eigenvalue(SpectralParameter(3, (0, 0))) == 1.0

    def test_principal_series_line_n2(self):
        t = 0.5
        lam = laplace_eigenvalue(SpectralParameter(2, (1j * t,)))
        assert lam == 0.25 + t * t

    def test_exceptional_point_n2(self):
        assert laplace_eigenvalue(SpectralParameter(2, (0.5,))) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_real_and_bounded_below_for_imaginary_nu(self, n):
        rng = np.random.default_rng(11)
        floor = (n**3 - n) / 24
        for _ in range(100):
            nu = tuple(1j * rng.standard_normal() for _ in range(n - 1))
            lam = laplace_eigenvalue(SpectralParameter(n, nu))
            assert abs(lam.imag) < 1e-12
            assert lam.real >= floor - 1e-12


class TestLaplaceRows:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_rows_equal_single_parameter_values(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(257, n - 1)) * 3 + 1j * rng.normal(size=(257, n - 1)) * 40
        batch = laplace_eigenvalues(n, rows)
        assert batch.shape == (257,)
        for row, lam in zip(rows, batch):
            nu = SpectralParameter(n, tuple(row))
            assert laplace_eigenvalue(nu) == lam
            ell = langlands(nu)
            assert lam == pytest.approx((n**3 - n) / 24 - 0.5 * np.sum(ell * ell), rel=1e-13)

    def test_no_rows(self):
        assert laplace_eigenvalues(3, []).shape == (0,)


class TestDominance:
    def test_shifted_coords_compare_equal(self):
        # a general weight is a tuple read modulo the all-ones vector
        table = weight_table(DominantWeight(3, (2, 1, 0)))
        assert table.multiplicity((4, 3, 2)) == table.multiplicity((2, 1, 0)) == 1
        assert table.multiplicity((3, 3, 3)) == table.multiplicity((0, 0, 0)) == 2

    @pytest.mark.parametrize(
        "w",
        [(2.5, 1, 0), (2, 1, 0.5), (math.inf, 0, 0), (math.nan, 0, 0), ("2", 1, 0), (None, 1, 0), (1, 0), (2, 1, 0, 0)],
    )
    def test_an_entry_not_equal_to_its_int_raises(self, w):
        # as in the value types: no entry is truncated to a neighbouring weight, and no weight of the
        # wrong length reads as one of multiplicity 0
        table = weight_table(DominantWeight(3, (2, 1, 0)))
        message = "^weight entries must be integers" if len(w) == 3 else f"^expected 3 entries, got {len(w)}$"
        with pytest.raises(ValueError, match=message):
            table.multiplicity(w)
        assert table.multiplicity((2.0, 1.0, 0.0)) == table.multiplicity(np.array([4, 3, 2])) == 1

    @pytest.mark.parametrize(
        "n, parts, message",
        [
            (3, (1, 0), r"^expected 3 parts, got 2$"),
            (3, (1, 0, 0, 0), r"^expected 3 parts, got 4$"),
            (3, (1, 2, 0), r"^parts must be non-increasing: \(1, 2, 0\)$"),
            (3, (2, 1, 1), r"^normalized parts must end in 0: \(2, 1, 1\)$"),
            # non-increasing and ending in 0 leaves no room for a negative part
            (3, (1, 0, -1), r"^normalized parts must end in 0: \(1, 0, -1\)$"),
            (3, (0, -1, 0), r"^parts must be non-increasing: \(0, -1, 0\)$"),
            (1, (0,), r"^rank parameter must be an integer >= 2, got 1$"),
            (2.0, (1, 0), r"^rank parameter must be an integer >= 2, got 2\.0$"),
        ],
        ids=["short", "long", "increasing", "last-part", "negative-last", "negative-inner", "rank-1", "float-rank"],
    )
    def test_dominant_weight_validation_messages(self, n, parts, message):
        with pytest.raises(ValueError, match=message):
            DominantWeight(n, parts)

    def test_dominant_weight_requires_normalization(self):
        with pytest.raises(ValueError):
            DominantWeight(3, (2, 1, 1))
        with pytest.raises(ValueError):
            DominantWeight(3, (1, 2, 0))



# One builder per value type with a tuple field: (build from the field, a valid field, the field, its kind).
# Gl3BoundParams validates its exponents as TensorSpec(3, ...).
VALUE_TYPES = {
    "DominantWeight": (lambda v: DominantWeight(3, v), (2, 1, 0), "parts", int),
    "CoefficientIndex": (lambda v: CoefficientIndex(3, v), (1, 0), "l", int),
    "TensorSpec": (lambda v: TensorSpec(3, v), (1, 1, 0, 0), "exponents", int),
    "Gl3BoundParams": (lambda v: Gl3BoundParams(2, v), (1, 1, 0, 0), "exponents", int),
    "SpectralParameter": (lambda v: SpectralParameter(3, v), (1j, -2j), "nu", complex),
    "SatakeParameter": (lambda v: SatakeParameter(3, v), (1j, -1j, 1), "alphas", complex),
}


class TestTupleFields:
    @pytest.mark.parametrize("bad", [0.5, math.inf, math.nan, "1", None], ids=["half", "inf", "nan", "str", "none"])
    @pytest.mark.parametrize("name", [name for name, row in VALUE_TYPES.items() if row[3] is int])
    def test_a_non_integer_entry_raises(self, name, bad):
        build, valid, field, _ = VALUE_TYPES[name]
        with pytest.raises(ValueError, match=rf"\.{field} must be integers, got "):
            build((bad,) + valid[1:])

    def test_a_string_field_is_not_read_as_digits(self):
        with pytest.raises(ValueError, match=r"^TensorSpec\.exponents must be integers, got \('1', '1', '0', '0'\)$"):
            TensorSpec(3, "1100")

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_numpy_and_integral_float_entries_give_python_values(self, name):
        build, valid, field, kind = VALUE_TYPES[name]
        plain = build(valid)
        dtypes = (np.int64, np.float64) if kind is int else (np.complex128,)
        for entries in [np.array(valid, dtype=t) for t in dtypes] + [list(np.array(valid, dtype=dtypes[0]))]:
            built = build(entries)
            values = getattr(built, field)
            assert type(values) is tuple and all(type(v) is kind for v in values)
            assert built == plain and hash(built) == hash(plain)

    @pytest.mark.parametrize("n", [1, 2.5, True, np.int64(3)], ids=["one", "float", "bool", "numpy-int"])
    @pytest.mark.parametrize(
        "cls, field", [(TensorSpec, (1, 1, 0, 0)), (SatakeParameter, (1, 1, 1))], ids=["TensorSpec", "SatakeParameter"]
    )
    def test_a_bad_rank_raises(self, cls, field, n):
        with pytest.raises(ValueError, match=r"^rank parameter must be an integer >= 2, got "):
            cls(n, field)

    def test_rank_one_and_numpy_rank_specs_no_longer_reach_the_decomposition(self):
        # both once got past the constructor: the first decomposed into an unchecked
        # rank-1 weight, the second ended in an AttributeError in the strip tables
        for n, exponents in [(1, ()), (np.int64(3), (1, 1, 0, 0))]:
            with pytest.raises(ValueError, match="^rank parameter"):
                tensor_decompose(TensorSpec(n, exponents))
