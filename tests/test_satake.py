"""Canonical Satake parameters, coefficient map, and identity checks."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satake_st.satake import (
    SatakeParameter,
    canonicalize,
    canonicalize_batch,
    coefficient,
    elementary_symmetric,
    hecke_check_n3,
    hecke_residuals_n3,
    in_T0,
    in_T1,
    varrho,
)
from satake_st.sampling import RngSeed, perturb_radial, sample_st_batch
from satake_st.weights import CoefficientIndex

OMEGA = np.exp(2j * np.pi / 3)


def random_torus(n, rng, count=1):
    theta = rng.uniform(0, 2 * np.pi, size=(count, n - 1))
    return np.exp(1j * np.concatenate([theta, -theta.sum(axis=1, keepdims=True)], axis=1))


class TestCanonicalize:
    def test_ordering_by_argument(self):
        x = canonicalize([1j, -1j])
        assert x.alphas == (1j, -1j)  # args pi/2 then 3pi/2

    def test_weyl_invariance(self):
        base = [1.0, OMEGA, OMEGA.conjugate()]
        reference = canonicalize(base)
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            assert canonicalize([base[i] for i in perm]) == reference

    def test_modulus_breaks_argument_ties(self):
        x = canonicalize([2.0, 0.5])
        assert x.alphas == (0.5 + 0j, 2.0 + 0j)

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError):
            canonicalize([0.0, 1.0])

    def test_rejects_product_far_from_one(self):
        with pytest.raises(ValueError):
            canonicalize([1.1, 1.0])

    # warnings are errors: the overflow must be judged, not reported on stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "row",
        [[np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [1e200 + 1e200j, 1e200 + 1e200j, 1e-300]],
        ids=["nan-entry", "infinite-entry", "overflowing-product"],
    )
    def test_rejects_a_product_that_is_not_a_number(self, row):
        with pytest.raises(ValueError, match="product deviates from 1"):
            canonicalize(row)
        with pytest.raises(ValueError, match="product deviates from 1"):
            canonicalize_batch([[1.0, 1.0, 1.0], row])

    def test_renormalizes_product(self):
        drift = 1 + 4e-7
        x = canonicalize([1j * drift, -1j])
        assert abs(np.prod(x.as_array()) - 1) < 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        rows = random_torus(3, rng, count=10)
        batch = canonicalize_batch(rows)
        for row, fixed in zip(rows, batch):
            assert canonicalize(row).alphas == tuple(fixed)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.floats(0.0, 2 * np.pi, allow_nan=False), min_size=n - 1, max_size=n - 1
                ),
                st.permutations(range(n)),
            )
        )
    )
    @settings(max_examples=200)
    def test_any_permutation_same_representative(self, data):
        thetas, perm = data
        raw = np.exp(1j * np.append(thetas, -np.sum(thetas)))
        assert canonicalize(raw[list(perm)]) == canonicalize(raw)


class TestSatakeParameter:
    def test_product_tolerance_is_closed_at_1e_12(self):
        SatakeParameter(3, (1 + 0.99e-12, 1, 1))
        SatakeParameter(3, (1j, -1j * (1 - 0.99e-12), 1))
        for alphas in [(1 + 1.01e-12, 1, 1), (1j, -1j * (1 - 1.01e-12), 1)]:
            with pytest.raises(ValueError, match=r"deviates from 1 beyond 1e-12"):
                SatakeParameter(3, alphas)

    @pytest.mark.parametrize(
        "alphas",
        [(np.nan, 1, 1), (np.inf, 1, 1), (1.5e308 + 1.5e308j, 1, 1)],
        ids=["nan", "infinite", "too-large-for-abs"],
    )
    def test_a_product_that_is_not_a_number_is_a_value_error(self, alphas):
        # abs() of a complex with finite parts may overflow: still a ValueError
        with pytest.raises(ValueError, match=r"deviates from 1 beyond 1e-12"):
            SatakeParameter(3, alphas)


class TestMembership:
    def test_unit_torus(self):
        assert in_T0(canonicalize([1.0, OMEGA, OMEGA.conjugate()]))
        assert not in_T0(canonicalize([2.0, 0.5]), tol=1e-9)

    def test_closed_tolerance_boundary(self):
        tol = 1e-3
        x = SatakeParameter(2, (1 + tol, 1 / (1 + tol)))
        assert in_T0(x, tol=tol)

    def test_containment_region(self):
        x = canonicalize([2.0, 0.5])
        assert not in_T1(x, 2)  # 2 > sqrt(2)
        assert in_T1(x, 5)  # 2 <= sqrt(5)
        assert in_T1(canonicalize([1.0, OMEGA, OMEGA.conjugate()]), 2)

    def test_refined_exponent_is_stricter(self):
        x = canonicalize([1.36, 1 / 1.36])
        assert in_T1(x, 2, refined=False)  # sqrt(2) = 1.414...
        assert not in_T1(x, 2, refined=True)  # 2^(1/2 - 1/5) = 1.231...


class TestCoefficient:
    def test_normalization_exact(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            x = canonicalize(random_torus(n, rng)[0])
            assert coefficient(x, CoefficientIndex.zero(n)) == 1.0

    def test_chi1_at_cube_roots(self):
        x = canonicalize([1.0, OMEGA, OMEGA.conjugate()])
        assert abs(coefficient(x, CoefficientIndex(3, (0, 1)))) < 1e-12

    def test_n2_is_twice_cosine(self):
        theta = 0.77
        x = canonicalize([np.exp(1j * theta), np.exp(-1j * theta)])
        got = coefficient(x, CoefficientIndex(2, (1,)))
        assert abs(got - 2 * np.cos(theta)) < 1e-12

    def test_weyl_invariance_before_canonicalization(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            raw = random_torus(n, rng)[0]
            idx = CoefficientIndex(n, (1,) * (n - 1))
            vals = [
                coefficient(canonicalize(raw[list(perm)]), idx)
                for perm in [range(n), range(n - 1, -1, -1)]
            ]
            assert abs(vals[0] - vals[1]) < 1e-10

    def test_unitarity_pairing_on_torus(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 5):
            x = canonicalize(random_torus(n, rng)[0])
            for k in range(1, n):
                a_k = coefficient(x, CoefficientIndex.unit(n, n - k))
                a_nk = coefficient(x, CoefficientIndex.unit(n, k))
                assert abs(a_k - np.conj(a_nk)) < 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, l", [(3, (1000, 0)), (4, (300, 300, 300))], ids=["entry", "lapack"])
    def test_an_overflowing_value_raises_with_no_warning(self, n, l):
        z = [1.9, 1.9j, 0.7][: n - 1]
        x = canonicalize(z + [1 / np.prod(z)])
        with pytest.raises(ValueError, match=re.escape(f"coefficient at N={n}, l={l} is not finite")):
            coefficient(x, CoefficientIndex(n, l))


class TestVarrho:
    def test_identity_point(self):
        assert varrho(canonicalize([1.0, 1.0, 1.0])) == (3 + 0j, 3 + 0j)

    def test_cube_roots_vanish(self):
        vals = varrho(canonicalize([1.0, OMEGA, OMEGA.conjugate()]))
        assert max(abs(v) for v in vals) < 1e-12

    def test_n2_trace(self):
        theta = 1.1
        (val,) = varrho(canonicalize([np.exp(1j * theta), np.exp(-1j * theta)]))
        assert abs(val - 2 * np.cos(theta)) < 1e-12

    def test_separates_points_statistically(self):
        rng = RngSeed(31).generator()
        base = sample_st_batch(3, 40, rng)
        points = canonicalize_batch(perturb_radial(base, 2, rng))
        images = np.stack([np.asarray(varrho(canonicalize(row))) for row in points])
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if np.max(np.abs(points[i] - points[j])) > 1e-6:
                    assert np.max(np.abs(images[i] - images[j])) > 1e-9


def elementary_symmetric_loop(a):
    """e_1..e_{N-1} by the in-place update e_k += a_i e_{k-1}, one entry at a time."""
    n = a.shape[-1]
    e = np.zeros((n + 1,) + a.shape[:-1], dtype=np.complex128)
    e[0] = 1.0
    for i in range(n):
        for k in range(i + 1, 0, -1):
            e[k] = e[k] + a[..., i] * e[k - 1]
    return np.moveaxis(e[1:n], 0, -1)


class TestElementarySymmetric:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_equals_entrywise_loop(self, n):
        rng = np.random.default_rng(43)
        rows = rng.normal(size=(2, 5, n)) + 1j * rng.normal(size=(2, 5, n))
        assert elementary_symmetric(rows).tobytes() == elementary_symmetric_loop(rows).tobytes()
        assert elementary_symmetric(rows[0, 0]).tobytes() == elementary_symmetric_loop(rows[0, 0]).tobytes()


class TestHeckeIdentity:
    def test_identity_point(self):
        assert hecke_check_n3(canonicalize([1.0, 1.0, 1.0])) == 0.0

    def test_cube_roots(self):
        assert hecke_check_n3(canonicalize([1.0, OMEGA, OMEGA.conjugate()])) < 1e-12

    def test_random_torus_points(self):
        rng = np.random.default_rng(6)
        for row in random_torus(3, rng, count=200):
            assert hecke_check_n3(canonicalize(row)) < 1e-10

    def test_vectorized_residuals_match(self):
        rng = np.random.default_rng(7)
        rows = canonicalize_batch(random_torus(3, rng, count=50))
        res = hecke_residuals_n3(rows)
        assert res.shape == (50,)
        assert np.max(res) < 1e-10

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            hecke_check_n3(canonicalize([1j, -1j]))
