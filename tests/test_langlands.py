"""The closed form of the Langlands parameter against the integer matrix L with ell = L @ nu."""

import tracemalloc

import numpy as np
import pytest

from satake_st.families import family_from_dict
from satake_st.weights import SpectralParameter, langlands, laplace_eigenvalues

from oracles import langlands_matrix


def oracle_rows(n, nu):
    """ell and lambda for each row of nu through the matrix."""
    ell = nu @ langlands_matrix(n).T.astype(np.complex128)
    return ell, (n**3 - n) / 24 - 0.5 * np.sum(ell * ell, axis=-1)


def random_rows(rng, n, scale, integer):
    nu = (rng.normal(size=(40, n - 1)) + 1j * rng.normal(size=(40, n - 1))) * scale
    return np.round(nu.real) + 1j * np.round(nu.imag) if integer else nu


class TestClosedForm:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_the_matrix(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3, 1e6):
            for integer in (True, False):
                nu = random_rows(rng, n, scale, integer)
                want_ell, want_lam = oracle_rows(n, nu)
                ell = np.array([langlands(SpectralParameter(n, tuple(row))) for row in nu])
                lam = laplace_eigenvalues(n, nu)
                if integer or n <= 3:  # every partial sum is exact, or there are at most two terms
                    assert np.array_equal(ell, want_ell) and np.array_equal(lam, want_lam)
                else:
                    bound = 1e-13 * np.abs(want_ell).max(axis=1, keepdims=True)
                    assert np.all(np.abs(ell - want_ell) <= bound)

    def test_loading_a_high_rank_member_needs_no_matrix(self):
        n = 3000  # the N x (N-1) matrix alone would take 72 MB
        doc = {"N": n, "members": [{"nu": [[0.0, 1.0]] * (n - 1), "L1Ad": 1.0}]}
        tracemalloc.start()
        try:
            fam = family_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.lam.shape == (1,)
        assert peak < 10 * 2**20
