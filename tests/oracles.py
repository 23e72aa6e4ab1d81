"""Independent reference implementations the library is checked against.

None of these is used by the library itself:

- ``peel_decompose`` decomposes a tensor product by highest-weight peeling
  against the exact weight-multiplicity product table;
- ``eval_char_bialternant`` evaluates a Schur polynomial as a ratio of
  alternants (distinct eigenvalues only);
- ``sample_st_rejection`` draws SU(2) or SU(3) conjugacy classes by
  rejection against the Weyl density.
"""

import numpy as np

from satake_st.characters import (
    DEFAULT_TERM_BUDGET,
    TensorSpec,
    _height_key,
    spec_product_table,
    weight_table,
)
from satake_st.satake import canonicalize_batch
from satake_st.weights import DominantWeight


def peel_decompose(spec: TensorSpec, budget: int = DEFAULT_TERM_BUDGET) -> dict:
    """Multiplicities a_mu by highest-weight peeling.

    Repeatedly remove a_w copies of the irreducible table at the
    dominance-maximal surviving weight w of the product table.
    """
    remaining = dict(spec_product_table(spec, budget).terms)
    out = {}
    while remaining:
        w = max(remaining, key=_height_key)
        c = remaining[w]
        # the maximal weight of a W-invariant table is dominant, and its
        # coefficient is a genuine multiplicity
        assert all(x >= y for x, y in zip(w, w[1:])), f"peeled non-dominant weight {w}"
        assert c > 0, f"negative multiplicity {c} at {w}: peeling bug"
        mu = DominantWeight(spec.n, w)
        out[mu] = c
        for wk, mk in weight_table(mu, budget).terms.items():
            new = remaining.get(wk, 0) - c * mk
            if new:
                remaining[wk] = new
            else:
                remaining.pop(wk, None)
    return out


def eval_char_bialternant(mu: DominantWeight, alphas):
    """Ratio-of-alternants evaluation of s_mu; valid only for distinct eigenvalues."""
    arr = np.asarray(alphas, dtype=np.complex128)
    n = mu.n
    exps_num = np.array([mu.parts[i] + n - 1 - i for i in range(n)])
    exps_den = np.arange(n - 1, -1, -1)
    num = np.linalg.det(arr[..., :, None] ** exps_num[None, :])
    den = np.linalg.det(arr[..., :, None] ** exps_den[None, :])
    out = num / den
    return complex(out) if out.ndim == 0 else out


def sample_st_rejection(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Cross-check sampler for n <= 3: rejection against the Weyl density.

    Eigenphase tuples are proposed uniformly on the determinant-1 torus and
    accepted with probability proportional to the squared Vandermonde of
    the eigenvalues.
    """
    if n not in (2, 3):
        raise ValueError("rejection sampler implemented for n in {2, 3} only")
    rows = []
    have = 0
    while have < count:
        batch = max(count - have, 1) * 4
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(batch, n - 1))
        eigs = np.exp(1j * np.concatenate([theta, -theta.sum(axis=1, keepdims=True)], axis=1))
        vand = np.ones(batch)
        for i in range(n):
            for j in range(i + 1, n):
                vand *= np.abs(eigs[:, i] - eigs[:, j]) ** 2
        cap = 4.0 if n == 2 else 27.0  # max of |Vandermonde|^2 on the torus
        keep = rng.uniform(0.0, cap, size=batch) < vand
        rows.append(eigs[keep])
        have += int(keep.sum())
    return canonicalize_batch(np.concatenate(rows, axis=0)[:count])
