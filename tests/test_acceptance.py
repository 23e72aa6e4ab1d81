"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Statistical criteria use fixed seeds and are deterministic end to end.
"""

import itertools
import math
import subprocess
import sys

import numpy as np

from satake_st import sampling
from satake_st.characters import (
    TensorSpec,
    dim,
    eval_char,
    spec_product_table,
    tensor_decompose,
    trivial_multiplicity,
    weight_table,
)
from satake_st.families import TestFunctionH, synth_family, weight, weighted_stat
from satake_st.sampling import (
    RngSeed,
    char_monomial,
    mc_integrate,
    sample_bank,
    sample_st_batch,
    perturb_radial,
    st_cdf_gl2,
)
from satake_st.satake import canonicalize_batch, hecke_residuals_n3
from satake_st.weights import (
    DominantWeight,
    SpectralParameter,
    langlands,
    laplace_eigenvalue,
)
from satake_st.bounds import verify_multiplicity_bound

SEED = 20260809


def verdict(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def all_specs(n, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=2 * (n - 1)):
        if sum(exps) <= max_degree:
            yield TensorSpec(n, exps)


def test_criterion_1_moment_multiplicity():
    """Monte Carlo moments match exact trivial multiplicities to 5 sigma."""
    m = 200_000
    worst = (0.0, None)
    for n in (2, 3, 4):
        for spec in all_specs(n, 4):
            oracle = trivial_multiplicity(spec)
            est = mc_integrate(char_monomial(spec), n, m, seed=SEED)
            z = est.z_score(oracle)
            if z > worst[0]:
                worst = (z, (n, spec.exponents))
    verdict(1, worst[0] <= 5.0, f"max |z| = {worst[0]:.2f} at {worst[1]} (limit 5)")


def test_criterion_2_hecke_identity():
    """Casselman-Shalika/Hecke residual below 1e-10 on T0 and T1 points."""
    bank = sample_bank(3, 10_000, seed=SEED)
    worst = float(np.max(hecke_residuals_n3(bank)))
    rng = RngSeed(SEED, stream=123).generator()
    for p in (2, 3, 5):
        base = sample_st_batch(3, 1_000, rng)
        pert = canonicalize_batch(perturb_radial(base, p, rng))
        worst = max(worst, float(np.max(hecke_residuals_n3(pert))))
    verdict(2, worst < 1e-10, f"max residual {worst:.3g} (limit 1e-10)")


def test_criterion_3_decomposition_exactness():
    """Dimension checksum and exact product-table reconstruction, degree <= 4."""
    checked = 0
    ok = True
    detail = ""
    for n in (2, 3, 4):
        for spec in all_specs(n, 4):
            dec = tensor_decompose(spec)
            total = sum(a * dim(mu) for mu, a in dec.items())
            expected = math.prod(dim(w) for w in spec.factor_weights())
            rebuilt = {}
            for mu, a in dec.items():
                for w, mult in weight_table(mu).terms.items():
                    rebuilt[w] = rebuilt.get(w, 0) + a * mult
            rebuilt = {k: v for k, v in rebuilt.items() if v}
            if total != expected or rebuilt != spec_product_table(spec).terms:
                ok = False
                detail = f"failed at N={n}, spec={spec.exponents}"
                break
            checked += 1
    verdict(3, ok, detail or f"{checked} specs: dimensions and tables exact")


def test_criterion_4_multiplicity_bound():
    """Exact dominant sums stay below the closed bound, strictly off degree 0."""
    count = 0
    ok = True
    detail = ""
    for p in (2, 3, 5):
        for alpha in (7 / 64, 0.5, 5 / 3):
            for row in verify_multiplicity_bound(p, alpha, 4):
                count += 1
                strict_needed = sum(row.exponents) >= 1
                if not row.passed or (strict_needed and not row.exact_sum < row.closed_bound):
                    ok = False
                    detail = f"violation at p={p}, alpha={alpha}, {row.exponents}"
    verdict(4, ok, detail or f"{count} (tuple, p, alpha) cases pass, strict off degree 0")


def test_criterion_5_semicircle_recovery():
    """Trace distribution for N=2 matches the semicircle law in KS distance."""
    m = 100_000
    bank = sample_bank(2, m, seed=SEED)
    values = np.sort(np.real(bank.sum(axis=-1)))
    cdf = st_cdf_gl2(values)
    grid = np.arange(1, m + 1) / m
    d = float(max(np.max(grid - cdf), np.max(cdf - (grid - 1 / m))))
    limit = 1.63 / math.sqrt(m)
    verdict(5, d < limit, f"KS distance {d:.5f} (99% limit {limit:.5f})")


def test_criterion_6_unitaricity():
    """Fundamental characters pair into conjugates on the unit torus."""
    worst = 0.0
    for n in (2, 3, 4, 5):
        bank = sample_bank(n, 10_000, seed=SEED)
        for k in range(1, n):
            lhs = eval_char(DominantWeight.fundamental(n, k), bank)
            rhs = eval_char(DominantWeight.fundamental(n, n - k), bank)
            worst = max(worst, float(np.max(np.abs(lhs - np.conj(rhs)))))
    verdict(6, worst < 1e-10, f"max |chi_k - conj(chi_(N-k))| = {worst:.3g} (limit 1e-10)")


def test_criterion_7_synthetic_equidistribution():
    """Weighted family statistics sit within 5 sigma of exact moments."""
    fam = synth_family(3, 10_000, mode="sato-tate", primes=(2,), seed=SEED)
    h = TestFunctionH.gaussian()
    t = 300.0
    weights = np.array([weight(mem, h, t) for mem in fam.members])
    bank = np.stack([mem.satake[2].as_array() for mem in fam.members])
    worst = (0.0, None)
    for spec in all_specs(3, 3):
        oracle = trivial_multiplicity(spec)
        vals = char_monomial(spec)(bank)
        mean, se = weighted_stat(vals, weights)
        diff = abs(mean - oracle)
        z = 0.0 if diff == 0 else diff / max(se, 1e-300)
        if z > worst[0]:
            worst = (z, spec.exponents)
    verdict(7, worst[0] <= 5.0, f"max |z| = {worst[0]:.2f} at {worst[1]} (limit 5)")


def test_criterion_8_spectral_formulas():
    """Hand-derived parameter values hold exactly; entries always sum to zero."""
    ok = True
    v = 0.375 + 0.25j
    ell2 = langlands(SpectralParameter(2, (v,)))
    ok &= ell2[0] == v and ell2[1] == -v
    nu1, nu2 = 1 + 2j, 3 - 1j
    ell3 = langlands(SpectralParameter(3, (nu1, nu2)))
    ok &= tuple(ell3) == (2 * nu1 + nu2, nu2 - nu1, -nu1 - 2 * nu2)
    ok &= laplace_eigenvalue(SpectralParameter(3, (0, 0))) == 1.0
    t = 0.5
    ok &= laplace_eigenvalue(SpectralParameter(2, (1j * t,))) == 0.25 + t * t
    ok &= laplace_eigenvalue(SpectralParameter(2, (0.5,))) == 0.0
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(2, 7):
        nus = rng.standard_normal((10_000, n - 1)) + 1j * rng.standard_normal((10_000, n - 1))
        for row in nus:
            ell = langlands(SpectralParameter(n, tuple(row)))
            worst = max(worst, abs(complex(ell.sum())))
    ok &= worst < 1e-12
    verdict(8, bool(ok), f"exact examples hold; max |sum ell| = {worst:.3g} (limit 1e-12)")


def test_criterion_9_determinism(tmp_path):
    """Rerunning a statistical command bitwise-reproduces its output file."""
    pairs = []
    for name, args in [
        ("sample", ["sample", "--n", "2", "--m", "20000", "--bins", "40"]),
        ("moment", ["moment", "--n", "3", "--spec", "1,1,0,0", "--m", "20000"]),
    ]:
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}{run}.csv"
            cmd = [sys.executable, "-m", "satake_st.cli", *args,
                   "--seed", "77", "--out", str(out)]
            subprocess.run(cmd, check=True, capture_output=True)
            outs.append(out.read_bytes())
        pairs.append(outs[0] == outs[1])
    est_a = mc_integrate(char_monomial(TensorSpec(3, (2, 1, 0, 0))), 3, 30_000, seed=SEED)
    sampling._varrho_bank.cache_clear()  # so the second estimate reads a redrawn bank, not the cached one
    est_b = mc_integrate(char_monomial(TensorSpec(3, (2, 1, 0, 0))), 3, 30_000, seed=SEED)
    ok = all(pairs) and est_a == est_b
    verdict(9, ok, "CLI reruns and repeated estimates are bitwise identical")
