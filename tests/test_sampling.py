"""Haar class-measure sampler, Monte Carlo estimates, and GL(2) densities."""

import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from satake_st.characters import TensorSpec, eval_char, trivial_multiplicity
from satake_st import sampling
from satake_st.families import synth_family
from satake_st.satake import elementary_symmetric
from satake_st.weights import CoefficientIndex, aleph
from satake_st.sampling import (
    McEstimate,
    RngSeed,
    char_monomial,
    mc_integrate,
    plancherel_density_gl2,
    sample_bank,
    sample_st_batch,
    st_cdf_gl2,
    st_density_gl2,
    varrho_bank,
)

from oracles import haar_su_varrho_row_major, mc_estimate_from_bank, monomial_from_ones, sample_st, sample_st_rejection


def ks_distance(values, cdf) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic."""
    x = np.sort(np.asarray(values, dtype=float))
    m = len(x)
    f = cdf(x)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - f), np.max(f - (grid - 1 / m))))


class TestSampler:
    def test_single_draw_is_canonical(self):
        x = sample_st(3, RngSeed(1).generator())
        assert abs(np.prod(x.as_array()) - 1) < 1e-10
        args = np.mod(np.angle(x.as_array()), 2 * np.pi)
        assert np.all(np.diff(args) >= 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_determinant_residual(self, n):
        for count in (1, 5000):
            bank = sample_st_batch(n, count, RngSeed(2).generator())
            assert bank.shape == (count, n)
            assert np.max(np.abs(np.prod(bank, axis=-1) - 1)) < 1e-10

    def test_unit_modulus(self):
        for n in (2, 3, 4, 6, 10):
            for count in (1, 5000):
                bank = sample_st_batch(n, count, RngSeed(3).generator())
                assert bank.shape == (count, n)
                assert np.max(np.abs(np.abs(bank) - 1)) < 1e-10, (n, count)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_draw_is_a_fresh_contiguous_array(self, n):
        for count in (1, 5000):
            rows = sampling._haar_su_varrho(n, count, RngSeed(2).generator())
            assert rows.shape == (count, n - 1) and rows.dtype == np.complex128
            # column-major, as a monomial reads it one column at a time, and holds no work array alive
            assert rows.flags.f_contiguous and rows.base is None

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_banks_and_synthetic_columns_are_column_major(self, n):
        bank = varrho_bank(n, 3000, seed=17)
        assert bank.shape == (3000, n - 1) and bank.flags.f_contiguous and not bank.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bank[0, 0] = 0
        fam = synth_family(n, 50, primes=(2, 3), seed=18)
        assert all(fam.e[p].flags.f_contiguous and not fam.e[p].flags.writeable for p in (2, 3))

    @pytest.mark.parametrize("exps", [(1, 0, 2, 1), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0)])
    def test_monomial_does_not_write_into_its_rows(self, exps):
        # a first factor e_k^1 is the column itself: the product must start from a copy
        e = np.array([[1 + 2j, 3 - 1j], [0.5j, 2 + 0j]])
        before = e.copy()
        out = TensorSpec(3, exps).monomial(e)
        assert np.array_equal(e, before)
        i, ip, j, jp = exps
        assert np.allclose(out, e[:, 0] ** i * np.conj(e[:, 0]) ** ip * e[:, 1] ** j * np.conj(e[:, 1]) ** jp, rtol=1e-15)
        # a lone row is a batch of one
        assert all(TensorSpec(3, exps).monomial(row) == value for row, value in zip(e, out))

    def test_first_moment_vanishes(self):
        for n in (2, 3, 4):
            est = mc_integrate(char_monomial(TensorSpec(n, (1,) + (0,) * (2 * n - 3))), n, 20000, seed=4)
            assert est.z_score(0.0) < 5

    def test_second_moment_is_one(self):
        for n in (2, 3, 4):
            spec = TensorSpec(n, (1, 1) + (0,) * (2 * n - 4))
            est = mc_integrate(char_monomial(spec), n, 20000, seed=5)
            assert est.z_score(1.0) < 5

    def test_cube_moment_distinguishes_su3(self):
        # trivial constituent of the third tensor power of the defining
        # module exists for SU(3) but not U(3)
        est = mc_integrate(char_monomial(TensorSpec(3, (3, 0, 0, 0))), 3, 50000, seed=6)
        assert est.z_score(1.0) < 5

    def test_rejection_sampler_agrees(self):
        for n in (2, 3):
            rej = sample_st_rejection(n, 30000, RngSeed(7).generator())
            chi1 = rej.sum(axis=1)
            mean = np.mean(np.abs(chi1) ** 2)
            se = np.std(np.abs(chi1) ** 2) / math.sqrt(len(chi1))
            assert abs(mean - 1.0) < 5 * se
            assert np.max(np.abs(np.prod(rej, axis=-1) - 1)) < 1e-10

    def test_semicircle_ks_small(self):
        bank = sample_bank(2, 20000, seed=8)
        values = np.real(bank.sum(axis=-1))
        d = ks_distance(values, st_cdf_gl2)
        assert d < 1.63 / math.sqrt(len(values))


class TestReproducibility:
    def test_same_seed_bitwise_identical(self):
        spec = TensorSpec(3, (1, 1, 0, 0))
        a = mc_integrate(char_monomial(spec), 3, 4000, seed=9)
        b = mc_integrate(char_monomial(spec), 3, 4000, seed=9)
        assert a == b

    def test_stream_offset_disjoint(self):
        g0 = sample_st_batch(2, 100, RngSeed(10, stream=0).generator())
        g1 = sample_st_batch(2, 100, RngSeed(10, stream=1).generator())
        assert not np.allclose(g0, g1)

    def test_bank_cache_returns_consistent_values(self):
        a = sample_bank(2, 1000, seed=11)
        b = sample_bank(2, 1000, seed=11)
        assert np.array_equal(a, b)

    def test_redraw_after_cache_clear_is_bitwise_identical(self):
        a = varrho_bank(3, 1000, 13)
        sampling._varrho_bank.cache_clear()
        b = varrho_bank(3, 1000, seed=13)
        assert b is not a and b.tobytes() == a.tobytes()
        assert varrho_bank(3, 1000, 13) is b  # keyword and positional calls share one entry
        assert not b.flags.writeable

    def test_draws_banks_and_estimates_do_not_depend_on_the_simd_target(self):
        # numpy picks each ufunc's loop for the CPU at import, so a child process with X86_V4 (AVX-512)
        # disabled runs the draw as a host without it would; the variable is set in that child only
        probe = """
import hashlib
from satake_st.characters import TensorSpec
from satake_st.sampling import RngSeed, _haar_su_varrho, char_monomial, mc_integrate, varrho_bank
h = hashlib.sha256()
for n in (2, 3, 4, 6, 10):
    for count in (1, 2, 3, 2049, 20000):
        h.update(_haar_su_varrho(n, count, RngSeed(43).generator()).tobytes())
    h.update(varrho_bank(n, 2049, 44).tobytes())
    for spec in TensorSpec.up_to_degree(n, 2 if n <= 4 else 1):
        est = mc_integrate(char_monomial(spec), n, 2049, seed=44)
        h.update(f"{est.mean.real.hex()} {est.mean.imag.hex()} {est.std_error.hex()}".encode())
print(h.hexdigest())
"""
        env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
        src = str(pathlib.Path(sampling.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        digests = []
        for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}):
            run = subprocess.run([sys.executable, "-c", probe], env=env | disabled, capture_output=True, text=True)
            if run.returncode and "NPY_DISABLE_CPU_FEATURES" in run.stderr:
                pytest.skip(f"numpy rejects {disabled}: {run.stderr.strip().splitlines()[-1]}")
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]


class TestMcIntegrate:
    def test_constant_is_exact(self):
        est = mc_integrate(lambda bank: np.ones(len(bank)), 2, 500, seed=12)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_nonzero_weight_moment_small(self):
        spec = TensorSpec(3, (0, 0, 1, 0))
        est = mc_integrate(char_monomial(spec), 3, 20000, seed=13)
        assert trivial_multiplicity(spec) == 0
        assert est.z_score(0.0) < 5

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            mc_integrate(lambda bank: np.ones(len(bank)), 2, 1, seed=1)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.0, std_error=-1.0, samples=10)
        with pytest.raises(ValueError):
            McEstimate(mean=0.0, std_error=0.0, samples=0)

    def test_z_score_semantics(self):
        est = McEstimate(mean=1.0 + 0j, std_error=0.0, samples=5)
        assert est.z_score(1.0) == 0.0
        assert est.z_score(2.0) == math.inf


class TestLargeRankMoments:
    """Monte Carlo against the rectangle walk at ranks where Pieri runs out of budget on some specs."""

    @pytest.mark.parametrize("n", [16, 24])
    def test_every_moment_of_degree_at_most_2_within_5_sigma(self, n):
        for spec in TensorSpec.up_to_degree(n, 2):
            est = mc_integrate(char_monomial(spec), n, 20_000, seed=n)
            assert est.z_score(trivial_multiplicity(spec)) <= 5, spec.exponents


class TestVarrhoDraw:
    """The draw is a row e_1..e_{N-1}; eigenvalue rows are its companion roots."""

    @staticmethod
    def integrated_rows(n, m, seed):
        seen = []

        def capture(rows):
            seen.append(np.array(rows))
            return np.zeros(len(rows))

        mc_integrate(capture, n, m, seed=seed)
        return seen[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_bank_roots_reproduce_integrated_rows(self, n):
        rows = self.integrated_rows(n, 3000, seed=14)
        assert rows.shape == (3000, n - 1)
        bank = sample_bank(n, 3000, seed=14)
        assert bank.shape == (3000, n)
        assert np.max(np.abs(elementary_symmetric(bank) - rows)) < 1e-10

    @pytest.mark.parametrize("n", [5, 6, 10])
    def test_second_and_fourth_moments(self, n):
        # E|chi_k|^2 = 1 and E|chi_k|^4 = min(k, N-k) + 1 under Haar measure;
        # a radius law off by one in its Beta parameter misses these by far more than 5 sigma
        for k in range(1, n):
            for power, want in ((1, 1), (2, min(k, n - k) + 1)):
                exps = [0] * (2 * (n - 1))
                exps[2 * (k - 1)] = exps[2 * (k - 1) + 1] = power
                est = mc_integrate(char_monomial(TensorSpec(n, tuple(exps))), n, 50_000, seed=15)
                assert est.z_score(want) < 5, (k, power, est)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_char_monomial_agrees_on_both_row_kinds(self, n):
        bank = sample_bank(n, 500, seed=16)
        e = elementary_symmetric(bank)
        for exps in [(1,) + (0,) * (2 * n - 3), (2, 1) + (0,) * (2 * n - 4), (1,) * (2 * n - 2)]:
            f = char_monomial(TensorSpec(n, exps))
            assert np.max(np.abs(f(bank) - f(e))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_lone_row_has_the_bits_of_a_batch_of_one(self, n):
        rng = np.random.default_rng(17)
        bank = sample_bank(n, 12, seed=17) * np.exp(rng.normal(scale=0.3, size=(12, n)))  # off the torus too
        e = elementary_symmetric(bank)
        mus = [aleph(CoefficientIndex(n, l)) for l in itertools.product(range(3), repeat=n - 1)]
        specs = TensorSpec.up_to_degree(n, 3)
        for g in range(len(bank)):
            for row in (bank[g], e[g]):
                for spec in specs:
                    f = char_monomial(spec)
                    lone = f(row)
                    assert lone.shape == () and lone.tobytes() == f(row[None])[0].tobytes(), (spec, row)
            assert elementary_symmetric(bank[g]).tobytes() == elementary_symmetric(bank[g : g + 1])[0].tobytes()
            for mu in mus:
                assert np.asarray(eval_char(mu, bank[g])).tobytes() == eval_char(mu, bank[g : g + 1])[0].tobytes()

    def test_char_monomial_takes_a_lone_eigenvalue_row(self):
        got = char_monomial(TensorSpec(3, (1, 1, 0, 1)))(np.array([1j, -1j, 1]))
        assert got.shape == () and got == 1  # |e_1|^2 conj(e_2), with e_1 = e_2 = 1 at (i, -i, 1)

    @pytest.mark.parametrize("width", [1, 4, 5])
    def test_char_monomial_rejects_other_widths(self, width):
        f = char_monomial(TensorSpec(3, (1, 0, 0, 0)))
        with pytest.raises(ValueError):
            f(np.ones((7, width), dtype=complex))


class TestDensities:
    def test_semicircle_values(self):
        assert st_density_gl2(0.0) == pytest.approx(1 / math.pi)
        assert st_density_gl2(2.0) == 0.0
        assert st_density_gl2(-2.0) == 0.0
        assert st_density_gl2(3.0) == 0.0

    def test_semicircle_mass(self):
        mass, err = quad(st_density_gl2, -2, 2)
        assert abs(mass - 1.0) < 1e-8

    def test_cdf_matches_density(self):
        xs = np.linspace(-1.9, 1.9, 7)
        for x in xs:
            mass, _ = quad(st_density_gl2, -2, x)
            assert abs(st_cdf_gl2(x) - mass) < 1e-8

    def test_plancherel_values(self):
        assert plancherel_density_gl2(0.0, 2) == pytest.approx(2 / (3 * math.pi))
        assert plancherel_density_gl2(2.0, 2) == 0.0
        assert plancherel_density_gl2(-2.0, 3) == 0.0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_plancherel_mass_is_one(self, p):
        mass, err = quad(lambda x: plancherel_density_gl2(x, p), -2, 2)
        assert abs(mass - 1.0) < 1e-6

    def test_plancherel_pole_rejected(self):
        edge = math.sqrt(2) + 1 / math.sqrt(2)
        with pytest.raises(ValueError):
            plancherel_density_gl2(edge, 2)


GOLDEN = pathlib.Path(__file__).parent / "data" / "mc-golden.json"


def golden_specs(n: int) -> list[TensorSpec]:
    """Every spec of degree <= 2 (<= 1 above N=4), and a few whose monomials take odd and even powers."""
    k = 2 * (n - 1)
    extra = {(3,) + (0,) * (k - 1), (5, 2) + (0,) * (k - 2), (0,) * (k - 2) + (4, 4), (0,) * (k - 2) + (2, 7), (1,) * k}
    return TensorSpec.up_to_degree(n, 2 if n <= 4 else 1) + [TensorSpec(n, e) for e in sorted(extra)]


def golden_values() -> dict:
    """The seeded results that tests/data/mc-golden.json pins: float.hex of Monte Carlo
    estimates, and sha256 of the C-order bytes of draws, banks and synthetic families."""

    def sha(a) -> str:
        return hashlib.sha256(np.asarray(a).tobytes()).hexdigest()

    mc, draws = {}, {}
    for n in (2, 3, 4, 6, 10):
        for m in (2, 3, 2000):
            for spec in golden_specs(n):
                est = mc_integrate(char_monomial(spec), n, m, seed=31)
                key = f"n={n} m={m} spec={','.join(map(str, spec.exponents))}"
                mc[key] = [est.mean.real.hex(), est.mean.imag.hex(), est.std_error.hex()]
        for count in (1, 2, 3, 5, 2047, 2049, 20000):
            draws[f"draw n={n} count={count}"] = sha(sampling._haar_su_varrho(n, count, RngSeed(32).generator()))
        draws[f"sample_st n={n}"] = sha(sample_st(n, RngSeed(33).generator()).as_array())
        for m in (1, 3, 2049):
            draws[f"sample_bank n={n} m={m}"] = sha(sample_bank(n, m, seed=34))
            draws[f"sample_st_batch n={n} count={m}"] = sha(sample_st_batch(n, m, RngSeed(35).generator()))
    for n in (3, 4):
        for mode in ("sato-tate", "t1-perturbed"):
            for m in (1, 3, 1000):
                fam = synth_family(n, m, mode=mode, primes=(2, 3), seed=36)
                for p in (2, 3):
                    if p in fam.e:
                        draws[f"synth e n={n} {mode} m={m} p={p}"] = sha(fam.e[p])
                    draws[f"synth alphas n={n} {mode} m={m} p={p}"] = sha(fam.alphas(p))
    return {"mc": mc, "sha256": draws}


def golden_dispatch() -> dict:
    """numpy's version and the SIMD targets of the ufunc loops a pin's last bits depend on: complex
    multiply (FMA or not) in every draw, and float power in ``perturb_radial``'s radial noise."""
    info = np.lib.introspect.opt_func_info(func_name="^(multiply|power)$")
    targets = {f"{f} {sig}": info[f][sig]["current"] for f, sig in (("multiply", "DDD"), ("power", "ddd"))}
    return {"numpy": np.__version__, **targets}


def check_golden_group(t1_perturbed: bool) -> None:
    """Compare one group of pins with the golden file, or skip if numpy or a loop the group passes
    through differs from the file's: the t1-perturbed synthetic families also pass through power."""
    want = json.loads(GOLDEN.read_text())
    loops = ["numpy", "multiply DDD", "power ddd"] if t1_perturbed else ["numpy", "multiply DDD"]
    pinned = {key: want["dispatch"][key] for key in loops}
    if np.__version__ != pinned["numpy"] or {key: golden_dispatch()[key] for key in loops} != pinned:
        pytest.skip(f"the pins hold under {pinned}; other versions and SIMD targets give other last bits")
    got = golden_values()
    for part in ("mc", "sha256"):
        assert got[part].keys() == want[part].keys()
        keys = [key for key in want[part] if ("t1-perturbed" in key) == t1_perturbed]
        moved = [key for key in keys if got[part][key] != want[part][key]]
        assert not moved, f"{len(moved)} of {len(keys)} {part} values moved, e.g. {moved[:3]}"


class TestGoldenBits:
    """Every seeded draw, bank and estimate keeps the bits it had when the golden file was written."""

    def test_draws_banks_and_estimates_match_the_golden_file(self):
        check_golden_group(t1_perturbed=False)

    def test_t1_perturbed_families_match_the_golden_file(self):
        check_golden_group(t1_perturbed=True)


class TestOracleBits:
    """On any host, the column-major draw, the monomial and mc_integrate give the bits of the
    row-major draw, the product started from ones and the reduction by mean() and three temporaries.
    A monomial's imaginary parts are compared up to the sign of a zero, its real parts bit for bit:
    e_{N/2} is exactly real at even N, and a product started from 1 + 0j turns a zero imaginary
    part -0, such as conj(e_{N/2})'s, into +0 (-0 + 0 x = +0 for x > 0)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_draw_matches_the_row_major_recursion(self, n):
        for count in (1, 2, 3, 2049, 20000):
            got = sampling._haar_su_varrho(n, count, RngSeed(41).generator())
            want = haar_su_varrho_row_major(n, count, RngSeed(41).generator())
            assert got.tobytes() == want.tobytes(), count

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_monomials_and_estimates_match_the_oracles(self, n):
        def bits(z: complex, s: float) -> tuple:
            return z.real.hex(), z.imag.hex(), s.hex()

        for m in (2, 3, 8193, 20000):
            bank = haar_su_varrho_row_major(n, m, RngSeed(42).generator())
            for spec in golden_specs(n):
                got, want = spec.monomial(varrho_bank(n, m, 42)), monomial_from_ones(spec, bank)
                assert got.real.tobytes() == want.real.tobytes(), (m, spec)
                assert (got.imag + 0.0).tobytes() == (want.imag + 0.0).tobytes(), (m, spec)  # -0 + 0.0 is +0
                est = mc_integrate(char_monomial(spec), n, m, seed=42)
                assert bits(est.mean, est.std_error) == bits(*mc_estimate_from_bank(spec, bank)), (m, spec)
