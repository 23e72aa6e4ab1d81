"""The three workloads: inputs made from a seed, one pass, and its checks.

Every workload reaches the package through module attributes
(``st.sampling.mc_integrate``, ...); ``tracing.Tracer.install`` puts its
shims at every such binding, so a traced pass sees them.  Each call into the
package is one operation: its latency is recorded, and it counts as
failed when it raises, when a CLI call exits nonzero, or when its check
fails.  A failure is counted and the pass goes on.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
import traceback

Z_MAX = 5.0
# Absolute slack for rows whose standard error is exactly 0 (constant
# integrands): only roundoff may separate the estimate from the oracle.
ROUNDOFF = 1e-9
MAX_REPORTED_ERRORS = 5


class OpLog:
    """Latency and outcome of every operation of one pass.

    Before an operation, ``speed`` may take a host-speed checkpoint (see
    hostspeed.py); ``interval`` records which interval each operation ran
    in, so that its latency can be scaled to the reference speed.
    """

    def __init__(self, probe, speed):
        self.probe = probe
        self.speed = speed
        self.latency_s: list[float] = []
        self.interval: list[int] = []
        self.failed = 0
        self.errors: list[str] = []

    def scaled_latency_s(self) -> list[float]:
        return [t * self.speed.factor(i) for t, i in zip(self.latency_s, self.interval)]

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"{label}: {why}")

    def run(self, label: str, fn, check):
        """Time fn() as one operation, then check its result outside the timing.

        check returns None when the result is right, else a message.
        Returns fn's result, or None when the call failed.
        """
        out = None
        error = None
        self.interval.append(self.speed.maybe_checkpoint())
        t0 = time.perf_counter()
        try:
            out = self.probe.span("bench.op", fn)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exited with code {exc.code!r}"
        except Exception:
            error = traceback.format_exc(limit=3)
        self.latency_s.append(time.perf_counter() - t0)
        if error is None:
            try:
                error = check(out)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=3)
        if error is not None:
            self._fail(label, error)
            return None
        return out


def _monomials(n: int, max_degree: int):
    return [
        exps
        for exps in itertools.product(range(max_degree + 1), repeat=2 * (n - 1))
        if sum(exps) <= max_degree
    ]


def _exact_degree(n: int, degree: int):
    return [e for e in _monomials(n, degree) if sum(e) == degree]


def _abs_square(n: int, k: int) -> tuple[int, ...]:
    exps = [0] * (2 * (n - 1))
    exps[2 * (k - 1)] = exps[2 * (k - 1) + 1] = 1
    return tuple(exps)


# --- moment-sweep ------------------------------------------------------------


def moment_sweep_inputs(seed: int, small: bool) -> dict:
    """Every monomial of degree <= 4 for N in {2,3,4}, and |chi_k|^2 for N in {6,10}.

    Each N gets one Monte Carlo seed shared by all its calls, as a user's
    sweep does, so the first call per N draws the bank and later calls
    reuse it.
    """
    rng = random.Random(seed)
    ranks = (2, 3, 4, 6, 10)
    specs = [(n, exps, None) for n in (2, 3, 4) for exps in _monomials(n, 4)]
    specs += [(n, _abs_square(n, k), 1) for n in (6, 10) for k in range(1, n)]
    return {
        "m": 2_000 if small else 20_000,
        "seeds": {n: rng.randrange(2**31) for n in ranks},
        "specs": specs,
    }


def run_moment_sweep(st, inputs: dict, log: OpLog, scratch_dir: str) -> None:
    sampling, characters = st.sampling, st.characters
    m = inputs["m"]
    for n, exps, known in inputs["specs"]:
        spec = characters.TensorSpec(n, exps)
        integrand = log.probe.wrap(sampling.char_monomial(spec), "sampling.integrand")
        seed = inputs["seeds"][n]

        def check(est, spec=spec, known=known):
            oracle = characters.trivial_multiplicity(spec) if known is None else known
            if est.samples != m:
                return f"used {est.samples} samples, asked for {m}"
            z = est.z_score(oracle)
            if not z <= Z_MAX:
                return f"|z| = {z:.2f} against exact {oracle} (mean {est.mean})"
            return None

        log.run(
            f"mc_integrate N={n} {exps}",
            lambda: sampling.mc_integrate(integrand, n, m, seed),
            check,
        )


# --- family-report -----------------------------------------------------------


def family_report_inputs(seed: int, small: bool) -> dict:
    """A synthetic N=3 family at three primes, every spec of degree <= 3."""
    return {
        "m": 100 if small else 1_000,
        "synth_seed": random.Random(seed).randrange(2**31),
        "primes": (2, 3, 5),
        "specs": _monomials(3, 3),
        "t_grid": (30.0, 100.0),
        "saved_prime": 2,
        "coefficient_columns": ((1, 0), (0, 1)),
    }


def run_family_report(st, inputs: dict, log: OpLog, scratch_dir: str) -> None:
    families, satake, characters, weights = st.families, st.satake, st.characters, st.weights
    m, primes, t_grid = inputs["m"], inputs["primes"], inputs["t_grid"]
    p_saved = inputs["saved_prime"]
    family_path = os.path.join(scratch_dir, f"family-{os.getpid()}.json")
    ingest_path = os.path.join(scratch_dir, f"ingest-{os.getpid()}.json")

    def synth():
        return families.synth_family(3, m, primes=primes, seed=inputs["synth_seed"])

    def check_synth(fam):
        if len(fam) != m:
            return f"{len(fam)} members, asked for {m}"
        return None

    fam = log.run("synth_family", synth, check_synth)

    def save():
        # A stored coefficient must match the parameter at every stored
        # prime, so the saved members keep one prime next to two columns.
        idxs = [weights.CoefficientIndex(3, l) for l in inputs["coefficient_columns"]]
        members = []
        for mem in fam.members:
            x = mem.satake[p_saved]
            coeffs = {idx: satake.coefficient(x, idx) for idx in idxs}
            members.append(
                families.FamilyMember(
                    nu=mem.nu, l1_adjoint=mem.l1_adjoint,
                    coefficients=coeffs, satake={p_saved: x},
                )
            )
        families.save_family(families.Family(3, tuple(members), label="bench"), family_path)
        return os.path.getsize(family_path)

    log.run("save_family", save, lambda size: None if size > 0 else "empty file")

    def ingest():
        args = ["ingest", family_path, "--format", "json", "--out", ingest_path]
        log.probe.span(
            "cli.ingest", st.cli.cli.main, args=args, prog_name="satake-st",
            standalone_mode=False, auto_envvar_prefix="SATAKE_ST",
        )
        with open(ingest_path) as fh:
            return json.load(fh)["rows"][0]

    def check_ingest(row):
        want = {"N": 3, "members": m, "with_coefficients": m, "primes": str(p_saved)}
        got = {key: row.get(key) for key in want}
        return None if got == want else f"ingest reported {got}, expected {want}"

    log.run("cli ingest", ingest, check_ingest)

    h = families.TestFunctionH.gaussian()
    for p in primes:
        for exps in inputs["specs"]:
            spec = characters.TensorSpec(3, exps)

            def check(rows):
                if len(rows) != len(t_grid):
                    return f"{len(rows)} rows for {len(t_grid)} scales"
                for r in rows:
                    if not r.difference <= Z_MAX * r.std_error + ROUNDOFF:
                        return (
                            f"T={r.t}: |{r.estimate} - {r.oracle}| = {r.difference:.3g}"
                            f" > {Z_MAX} x {r.std_error:.3g}"
                        )
                return None

            log.run(
                f"equidist_report p={p} {exps}",
                lambda spec=spec, p=p: families.equidist_report(fam, p, [spec], h, t_grid),
                check,
            )

    for path in (family_path, ingest_path):
        if os.path.exists(path):
            os.remove(path)


# --- exact-algebra -----------------------------------------------------------

# N=6 degree-8 products that stay within the default term budget.
N6_SPECS = ((4, 4, 0, 0, 0, 0, 0, 0, 0, 0), (0, 2, 0, 1, 2, 0, 0, 0, 3, 0))


def exact_algebra_inputs(seed: int, small: bool) -> dict:
    """Every spec of N=3 deg 6-7, N=4 deg 4-5, N=5 deg 3-4, two of N=6 deg 8.

    The seed fixes the order of the decompositions; the set, and with it
    the total work, is the same for every seed.
    """
    if small:
        degrees = {3: (2, 3), 4: (2,)}
        n6, max_degree = (), 2
    else:
        degrees = {3: (6, 7), 4: (4, 5), 5: (3, 4)}
        n6, max_degree = N6_SPECS, 4
    specs = [(n, e) for n, ds in degrees.items() for d in ds for e in _exact_degree(n, d)]
    specs += [(6, e) for e in n6]
    random.Random(seed).shuffle(specs)
    bound_cases = [(p, a) for p in (2, 3, 5) for a in (7 / 64, 1 / 2, 5 / 3)]
    return {"specs": specs, "bound_cases": bound_cases, "max_degree": max_degree}


def run_exact_algebra(st, inputs: dict, log: OpLog, scratch_dir: str) -> None:
    characters, bounds = st.characters, st.bounds
    for n, exps in inputs["specs"]:
        spec = characters.TensorSpec(n, exps)

        def check(dec, spec=spec):
            if any(a <= 0 for a in dec.values()):
                return "non-positive multiplicity"
            total = sum(a * characters.dim(mu) for mu, a in dec.items())
            want = 1
            for w in spec.factor_weights():
                want *= characters.dim(w)
            return None if total == want else f"sum a*dim = {total}, product of dims = {want}"

        log.run(
            f"tensor_decompose N={n} {exps}",
            lambda spec=spec: characters.tensor_decompose(spec),
            check,
        )

    max_degree = inputs["max_degree"]
    expected_rows = len(_monomials(3, max_degree))
    for p, alpha in inputs["bound_cases"]:

        def check(rows):
            if len(rows) != expected_rows:
                return f"{len(rows)} rows, expected {expected_rows}"
            bad = [r.exponents for r in rows if not (r.passed and r.exact_sum <= r.closed_bound)]
            return f"bound fails at {bad[:3]}" if bad else None

        log.run(
            f"verify_multiplicity_bound p={p} alpha={alpha:.4f}",
            lambda p=p, alpha=alpha: bounds.verify_multiplicity_bound(p, alpha, max_degree),
            check,
        )


WORKLOADS = {
    "moment-sweep": (moment_sweep_inputs, run_moment_sweep),
    "family-report": (family_report_inputs, run_family_report),
    "exact-algebra": (exact_algebra_inputs, run_exact_algebra),
}
