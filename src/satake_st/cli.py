"""Command-line surface: exact tables, Monte Carlo checks, and reports.

Tabular results stream as CSV, structured results as JSON; every flag can
be overridden through an environment variable with the SATAKE_ST prefix.
Failures exit nonzero with a machine-readable error object on stderr.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import characters, sampling
from .bounds import Gl3BoundParams, rate_report, verify_multiplicity_bound
from .characters import TensorSpec, TermBudgetExceeded, dim, tensor_decompose, trivial_multiplicity
from .families import FamilyValidationError, TestFunctionH, equidist_report, load_family, synth_family
from .sampling import RngSeed, char_monomial, mc_integrate, sample_bank, st_density_gl2, varrho_bank
from .satake import canonicalize_batch, hecke_residuals_n3

HECKE_TOL = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """Global knobs shared by every command."""

    seed: int
    workers: int
    budget: int
    out: str
    fmt: str

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")
        if self.budget < 10**3:
            raise ValueError(f"term budget must be >= 1000, got {self.budget}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.fmt!r}")


def _fail(exc: BaseException, code: int = 2):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _emit(rows: list[dict], fieldnames: list[str], out: str, fmt: str, extra: dict | None = None):
    """Write rows as CSV or JSON to a path or stdout."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        doc = {"rows": rows}
        if extra:
            doc.update(extra)
        text = json.dumps(doc, indent=2) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _common(fn):
    fn = click.option("--out", default="-", show_default=True, help="Output path ('-' = stdout).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)(fn)
    fn = click.option("--seed", default=0, show_default=True, type=int)(fn)
    fn = click.option("--workers", default=1, show_default=True, type=int)(fn)
    fn = click.option(
        "--budget", default=characters.DEFAULT_TERM_BUDGET, show_default=True, type=int,
        help="decompose/moment: most candidate strips one Pieri step may try (partitions x C(N,k)); >= 1000.",
    )(fn)
    return fn


@click.group()
def cli():
    """Satake-parameter statistics for the Haar conjugacy-class measure."""


@cli.command()
@click.option("--n", required=True, type=int, help="Rank N >= 2.")
@click.option("--spec", "spec_text", required=True, help="Comma list of 2(N-1) exponents.")
@_common
def decompose(n, spec_text, out, fmt, seed, workers, budget):
    """Decompose the tensor product encoded by --spec into irreducibles."""
    try:
        RunConfig(seed, workers, budget, out, fmt)
        spec = TensorSpec(n, tuple(_parse_int_list(spec_text)))
        dec = tensor_decompose(spec, budget)
    except (ValueError, TermBudgetExceeded) as exc:
        _fail(exc)
    rows = [
        {"mu": " ".join(str(v) for v in mu.parts), "multiplicity": a, "dim": dim(mu)}
        for mu, a in sorted(dec.items(), key=lambda kv: kv[0].parts, reverse=True)
    ]
    checksum = sum(r["multiplicity"] * r["dim"] for r in rows)
    rows.append({"mu": "checksum", "multiplicity": "", "dim": checksum})
    _emit(rows, ["mu", "multiplicity", "dim"], out, fmt, extra={"checksum": checksum})


@cli.command()
@click.option("--n", required=True, type=int)
@click.option("--spec", "spec_text", required=True)
@click.option("--m", default=100_000, show_default=True, type=int)
@_common
def moment(n, spec_text, m, out, fmt, seed, workers, budget):
    """Monte Carlo moment of a character monomial against its exact value."""
    try:
        RunConfig(seed, workers, budget, out, fmt)
        spec = TensorSpec(n, tuple(_parse_int_list(spec_text)))
        oracle = trivial_multiplicity(spec, budget)
        est = mc_integrate(char_monomial(spec), n, m, RngSeed(seed), workers)
    except (ValueError, TermBudgetExceeded) as exc:
        _fail(exc)
    row = {
        "n": n,
        "spec": spec_text,
        "samples": est.samples,
        "oracle": oracle,
        "mean_re": est.mean.real,
        "mean_im": est.mean.imag,
        "std_error": est.std_error,
        "z": est.z_score(oracle),
    }
    _emit([row], list(row.keys()), out, fmt)


@cli.command()
@click.option("--n", required=True, type=int)
@click.option("--m", default=100_000, show_default=True, type=int)
@click.option("--bins", default=50, show_default=True, type=int)
@_common
def sample(n, m, bins, out, fmt, seed, workers, budget):
    """Histogram of Re(chi_1) under the class measure (semicircle for N=2)."""
    try:
        RunConfig(seed, workers, budget, out, fmt)
        values = np.real(varrho_bank(n, m, seed, workers)[:, 0])
        lo, hi = (-2.0, 2.0) if n == 2 else (float(values.min()), float(values.max()))
        counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    except ValueError as exc:
        _fail(exc)
    widths = np.diff(edges)
    rows = []
    for i in range(bins):
        row = {
            "bin_lo": edges[i],
            "bin_hi": edges[i + 1],
            "count": int(counts[i]),
            "density": counts[i] / (m * widths[i]),
        }
        if n == 2:
            row["semicircle"] = st_density_gl2(0.5 * (edges[i] + edges[i + 1]))
        rows.append(row)
    fields = list(rows[0].keys())
    _emit(rows, fields, out, fmt)


@cli.command()
@click.option("--n", required=True, type=int)
@click.option("--p", default=2, show_default=True, type=int)
@click.option("--family", "family_path", default=None, help="Family JSON to analyze.")
@click.option("--synth-size", default=0, type=int, help="Generate a synthetic family of this size.")
@click.option("--synth-mode", type=click.Choice(["sato-tate", "t1-perturbed"]), default="sato-tate", show_default=True)
@click.option("--max-degree", default=2, show_default=True, type=int)
@click.option("--t-grid", "--T-grid", "t_grid", default="10,100", show_default=True)
@click.option("--h-kind", type=click.Choice(["gaussian", "indicator"]), default="gaussian", show_default=True)
@_common
def equidist(n, p, family_path, synth_size, synth_mode, max_degree, t_grid, h_kind, out, fmt, seed, workers, budget):
    """Weighted family statistic against the exact moment, per spec and scale."""
    import itertools

    try:
        RunConfig(seed, workers, budget, out, fmt)
        if (family_path is None) == (synth_size == 0):
            raise ValueError("give exactly one of --family or --synth-size")
        if family_path is not None:
            fam = load_family(family_path)
            if fam.n != n:
                raise ValueError(f"family has N={fam.n}, requested N={n}")
        else:
            fam = synth_family(n, synth_size, mode=synth_mode, primes=(p,), seed=seed)
        specs = [
            TensorSpec(n, exps)
            for exps in itertools.product(range(max_degree + 1), repeat=2 * (n - 1))
            if sum(exps) <= max_degree
        ]
        h = TestFunctionH.gaussian() if h_kind == "gaussian" else TestFunctionH.indicator()
        rows_raw = equidist_report(fam, p, specs, h, _parse_float_list(t_grid))
    except (ValueError, TermBudgetExceeded, FamilyValidationError, OSError) as exc:
        _fail(exc)
    rows = [
        {
            "spec": ",".join(str(e) for e in r.spec.exponents),
            "T": r.t,
            "estimate_re": r.estimate.real,
            "estimate_im": r.estimate.imag,
            "std_error": r.std_error,
            "oracle": r.oracle,
            "abs_diff": r.difference,
            "gl3_error_bound": "" if r.gl3_bound is None else r.gl3_bound,
        }
        for r in rows_raw
    ]
    fields = ["spec", "T", "estimate_re", "estimate_im", "std_error", "oracle", "abs_diff", "gl3_error_bound"]
    _emit(rows, fields, out, fmt)


@cli.command()
@click.option("--verify", "mode", flag_value="verify", default=True)
@click.option("--rate", "mode", flag_value="rate")
@click.option("--p", "p_text", default="2,3,5", show_default=True, help="Comma list of primes.")
@click.option("--alpha", "alpha_text", default="0.109375,0.5,1.6666666667", show_default=True)
@click.option("--max-degree", default=4, show_default=True, type=int)
@click.option("--spec", "spec_text", default="1,0,0,0", show_default=True, help="Exponents for --rate.")
@click.option("--t-grid", "--T-grid", "t_grid", default="10,30,100,300,1000", show_default=True)
@click.option("--theta", default=7.0 / 64.0, show_default=True, type=float)
@click.option("--eps", default=1e-6, show_default=True, type=float)
@_common
def bound(mode, p_text, alpha_text, max_degree, spec_text, t_grid, theta, eps, out, fmt, seed, workers, budget):
    """Exact multiplicity-bound sweep (--verify) or rate envelope (--rate)."""
    try:
        RunConfig(seed, workers, budget, out, fmt)
        if mode == "verify":
            rows = []
            for p in _parse_int_list(p_text):
                for alpha in _parse_float_list(alpha_text):
                    for r in verify_multiplicity_bound(p, alpha, max_degree):
                        i1, i1p, i2, i2p = r.exponents
                        rows.append(
                            {
                                "i1": i1, "i1p": i1p, "i2": i2, "i2p": i2p,
                                "p": p, "alpha": alpha,
                                "exact": r.exact_sum, "bound": r.closed_bound,
                            }
                        )
            fields = ["i1", "i1p", "i2", "i2p", "p", "alpha", "exact", "bound"]
        else:
            p = _parse_int_list(p_text)[0]
            exps = tuple(_parse_int_list(spec_text))
            params = Gl3BoundParams(t=1.0, p=p, exponents=exps, theta=theta, eps=eps)
            rows = [
                {"T": r.t, "envelope": r.envelope, "measured": "" if r.measured is None else r.measured}
                for r in rate_report(params, _parse_float_list(t_grid))
            ]
            fields = ["T", "envelope", "measured"]
    except (ValueError, TermBudgetExceeded, RuntimeError) as exc:
        _fail(exc)
    _emit(rows, fields, out, fmt)


@cli.command()
@click.option("--n", default=3, show_default=True, type=int)
@click.option("--m", default=10_000, show_default=True, type=int)
@click.option("--p", "p_text", default="2,3,5", show_default=True)
@click.option("--tol", default=HECKE_TOL, show_default=True, type=float)
@_common
def hecke(n, m, p_text, tol, out, fmt, seed, workers, budget):
    """Residual sweep of the degree-2 identity on random unit-torus and
    bounded-region points."""
    try:
        RunConfig(seed, workers, budget, out, fmt)
        if n != 3:
            raise ValueError(f"identity check requires N=3, got N={n}")
        if not (np.isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
        bank = sample_bank(n, m, seed, workers)
        rows = [
            {
                "domain": "T0",
                "p": "",
                "samples": m,
                "max_residual": float(np.max(hecke_residuals_n3(bank))),
            }
        ]
        rng = RngSeed(seed, stream=10_000).generator()
        m1 = max(2, m // 10)
        for p in _parse_int_list(p_text):
            base = sampling.sample_st_batch(n, m1, rng)
            pert = canonicalize_batch(sampling.perturb_radial(base, p, rng))
            rows.append(
                {
                    "domain": "T1",
                    "p": p,
                    "samples": m1,
                    "max_residual": float(np.max(hecke_residuals_n3(pert))),
                }
            )
    except ValueError as exc:
        _fail(exc)
    _emit(rows, ["domain", "p", "samples", "max_residual"], out, fmt)
    worst = max(r["max_residual"] for r in rows)
    if worst > tol:
        _fail(RuntimeError(f"max residual {worst:.3g} exceeds tolerance {tol:.3g}"), code=1)


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_common
def ingest(path, out, fmt, seed, workers, budget):
    """Validate a family JSON file and report its contents."""
    try:
        RunConfig(seed, workers, budget, out, fmt)
        fam = load_family(path)
    except (FamilyValidationError, ValueError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    primes = sorted({p for mem in fam.members if mem.satake for p in mem.satake})
    row = {
        "N": fam.n,
        "label": fam.label,
        "members": len(fam),
        "primes": " ".join(str(p) for p in primes),
        "with_coefficients": sum(1 for mem in fam.members if mem.coefficients),
    }
    _emit([row], list(row.keys()), out, fmt)


def main():
    cli(auto_envvar_prefix="SATAKE_ST")


if __name__ == "__main__":
    main()
