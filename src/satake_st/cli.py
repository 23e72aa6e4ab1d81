"""Command-line surface: exact tables, Monte Carlo checks, and reports.

Tabular results stream as CSV, structured results as JSON; every flag can
be overridden through an environment variable with the SATAKE_ST prefix.
A command's failures, usage errors included, exit 2 with a machine-readable
error object on stderr; only hecke's residual check exits 1 instead.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections import Counter

import click
import numpy as np
from click.core import ParameterSource

from . import characters, sampling
from .bounds import Gl3BoundParams, rate_report, verify_multiplicity_bounds
from .characters import TensorSpec, dim, tensor_decompose, trivial_multiplicity
from .families import TestFunctionH, equidist_report, load_family, synth_family
from .sampling import RngSeed, char_monomial, mc_integrate, sample_bank, st_density_gl2, varrho_bank
from .satake import hecke_residuals_n3
from .weights import _is_prime

HECKE_TOL = 1e-10


def _fail(exc: BaseException, code: int = 2):
    message = exc.format_message() if isinstance(exc, click.ClickException) else str(exc)
    click.echo(json.dumps({"error": {"type": type(exc).__name__, "message": message}}), err=True)
    sys.exit(code)


def _parse_list(text: str, kind, distinct: str = "") -> list:
    """The comma list text, each item read by kind; with distinct, the name of the values, two equal ones raise."""
    items = text.split(",")
    if "" in items:
        raise ValueError(f"comma list {text!r} has an empty item")
    values = [kind(v) for v in items]
    repeated = [v for v, count in Counter(values).items() if count > 1] if distinct else []
    if repeated:  # a repeat would print its rows twice, or draw a second bank for them
        raise ValueError(f"{distinct} must be distinct: {repeated[0]} is repeated in {text!r}")
    return values


def _parse_primes(text: str) -> list[int]:
    items = text.split(",")
    if "" in items or not all(_is_prime(int(v)) for v in items):
        raise ValueError(f"--p must be a comma list of primes, got {text!r}")
    return _parse_list(text, int, "primes")


def _parse_prime(text: str, command: str) -> int:
    p, *others = _parse_primes(text)
    if others:
        raise ValueError(f"{command} takes one prime, got {text!r}")
    return p


def _emit(rows: list[dict], fieldnames: list[str], out: str, fmt: str, extra: dict | None = None):
    """Write rows as CSV or JSON to a path or stdout."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps({"rows": rows, **(extra or {})}, indent=2) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


SEED = click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
BUDGET = click.option(
    "--budget", default=characters.DEFAULT_TERM_BUDGET, show_default=True, type=click.IntRange(min=1000),
    help="Most candidate strips all Pieri steps together may try (partitions x C(N,k), summed).",
)


def _flags(*shared):
    """--out, --format and the shared flags (SEED, BUDGET) a command takes."""

    def decorate(fn):
        for flag in (
            click.option("--out", default="-", show_default=True, help="Output path ('-' = stdout)."),
            click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True),
            *shared,
        ):
            fn = flag(fn)
        return fn

    return decorate


class _JsonErrorGroup(click.Group):
    """Group that turns every usage or input error, its own or a command's, into the JSON error object, exit 2."""

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.exceptions.NoArgsIsHelpError:  # a bare call prints the help text
            raise
        except click.UsageError as exc:
            _fail(exc)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.exceptions.Exit:  # --help: a RuntimeError that is not a failure
            raise
        except (click.UsageError, ValueError, RuntimeError, OSError, ArithmeticError, MemoryError) as exc:
            _fail(exc)


@click.group(cls=_JsonErrorGroup)
def cli():
    """Satake-parameter statistics for the Haar conjugacy-class measure."""


@cli.command()
@click.option("--n", required=True, type=int, help="Rank N >= 2.")
@click.option("--spec", "spec_text", required=True, help="Comma list of 2(N-1) exponents.")
@_flags(BUDGET)
def decompose(n, spec_text, out, fmt, budget):
    """Decompose the tensor product encoded by --spec into irreducibles."""
    dec = tensor_decompose(TensorSpec(n, tuple(_parse_list(spec_text, int))), budget)
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
@_flags(SEED, BUDGET)
def moment(n, spec_text, m, out, fmt, seed, budget):
    """Monte Carlo moment of a character monomial against its exact value."""
    spec = TensorSpec(n, tuple(_parse_list(spec_text, int)))
    oracle = trivial_multiplicity(spec, budget)
    est = mc_integrate(char_monomial(spec), n, m, seed)
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
@_flags(SEED)
def sample(n, m, bins, out, fmt, seed):
    """Histogram of Re(chi_1) under the class measure (semicircle for N=2)."""
    values = np.real(varrho_bank(n, m, seed)[:, 0])
    lo, hi = (-2.0, 2.0) if n == 2 else (float(values.min()), float(values.max()))
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
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
    _emit(rows, list(rows[0]), out, fmt)


@cli.command()
@click.option("--n", required=True, type=int)
@click.option("--p", "p_text", default="2", show_default=True, help="One prime.")
@click.option("--family", "family_path", default=None, help="Family JSON to analyze.")
@click.option("--synth-size", default=0, type=int, help="Generate a synthetic family of this size.")
@click.option("--synth-mode", type=click.Choice(["sato-tate", "t1-perturbed"]), default="sato-tate", show_default=True)
@click.option("--max-degree", default=2, show_default=True, type=click.IntRange(min=0))
@click.option("--t-grid", "--T-grid", "t_grid", default="10,100", show_default=True)
@click.option("--h-kind", type=click.Choice(["gaussian", "indicator"]), default="gaussian", show_default=True)
@_flags(SEED)
def equidist(n, p_text, family_path, synth_size, synth_mode, max_degree, t_grid, h_kind, out, fmt, seed):
    """Weighted family statistic against the exact moment, per spec and scale."""
    p = _parse_prime(p_text, "equidist")
    if (family_path is None) == (synth_size == 0):
        raise ValueError("give exactly one of --family or --synth-size")
    specs = TensorSpec.up_to_degree(n, max_degree)  # checks the rank before a family is read or drawn
    ts = _parse_list(t_grid, float)
    envelopes = [""] * (len(specs) * len(ts))  # one per report row, spec by spec
    if n == 3:  # the rate envelope, as bound --rate prints it; it reads p, the specs and the grid, not the family
        envelopes = [r.envelope for s in specs for r in rate_report(Gl3BoundParams(p, s.exponents), ts)]
    if family_path is not None:
        fam = load_family(family_path)
        if fam.n != n:
            raise ValueError(f"family has N={fam.n}, requested N={n}")
    else:
        fam = synth_family(n, synth_size, mode=synth_mode, primes=(p,), seed=seed)
    h = TestFunctionH.gaussian() if h_kind == "gaussian" else TestFunctionH.indicator()
    report = equidist_report(fam, p, specs, h, ts)
    rows = [
        {
            "spec": ",".join(str(e) for e in r.spec.exponents),
            "T": r.t,
            "estimate_re": r.estimate.real,
            "estimate_im": r.estimate.imag,
            "std_error": r.std_error,
            "oracle": r.oracle,
            "abs_diff": r.difference,
            "gl3_error_bound": envelope,
            "ess": r.ess,
        }
        for r, envelope in zip(report, envelopes)
    ]
    fields = ["spec", "T", "estimate_re", "estimate_im", "std_error", "oracle", "abs_diff", "gl3_error_bound", "ess"]
    _emit(rows, fields, out, fmt)


@cli.command()
@click.option("--verify", "mode", flag_value="verify", default=True)
@click.option("--rate", "mode", flag_value="rate")
@click.option("--p", "p_text", default=None, show_default="2,3,5; 2 for --rate", help="Comma list of primes (one for --rate).")
@click.option("--alpha", "alpha_text", default="0.109375,0.5,1.6666666667", show_default=True)
@click.option("--max-degree", default=4, show_default=True, type=click.IntRange(min=0))
@click.option("--spec", "spec_text", default="1,0,0,0", show_default=True, help="Exponents for --rate.")
@click.option("--t-grid", "--T-grid", "t_grid", default="10,30,100,300,1000", show_default=True)
@click.option("--theta", default=7.0 / 64.0, show_default=True, type=float)
@click.option("--eps", default=1e-6, show_default=True, type=float)
@_flags()
@click.pass_context
def bound(ctx, mode, p_text, alpha_text, max_degree, spec_text, t_grid, theta, eps, out, fmt):
    """Exact multiplicity-bound sweep (--verify) or rate envelope (--rate)."""
    unread = ("spec_text", "t_grid", "theta", "eps") if mode == "verify" else ("alpha_text", "max_degree")
    # a value from the command line or a SATAKE_ST_BOUND_* variable counts as given
    given = [
        o.opts[0] for o in ctx.command.params if o.name in unread and ctx.get_parameter_source(o.name) != ParameterSource.DEFAULT
    ]
    if given:
        raise click.UsageError(f"bound --{mode} does not read {', '.join(given)}")
    if p_text is None:
        p_text = {"verify": "2,3,5", "rate": "2"}[mode]
    if mode == "verify":
        fields = ["i1", "i1p", "i2", "i2p", "p", "alpha", "exact", "bound"]
        pairs = [(p, alpha) for p in _parse_primes(p_text) for alpha in _parse_list(alpha_text, float, "alphas")]
        rows = [
            dict(zip(fields, (*r.exponents, p, alpha, r.exact_sum, r.closed_bound)))
            for (p, alpha), pair_rows in zip(pairs, verify_multiplicity_bounds(pairs, max_degree))
            for r in pair_rows
        ]
    else:
        p = _parse_prime(p_text, "bound --rate")
        exps = tuple(_parse_list(spec_text, int))
        params = Gl3BoundParams(p=p, exponents=exps, theta=theta, eps=eps)
        rows = [{"T": r.t, "envelope": r.envelope} for r in rate_report(params, _parse_list(t_grid, float))]
        fields = ["T", "envelope"]
    _emit(rows, fields, out, fmt)


@cli.command()
@click.option("--n", default=3, show_default=True, type=int)
@click.option("--m", default=10_000, show_default=True, type=int)
@click.option("--p", "p_text", default="2,3,5", show_default=True, help="Comma list of primes.")
@click.option("--tol", default=HECKE_TOL, show_default=True, type=float)
@_flags(SEED)
def hecke(n, m, p_text, tol, out, fmt, seed):
    """Residual sweep of the degree-2 identity on random unit-torus and
    bounded-region points."""
    if n != 3:
        raise ValueError(f"identity check requires N=3, got N={n}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    primes = _parse_primes(p_text)
    rng = RngSeed(seed, stream=10_000).generator()
    m1 = max(2, m // 10)
    banks = [("T0", "", sample_bank(n, m, seed))] + [
        ("T1", p, sampling.perturb_radial(sampling.sample_st_batch(n, m1, rng), p, rng))
        for p in primes
    ]
    rows = [
        {"domain": domain, "p": p, "samples": len(bank), "max_residual": float(np.max(hecke_residuals_n3(bank)))}
        for domain, p, bank in banks
    ]
    _emit(rows, ["domain", "p", "samples", "max_residual"], out, fmt)
    worst = max(r["max_residual"] for r in rows)
    if not worst <= tol:
        _fail(RuntimeError(f"max residual {worst:.3g} exceeds tolerance {tol:.3g}"), code=1)


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_flags()
def ingest(path, out, fmt):
    """Validate a family JSON file and report its contents."""
    fam = load_family(path)
    stored = np.zeros(len(fam), dtype=bool)
    for mask in fam.coefficient_mask.values():
        stored |= mask
    row = {
        "N": fam.n,
        "label": fam.label,
        "members": len(fam),
        "primes": " ".join(str(p) for p in sorted(fam.e)),
        "with_coefficients": int(stored.sum()),
    }
    _emit([row], list(row.keys()), out, fmt)


def main():
    cli(auto_envvar_prefix="SATAKE_ST")


if __name__ == "__main__":
    main()
