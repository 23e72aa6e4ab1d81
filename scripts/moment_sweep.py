#!/usr/bin/env python3
"""Sweep every character monomial of bounded degree and compare its Monte
Carlo average against the exact trivial multiplicity.

Writes one CSV row per monomial; the final line summarizes the worst
z-score, which should stay within a few units for an exact sampler.
"""

import argparse
import csv
import sys

from satake_st.characters import TensorSpec, trivial_multiplicity
from satake_st.sampling import char_monomial, mc_integrate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--max-degree", type=int, default=4)
    ap.add_argument("--m", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    writer = csv.writer(fh)
    writer.writerow(["spec", "oracle", "mean_re", "mean_im", "std_error", "z"])
    worst = 0.0
    for spec in TensorSpec.up_to_degree(args.n, args.max_degree):
        oracle = trivial_multiplicity(spec)
        est = mc_integrate(char_monomial(spec), args.n, args.m, seed=args.seed)
        z = est.z_score(oracle)
        worst = max(worst, z)
        writer.writerow(
            [",".join(map(str, spec.exponents)), oracle, est.mean.real, est.mean.imag, est.std_error, z]
        )
    if fh is not sys.stdout:
        fh.close()
    print(f"worst |z| over the sweep: {worst:.2f}", file=sys.stderr)


if __name__ == "__main__":
    main()
