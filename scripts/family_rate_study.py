#!/usr/bin/env python3
"""Measured deviation of the weighted family statistic from its exact
moment, across family sizes and scales, next to the N=3 envelope.

The envelope carries an implied constant of 1 and the synthetic family has
no genuine scale dependence, so the comparison is a shape report, not a
certified inequality.
"""

import argparse
import csv
import sys

from satake_st.bounds import Gl3BoundParams, rate_report
from satake_st.characters import TensorSpec
from satake_st.families import TestFunctionH, equidist_report, synth_family


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="1000,10000")
    ap.add_argument("--spec", default="1,1,0,0")
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--t-grid", default="10,30,100,300")
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    exps = tuple(int(v) for v in args.spec.split(","))
    grid = [float(v) for v in args.t_grid.split(",")]
    envelopes = rate_report(Gl3BoundParams(p=args.p, exponents=exps, eps=args.eps), grid)
    h = TestFunctionH.gaussian()

    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    writer = csv.writer(fh)
    writer.writerow(["family_size", "T", "envelope", "measured"])
    for size in (int(v) for v in args.sizes.split(",")):
        fam = synth_family(3, size, primes=(args.p,), seed=args.seed)
        # one equidist row per scale, in grid order, as the CLI's equidist prints them
        for env, row in zip(envelopes, equidist_report(fam, args.p, [TensorSpec(3, exps)], h, grid)):
            writer.writerow([size, env.t, env.envelope, row.difference])
    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
