#!/usr/bin/env python3
"""Kolmogorov-Smirnov convergence of the N=2 trace distribution to the
semicircle law as the sample count grows.

Emits (m, ks_distance, 99% threshold) rows; the distance should track
C/sqrt(m) below the threshold at every size.  The trace of an SU(2) draw is
e_1 of its characteristic polynomial, read off the bank's first column with
no eigenvalues formed.
"""

import argparse
import csv
import math
import sys

import numpy as np

from satake_st.sampling import st_cdf_gl2, varrho_bank


def ks_distance(values):
    x = np.sort(values)
    m = len(x)
    f = st_cdf_gl2(x)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - f), np.max(f - (grid - 1 / m))))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="1000,4000,16000,64000,256000")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    writer = csv.writer(fh)
    writer.writerow(["m", "ks_distance", "threshold_99"])
    for m in (int(v) for v in args.sizes.split(",")):
        d = ks_distance(np.real(varrho_bank(2, m, args.seed)[:, 0]))
        writer.writerow([m, d, 1.63 / math.sqrt(m)])
    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
