#!/usr/bin/env python3
"""Emit eigenvalue-distribution tables for plotting.

Writes one CSV per configuration: the three fixed-frame branches for n up to
10 (showing the real-branch accumulation), and the moving-frame spectrum for
c = 0.5 and c = 2.  Any plotting tool reproduces the usual scatter figures
from these files.
"""

import argparse
import os

import numpy as np

from memwave.model import ModelParams
from memwave.spectrum import branch_roots, write_spectrum_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/figures")
    parser.add_argument("--M", type=float, default=1.0)
    parser.add_argument("--n-max", type=int, default=10)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    n = np.arange(1, args.n_max + 1)
    roots = branch_roots(n, args.M)
    mu1, beta = roots[:, 0].real, roots[:, 1].imag
    path = os.path.join(args.out, "fixed_frame_branches.csv")
    with open(path, "w") as fh:
        fh.write("n,j,re_mu,im_mu\n")
        for i, nn in enumerate(n):
            fh.write(f"{nn},1,{mu1[i]:.17g},0\n")
            fh.write(f"{nn},2,{-mu1[i] / 2:.17g},{beta[i]:.17g}\n")
            fh.write(f"{nn},3,{-mu1[i] / 2:.17g},{-beta[i]:.17g}\n")
    print(f"wrote {path}")

    for c in (0.5, 2.0):
        p = ModelParams(M=args.M, c=c, T=30.0, omega0=((0.0, 1.0),), N=args.n_max)
        path = os.path.join(args.out, f"moving_frame_c{c}.csv")
        with open(path, "w") as fh:
            write_spectrum_csv(fh, p, args.n_max)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
