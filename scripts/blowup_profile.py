#!/usr/bin/env python3
"""Boundary blow-up of the two-point gauge, against the bounded slice.

Prints delta~(0, r) on the unit ball as r walks to the boundary, and
the worst delta~ over self-adjoint pairs in a small spectral disk at
matching fill fractions. The first column diverges; the last stays
under 4/3.
"""

import argparse

import numpy as np

from ncmetric import BallKernel, NormBound, SpectralDisk, delta_auto_tilde, delta_tilde, point
from ncmetric.sampling import rng_stream, scaled, selfadjoint_disk_draw


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--js", default="2,4,6,8,10,12")
    args = ap.parse_args()

    disk = SpectralDisk(0.0, 0.25, NormBound("constant", 1.0))
    rng = rng_stream(args.seed, "blowup_profile")
    zero = point(np.zeros((1, 1)))
    print("fill,ball_tilde,disk_worst_tilde")
    for j in (int(s) for s in args.js.split(",") if s):
        fill = 1.0 - 2.0 ** -j
        ball_val = delta_tilde(BallKernel(), zero, point(np.array([[fill]]))).value
        worst = 0.0
        for _ in range(args.samples):
            lvl = int(rng.integers(1, 3))
            a = scaled(selfadjoint_disk_draw(rng, lvl, 1, 0.25, fill=fill))
            c = scaled(selfadjoint_disk_draw(rng, lvl, 1, 0.25, fill=fill))
            worst = max(worst, delta_auto_tilde(disk, a, c).value)
        print(f"{fill:.6f},{ball_val:.6f},{worst:.6f}")


if __name__ == "__main__":
    main()
