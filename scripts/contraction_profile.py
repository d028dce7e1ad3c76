#!/usr/bin/env python3
"""Profile the subordination contraction certificate toward the real axis.

For a fixed real part, solve at b = x + iy for decreasing y and print
the residual ratio of plain Picard steps started near the solution
(ncmetric.freeprob.picard_ratio) next to the certified bound
||1 - eps0 (Im omega)^(-1)||. Near the spectral edge both approach one.
The certificate column reads ok when the ratio is at most the bound
plus 0.05 and above 0.01 (a ratio near zero would pass any bound).
"""

import argparse

import numpy as np

from ncmetric import ScalarLaw, ScalarPower, picard_ratio, point, subordination_solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--law", default="bernoulli", choices=("bernoulli", "semicircle", "arcsine"))
    ap.add_argument("--t", type=float, default=2.0)
    ap.add_argument("--x", type=float, default=0.0)
    ap.add_argument("--ys", default="1,0.3,0.1,0.03,0.01,0.003")
    args = ap.parse_args()

    model = ScalarLaw(args.law)
    rho = ScalarPower(args.t)
    print("y,iterations,residual,tail_ratio,bound,certificate")
    for y in (float(s) for s in args.ys.split(",") if s):
        b = point(np.array([[args.x + 1j * y]]))
        omega, trace = subordination_solve(model, rho, b)
        ratio = picard_ratio(model, rho, b, omega)
        bound = trace.contraction_bound
        ok = bound is not None and 0.01 < ratio <= bound + 0.05
        print(
            f"{y:g},{trace.iterations},{trace.residual:.2e},"
            f"{ratio:.4f},{'' if bound is None else f'{bound:.4f}'},{'ok' if ok else 'VIOLATED'}"
        )


if __name__ == "__main__":
    main()
