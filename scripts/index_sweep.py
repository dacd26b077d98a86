#!/usr/bin/env python3
"""Sweep power weights w(t) = t^a and report fitted Boyd-type indices.

For u = 1 the exact answer is alpha = beta = (a+1)/p, which makes this a
calibration run for the search budget: the `err` columns show how far the
fitted exponents drift from the closed form at the default budget.

Usage:
    python3 scripts/index_sweep.py [--p 2.0] [--budget 1] [--seed 0]
                                   [--out sweep.csv]
"""

import argparse
import csv
import sys

from llab.boyd import compute_estimates
from llab.weights import WeightModel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--budget", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args(argv)

    u = WeightModel.constant(domain_kind="line")
    rows = []
    print(f"{'a':>6} {'expected':>9} {'alpha':>9} {'err':>9} {'beta':>9} {'err':>9}")
    for a in (-0.75, -0.5, -0.25, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        w = WeightModel.power(a)
        est = compute_estimates(u, w, args.p, budget=args.budget, seed=args.seed)
        alpha, beta = est.alpha, est.beta
        expected = (a + 1.0) / args.p
        rows.append(
            {
                "a": a,
                "p": args.p,
                "expected": expected,
                "alpha": alpha.exponent,
                "alpha_err": alpha.exponent - expected,
                "beta": beta.exponent,
                "beta_err": beta.exponent - expected,
            }
        )
        print(
            f"{a:6.2f} {expected:9.4f} {alpha.exponent:9.4f} "
            f"{alpha.exponent - expected:9.2e} {beta.exponent:9.4f} "
            f"{beta.exponent - expected:9.2e}"
        )

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
