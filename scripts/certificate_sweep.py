#!/usr/bin/env python3
"""Weak-type certificates for the maximal operator across stretch factors.

For each s the extremal configuration I = (0, s), S = (0, 1) yields an
operator-norm lower bound.

Usage:
    python3 scripts/certificate_sweep.py [--p 2.0] [--u u.json] [--w w.json]
"""

import argparse
import sys

from llab.boyd import Configuration
from llab.construction import weak_type_lower_bound
from llab.intervals import Interval, singleton
from llab.weights import WeightModel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--u", default=None, help="weight config for u (default: 1)")
    ap.add_argument("--w", default=None, help="weight config for w (default: 1)")
    args = ap.parse_args(argv)

    u = WeightModel.load(args.u) if args.u else WeightModel.constant(domain_kind="line")
    w = WeightModel.load(args.w) if args.w else WeightModel.constant()

    print(f"{'s':>8} {'threshold':>10} {'test_norm':>10} {'lower_bd':>10}")
    for k in range(1, 9):
        s = 2.0**k
        fam = Configuration(pairs=((Interval(0.0, s), singleton(0.0, 1.0)),), ratio=s)
        cert = weak_type_lower_bound(u, w, args.p, fam)
        print(f"{s:8.1f} {cert.threshold:10.4f} {cert.test_norm:10.4f} {cert.lower_bound:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
