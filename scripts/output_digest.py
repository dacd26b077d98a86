#!/usr/bin/env python3
"""Print one SHA-256 over the outputs of the step-function layer.

The inputs are seeded and built here, so two checkouts that print the same
digest compute bit-identical values: the JSON and position table of the
maximal, Hilbert and maximal-Hilbert images, the rearrangement and both
Lorentz norms, the empirical operator-norm reports of all four operators
on 10-, 20- and 50-piece steps, and the indicator, random and extremal
test families.  `--verbose` prints each entry's own digest as well, to find
the one that moved.

Usage:
    PYTHONPATH=src python3 scripts/output_digest.py [--verbose]
"""

import argparse
import hashlib
import math

import numpy as np

from llab.operators import (
    apply_operator,
    empirical_opnorm,
    extremal_family,
    indicator_family,
    random_step_family,
)
from llab.rearrangement import lorentz_norm, make_step, rearrange, weak_lorentz_norm
from llab.weights import WeightModel

P = 1.5
SIZES = (10, 20, 50)


def steps(seed: int) -> list:
    """Per size, one step of abutting pieces with distinct values and one
    with gaps between its pieces and values drawn from a pool of four, so
    that levels have several parts."""
    rng = np.random.default_rng(seed)
    out = []
    for n in SIZES:
        edges = -5.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, size=n))])
        vals = rng.permutation(np.linspace(0.25, 4.0, n))
        out.append(make_step([((float(a), float(b)), float(v)) for a, b, v in zip(edges, edges[1:], vals)]))
        cuts = np.sort(rng.uniform(-6.0, 6.0, size=2 * n))
        pool = 2.0 ** rng.uniform(-2.0, 2.0, size=4)
        out.append(
            make_step([((float(cuts[2 * k]), float(cuts[2 * k + 1])), float(rng.choice(pool))) for k in range(n)])
        )
    return out


def entries():
    """(name, repr) of every output the digest covers."""
    u = WeightModel.power(1.0, domain_kind="line")
    w = WeightModel.power(0.4)
    for i, f in enumerate(steps(7)):
        for op in ("maximal", "hilbert", "hstar"):
            image = apply_operator(op, f, u)
            yield f"step{i}.{op}.json", image.to_json()
            yield f"step{i}.{op}.table", repr(image.table)
        yield f"step{i}.rearrange", repr(rearrange(f, u))
        yield f"step{i}.lorentz", repr(lorentz_norm(f, u, w, P))
        yield f"step{i}.weak_lorentz", repr(weak_lorentz_norm(f, u, w, P))
        for op in ("maximal", "hilbert", "hstar", "q"):
            for target in ("strong", "weak"):
                yield f"step{i}.opnorm.{op}.{target}", repr(empirical_opnorm(op, u, w, P, [("f", f)], target))
    families = {
        "indicators": indicator_family(6, 3),
        "random": random_step_family(6, 3),
        **{f"extremal_s{s:g}": extremal_family(s, 2) for s in (2.0, math.e, 4.0, 16.0)},
    }
    for name, family in families.items():
        for test_id, f in family:
            yield f"{name}.{test_id}.json", f.to_json()
            yield f"{name}.{test_id}.table", repr(f.table)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verbose", action="store_true", help="also print each entry's digest")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    for name, text in entries():
        data = f"{name}\n{text}\n".encode()
        total.update(data)
        if args.verbose:
            print(hashlib.sha256(data).hexdigest()[:16], name)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
