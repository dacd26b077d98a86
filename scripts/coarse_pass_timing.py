#!/usr/bin/env python3
"""Time the search's coarse pass (`boyd._coarse_pass`) on fresh and warm grid tables.

The inputs are the `multi` pairs of perfbench's `search_inputs` (seeds 1-3,
cycles 0-3) at the ten upper ratios 2^1..2^10, in increasing order, as
`compute_estimates` runs them.  Per pair both caches are cleared, so the
first ratio's pass builds the pair's table and the other nine extend it.
The wall time of every pass, and the time spent inside the weight kernel
`WeightModel._radial_primitive_array` during it, are recorded over `--reps`
repetitions of the whole sweep; the first-pass and later-pass times, then
the kernel's, are printed as median and quartiles in ms, each kernel row
with the median of its share of the pass.  A separate untimed sweep counts
the libm elements per pass, which fix the pass's bits: the pows
`weights._pow` takes and the logs `weights._log` takes.

Usage:
    PYTHONPATH=src python3 scripts/coarse_pass_timing.py [--reps 5]

With PYTHONPATH pointing at another checkout's `src` that has `weights._log`,
the same script times that checkout's pass on the same inputs.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from llab import boyd, weights  # noqa: E402
from workloads import UPPER_TS, search_inputs  # noqa: E402

SEEDS = (1, 2, 3)
CYCLES = (0, 1, 2, 3)


def multi_pairs():
    """(u, w) of the `multi` pair of every seed and cycle."""
    return [
        next((u, w) for label, u, w, _ in search_inputs(seed, cycle)["pairs"] if label == "multi")
        for seed in SEEDS
        for cycle in CYCLES
    ]


def clear():
    boyd._coarse_pass.cache_clear()
    boyd._grid_table.cache_clear()


def sweep(pairs, first, later):
    """Append (pass ms, kernel ms) of every pass to first or later."""
    kernel, spent = weights.WeightModel._radial_primitive_array, [0.0]

    def timed(self, r):
        start = time.perf_counter()
        out = kernel(self, r)
        spent[0] += time.perf_counter() - start
        return out

    weights.WeightModel._radial_primitive_array = timed
    try:
        for u, w in pairs:
            clear()
            for k, ratio in enumerate(UPPER_TS):
                spent[0] = 0.0
                start = time.perf_counter()
                boyd._coarse_pass(u, w, ratio)
                elapsed = time.perf_counter() - start
                (later if k else first).append((1e3 * elapsed, 1e3 * spent[0]))
    finally:
        weights.WeightModel._radial_primitive_array = kernel


def libm_elements(pairs):
    """Elements of weights._pow and of weights._log per pass: (first, later)
    lists of (pows, logs), first passes and later ones."""
    pow_, log, count = weights._pow, weights._log, [0, 0]

    def counted(k, fn):
        def wrapped(*args):
            out = fn(*args)
            count[k] += out.size
            return out

        return wrapped

    first, later = [], []
    weights._pow, weights._log = counted(0, pow_), counted(1, log)
    try:
        for u, w in pairs:
            clear()
            for k, ratio in enumerate(UPPER_TS):
                count[:] = 0, 0
                boyd._coarse_pass(u, w, ratio)
                (later if k else first).append(tuple(count))
    finally:
        weights._pow, weights._log = pow_, log
    return first, later


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{med:8.3f} [{q1:.3f}, {q3:.3f}]  n={len(xs)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5, help="timed sweeps over every pair (default 5)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    pairs = multi_pairs()
    sweep(pairs, [], [])  # warm-up: imports, lazy piece tables, numpy dispatch
    first, later = [], []
    for _ in range(args.reps):
        sweep(pairs, first, later)
    elems_first, elems_later = libm_elements(pairs)
    print(f"llab from {Path(boyd.__file__).resolve().parent}")
    print(f"{len(pairs)} multi pairs x {len(UPPER_TS)} ratios x {args.reps} reps")
    print("pass          median [q1, q3] ms")
    for name, times in (("first pass  ", first), ("later pass  ", later)):
        print(f"{name}{summary([t for t, _ in times])}")
    for name, times in (("first kernel", first), ("later kernel", later)):
        share = statistics.median(k / t for t, k in times)
        print(f"{name}{summary([k for _, k in times])}  {share:.0%} of the pass")
    for name, elems in (("first", elems_first), ("later", elems_later)):
        pows, logs = (statistics.median(col) for col in zip(*elems))
        print(f"libm elements per {name} pass: {pows:.0f} pow, {logs:.0f} log (medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
