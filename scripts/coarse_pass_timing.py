#!/usr/bin/env python3
"""Time the search's coarse pass (`boyd._coarse_pass`) on fresh and warm grid tables.

The inputs are the `multi` pairs of perfbench's `search_inputs` (seeds 1-3,
cycles 0-3) at the ten upper ratios 2^1..2^10, in increasing order, as
`compute_estimates` runs them.  Per pair both caches are cleared, so the
first ratio's pass builds the pair's table and the other nine extend it.
The wall time of every pass is recorded over `--reps` repetitions of the
whole sweep; the first-pass and later-pass times are printed as median and
quartiles in ms.  A separate untimed sweep counts the libm calls per pass
(the elements `weights._libm` maps, which fix the pass's bits).

Usage:
    PYTHONPATH=src python3 scripts/coarse_pass_timing.py [--reps 5]

With PYTHONPATH pointing at another checkout's `src`, the same script times
that checkout's pass on the same inputs.
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
    for u, w in pairs:
        clear()
        for k, ratio in enumerate(UPPER_TS):
            start = time.perf_counter()
            boyd._coarse_pass(u, w, ratio)
            elapsed = 1e3 * (time.perf_counter() - start)
            (later if k else first).append(elapsed)


def libm_calls(pairs):
    """Elements mapped by weights._libm per pass, first passes and later ones."""
    libm, count = weights._libm, [0]

    def counted(fn, *args):
        out = libm(fn, *args)
        count[0] += out.size
        return out

    first, later = [], []
    weights._libm = counted
    try:
        for u, w in pairs:
            clear()
            for k, ratio in enumerate(UPPER_TS):
                count[0] = 0
                boyd._coarse_pass(u, w, ratio)
                (later if k else first).append(count[0])
    finally:
        weights._libm = libm
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
    calls_first, calls_later = libm_calls(pairs)
    print(f"llab from {Path(boyd.__file__).resolve().parent}")
    print(f"{len(pairs)} multi pairs x {len(UPPER_TS)} ratios x {args.reps} reps")
    print("pass          median [q1, q3] ms")
    print(f"first pass  {summary(first)}")
    print(f"later pass  {summary(later)}")
    print(f"libm calls per pass: first {statistics.median(calls_first):.0f}, later {statistics.median(calls_later):.0f} (medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
