#!/usr/bin/env python3
"""Run one llab CLI call as `python -m llab.cli` does, after timing the
reference loop of calibrate.py in this process.

    PERFBENCH_CALIB=FILE python3 perfbench/cli_child.py <llab arguments...>

The reference-loop timings go to FILE, so the caller can take the loop's
time out of this process's wall time and scale the rest to the reference
speed.  Stdout, stderr and the exit code are the CLI's own.
"""

import os
import runpy

import calibrate

SPINS = 3

with open(os.environ["PERFBENCH_CALIB"], "w") as fh:
    fh.write(" ".join(repr(calibrate.spin()) for _ in range(SPINS)))
runpy.run_module("llab.cli", run_name="__main__", alter_sys=True)
