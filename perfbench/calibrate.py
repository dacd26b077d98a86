"""The reference loop: how fast the host runs Python at this moment.

On a shared machine host speed drifts by tens of percent within seconds.
The benchmark times this fixed loop (floats, tuples, dicts and lists: the
kind of work llab does in the interpreter) in the process whose work it
measures, and reports times scaled by REFERENCE_S / (loop time), that is at
the reference speed.  A run made while the host is busy then compares with
one made while it is idle.
"""

import math
import time

ITERATIONS = 6000
REFERENCE_S = 0.005  # about the loop's time on the machine of BASELINE.json


def spin() -> float:
    """Seconds taken by the fixed reference loop."""
    t0 = time.perf_counter()
    table: dict[int, tuple] = {}
    acc = []
    for i in range(ITERATIONS):
        x = (i * 0.618) % 1.0 + 0.5
        row = (x, math.log(x), x**1.5)
        table[i % 97] = row
        acc.append(max(row[0], table.get(i * 7 % 97, (0.0,))[0]))
    acc.sort()
    return time.perf_counter() - t0
