#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians, quartiles and
each metric's spread, plus one traced run per workload.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

Run from the root of a checkout, like run.py.  The spread of a metric is the
distance between the first and third quartile of its values
(`statistics.quantiles(values, n=4)`) as a share of their median; it is
printed next to a third of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["failures"] = [line for line in proc.stderr.splitlines() if line.startswith("FAILED")]
    return result


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def inputs(workload: str) -> dict:
    """The input sizes of one cycle of the workload."""
    sys.path.insert(0, str(HERE))
    import workloads as wl

    if workload == "search":
        return {
            "pairs": ["u=1 vs w=t^a", "u=|x| vs w=t^a", "u=|x| vs w=t^b", "3-segment line u vs 3-segment w with an exp=-1 segment"],
            "segments": {"one-piece": 1, "multi": 3},
            "t_grid": [*wl.UPPER_TS, *wl.LOWER_TS],
            "p": wl.P,
        }
    if workload == "pointwise":
        return {
            "step_functions": [
                {"pieces": n, "maximal_and_hilbert_points": m, "hilbert_maximal_points": h, "per_cycle": c}
                for n, m, h, c in wl.STEP_PLAN
            ],
            "opnorm_pieces": wl.OPNORM_PIECES,
            "components": [*wl.COMPONENTS, "anchor (0,e) ⊃ (0,1)"],
            "levels_per_set": wl.LEVELS,
            "p": wl.P,
        }
    raise ValueError(f"unknown workload {workload!r}")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None, help="also make one traced run with this seed")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    report: dict = {"machine": machine(), "run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        results = [run(workload, s, args.seconds, 0) for s in args.seeds]
        entry: dict = {
            "why": why[workload],
            "inputs": inputs(workload),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "failures": {s: r["failures"] for s, r in zip(args.seeds, results) if r["failures"]},
            "metrics": {},
        }
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            entry["metrics"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": values,
            }
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<14} median {statistics.median(values):12.5g}  spread {spread:.4f}  (bound/3 {bound / 3:.4f}){flag}")
        if args.trace_seed is not None:
            entry["traced"] = {k: v["value"] for k, v in run(workload, args.trace_seed, args.seconds, 1)["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
