#!/usr/bin/env python3
"""llab's benchmark: closed-loop workloads with oracle-checked results.

    python3 perfbench/run.py --workload {search,pointwise} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: llab is imported from ./src, never from an
installed copy.  One client, no worker threads: each task starts when the
previous one has finished, and a run repeats whole cycles of tasks until
`--seconds` have passed.  Each result is checked against an oracle outside
the timed region; a task that raises or fails its check counts as failed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (spans around every
public llab function, see tracing.py, written under .bench_out/) and of one
fresh `llab` process per subcommand.
"""

import time

T0 = time.perf_counter()

import calibrate  # noqa: E402  (sibling module: the script's directory is on the path)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread
os.environ.pop("LLAB_SEED", None)

import tracing  # noqa: E402  (loads numpy)

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("search", "pointwise")
SETUP_PROBES = 3  # extra fresh-process set-ups; setup_s is the median with this run's own
IMPORT_PROBES = 3
# The workloads time calibrate.spin() between tasks, every CALIBRATE_EVERY_S,
# and scale each task by the median of the nearby timings; set-ups and the
# `llab` child processes time it themselves (cli_child.py).  The raw figures
# are printed too.
CALIBRATE_EVERY_S = 0.2
SPIN_WINDOW = 2  # reference timings on each side that set a task's scale
SETUP_SPINS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    *[(f"weights.{f}.{m}", u) for f in ("primitive", "weight_of_set") for m, u in (("calls", "count"), ("self_s", "s"))],
    ("weights.value.calls", "count"),
    *[(f"weights.check_{c}.self_s", "s") for c in ("delta2", "Bp", "Bstar_inf", "A1", "Ainf")],
    *[(f"boyd.{f}.{m}", u) for f in ("wbar_u", "underline_wu") for m, u in (("calls", "count"), ("self_s", "s"))],
    ("boyd.compute_estimates.self_s", "s"),
    ("boyd.search.w_primitive_calls", "count"),
    *[
        (f"operators.{f}.{m}", u)
        for f in ("maximal", "hilbert", "hilbert_maximal", "conjugate_hardy")
        for m, u in (("calls", "count"), ("self_s", "s"))
    ],
    *[(f"operators.{f}.self_s", "s") for f in ("resample_step", "empirical_opnorm", "hilbert_verdict")],
    *[(f"rearrangement.{f}.{m}", u) for f in ("make_step", "rearrange") for m, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"rearrangement.{f}.self_s", "s") for f in ("lorentz_norm", "weak_lorentz_norm")],
    *[(f"construction.{f}.{m}", u) for f in ("build_extremal", "cover") for m, u in (("calls", "count"), ("self_s", "s"))],
    ("construction.level_set.calls", "count"),
    ("construction.weak_type_lower_bound.self_s", "s"),
    *[(f"intervals.{f}.calls", "count") for f in ("normalize", "union", "intersect", "contains")],
    *[(f"intervals.{f}.self_s", "s") for f in ("normalize", "contains")],
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    *[(f"cli.{c}.wall_s", "s") for c in ("classes", "indices", "verdict", "extremal", "certify", "opnorm")],
    *[(f"share.{m}", "%") for m in tracing.MODULES],
    ("trace.overhead_ratio", "x"),
    ("trace.tasks_per_s", "1/s"),
    ("trace.spans", "count"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_llab() -> None:
    sys.path.insert(0, str(SRC))
    import llab

    if Path(llab.__file__).resolve().parent != (SRC / "llab").resolve():
        fail(f"imported llab from {llab.__file__}, not from {SRC}")


# -- set-up -------------------------------------------------------------------


def set_up(workload: str, seed: int):
    """Build the inputs and run one warm-up task.  Returns a function that
    makes the tasks of cycle c."""
    import workloads as wl

    cycle = wl.search_cycle if workload == "search" else wl.pointwise_cycle
    make = lambda c: cycle(seed, c)  # noqa: E731
    try:
        make(0)[0].run()
    except Exception:  # the same task runs again, checked, in the first cycle
        pass
    return make


def setup_samples(args, own: float) -> list[float]:
    """Set-up seconds at the reference speed: this run's and SETUP_PROBES
    more, each made in a fresh process and scaled by its own loop timings."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr[-500:]}")
        seconds, loop_s = (float(x) for x in proc.stdout.split()[-2:])
        samples.append(seconds * calibrate.REFERENCE_S / loop_s)
    return samples


# -- the closed loop ----------------------------------------------------------


class Loop:
    """Runs whole cycles; records each task's duration and any failure."""

    def __init__(self, make, spin_between: bool) -> None:
        self.make = make
        self.spin_between = spin_between
        self.cycles = 0
        self.spins: list[float] = []
        self.spin_at: list[int] = []  # per task: index of the last reference timing before it
        self.own_spin: list[Optional[float]] = []  # per task: the child's own reference timing
        self._last_spin = -1e9
        self.durations: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[tuple[str, list[str]]] = []
        self.extra_tasks = 0  # checked calls made outside the timed cycles (the traced run's cli calls)

    def cycle(self, tracer=None) -> None:
        for task in self.make(self.cycles):
            if self.spin_between and time.perf_counter() - self._last_spin >= CALIBRATE_EVERY_S:
                self.spins.append(calibrate.spin())
                self._last_spin = time.perf_counter()
            if tracer is not None:
                tracer.task_id = len(self.durations)
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out, err = task.run(), None
            except Exception as exc:  # a library error is a failed task, reported below
                out, err = None, f"raised {exc!r}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            own = None
            if err is None and task.calibration is not None:
                own, spinning = task.calibration(out)
                dt -= spinning
            self.durations.append(dt)
            self.kinds.append(task.kind)
            self.spin_at.append(len(self.spins) - 1)
            self.own_spin.append(own)
            if err is None:
                try:
                    problems = task.check(out)
                except Exception as exc:  # a malformed result fails its check
                    problems = [f"check raised {exc!r}"]
            else:
                problems = [err]
            if problems:
                self.failures.append((task.label, problems))
        self.cycles += 1

    def scaled(self) -> list[float]:
        """Task durations at the reference speed; raw where nothing was timed."""
        n = len(self.spins)
        local = [
            statistics.median(self.spins[max(0, k - SPIN_WINDOW): min(n, k + SPIN_WINDOW + 1)]) for k in range(n)
        ]
        out = []
        for d, k, own in zip(self.durations, self.spin_at, self.own_spin):
            ref = own if own is not None else local[k] if k >= 0 else None
            out.append(d * calibrate.REFERENCE_S / ref if ref else d)
        return out

    def until(self, deadline: float, tracer=None) -> int:
        """Runs cycles until the deadline has passed; returns how many."""
        start = self.cycles
        while True:
            self.cycle(tracer)
            if time.perf_counter() >= deadline:
                return self.cycles - start


def percentile(values: list[float], q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) if len(values) > 1 else values[0]


# -- traced run ---------------------------------------------------------------


def import_times() -> tuple[float, float]:
    """Median over fresh interpreters of `-X importtime -c "import llab.cli"`:
    (llab and llab.cli cumulative, outermost scipy imports cumulative)."""
    import workloads as wl

    totals, scipys = [], []
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import llab.cli"],
            capture_output=True, text=True, env=wl.child_env(SRC), timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"import probe failed: {proc.stderr[-500:]}")
        rows = [(len(m[3]), m[4], int(m[2])) for m in map(line.match, proc.stderr.splitlines()) if m]
        total = sum(cum for depth, name, cum in rows if depth == 1 and name in ("llab", "llab.cli"))
        # rows are printed children first; walk them backwards to know the ancestors
        scipy, stack = 0, []
        for depth, name, cum in reversed(rows):
            del stack[depth - 1:]
            if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for n in stack):
                scipy += cum
            stack.append(name)
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return statistics.median(totals), statistics.median(scipys)


def layer_metrics(summary: dict, task_time: float) -> dict:
    metrics: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and base in summary:
            metrics[name] = summary[base][field]
    shares = {m: 0.0 for m in tracing.MODULES}
    for name, row in summary.items():
        mod = name.split(".")[0]
        if mod in shares:
            shares[mod] += row["self_s"]
    for m in tracing.MODULES:
        metrics[f"share.{m}"] = 100.0 * shares[m] / task_time
    return metrics


def cli_layer(loop: Loop, seed: int) -> dict:
    """Two rounds of one fresh `llab` process per subcommand (the second
    must print the same bytes): median wall times at the reference speed,
    and the import time inside a fresh interpreter."""
    import workloads as wl

    inp = wl.cli_inputs(seed, WORK)
    calls = Loop(lambda c: wl.cli_cycle(inp, SRC), spin_between=False)
    calls.cycle()
    calls.cycle()
    loop.failures.extend(calls.failures)
    loop.extra_tasks += len(calls.durations)
    scaled = calls.scaled()
    metrics = {
        f"cli.{kind}.wall_s": statistics.median(d for k, d in zip(calls.kinds, scaled) if k == kind)
        for kind in wl.CLI_COMMANDS
    }
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_times()
    return metrics


def traced_run(args, loop: Loop, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    loop.cycle()  # untraced, for the overhead ratio
    first = len(loop.durations)
    cycles = loop.until(deadline, tracer=args.tracer)
    spans = args.tracer.arrays()
    summary = tracing.summarize(args.tracer.names, spans)
    args.tracer.save(stem.with_suffix(".npz"))
    scaled = loop.scaled()
    untraced, traced = sum(scaled[:first]), sum(scaled[first:])
    metrics = layer_metrics(summary, sum(loop.durations[first:]))
    metrics["boyd.search.w_primitive_calls"] = tracing.calls_under(args.tracer.names, spans)
    metrics["trace.overhead_ratio"] = traced / cycles / untraced
    metrics["trace.tasks_per_s"] = (len(scaled) - first) / traced
    metrics["trace.spans"] = spans["start"].size
    metrics.update(cli_layer(loop, args.seed))
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"summary": summary, "metrics": metrics}, fh, indent=1, sort_keys=True)
    return metrics


# -- main ---------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "llab" / "__init__.py").is_file():
        fail(f"no llab sources under {SRC}; run from the root of a checkout")

    import_llab()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    make = set_up(args.workload, args.seed)
    own_setup = time.perf_counter() - T0
    own_spin = statistics.median(calibrate.spin() for _ in range(SETUP_SPINS))
    if args.setup_probe:
        print(repr(own_setup), repr(own_spin))
        return 0

    loop = Loop(make, spin_between=True)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        args.tracer = tracer
        metrics = traced_run(args, loop, deadline)
        specs = PER_LAYER
    else:
        loop.until(deadline)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = setup_samples(args, own_setup * calibrate.REFERENCE_S / own_spin)
        for label, d in (("raw", loop.durations), ("scaled", loop.scaled())):
            metrics = {
                "setup_s": statistics.median(setups),
                "tasks_per_s": len(d) / sum(d),
                "task_p50_ms": 1e3 * statistics.median(d),
                "task_p90_ms": 1e3 * percentile(d, 90),
                "peak_rss_mb": rss / 1024.0,
            }
            print(f"  {label}: " + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()))
        print(f"  reference loop: {len(loop.spins)} timings, median {statistics.median(loop.spins) / calibrate.REFERENCE_S:.4f}"
              f" x its reference time; set-up samples {[round(x, 4) for x in setups]}")
        specs = END_TO_END

    n, failed = len(loop.durations) + loop.extra_tasks, len(loop.failures)
    print(f"workload {args.workload} seed {args.seed}: {n} tasks, {failed} failed (fail_ratio {failed / n:.4g})")
    for kind in sorted(set(loop.kinds)):
        ds = [d for k, d in zip(loop.kinds, loop.durations) if k == kind]
        print(f"  {kind:<22} n={len(ds):<5} median {1e3 * statistics.median(ds):10.3f} ms")
    for label, problems in loop.failures[:20]:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    if not args.trace:
        above = sum(1 for x in loop.scaled() if x * 1e3 > metrics["task_p90_ms"])
        print(f"  task latencies: {n} samples, {above} above p90")
    for name, unit in specs:
        print(f"  {name:<44} {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
