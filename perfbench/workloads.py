"""The benchmark's workloads: inputs made from the seed, and one cycle of tasks.

A task is one unit of timed work (`run`) plus its correctness check (`check`,
untimed), which returns a list of problems.  A run repeats whole cycles, so
every run measures the same mix of tasks.  The workloads draw fresh inputs
for every cycle from (seed, cycle number): a run then averages over several
draws, which keeps input-dependent costs from setting a run's figures.  The
`llab` subcommands, one fresh process each, are measured in traced runs.

llab is reached through module attributes (`boyd.wbar_u`, not a name bound at
import), so the wrappers a traced run installs are the ones called.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles
from oracles import REL

P = 2.0  # every workload measures the p = 2 quasi-norm


@dataclass
class Task:
    kind: str
    label: str  # the task's inputs, printed with any failure
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # for a task run in a child process that timed the reference loop itself:
    # result -> (median loop time, seconds the child spent in the loop)
    calibration: Optional[Callable[[object], tuple[float, float]]] = None


def _llab():
    from llab import boyd, construction, intervals, operators, rearrangement, weights

    return boyd, construction, intervals, operators, rearrangement, weights


# -- search ------------------------------------------------------------------

UPPER_TS = tuple(2.0**k for k in range(1, 11))
LOWER_TS = tuple(2.0**-k for k in range(10, 0, -1))


def search_inputs(seed: int, cycle: int) -> dict:
    """Weight pairs: three one-piece power pairs with known answers and one
    multi-segment pair (line-domain u; w with an exp = -1 segment).

    Two of the pairs use u = |x| so that the median task falls inside one
    group of similar tasks for every number of cycles, not between two."""
    _, _, _, _, _, weights = _llab()
    WM, Seg = weights.WeightModel, weights.Segment
    rng = np.random.default_rng([seed, 1, cycle])
    a1, a2, a3 = (float(x) for x in rng.uniform(0.2, 0.8, size=3))
    b = np.cumsum(rng.uniform(0.5, 2.0, size=3))
    u3 = WM(
        segments=(
            Seg(0.0, float(b[0]), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 1.5))),
            Seg(float(b[0]), float(b[1]), float(rng.uniform(0.5, 2.0)), 0.0),
            Seg(float(b[1]), float(b[2]), float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 1.5))),
        ),
        domain_kind="line",
        tail_coef=1.0,
        tail_exp=float(rng.uniform(0.2, 0.8)),
    )
    c = np.cumsum(rng.uniform(0.5, 2.0, size=3))
    w3 = WM(
        segments=(
            Seg(0.0, float(c[0]), 1.0, float(rng.uniform(0.2, 0.8))),
            Seg(float(c[0]), float(c[1]), float(rng.uniform(0.5, 2.0)), -1.0),
            Seg(float(c[1]), float(c[2]), float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 1.5))),
        ),
        tail_coef=1.0,
        tail_exp=float(rng.uniform(0.1, 0.6)),
    )
    return {
        "seed": seed,
        "cycle": cycle,
        "pairs": [
            ("u=1,w=t^a", WM.constant(domain_kind="line"), WM.power(a1), {"u": "one", "a": a1}),
            ("u=|x|,w=t^a", WM.power(1.0, domain_kind="line"), WM.power(a2), {"u": "abs", "a": a2}),
            ("u=|x|,w=t^b", WM.power(1.0, domain_kind="line"), WM.power(a3), {"u": "abs", "a": a3}),
            ("multi", u3, w3, {"u": "multi"}),
        ],
    }


def _sample_check(t: float, upper: bool, known: dict, u, w):
    """Witness replay, plus the closed forms of the one-piece pairs."""

    def check(out) -> list[str]:
        value, config = out
        problems: list[str] = []
        replay = config.evaluate(u, w)
        expect_value = replay if upper else 1.0 / replay
        if abs(expect_value - value) > 1e-12 * abs(value):
            problems.append(f"witness replay {expect_value!r} != {value!r}")
        if upper and value < 1.0 or not upper and value > 1.0:
            problems.append(f"value {value!r} on the wrong side of 1")
        a = known.get("a")
        if known.get("u") == "one":
            # u = 1: every family has u(I)/u(S) = t, so the value is t^(a+1)
            want = t ** (a + 1.0)
            if abs(value - want) > 1e-9 * want:
                problems.append(f"u=1 closed form {want!r} != {value!r}")
        elif known.get("u") == "abs":
            # u = |x|: no family beats the best single pair, so W(.) of its ratio bounds the search
            sup = oracles.abs_sup(t, upper) ** (a + 1.0)
            if value > sup * (1.0 + 1e-9):
                problems.append(f"lower bound {value!r} above the supremum {sup!r}")
        return problems

    return check


def _monotone(vals):
    return tuple(np.maximum.accumulate(np.asarray(vals, dtype=float)))


def search_cycle(seed: int, cycle: int) -> list[Task]:
    boyd, _, _, _, _, weights = _llab()
    inp = search_inputs(seed, cycle)
    tasks: list[Task] = []
    for name, u, w, known in inp["pairs"]:
        where = f"seed={seed} cycle={cycle} {json.dumps(known)}"
        state: dict = {"upper": {}, "lower": {}}

        def sample(t, upper, u=u, w=w, state=state):
            fn = boyd.wbar_u if upper else boyd.underline_wu
            out = fn(u, w, t, budget=1, seed=seed)
            state["upper" if upper else "lower"][t] = out[0]
            return out

        for upper, ts in ((True, UPPER_TS), (False, LOWER_TS)):
            for t in ts:
                tasks.append(
                    Task(
                        f"sample/{name}",
                        f"{'wbar_u' if upper else 'underline_wu'} pair={name} t={t!r} {where}",
                        lambda t=t, upper=upper, sample=sample: sample(t, upper),
                        _sample_check(t, upper, known, u, w),
                    )
                )

        def samples(side, state=state):
            vals = state[side]
            ts = tuple(sorted(vals))
            return boyd.SubmultiplicativeSamples(ts, _monotone([vals[t] for t in ts]), "lower_bound", 1)

        def fit(side, state=state, samples=samples):
            s = samples(side)
            powered = boyd.SubmultiplicativeSamples(
                s.arguments, tuple(v ** (1.0 / P) for v in s.values), s.direction, s.budget
            )
            est = boyd.fit_upper_exponent(powered)
            state["fit_" + side] = est
            return est

        def fit_check(est, known=known):
            problems: list[str] = []
            if not math.isfinite(est.exponent):
                problems.append(f"exponent {est.exponent!r}")
            if known.get("u") == "one" and abs(est.exponent - (known["a"] + 1.0) / P) > 1e-2:
                problems.append(f"index {est.exponent!r} != (a+1)/p = {(known['a'] + 1.0) / P!r}")
            return problems

        for side in ("upper", "lower"):
            tasks.append(
                Task("fit", f"fit {side} pair={name} {where}", lambda side=side, fit=fit: fit(side), fit_check)
            )

        def verdict(u=u, w=w, state=state, samples=samples):
            est = boyd.BoydEstimates(P, state["fit_upper"], state["fit_lower"], samples("upper"), samples("lower"))
            return boyd.maximal_verdict(u, w, P, est)

        def verdict_check(rec, known=known):
            if rec.verdict not in ("bounded", "not_bounded", "inconclusive"):
                return [f"verdict {rec.verdict!r}"]
            # u = 1, w = t^a with a < p - 1: w is in B_p, so M is bounded
            if known.get("u") == "one" and rec.verdict != "bounded":
                return [f"u=1, a={known['a']!r}: verdict {rec.verdict!r}, expected bounded"]
            return []

        tasks.append(Task("verdict", f"maximal_verdict pair={name} {where}", verdict, verdict_check))
        tasks.extend(_class_tasks(f"pair={name} {where}", u, w, known, weights))
    return tasks


def _class_tasks(label: str, u, w, known: dict, weights) -> list[Task]:
    a = known.get("a")

    def ratio_replay(fn):
        def check(v) -> list[str]:
            problems: list[str] = []
            if not math.isfinite(v.constant) or v.constant <= 0.0:
                problems.append(f"constant {v.constant!r}")
            elif "r" in v.witness and isinstance(v.witness["r"], float):
                again = fn(v.witness["r"])
                if abs(again - v.constant) > 1e-12 * v.constant:
                    problems.append(f"witness replay {again!r} != {v.constant!r}")
            return problems

        return check

    def closed(check, want):
        def both(v) -> list[str]:
            problems = check(v)
            if want is not None and abs(v.constant - want) > 1e-6 * want:
                problems.append(f"constant {v.constant!r} != closed form {want!r}")
            return problems

        return both

    power = a is not None
    d2 = closed(ratio_replay(lambda r: weights.delta2_ratio(w, r)), 2.0 ** (a + 1.0) if power else None)
    bp = closed(ratio_replay(lambda r: weights.bp_ratio(w, P, r)), (a + 1.0) / (P - a - 1.0) if power else None)
    bs = closed(ratio_replay(lambda r: weights.bstar_ratio(w, r)), 1.0 / (a + 1.0) if power else None)

    def a1_check(v) -> list[str]:
        if known.get("u") == "one":
            return [] if v.holds and abs(v.constant - 1.0) <= 1e-9 else [f"u=1 A1 {v.holds}, {v.constant!r}"]
        if known.get("u") == "abs":
            return [] if not v.holds else ["u=|x| reported in A1"]
        return [] if v.constant >= 1.0 - 1e-12 else [f"A1 constant {v.constant!r} below 1"]

    def ainf_check(v) -> list[str]:
        problems = []
        if not (0.0 < v.exponent <= 1.0) or not math.isfinite(v.constant):
            problems.append(f"A_inf fit {v.exponent!r}, {v.constant!r}")
        if known.get("u") in ("one", "abs") and not v.holds:
            problems.append("power u reported outside A_inf")
        return problems

    return [
        Task("class", f"check_delta2 {label}", lambda: weights.check_delta2(w), d2),
        Task("class", f"check_Bp {label}", lambda: weights.check_Bp(w, P), bp),
        Task("class", f"check_Bstar_inf {label}", lambda: weights.check_Bstar_inf(w), bs),
        Task("class", f"check_A1 {label}", lambda: weights.check_A1(u), a1_check),
        Task("class", f"check_Ainf {label}", lambda: weights.check_Ainf(u), ainf_check),
    ]


# -- pointwise ---------------------------------------------------------------

# (pieces, points for maximal and hilbert, points for hilbert_maximal, tasks
# per cycle).  hilbert_maximal costs about 40-130x maximal per point, so its
# point counts are kept small enough that no single function dominates.
STEP_PLAN = ((10, 48, 4, 8), (50, 48, 2, 3), (200, 96, 1, 1))
OPNORM_PIECES = 20  # empirical_opnorm resamples at 16 points per gap: O(n^2) maximal calls
OPNORM_OPS = ("maximal", "hilbert", "q")
COMPONENTS = (1, 2, 3, 4, 5, 6, 8)  # plus the closed-form anchor: 8 level-set tasks
LEVELS = 16


def _step_arrays(rng, n: int):
    """n abutting pieces with distinct values (n + 1 endpoints)."""
    edges = -5.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, size=n))])
    lo, hi = edges[:-1], edges[1:]
    val = rng.permutation(np.linspace(0.25, 4.0, n)) * rng.uniform(0.9, 1.1)
    return lo, hi, val


def _points(rng, lo, hi, k: int) -> np.ndarray:
    ends = np.concatenate([lo, hi])
    out: list[float] = []
    while len(out) < k:
        x = float(rng.uniform(lo[0] - 1.0, hi[-1] + 1.0))
        if np.abs(ends - x).min() > 1e-6:
            out.append(x)
    return np.asarray(out)


def _components(rng, k: int):
    lengths = rng.uniform(0.5, 1.5, size=k)
    gaps = rng.uniform(0.5, 3.0, size=k + 1)
    slo = gaps[0] + np.concatenate([[0.0], np.cumsum(lengths[:-1] + gaps[1:-1])])
    shi = slo + lengths
    return slo, shi, float(shi[-1] + gaps[-1])


def pointwise_inputs(seed: int, cycle: int) -> dict:
    rng = np.random.default_rng([seed, 2, cycle])
    a = float(rng.uniform(0.2, 0.8))
    steps = []
    for n, m_pts, h_pts, count in STEP_PLAN:
        for _ in range(count):
            lo, hi, val = _step_arrays(rng, n)
            steps.append((n, lo, hi, val, _points(rng, lo, hi, m_pts), _points(rng, lo, hi, h_pts)))
    sets = [(k, *_components(rng, k)) for k in COMPONENTS]
    return {"seed": seed, "a": a, "steps": steps, "sets": sets}


def _step_task(where, a, n, lo, hi, val, xs, hxs) -> Task:
    _, _, _, operators, rearrangement, weights = _llab()
    u = weights.WeightModel.power(1.0, domain_kind="line")
    w = weights.WeightModel.power(a)
    head = min(n, OPNORM_PIECES)

    def run():
        f = rearrangement.make_step([((float(l), float(h)), float(v)) for l, h, v in zip(lo, hi, val)])
        out = {
            "maximal": [operators.maximal(f, float(x)) for x in xs],
            "hilbert": [operators.hilbert(f, float(x)) for x in xs],
            "hilbert_maximal": [operators.hilbert_maximal(f, float(x)) for x in hxs],
            "rearrange": rearrangement.rearrange(f, u),
            "strong": rearrangement.lorentz_norm(f, u, w, P),
            "weak": rearrangement.weak_lorentz_norm(f, u, w, P),
        }
        g = rearrangement.make_step(
            [((float(l), float(h)), float(v)) for l, h, v in zip(lo[:head], hi[:head], val[:head])]
        )
        out["opnorm"] = {op: operators.empirical_opnorm(op, u, w, P, [("head", g)]) for op in OPNORM_OPS}
        return out

    def check(out) -> list[str]:
        problems: list[str] = []
        for name, ref, pts in (
            ("maximal", oracles.maximal, xs),
            ("hilbert", oracles.hilbert, xs),
            ("hilbert_maximal", oracles.hilbert_maximal, hxs),
        ):
            for x, got in zip(pts, out[name]):
                want = ref(lo, hi, val, float(x))
                if not oracles.close(got, want):
                    problems.append(f"{name}(x={float(x)!r}) = {got!r}, oracle {want!r}")
        t, v, strong, weak = oracles.lorentz_pair(lo, hi, val, a, P)
        g = out["rearrange"]
        if len(g.values) != n or not np.allclose(g.values, v, rtol=REL, atol=0.0) or not np.allclose(
            g.breakpoints, t, rtol=REL, atol=0.0
        ):
            problems.append("rearrange differs from the sorted-mass oracle")
        oracles.expect(problems, oracles.close(out["strong"], strong), f"lorentz_norm {out['strong']!r} != {strong!r}")
        oracles.expect(problems, oracles.close(out["weak"], weak), f"weak_lorentz_norm {out['weak']!r} != {weak!r}")
        oracles.expect(problems, out["weak"] <= out["strong"] * (1.0 + 1e-12), "weak norm above strong norm")
        _, _, head_strong, _ = oracles.lorentz_pair(lo[:head], hi[:head], val[:head], a, P)
        for op, rep in out["opnorm"].items():
            (_, in_norm, _), = rep.details
            oracles.expect(problems, oracles.close(in_norm, head_strong), f"opnorm {op} input norm {in_norm!r}")
            oracles.expect(problems, math.isfinite(rep.max_ratio) and rep.max_ratio > 0.0, f"opnorm {op} {rep.max_ratio!r}")
        # Mf >= f almost everywhere, so the maximal image is at least as large
        oracles.expect(problems, out["opnorm"]["maximal"].max_ratio >= 1.0 - REL, "maximal opnorm ratio below 1")
        return problems

    return Task(f"step{n}", f"step function n={n} {where} lo[0]={lo[0]!r}", run, check)


def _levelset_task(where, a, k, slo, shi, length, anchor=False) -> Task:
    boyd, construction, intervals, _, _, weights = _llab()
    WM = weights.WeightModel
    u = WM.constant(domain_kind="line")
    w = WM.constant() if anchor else WM.power(a)
    a_w = 0.0 if anchor else a
    s_measure = float((shi - slo).sum())
    s = length / s_measure
    lams = [1.0 / s + (1.0 - 1.0 / s) * (i + 1) / LEVELS for i in range(LEVELS)]
    ts = [s ** (1.0 / 3.0), s ** (2.0 / 3.0)]

    def run():
        I = intervals.Interval(0.0, length)
        S = intervals.normalize(list(zip(slo.tolist(), shi.tolist())))
        fam = boyd.Configuration(pairs=((I, S),), ratio=I.length / S.measure)
        cert = construction.weak_type_lower_bound(u, w, P, fam)
        F = construction.build_extremal(I, S)
        levels = [F.level_set(lam) for lam in lams]
        covers = [construction.cover(I, S, t) for t in ts]
        return cert, F.mean_value(), levels, covers

    def check(out) -> list[str]:
        cert, mean, levels, covers = out
        problems: list[str] = []
        norm_p = oracles.extremal_norm_p(s_measure, s, a_w, P)
        oracles.expect(problems, oracles.close(cert.test_norm**P, norm_p, 1e-6), f"test norm^p {cert.test_norm**P!r} != {norm_p!r}")
        threshold = (1.0 + math.log(s)) / (2.0 * s)
        union_bound = (length ** (a_w + 1.0) / (a_w + 1.0)) ** (1.0 / P) * threshold / norm_p ** (1.0 / P)
        # a tighter certificate is allowed; a weaker one is not
        oracles.expect(problems, cert.lower_bound >= union_bound * (1.0 - 1e-6), f"lower bound {cert.lower_bound!r} < {union_bound!r}")
        if anchor:
            # u = w = 1, I = (0, e), S = (0, 1): (2e - 1)^(-1/2), and no certificate may exceed
            # the L^2 norm 1 + sqrt(2) of the uncentred maximal operator
            oracles.expect(problems, cert.lower_bound >= (2.0 * math.e - 1.0) ** -0.5 - 1e-3, f"anchor certificate {cert.lower_bound!r}")
            oracles.expect(problems, cert.lower_bound <= 1.0 + math.sqrt(2.0), f"certificate {cert.lower_bound!r} above ||M||_2")
        oracles.expect(problems, oracles.close(mean, (1.0 + math.log(s)) / s), f"mean {mean!r} != (1+log s)/s")
        for lam, J in zip(lams, levels):
            parts = [(p.lo, p.hi) for p in J.parts]
            oracles.expect(problems, oracles.close(sum(h - l for l, h in parts), s_measure / lam), f"|{{F >= {lam!r}}}| != |S|/lam")
            for l, h in parts:
                if abs(oracles.overlap(slo, shi, l, h) - lam * (h - l)) > 1e-9 * (h - l):
                    problems.append(f"level set at {lam!r}: part ({l!r}, {h!r}) not proportional")
        for t, cov in zip(ts, covers):
            for J in cov:
                if abs(t * oracles.overlap(slo, shi, J.lo, J.hi) - J.length) > 1e-9 * J.length:
                    problems.append(f"cover t={t!r}: ({J.lo!r}, {J.hi!r}) breaks t|S∩J| = |J|")
            covered = sum(oracles.overlap(np.array([J.lo for J in cov]), np.array([J.hi for J in cov]), l, h) for l, h in zip(slo, shi))
            oracles.expect(problems, oracles.close(covered, s_measure), f"cover t={t!r} misses part of S")
        return problems

    label = "anchor u=w=1 I=(0,e) S=(0,1)" if anchor else f"level sets k={k} {where} S={list(zip(slo.tolist(), shi.tolist()))}"
    return Task(f"levelset{k}", label, run, check)


def pointwise_cycle(seed: int, cycle: int) -> list[Task]:
    inp = pointwise_inputs(seed, cycle)
    a = inp["a"]
    where = f"seed={seed} cycle={cycle} a={a!r}"
    tasks = [_levelset_task(where, a, k, slo, shi, length) for k, slo, shi, length in inp["sets"]]
    tasks.append(_levelset_task(where, a, 1, np.array([0.0]), np.array([1.0]), math.e, anchor=True))
    tasks.extend(_step_task(where, a, *step) for step in inp["steps"])
    return tasks


# -- cli ---------------------------------------------------------------------

U_ABS = {"domain": "line", "segments": [{"from": 0.0, "to": 1.0, "coef": 1.0, "exp": 1.0}], "tail": {"coef": 1.0, "exp": 1.0}}
W_HALF = {"domain": "half_line", "segments": [{"from": 0.0, "to": 1.0, "coef": 1.0, "exp": 0.5}], "tail": {"coef": 1.0, "exp": 0.5}}
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
CLI_COMMANDS = ("classes", "indices", "verdict", "extremal", "certify", "opnorm")


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LLAB_SEED"}
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cli_inputs(seed: int, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    u, w = work / "u_abs.json", work / "w_half.json"
    u.write_text(json.dumps(U_ABS))
    w.write_text(json.dumps(W_HALF))
    uw = ["--u", str(u), "--w", str(w)]
    s = ["--seed", str(seed)]
    return {
        "seed": seed,
        "work": work,
        "stdout": {},  # first stdout of each subcommand, to compare repeats with
        "argv": {
            "classes": ["classes", *uw, "--p", "2"],
            "indices": ["indices", *uw, "--p", "2", *s],
            "verdict": ["verdict", *uw, "--p", "2", *s],
            "extremal": ["extremal", "--interval", "0", "8", "--set", "1,2;4,5"],
            "certify": ["certify", *uw, "--interval", "0", repr(math.e), "--set", "0,1", "--p", "2", *s],
            "opnorm": ["opnorm", "--operator", "hstar", *uw, "--family", "indicators", "--p", "2", *s],
        },
    }


def _cli_check(cmd: str, seen: dict):
    """Exit code 0, stdout that parses, same bytes for every same-seed call,
    and the closed forms of u = |x|, w = t^(1/2), p = 2."""

    def check(out) -> list[str]:
        rc, stdout, stderr, _ = out
        if rc != 0:
            return [f"exit code {rc}: {stderr.decode(errors='replace')[-300:]}"]
        problems: list[str] = []
        if seen.setdefault(cmd, stdout) != stdout:
            problems.append("stdout differs from the first call with the same seed")
        lines = stdout.decode().splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError) as exc:
            return problems + [f"last line is not JSON: {exc}"]
        body = lines[:-1]
        if cmd in ("indices", "extremal", "opnorm"):
            width = len(body[0].split(",")) if body else 0
            if not body or any(len(row.split(",")) != width for row in body):
                problems.append("CSV body is ragged or empty")
        if cmd == "classes":
            for key, want in (("Delta2", 2.0**1.5), ("Bp", 3.0), ("BstarInf", 1.0 / 1.5)):
                got = summary[key]["constant"]
                oracles.expect(problems, abs(got - want) <= 1e-6 * want, f"{key} {got!r} != {want!r}")
            oracles.expect(problems, summary["AInf"]["holds"] and not summary["A1"]["holds"], "|x| class flags")
        elif cmd == "indices":
            for row in body[1:]:
                t, up, low = (float(x) if x else None for x in row.split(",")[:3])
                sup = oracles.abs_sup(t, up is not None) ** 1.5
                got = up if up is not None else low
                oracles.expect(problems, got <= sup * (1.0 + 1e-9), f"t={t!r}: {got!r} above supremum {sup!r}")
        elif cmd == "extremal":
            oracles.expect(problems, oracles.close(summary["mean"], summary["mean_formula"]), "extremal mean")
            oracles.expect(problems, summary["max_identity_error"] <= 1e-9, "level-set identity")
        elif cmd == "certify":
            oracles.expect(problems, 0.0 < summary["lower_bound"] < math.inf, "certificate not positive")
        elif cmd == "opnorm":
            oracles.expect(problems, 0.0 < summary["max_ratio"] < math.inf, "opnorm ratio")
        elif cmd == "verdict":
            oracles.expect(problems, summary["maximal"]["verdict"] in ("bounded", "not_bounded", "inconclusive"), "verdict")
        return problems

    return check


def cli_cycle(inp: dict, src: Path) -> list[Task]:
    """One fresh interpreter per subcommand, through cli_child.py."""
    env = {**child_env(src), "PERFBENCH_CALIB": str(inp["work"] / "calib.txt")}
    seen = inp["stdout"]

    def call(argv):
        proc = subprocess.run([sys.executable, str(CLI_CHILD), *argv], capture_output=True, env=env, timeout=120)
        spins = [float(x) for x in Path(env["PERFBENCH_CALIB"]).read_text().split()]
        return proc.returncode, proc.stdout, proc.stderr, spins

    def calibration(out) -> tuple[float, float]:
        spins = out[3]
        return statistics.median(spins), sum(spins)

    return [
        Task(cmd, f"llab {' '.join(inp['argv'][cmd])}", lambda argv=inp["argv"][cmd]: call(argv), _cli_check(cmd, seen), calibration)
        for cmd in CLI_COMMANDS
    ]
