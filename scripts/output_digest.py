#!/usr/bin/env python3
"""Print one SHA-256 over the outputs of the step-function, construction, weight and index layers.

The inputs are seeded and built here, so two checkouts that print the same
digest compute bit-identical values: the JSON and position table of the
maximal, Hilbert and maximal-Hilbert images, the pointwise maximal,
Hilbert and maximal-Hilbert values at seeded points, at the midpoints of
mirrored endpoints and at +-1e17, the rearrangement, both Lorentz norms
and the distribution at each value of the step under u = |x|, the
three-segment u below and a half-line u, the empirical operator-norm
reports of all four operators on 10-, 20- and 50-piece steps, and the
indicator, random and extremal test families; and, for sets S inside an interval I (seeded ones of 1-6
components, one component, S = I, and gaps growing geometrically), the
extremal function's level sets on a fixed grid of levels, its values on a
fixed grid of points, its kinks and the covers, and the weak-type
certificate, for u = 1, |x| and a three-segment u; the verdicts of the five
class checks for those u's and for w = t^0.4 and a three-segment w at
p = 1.5 and 2; the index estimates and Hilbert verdicts of two (u, w)
pairs; and the value and witness of wbar_u and underline_wu for the power
pairs u = 1.5|x|^gamma (gamma = 0, 1/2, 1, 2, 1e-14 and 50, on the line
and the half-line) and w = t^a (a = -1/2, 0, 1) at t = 2^+-1, 2^+-5,
2^+-10, 2^+-20 and 2^+-40, and for the three-segment u and w and for a
line u with an exp = -1 row against that w at t = 3, 1000.1 and 2^5.5
and their inverses, in an order that is not monotone, or the error a
call raises.  `--verbose` prints each entry's
own digest as well, to find the one that moved.

Usage:
    PYTHONPATH=src python3 scripts/output_digest.py [--verbose]
"""

import argparse
import hashlib
import math

import numpy as np

from llab.boyd import Configuration, compute_estimates, underline_wu, wbar_u
from llab.construction import build_extremal, cover, weak_type_lower_bound
from llab.intervals import Interval, IntervalUnion, normalize
from llab.operators import (
    apply_operator,
    empirical_opnorm,
    extremal_family,
    hilbert,
    hilbert_maximal,
    hilbert_verdict,
    indicator_family,
    maximal,
    random_step_family,
)
from llab.rearrangement import StepFunction, distribution, lorentz_norm, make_step, rearrange, weak_lorentz_norm
from llab.weights import (
    Segment,
    WeightModel,
    check_A1,
    check_Ainf,
    check_Bp,
    check_Bstar_inf,
    check_delta2,
)

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


def points(f, rng) -> list:
    """40 seeded points around f, the midpoint of ends[j] and ends[-1 - j]
    for each j (equal distances on both sides of it) and +-1e17 (distances
    that round together on one side)."""
    ends = f.ends
    mirrored = [0.5 * (ends[j] + ends[-1 - j]) for j in range(len(ends) // 2)]
    return [*rng.uniform(-7.0, 7.0, size=40).tolist(), *mirrored, 1e17, -1e17]


def pairs(seed: int) -> list:
    """(I, S): four seeded sets of 1-6 components, one component, S = I, and
    8 components whose gaps grow by 1.5, so that the level intervals meet
    one pair at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for m in (1, 2, 4, 6):
        lo = float(rng.uniform(-4.0, 1.0))
        hi = lo + float(rng.uniform(2.0, 12.0))
        cuts = np.sort(rng.uniform(lo, hi, size=2 * m)).tolist()
        out.append((Interval(lo, hi), normalize(list(zip(cuts[::2], cuts[1::2])))))
    out.append((Interval(0.0, 4.0), normalize([(1.0, 2.0)])))
    out.append((Interval(-1.0, 3.0), IntervalUnion((Interval(-1.0, 3.0),))))
    x, parts = -2.0, []
    for k in range(8):
        parts.append((x, x + 0.3))
        x += 0.3 + 0.05 * 1.5**k
    out.append((Interval(-2.5, x + 0.5), normalize(parts)))
    return out


def us() -> dict:
    """u = 1, |x| and a three-segment u on the line."""
    return {
        "one": WeightModel.constant(domain_kind="line"),
        "abs": WeightModel.power(1.0, domain_kind="line"),
        "three": WeightModel(
            (Segment(0.0, 0.8, 1.3, 0.35), Segment(0.8, 2.1, 0.7, 0.0), Segment(2.1, 3.5, 0.4, 1.2)),
            domain_kind="line",
            tail_coef=1.0,
            tail_exp=0.45,
        ),
    }


def ws() -> dict:
    """w = t^0.4 and a three-segment w on the half-line."""
    return {
        "pow": WeightModel.power(0.4),
        "three": WeightModel(
            (Segment(0.0, 0.5, 1.0, 0.3), Segment(0.5, 2.0, 0.8, -0.2), Segment(2.0, 6.0, 0.5, 0.6)),
            tail_coef=0.9,
            tail_exp=0.25,
        ),
    }


def entries():
    """(name, repr) of every output the digest covers."""
    yield from step_entries()
    yield from construction_entries()
    yield from weight_entries()
    yield from power_pair_entries()
    yield from search_entries()


def _sample(search, u, w, t) -> str:
    """repr of search(u, w, t), or of the error it raises."""
    try:
        return repr(search(u, w, t))
    except ValueError as exc:  # the errors of llab.errors
        return f"{type(exc).__name__}: {exc}"


def search_entries():
    """repr of (value, witness) of the configuration search on two line
    pairs, or of the error, at ratios that are not powers of 2 in an order
    that is not monotone; the index estimates above have searched the
    first pair at the powers of 2 before."""
    log_u = WeightModel(
        (Segment(0.0, 0.6, 1.1, 0.4), Segment(0.6, 1.7, 0.9, -1.0), Segment(1.7, 2.9, 0.5, 0.8)),
        domain_kind="line",
        tail_coef=1.0,
        tail_exp=0.3,
    )
    w = ws()["three"]
    for u_name, u in (("three", us()["three"]), ("log", log_u)):
        for t in (3.0, 1.0 / 1000.1, 2.0**5.5, 1.0 / 3.0, 1000.1, 2.0**-5.5):
            search = wbar_u if t > 1.0 else underline_wu
            yield f"search.{u_name}.three.{search.__name__}.{t!r}", _sample(search, u, w, t)


def power_pair_entries():
    """repr of (value, witness) of each power-pair sample, or of the error.
    gamma = 1e-14 has a sign scan that follows rounding noise, and at
    t = 2^+-20 and 2^+-40 the ratio test moves witness ends by ulps."""
    for domain in ("line", "half_line"):
        for gamma in (0.0, 0.5, 1.0, 2.0, 1e-14, 50.0):
            u = WeightModel.power(gamma, 1.5, domain)
            for a in (-0.5, 0.0, 1.0):
                w = WeightModel.power(a)
                for k in (1, 5, 10, 20, 40):
                    for search, t in ((wbar_u, 2.0**k), (underline_wu, 2.0**-k)):
                        yield f"power.{domain}.{gamma:g}.{a:g}.{search.__name__}.{t!r}", _sample(search, u, w, t)


def weight_entries():
    """The five class checks, then the index estimates and Hilbert verdicts."""
    for name, u in us().items():
        yield f"classes.{name}.A1", repr(check_A1(u).as_dict())
        yield f"classes.{name}.AInf", repr(check_Ainf(u).as_dict())
    for name, w in ws().items():
        yield f"classes.{name}.Delta2", repr(check_delta2(w).as_dict())
        yield f"classes.{name}.BstarInf", repr(check_Bstar_inf(w).as_dict())
        for p in (1.5, 2.0):
            yield f"classes.{name}.Bp{p:g}", repr(check_Bp(w, p).as_dict())
    for u_name, w_name in (("abs", "pow"), ("three", "three")):
        u, w = us()[u_name], ws()[w_name]
        est = compute_estimates(u, w, P)
        yield f"indices.{u_name}.{w_name}", repr(est)
        yield f"hilbert.{u_name}.{w_name}", repr(hilbert_verdict(u, w, P, estimates=est))


def construction_entries():
    """The extremal function, covers and certificates of each pair."""
    w = ws()["pow"]
    for i, (I, S) in enumerate(pairs(11)):
        F = build_extremal(I, S)
        ratio = I.length / S.measure
        yield f"pair{i}.floor_mean", repr((F.floor, F.mean_value()))
        yield f"pair{i}.level_sets", repr([F.level_set(k / 128) for k in range(1, 131)])
        xs = np.linspace(I.lo - 0.5, I.hi + 0.5, 201).tolist() + [e for J in (I, *S.parts) for e in (J.lo, J.hi)]
        yield f"pair{i}.evaluate", repr([F.evaluate(x) for x in xs])
        yield f"pair{i}.covers", repr([cover(I, S, 1.0 + (ratio - 1.0) * k / 4) for k in range(5)])
        for name, u in us().items():
            yield f"pair{i}.{name}.kinks", repr(F.kinks(u.knots))
            if ratio > 1.0:
                family = Configuration(pairs=((I, S),), ratio=ratio)
                yield f"pair{i}.{name}.certificate", repr(weak_type_lower_bound(u, w, P, family).as_dict())


def step_entries():
    """The images, rearrangements, norms and test families of the step layer."""
    u = WeightModel.power(1.0, domain_kind="line")
    w = WeightModel.power(0.4)
    rng = np.random.default_rng(5)
    for i, f in enumerate(steps(7)):
        xs = points(f, rng)
        for kernel in (maximal, hilbert, hilbert_maximal):
            yield f"step{i}.points.{kernel.__name__}", repr([kernel(f, x) for x in xs])
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
        yield from level_entries(f"step{i}", f, w)
    families = {
        "indicators": indicator_family(6, 3),
        "random": random_step_family(6, 3),
        **{f"extremal_s{s:g}": extremal_family(s, 2) for s in (2.0, math.e, 4.0, 16.0)},
    }
    for name, family in families.items():
        for test_id, f in family:
            yield f"{name}.{test_id}.json", f.to_json()
            yield f"{name}.{test_id}.table", repr(f.table)


def level_entries(name, f, w):
    """The distribution at each value of f under u = |x|, and the
    rearrangement, both norms and the distribution under the three-segment
    u and under the half-line three-segment weight, with f moved to start
    at 0 for the last."""
    line = us()
    half = ws()["three"]
    moved = StepFunction(tuple(e - f.ends[0] for e in f.ends), f.values)
    for u_name, u, g in (("abs", line["abs"], f), ("three", line["three"], f), ("half", half, moved)):
        if u_name != "abs":
            yield f"{name}.{u_name}.rearrange", repr(rearrange(g, u))
            yield f"{name}.{u_name}.lorentz", repr(lorentz_norm(g, u, w, P))
            yield f"{name}.{u_name}.weak_lorentz", repr(weak_lorentz_norm(g, u, w, P))
        yield f"{name}.{u_name}.distribution", repr([distribution(g, u, s) for s in sorted(set(g.values))])


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
