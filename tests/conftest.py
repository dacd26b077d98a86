"""Shared fixtures: canonical weights and seeded instance generators."""

import bisect
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from llab.boyd import Configuration, SubmultiplicativeSamples, _anchors, _family_value, _scale_grid
from llab.construction import _Leaf
from llab.errors import PreconditionError, SingularInputError
from llab.intervals import Interval, IntervalUnion, normalize, union
from llab.operators import _ENDPOINT_EPS, _near_endpoint, hilbert, hilbert_maximal, maximal, resample_step
from llab.rearrangement import DecreasingStep, StepFunction, make_step
from llab.weights import (
    ClassVerdict,
    Segment,
    WeightModel,
    _a1_probe_points,
    a1_ratio,
)


@pytest.fixture
def w_unit():
    return WeightModel.constant()


@pytest.fixture
def u_unit():
    return WeightModel.constant(domain_kind="line")


@pytest.fixture
def u_abs():
    return WeightModel.power(1.0, domain_kind="line")


def difference(u, v):
    """Points of the interval union u not in v (up to boundary points)."""
    out = []
    for a in u.parts:
        cursor = a.lo
        for b in v.parts:
            if b.hi <= cursor:
                continue
            if b.lo >= a.hi:
                break
            if b.lo > cursor:
                out.append((cursor, b.lo))
            cursor = max(cursor, b.hi)
            if cursor >= a.hi:
                break
        if cursor < a.hi:
            out.append((cursor, a.hi))
    return normalize(out)


def contains(u, v):
    """True iff the interval union v is a subset of u up to a null set."""
    return difference(v, u).measure == 0.0


def random_pair(rng, max_components=6):
    """A seeded (I, S) pair: an interval I and a union S of disjoint
    subintervals of I with positive total measure strictly below |I|."""
    lo = float(rng.uniform(-10.0, 10.0))
    length = float(rng.uniform(0.5, 20.0))
    I = Interval(lo, lo + length)
    m = int(rng.integers(1, max_components + 1))
    cuts = np.sort(rng.uniform(lo, lo + length, size=2 * m))
    parts = [(float(cuts[2 * k]), float(cuts[2 * k + 1])) for k in range(m)]
    S = normalize([p for p in parts if p[1] - p[0] > 1e-6 * length])
    if not S or S.measure >= 0.999 * length:
        return random_pair(rng, max_components)
    return I, S


def deep_pair(n, growth):
    """(I, S) with S_k = (p_k, p_k + 0.5) and the gap after S_k growing as
    growth^k: the level intervals meet one pair at a time, so the extremal
    function has n layers."""
    p, parts = 1.0, []
    for k in range(n):
        parts.append((p, p + 0.5))
        p += 0.5 + growth**k
    return Interval(0.0, p + 1.0), normalize(parts)


@contextmanager
def shallow_stack(headroom=100):
    """Lower the recursion limit to the current stack depth plus headroom,
    so that code recursing once per component or layer fails."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@st.composite
def step_functions(draw, max_pieces=200):
    """(f, parts): a step function on up to max_pieces consecutive cells of a
    random partition, some cells left empty and the values drawn from a small
    pool, so regions have several parts and parts abut; parts lists the
    (lo, hi, value) of every part of every region."""
    n = draw(st.integers(1, max_pieces))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.unique(rng.uniform(-50.0, 50.0, size=n + 1))
    pool = 2.0 ** rng.uniform(-3.0, 3.0, size=draw(st.integers(1, 8)))
    keep = rng.uniform(size=cuts.size - 1) >= draw(st.floats(0.0, 0.8))
    cells = [(float(a), float(b)) for a, b, k in zip(cuts, cuts[1:], keep) if k]
    f = make_step([(cell, float(rng.choice(pool))) for cell in cells])
    parts = [(p.lo, p.hi, v) for region, v in f.pieces for p in region.parts]
    return f, parts


def scaled(f, c):
    """The step function c f, for c > 0, with values that stay positive and
    distinct."""
    if c <= 0.0:
        raise ValueError("scaling factor must be positive")
    out = StepFunction(f.ends, tuple(c * v if v else 0.0 for v in f.values))
    if len(set(out.values) - {0.0}) != len(set(f.values) - {0.0}):
        raise ValueError("scaled step values must stay positive and distinct")
    return out


@dataclass(frozen=True)
class StepOracle:
    """A step function stored as value-grouped pieces, one (region, value)
    per distinct value, largest first, with the table and JSON read off them."""

    pieces: tuple

    @property
    def table(self):
        """The sorted endpoints, the value on each gap (0 between parts; the
        first piece holding a gap gives its value) and the prefix integral,
        by sorting the endpoints and filling the gaps of each part by bisection."""
        ends = sorted({e for region, _ in self.pieces for p in region.parts for e in (p.lo, p.hi)})
        values = [0.0] * max(len(ends) - 1, 0)
        for region, v in reversed(self.pieces):
            for p in region.parts:
                for j in range(bisect.bisect_left(ends, p.lo), bisect.bisect_left(ends, p.hi)):
                    values[j] = v
        F = [0.0] * len(ends)
        for j, v in enumerate(values):
            F[j + 1] = F[j] + v * (ends[j + 1] - ends[j])
        return tuple(ends), tuple(values), tuple(F)

    def to_json(self):
        return json.dumps(
            [{"region": [[p.lo, p.hi] for p in region.parts], "value": value} for region, value in self.pieces]
        )


def _as_union(region):
    if isinstance(region, IntervalUnion):
        return region
    if isinstance(region, Interval):
        return IntervalUnion((region,))
    if region and not isinstance(region[0], (tuple, list, Interval)):
        region = [region]  # a bare (lo, hi) pair
    return normalize(region)


def make_step_oracle(pieces):
    """rearrangement.make_step as one union per value: each region made an
    IntervalUnion, the regions of one value merged by `union`, every part of
    every value sorted again to check that no two overlap."""
    by_value = {}
    for region, value in pieces:
        region = _as_union(region)
        if region:
            by_value.setdefault(float(value), []).append(region)
    merged = tuple(
        (regions[0] if len(regions) == 1 and len(regions[0]) == 1 else union(*regions), value)
        for value, regions in sorted(by_value.items(), reverse=True)
    )
    parts = sorted((p.lo, p.hi) for region, _ in merged for p in region.parts)
    if any(hi > lo for (_, hi), (lo, _) in zip(parts, parts[1:])):
        raise ValueError("step regions must be pairwise disjoint")
    if any(value <= 0.0 for _, value in merged):
        raise ValueError("step values must be strictly positive")
    return StepOracle(merged)


def step_of_cells_oracle(grid, values):
    """operators._step_of_cells as one Interval per cell through make_step_oracle."""
    pieces = []
    for lo, hi, v in zip(grid, grid[1:], values):
        v = abs(v)
        if v > 0.0 and math.isfinite(v):
            pieces.append((Interval(lo, hi), v))
    return make_step_oracle(pieces)


def rearrange_oracle(f, u):
    """rearrangement.rearrange as the loop over the level sets of f, largest
    value first, each one's u-mass summed part by part through u.mass."""
    breakpoints = [0.0]
    values = []
    acc = 0.0
    for region, value in f.pieces:
        mass = sum((u.mass(p.lo, p.hi) for p in region.parts), 0.0)
        if mass <= 0.0 or acc + mass == acc:  # a step of no width in floating point
            continue
        acc += mass
        breakpoints.append(acc)
        values.append(value)
    if not np.isfinite(acc):
        raise PreconditionError(f"the u-masses of the level sets overflow to {acc!r}")
    return DecreasingStep(tuple(breakpoints), tuple(values))


def distribution_oracle(f, u, s):
    """rearrangement.distribution as the sum of u.weight_of_set over the level
    sets of value above s."""
    if not s >= 0.0:
        raise ValueError(f"levels are nonnegative, got {s!r}")
    return sum((u.weight_of_set(region) for region, value in f.pieces if value > s), 0.0)


def lorentz_norms_oracle(f, u, w, p):
    """(lorentz_norm, weak_lorentz_norm) of f: rearrange_oracle, then W at
    each breakpoint through w.primitive and the sums of DecreasingStep.norm
    and weak_norm."""
    g = rearrange_oracle(f, u)
    Ws = [w.primitive(t) for t in g.breakpoints]
    direct = sum(v**p * (Ws[i + 1] - Ws[i]) for i, v in enumerate(g.values))
    weak = max((v * Ws[i + 1] ** (1.0 / p) for i, v in enumerate(g.values)), default=0.0)
    return direct ** (1.0 / p), weak


def maximal_pairs_oracle(f, x):
    """Mf(x) as the loop over every pair of candidate endpoints a < b with
    a in ends(f) <= x or x, b in ends(f) > x or x: the best average from
    f(x) by a strict `>`, so a NaN average never counts.  `maximal` takes
    only the pairs with x itself, so it is at most this, and below it by
    no more than the rounding of a mediant."""
    ends, _, F = f.table
    i = bisect.bisect_right(ends, x)  # ends[:i] <= x < ends[i:]
    Fx = F[i - 1] + f.value_at(x) * (x - ends[i - 1]) if i else 0.0
    left = [*zip(ends[:i], F[:i]), (x, Fx)]
    right = [(x, Fx), *zip(ends[i:], F[i:])]
    best = f.value_at(x)
    for a, Fa in left:
        for b, Fb in right:
            if b > a:
                avg = (Fb - Fa) / (b - a)
                if avg > best:
                    best = avg
    return best


def truncations_sort_oracle(f, x):
    """operators._truncations as one sorted list of events: each endpoint is
    (distance, side, endpoint, value), side 0 left of x and 1 right of it,
    sorted so that distances fall, the right side goes first at an equal
    distance and each side's endpoints go outer first."""
    if x != x:
        raise PreconditionError("the Hilbert transform needs a point x that is a number, not NaN")
    ends, values, _ = f.table
    e = _near_endpoint(ends, x)
    if e is not None:
        raise SingularInputError(f"Hilbert transform is singular at endpoint {e}")
    k = bisect.bisect_left(ends, x)
    gap = (0.0, *values, 0.0)  # gap[j]: f between ends[j - 1] and ends[j]
    # As r falls past |x - e_j|, f(x - r) (side 0) or f(x + r) (side 1) takes
    # the value of the gap on x's side of e_j.
    events = sorted(
        [(x - ends[j], 0, ends[j], gap[j + 1]) for j in range(k)]
        + [(ends[j] - x, 1, ends[j], gap[j]) for j in range(k, len(ends))],
        key=lambda ev: (-ev[0], -ev[1], ev[2] if ev[1] == 0 else -ev[2]),
    )
    if events and not math.isfinite(events[0][0]):
        raise PreconditionError(
            f"the Hilbert transform at {x!r} needs finite distances to the endpoints; the largest overflows"
        )
    held = [0.0, 0.0]  # f(x - r) and f(x + r)
    ts = [0.0]
    for (far, s0, e0, v0), (d, s, e, _) in zip(events, events[1:]):
        held[s0] = v0
        # far - near: the endpoints' difference on one side, the distances' across x
        fall = abs(e - e0) if s == s0 else far - d
        if fall > 0.0:
            ts.append(ts[-1] + (held[0] - held[1]) * math.log1p(fall / d))
    return ts


def truncations_mpmath(f, x, dps=50):
    """T(d), the integral of f(y)/(x - y) over |x - y| > d, at the true
    distance d from x to each endpoint of f, largest first: each piece's
    closed form log|x - p| - log|x - q| in dps-digit mpmath, the band
    |x - y| <= d cut out."""
    with mpmath.workdps(dps):
        X = mpmath.mpf(x)
        parts = [(mpmath.mpf(lo), mpmath.mpf(hi), v) for lo, hi, v in zip(f.ends, f.ends[1:], f.values) if v]
        out = []
        for d in sorted((abs(X - mpmath.mpf(e)) for e in f.ends), reverse=True):
            t = mpmath.mpf(0)
            for lo, hi, v in parts:
                for p, q in ((lo, min(hi, X - d)), (max(lo, X + d), hi)):
                    if p < q:
                        t += v * (mpmath.log(abs(X - p)) - mpmath.log(abs(X - q)))
            out.append(float(t))
        return out


def nudged(x, ends):
    """x moved just off an endpoint whose singular band it falls in, one point
    at a time: operators._nudged_array's rule as the scalar loop."""
    e = _near_endpoint(ends, x)
    return x if e is None else x + 2.0 * _ENDPOINT_EPS * max(1.0, abs(e))


def image_oracle(op, f):
    """apply_operator(op, f, u) for op in maximal, hilbert and hstar as the
    loop of scalar evaluations over the resample grid, one midpoint at a time."""
    ends = f.ends
    if op == "maximal":
        return resample_step(lambda x: maximal(f, x), ends)
    kernel = hilbert if op == "hilbert" else hilbert_maximal
    return resample_step(lambda x: kernel(f, nudged(x, ends)), ends)


def maximal_grid_oracle(f, x, n=4000):
    """Best average of f over windows (a, b) with a <= x <= b drawn from a
    uniform n-point grid one unit past the endpoints of f, plus the endpoints
    and x itself.  All pairs at once: the overlap of each window with each
    piece is taken in the same floating-point order as a pairwise loop."""
    ends = f.ends
    lo, hi = min(ends) - 1.0, max(ends) + 1.0
    grid = np.array(sorted(set(np.linspace(lo, hi, n)) | set(ends) | {x}))
    a = grid[grid <= x][:, None]
    b = grid[grid >= x][None, :]
    total = np.zeros((a.size, b.size))
    for region, v in f.pieces:
        inside = np.zeros_like(total)
        for p in region.parts:
            inside += np.maximum(0.0, np.minimum(b, p.hi) - np.maximum(a, p.lo))
        total += v * inside
    width = b - a
    wide = width >= 1e-12
    return float((total[wide] / width[wide]).max(initial=0.0))


def exact_samples(phi, ts):
    """The samples phi(t) over the sorted ts, marked exact."""
    ts = tuple(sorted(ts))
    return SubmultiplicativeSamples(ts, tuple(phi(t) for t in ts), "exact")


@dataclass(frozen=True)
class SubmultReport:
    ok: bool
    checked: int
    violations: tuple[tuple[float, float], ...]
    asserted: bool


def check_submultiplicative(phi, ts, ss, direction="exact", tol=1e-9):
    """Check phi(t*s) <= phi(t) phi(s) (1 + tol) over the sampled pairs.

    For lower-bound samples the inequality is reported, never asserted: a
    violated pair just means the search at t*s found more than the product
    bound, which is consistent with lower bounds.
    """
    violations = []
    checked = 0
    for t in ts:
        for s in ss:
            lhs = phi(t * s)
            rhs = phi(t) * phi(s)
            checked += 1
            excess = lhs / rhs - 1.0 if rhs > 0.0 else math.inf
            if excess > tol:
                violations.append((t, s))
    return SubmultReport(
        ok=not violations,
        checked=checked,
        violations=tuple(violations),
        asserted=direction == "exact",
    )


def _placements(anchor, big, small):
    """Candidate (I, S) raw pairs with |I| = big, |S| = small."""
    yield (anchor, anchor + big), (anchor, anchor + small)
    yield (anchor - big, anchor), (anchor - small, anchor)
    half = (big - small) / 2.0
    yield (anchor - big / 2.0, anchor + big / 2.0), (
        anchor - big / 2.0 + half,
        anchor + big / 2.0 - half,
    )


def coarse_best_oracle(u, w, ratio, upper):
    """(value, pair) of the coarse stage of the configuration search as a
    scalar scan: every (anchor, scale, placement) in loop order, the first
    strict maximum wins."""
    best_val, best_pair = -float("inf"), None
    for anchor in _anchors(u):
        for small in _scale_grid(w, u, ratio):
            big = small * ratio
            for pair in _placements(anchor, big, small):
                v = _family_value(u, w, [pair])
                v = v if upper else 1.0 / v if v > 0.0 else 0.0
                if v > best_val:
                    best_val, best_pair = v, pair
    return best_val, best_pair


def search_oracle(u, w, t, upper, budget, seed):
    """The configuration search (boyd._search) with every candidate scored
    through _family_value: the scalar coarse scan, replication, then the
    seeded restarts, each a coordinate descent on anchor and offset; no
    stage shares work with another or with an earlier search."""
    ratio = t if upper else 1.0 / t

    def value(pairs):
        v = _family_value(u, w, pairs)
        return v if upper else 1.0 / v if v > 0.0 else 0.0

    def replicated(val, pair):
        (i_lo, i_hi), (s_lo, s_hi) = pair
        span = 2.0 * (i_hi - i_lo)
        best = val, [pair]
        for count in (2, 4, 8, 16):
            pairs = [
                ((i_lo + j * span, i_hi + j * span), (s_lo + j * span, s_hi + j * span))
                for j in range(count)
            ]
            v = value(pairs)
            if v > best[0]:
                best = v, pairs
        return best

    coarse_val, best_pair = coarse_best_oracle(u, w, ratio, upper)
    best_val, best_pairs = replicated(coarse_val, best_pair)
    tkey = int(round(4096.0 * math.log2(t))) & 0x7FFFFFFF
    rng = np.random.default_rng([seed & 0x7FFFFFFF, tkey, int(upper)])
    (bi_lo, bi_hi), _ = best_pair
    base_len = bi_hi - bi_lo
    for _ in range(32 * budget):
        big = base_len * math.exp(rng.normal(0.0, 0.5))
        small = big / ratio
        x0 = bi_lo + rng.normal(0.0, base_len)
        offset = rng.random() * (big - small)
        pair = ((x0, x0 + big), (x0 + offset, x0 + offset + small))
        v = value([pair])
        for _ in range(8):
            improved = False
            for dx in (-0.25 * big, 0.25 * big):
                cand = ((pair[0][0] + dx, pair[0][1] + dx), (pair[1][0] + dx, pair[1][1] + dx))
                cv = value([cand])
                if cv > v:
                    v, pair, improved = cv, cand, True
            i_lo = pair[0][0]
            off = pair[1][0] - i_lo
            for doff in (-0.25 * (big - small), 0.25 * (big - small)):
                noff = min(max(off + doff, 0.0), big - small)
                cand = (pair[0], (i_lo + noff, i_lo + noff + small))
                cv = value([cand])
                if cv > v:
                    v, pair, improved = cv, cand, True
            if not improved:
                break
        if v > best_val:
            best_val, best_pairs = replicated(v, pair)
    clamped = [
        ((i_lo, i_hi), (max(s_lo, i_lo), min(s_hi, i_hi)))
        for (i_lo, i_hi), (s_lo, s_hi) in best_pairs
    ]
    config = Configuration(
        pairs=tuple(
            (Interval(i_lo, i_hi), IntervalUnion((Interval(s_lo, s_hi),)))
            for (i_lo, i_hi), (s_lo, s_hi) in clamped
        ),
        ratio=ratio,
    )
    return value(clamped), config


def conservative_oracle(pair, t, upper):
    """boyd._conservative with the ratio test on Fractions of the float ends:
    the end that moves steps by ulps until |I| <= t|S| (upper) or
    |S| <= t|I| holds exactly."""
    (i_lo, i_hi), (s_lo, s_hi) = pair
    ratio = Fraction(t)

    def holds():
        I, S = Fraction(i_hi) - Fraction(i_lo), Fraction(s_hi) - Fraction(s_lo)
        return I <= ratio * S if upper else S <= ratio * I

    while not holds():
        if upper:
            i_hi = math.nextafter(i_hi, -math.inf)
        elif s_lo == i_lo:
            s_hi = math.nextafter(s_hi, -math.inf)
        else:
            s_lo = math.nextafter(s_lo, math.inf)
    return (i_lo, i_hi), (s_lo, s_hi)


def power_pair_oracle(gamma, a, t, upper, domain):
    """wbar_u(t) (upper) or underline_wu(t) for u = c|x|^gamma and w = C t^a
    in 40-digit mpmath, as (rho*)^(a + 1) or (rho*)^-(a + 1) with rho* the
    sup (upper) or inf of u(I)/u(S) over single pairs, |I| = r|S| and
    r = t or 1/t.  A pair is enough by the mediant inequality, |S| = 1 by
    scale invariance, and S sits at an end of I; both ends are tried, at
    offsets x on 32-point grids over the pieces between the cuts where an
    end crosses 0 (one unit beyond them on the line), each best grid point
    refined by 64 golden-section steps on its two grid cells."""
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        r = mpmath.mpf(t) if upper else 1 / mpmath.mpf(t)
        sign = 1 if upper else -1

        def primitive(y):
            return mpmath.sign(y) * abs(y) ** (g + 1)

        def score(x, left):
            s_lo = x if left else x + r - 1
            return sign * (primitive(x + r) - primitive(x)) / (primitive(s_lo + 1) - primitive(s_lo))

        if domain == "line":
            cuts = sorted({-r - 1, -r, -mpmath.mpf(1), 1 - r, mpmath.mpf(0), mpmath.mpf(1)})
        else:
            cuts = [mpmath.mpf(0), mpmath.mpf(1), r + 1]
        golden = (mpmath.sqrt(5) - 1) / 2
        best = None
        for left in (True, False):
            for lo, hi in zip(cuts, cuts[1:]):
                xs = [lo + (hi - lo) * k / 32 for k in range(33)]
                vals = [score(x, left) for x in xs]
                i = max(range(33), key=vals.__getitem__)
                p, q = xs[max(i - 1, 0)], xs[min(i + 1, 32)]
                for _ in range(64):
                    c, d = q - golden * (q - p), p + golden * (q - p)
                    if score(c, left) > score(d, left):
                        q = d
                    else:
                        p = c
                v = max(vals[i], score((p + q) / 2, left))
                best = v if best is None else max(best, v)
        rho = sign * best
        return float(rho ** (a + 1) if upper else rho ** -(a + 1))


def search_shapes():
    """The weight pairs the configuration search meets: u = 1 and u = |x|
    against powers t^a, and a three-segment line u against a three-segment
    w with an exp = -1 segment."""
    u3 = WeightModel(
        segments=(Segment(0.0, 0.8, 1.3, 0.9), Segment(0.8, 2.1, 0.7, 0.0), Segment(2.1, 3.5, 0.4, 1.2)),
        domain_kind="line",
        tail_coef=1.0,
        tail_exp=0.45,
    )
    w3 = WeightModel(
        segments=(Segment(0.0, 1.1, 1.0, 0.35), Segment(1.1, 2.4, 1.6, -1.0), Segment(2.4, 3.2, 0.6, 0.8)),
        tail_coef=1.0,
        tail_exp=0.3,
    )
    return {
        "u=1,w=t^a": (WeightModel.constant(domain_kind="line"), WeightModel.power(0.43)),
        "u=|x|,w=t^a": (WeightModel.power(1.0, domain_kind="line"), WeightModel.power(0.27)),
        "u=|x|,w=t^b": (WeightModel.power(1.0, domain_kind="line"), WeightModel.power(0.71)),
        "multi": (u3, w3),
    }


def _a1_scan(u, points, windows):
    """The A1 verdict of a scalar scan over every scale, point of points and
    window of windows(x, r), in loop order, by a strict `>` from 0.0, with
    holds from A1's theorem, exponent at 0 at most 0 and tail one in (-1, 0],
    unless the constant diverges."""
    best_ratio, best_witness = 0.0, {}
    for r in (2.0**k for k in range(-12, 13)):
        for x in points:
            for lo, hi in windows(x, r):
                ratio = a1_ratio(u, x, lo, hi)
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_witness = {"x": x, "lo": lo, "hi": hi}
    holds = math.isfinite(best_ratio) and u.segments[0].exp <= 0.0 and -1.0 < u.tail_exp <= 0.0
    return ClassVerdict("A1", holds, best_ratio, best_witness)


def check_A1_oracle(u):
    """check_A1 as a scalar scan: the windows (x, x + r) and (x - r, x) at
    the probe points right of 0."""
    return _a1_scan(u, _a1_probe_points(u), lambda x, r: ((x, x + r), (x - r, x)))


def check_A1_full_scan(u):
    """The A1 scan with both signs of every probe point and the centred
    window too: (x - r, x + r), (x, x + r), (x - r, x) at 2^-10 .. 2^10 and
    1.01 b, 0.99 b for each breakpoint b, each followed by its negative.
    check_A1 leaves out what cannot set the constant: the centred window,
    a mediant of its halves, and -x, the mirror of x under an even u."""
    points = [s * 2.0**m for m in range(-10, 11) for s in (1.0, -1.0)]
    for b in u.breakpoints:
        points.extend([b * 1.01, -b * 1.01, b * 0.99, -b * 0.99])
    points = [x for x in points if x != 0.0]
    return _a1_scan(u, points, lambda x, r: ((x - r, x + r), (x, x + r), (x - r, x)))


def ainf_probes_oracle(u):
    """The rows of _ainf_probe_table as the loop that builds one probe at a
    time."""
    rng = np.random.default_rng(0)
    probes = []
    anchors = [0.0] + [b for b in u.breakpoints if math.isfinite(b)]
    for L in [2.0**k for k in range(-10, 11)]:
        for a in anchors:
            for start in (a, a - L / 2.0, a - L):
                I = Interval(start, start + L)
                for frac in (0.5, 0.125, 0.015625):
                    e_len = frac * L
                    for lo in (I.lo, I.hi - e_len, I.lo + (L - e_len) / 2.0):
                        probes.append((I, IntervalUnion((Interval(lo, lo + e_len),))))
        for _ in range(32):
            start = (rng.random() - 0.5) * 4.0 * L
            I = Interval(start, start + L)
            frac = 2.0 ** (-8.0 * rng.random())
            e_len = max(frac * L, 1e-12 * L)
            lo = I.lo + rng.random() * (L - e_len)
            probes.append((I, IntervalUnion((Interval(lo, lo + e_len),))))
    return probes


def ainf_point(u, I, E):
    """(u(E)/u(I), |E|/|I|) for a probe pair E within I."""
    uI = u.mass(I.lo, I.hi)
    return u.weight_of_set(E) / uI, E.measure / I.length


def check_Ainf_oracle(u):
    """check_Ainf as a scalar loop over the probes: holds from A_inf's
    theorem, the tail exponent above -1, with no masses taken if it fails;
    the sharp exponent 1/(1 + max(0, γ0, γ∞)) from the first segment's and
    the tail's exps; containment through `contains`, then every probe's
    masses (one that is not finite raises as mass_array does), u(I) > 0, one
    ainf_point per probe, and a strict `>` from the constant 1."""
    if u.tail_exp <= -1.0:
        return ClassVerdict("AInf", False, math.inf, {})
    delta = 1.0 / (1.0 + max(0.0, u.segments[0].exp, u.tail_exp))
    probes = ainf_probes_oracle(u)
    if not all(contains(IntervalUnion((I,)), E) for I, E in probes):
        raise PreconditionError("A_inf probe needs E within I")
    if not all(math.isfinite(u.mass(I.lo, I.hi)) and math.isfinite(u.weight_of_set(E)) for I, E in probes):
        raise PreconditionError("a weight mass overflows the float range")
    if any(u.mass(I.lo, I.hi) == 0.0 for I, _ in probes):
        raise PreconditionError("A_inf probe needs u(I) > 0")
    c_u, witness = 1.0, {}
    for I, E in probes:
        x, y = ainf_point(u, I, E)
        if x <= 0.0:
            continue
        c = y / x**delta
        if c > c_u:
            c_u = c
            witness = {"I": [I.lo, I.hi], "E": [[p.lo, p.hi] for p in E.parts]}
    return ClassVerdict("AInf", True, c_u, witness, exponent=delta)


def ainf_dense_constant(u, delta, k):
    """The A_inf constant of u at the exponent delta over denser probes than
    check_Ainf's, at the scales L = 2^-k .. 2^k: per scale, anchor a (0 and
    each finite breakpoint) and ε = 2^-1 .. 2^-24, E of length εL at the
    left end, the right end and the centre of I = (a, a + L),
    (a - L/2, a + L/2) and (a - L, a), and E centred on a at either end of
    I, which for |x|^γ at a = 0 tends to the supremum; then 256 random rows
    per scale, each scale's from a seed of its own, so that a wider range of
    scales only adds probes.  Floored at 1, as check_Ainf's."""
    anchors = np.array([0.0] + [b for b in u.breakpoints if math.isfinite(b)])
    eps = 2.0 ** -np.arange(1.0, 25.0)
    rows = []
    for m in range(-k, k + 1):
        L = 2.0**m
        a, e = anchors[:, None], eps[None, :] * L
        for start in (a, a - L / 2.0, a - L):
            for lo in (start, start + L - e, start + (L - e) / 2.0):
                rows.append(np.broadcast_arrays(start, start + L, lo, lo + e))
        for start in (a - e / 2.0, a + e / 2.0 - L):
            rows.append(np.broadcast_arrays(start, start + L, a - e / 2.0, a + e / 2.0))
        rng = np.random.default_rng(m + 100)
        r = rng.random((3, 256))
        start = (r[0] - 0.5) * 4.0 * L
        e = 2.0 ** (-24.0 * r[1]) * L
        lo = start + r[2] * (L - e)
        rows.append((start, start + L, lo, lo + e))
    i_lo, i_hi, e_lo, e_hi = (np.concatenate([np.ravel(row[j]) for row in rows]) for j in range(4))
    x = u.mass_array(e_lo, e_hi) / u.mass_array(i_lo, i_hi)
    y = (e_hi - e_lo) / (i_hi - i_lo)
    return max(1.0, float(np.max(y[x > 0.0] / x[x > 0.0] ** delta)))


def cover_oracle(I, S, t):
    """construction.cover as a recursion: place the first block at the first
    component, then cover what is left of S to its right the same way."""
    t = min(max(t, 1.0), I.length / S.measure)
    out = []

    def rec(comps):
        if not comps:
            return
        total = sum(c.length for c in comps)
        a1 = comps[0].lo
        if I.hi - t * total <= a1:
            out.append(Interval(I.hi - t * total, I.hi))
            return
        cum = 0.0
        cpos = None
        split = 0
        for k, comp in enumerate(comps):
            cum += comp.length
            nxt = comps[k + 1].lo if k + 1 < len(comps) else I.hi
            cand = a1 + t * cum
            if cand >= comp.hi and cand <= nxt:
                cpos, split = cand, k + 1
                break
        if cpos is None:
            cpos, split = a1 + t * cum, len(comps)
        out.append(Interval(a1, cpos))
        rest = [c for c in comps[split:] if c.hi > cpos]
        if rest and rest[0].lo < cpos:
            rest[0] = Interval(cpos, rest[0].hi)
        rec(rest)

    rec(list(S.parts))
    return out


class ExtremalOracle:
    """The extremal function as a recursion tree: the leaves of S, the
    touching level lam0, the merged blocks and the extremal function of the
    blocks as the outer node; `constant` marks a set that fills I and lam0 =
    None a single component."""

    def __init__(self, base_interval, base_set, leaves, lam0, blocks, outer, constant):
        self.base_interval = base_interval
        self.floor = base_set.measure / base_interval.length
        self.leaves = leaves
        self.lam0 = lam0
        self.blocks = blocks
        self.outer = outer
        self.constant = constant

    def level_set(self, lam):
        if lam > 1.0:
            return normalize([])
        if self.constant or lam <= self.floor:
            return IntervalUnion((self.base_interval,))
        if self.lam0 is None or lam >= self.lam0:
            return normalize([leaf.level_interval(lam) for leaf in self.leaves])
        return self.outer.level_set(lam / self.lam0)

    def evaluate(self, x):
        I = self.base_interval
        if x < I.lo or x > I.hi:
            return 0.0
        if x == I.lo or x == I.hi:
            return max(self.floor, max(leaf.value_at(x) for leaf in self.leaves)) if self.leaves else self.floor
        if self.constant:
            return 1.0
        if self.lam0 is None:
            return max(self.floor, self.leaves[0].value_at(x))
        for block in self.blocks:
            if block.lo <= x <= block.hi:
                return max(self.floor, max(leaf.value_at(x) for leaf in self.leaves))
        return max(self.floor, self.lam0 * self.outer.evaluate(x))

    def kinks(self, knots):
        if self.constant:
            return []
        top = self.floor if self.lam0 is None else self.lam0
        out = [self.floor, top]
        sides = [
            leaf.value_at(x) for leaf in self.leaves for x in knots if leaf.a < x < leaf.b or leaf.c < x < leaf.d
        ]
        out += [lam for lam in sides if lam >= top]
        if self.outer is not None:
            out += [top * lam for lam in self.outer.kinks(knots)]
        return out

    def mean_value(self):
        if self.constant:
            return 1.0
        return self.floor * (1.0 + math.log(1.0 / self.floor))

    def all_blocks(self):
        """The blocks of every node, outermost last."""
        return list(self.blocks) + (self.outer.all_blocks() if self.outer is not None else [])


def extremal_oracle(I, S):
    """construction.build_extremal as a recursion: the leaves of S, the level
    lam0 at which two of their level intervals first touch, and the extremal
    function of the blocks merged at lam0 as the outer node."""
    if not all(I.lo <= p.lo and p.hi <= I.hi for p in S):
        raise PreconditionError("extremal function needs S within I")
    floor = S.measure / I.length
    if not floor > 0.0:
        raise PreconditionError("extremal function needs |S|/|I| > 0")
    if S.measure >= I.length * (1.0 - 1e-15):
        return ExtremalOracle(I, IntervalUnion((I,)), (), None, (), None, constant=True)
    comps = S.parts
    leaves = tuple(_Leaf(I.lo, c.lo, c.hi, I.hi) for c in comps)
    if len(comps) == 1:
        return ExtremalOracle(I, S, leaves, None, (), None, constant=False)
    lam0 = floor
    for left, right in zip(leaves, leaves[1:]):
        gap = right.b - left.c
        P = (left.d - left.c) * left.s_len / (left.i_len - left.s_len)
        Q = (right.b - right.a) * right.s_len / (right.i_len - right.s_len)
        if not P + Q > 0.0:
            raise PreconditionError("extremal construction underflows")
        lam0 = max(lam0, 1.0 / (1.0 + gap / (P + Q)))
    if lam0 <= floor * (1.0 + 1e-12):
        return ExtremalOracle(I, S, leaves, floor, (I,), None, constant=False)
    merged = []
    tol = 1e-12 * I.length
    for lo, hi in [leaf.level_interval(lam0) for leaf in leaves]:
        if merged and lo <= merged[-1][1] + tol:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    if len(merged) >= len(comps):
        gaps = [merged[i + 1][0] - merged[i][1] for i in range(len(merged) - 1)]
        i = gaps.index(min(gaps))
        merged[i] = (merged[i][0], merged[i + 1][1])
        del merged[i + 1]
    blocks = tuple(Interval(lo, hi) for lo, hi in merged)
    outer = extremal_oracle(I, IntervalUnion(blocks))
    return ExtremalOracle(I, S, leaves, lam0, blocks, outer, constant=False)
