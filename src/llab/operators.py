"""Exact pointwise evaluation of the maximal operator, the Hilbert transform
and its maximal truncations, and the conjugate Hardy operator on step
functions, plus empirical operator-norm probing on the weighted spaces."""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .boyd import (
    BoydEstimates,
    VerdictRecord,
    maximal_verdict,
)
from .construction import build_extremal
from .errors import PreconditionError, SingularInputError
from .intervals import Interval, singleton
from .rearrangement import (
    DecreasingStep,
    StepFunction,
    _from_cells,
    indicator,
    lorentz_norm,
    make_step,
    rearrange,
)
from .weights import WeightModel, _infinite_mass, _log1p

_ENDPOINT_EPS = 1e-9
_MAXIMAL_BLOCK = 1 << 16  # entries per block of rows of _maximal_array
# entries per block of rows of _hilbert_array: at its peak an entry holds about
# 83 bytes of numpy columns (82.6 and 83.0 on blocks of 150 and 300 pieces
# under tracemalloc)
_SWEEP_BLOCK = 1 << 14


# -- pointwise operators ----------------------------------------------------


def _near_endpoint(ends: Sequence[float], x: float) -> Optional[float]:
    """An endpoint e with |x - e| < _ENDPOINT_EPS * max(1, |e|), if any, from
    the sorted endpoints.  When some endpoint is that near, so is the nearest
    one on its side of x, so only the two neighbours of x are tried."""
    k = bisect.bisect_left(ends, x)
    for e in ends[max(k - 1, 0) : k + 1]:
        if abs(x - e) < _ENDPOINT_EPS * max(1.0, abs(e)):
            return e
    return None


def maximal(f: StepFunction, x: float) -> float:
    """Non-centered Hardy-Littlewood maximal function Mf(x), exact.

    For a step function the average over (a, b) is a ratio of piecewise
    linear functions of each endpoint, so the supremum over intervals
    containing x is attained with both endpoints in breakpoints(f) + {x}.
    For a < x < b the average over (a, b) is the mediant of those over
    (a, x) and (x, b), so it never exceeds the larger of the two: only the
    averages from each endpoint below x to x and from x to each endpoint
    above x count, O(m) per point.  The max starts from f(x) <= Mf(x), which
    rounded averages can miss, and a NaN average never counts.
    """
    if x != x:
        raise PreconditionError("the maximal function needs a point x that is a number, not NaN")
    ends, _, F = f.table
    i = bisect.bisect_right(ends, x)  # ends[:i] <= x < ends[i:]
    k = bisect.bisect_left(ends, x)  # ends[:k] < x
    value_at = f.value_at(x)
    Fx = F[i - 1] + value_at * (x - ends[i - 1]) if i else 0.0
    left = [(Fx - Fa) / (x - a) for a, Fa in zip(ends[:k], F[:k])]
    right = [(Fb - Fx) / (b - x) for b, Fb in zip(ends[i:], F[i:])]
    return max([value_at, *left, *right])  # f(x) first, so a NaN never replaces it


def _truncations(f: StepFunction, x: float) -> list[float]:
    """T(d), the integral of f(y)/(x - y) over |x - y| > d (no 1/pi factor),
    at every distance d from x to an endpoint of f, largest first.

    T vanishes beyond the largest distance.  Between consecutive distances
    f(x - r) and f(x + r) are constant, and T(near) - T(far) is their
    difference times log1p((far - near)/near).  Below the smallest distance
    f is constant around x, so T stops changing: the last entry is pi Hf(x).

    Each side's distances come presorted: x - ends[i] falls as i rises to
    k - 1, ends[j] - x falls as j drops to k.  The sweep merges the two
    sides in place, the larger distance first and the right side first at
    an equal one: O(m) for m endpoints.
    """
    if x != x:
        raise PreconditionError("the Hilbert transform needs a point x that is a number, not NaN")
    ends, values, _ = f.table
    e = _near_endpoint(ends, x)
    if e is not None:
        raise SingularInputError(f"Hilbert transform is singular at endpoint {e}")
    k = bisect.bisect_left(ends, x)  # ends[:k] < x <= ends[k:]
    gap = (0.0, *values, 0.0)  # gap[j]: f between ends[j - 1] and ends[j]
    i, j = 0, len(ends) - 1  # the next endpoint on the left and on the right
    dl = x - ends[i] if i < k else -1.0  # their distances, -1 once a side is done
    dr = ends[j] - x if j >= k else -1.0
    far = max(dl, dr)
    if not math.isfinite(far):
        raise PreconditionError(
            f"the Hilbert transform at {x!r} needs finite distances to the endpoints; the largest overflows"
        )
    # Past an endpoint e its side holds the value of the gap on x's side of
    # e.  far - near is the difference of the two endpoints when both are on
    # one side, which stays > 0 where their distances round together, and
    # of the two distances otherwise, 0 only at an equal distance across x.
    left = right = t = 0.0
    ts = [t]
    last, last_right = 0.0, None  # the previous endpoint and its side
    for _ in ends:
        on_right = dr >= dl
        if on_right:
            d, end, v = dr, ends[j], gap[j]
            j -= 1
            dr = ends[j] - x if j >= k else -1.0
        else:
            d, end, v = dl, ends[i], gap[i + 1]
            i += 1
            dl = x - ends[i] if i < k else -1.0
        fall = abs(end - last) if on_right == last_right else far - d
        if fall > 0.0:
            t += (left - right) * math.log1p(fall / d)
            ts.append(t)
        if on_right:
            right = v
        else:
            left = v
        far, last, last_right = d, end, on_right
    return ts


def hilbert(f: StepFunction, x: float) -> float:
    """Principal-value Hilbert transform of a step function, exact."""
    return _truncations(f, x)[-1] / math.pi


def hilbert_maximal(f: StepFunction, x: float) -> float:
    """sup over truncations of the Hilbert integral (with the 1/pi
    normalization of the transform), so H*f >= |Hf| pointwise.  Exact.

    The truncated integral T(eps) has derivative (f(x + eps) - f(x - eps))/eps,
    whose sign is constant between consecutive distances from x to the
    endpoints of f; so sup |T| is attained at one of those distances or as
    eps -> 0+, where T equals pi Hf(x).
    """
    return max(abs(t) for t in _truncations(f, x)) / math.pi


# -- the same kernels on an array of points ---------------------------------
#
# Each evaluates maximal or _truncations at every x of an array in one pass,
# with the same IEEE operations as the scalar kernel, so every value matches
# it bit for bit; the first point the scalar kernel rejects raises its error.
# Rows go in blocks of at most _MAXIMAL_BLOCK or _SWEEP_BLOCK entries, so
# memory is O(block) for any number m of endpoints.  They need m >= 2, as
# resampling does.  Overflow and 0/0 are left to IEEE, as in the scalar
# kernels, and the values of masked entries are never read.


@np.errstate(all="ignore")
def _maximal_array(f: StepFunction, xs: np.ndarray) -> np.ndarray:
    """maximal(f, x) at every x of xs: the averages from x to every endpoint,
    one row per point, with the endpoints at x masked."""
    nan = np.isnan(xs)
    if nan.any():
        maximal(f, float(xs[nan.argmax()]))  # raises the scalar's error
    ends, values, F = f.table
    e, F, m = np.array(ends), np.array(F), len(ends)
    gap = np.array((0.0, *values, 0.0))  # gap[k]: f between ends[k - 1] and ends[k]
    i = np.searchsorted(e, xs, side="right")
    k = np.searchsorted(e, xs, side="left")
    value_at = np.where(e[np.minimum(k, m - 1)] == xs, 0.0, gap[k])  # f.value_at, 0 at an endpoint
    Fx = np.where(i > 0, F[i - 1] + value_at * (xs - e[i - 1]), 0.0)
    cols = np.arange(m)
    out = np.empty(xs.size)
    rows = max(1, _MAXIMAL_BLOCK // m)
    for r in range(0, xs.size, rows):
        x, fx, ir, kr = (a[r : r + rows, None] for a in (xs, Fx, i, k))
        avg = np.where(cols < kr, (fx - F) / (x - e), np.where(cols >= ir, (F - fx) / (e - x), -np.inf))
        # the max from f(x) with a NaN never counting, as in maximal
        out[r : r + rows] = np.fmax(value_at[r : r + rows], np.fmax.reduce(avg, axis=1))
    return out


@np.errstate(all="ignore")
def _near_array(ends: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_near_endpoint at every x of xs: whether some endpoint is near, and
    the one it returns (the lower neighbour first) where one is."""
    k = np.searchsorted(ends, xs, side="left")
    lo, hi = ends[np.maximum(k - 1, 0)], ends[np.minimum(k, ends.size - 1)]
    near_lo = (k > 0) & (np.abs(xs - lo) < _ENDPOINT_EPS * np.maximum(1.0, np.abs(lo)))
    near_hi = (k < ends.size) & (np.abs(xs - hi) < _ENDPOINT_EPS * np.maximum(1.0, np.abs(hi)))
    return near_lo | near_hi, np.where(near_lo, lo, hi)


@np.errstate(all="ignore")
def _nudged_array(xs: np.ndarray, ends: Sequence[float]) -> np.ndarray:
    """Each x of xs moved just off the endpoint whose singular band it falls
    in, if any, so that H and H* are defined there."""
    near, e = _near_array(np.array(ends), xs)
    return np.where(near, xs + 2.0 * _ENDPOINT_EPS * np.maximum(1.0, np.abs(e)), xs)


@np.errstate(all="ignore")
def _hilbert_array(f: StepFunction, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hilbert(f, x), hilbert_maximal(f, x)) at every x of xs.

    Each row holds the m events of _truncations in the merge's order:
    distance descending, then the right side first, then each side's
    endpoints outer first.  After n left events f(x - r) is gap[n], and
    after n right events f(x + r) is gap[m - n].  far - near is taken as in
    the scalar kernel, the logs are libm's, from weights._log1p, and T is
    accumulated column by column.
    """
    ends, values, _ = f.table
    e, m = np.array(ends), len(ends)
    near, _ = _near_array(e, xs)
    bad = np.isnan(xs) | near | ~np.isfinite(np.maximum(xs - e[0], e[-1] - xs))
    if bad.any():
        _truncations(f, float(xs[bad.argmax()]))  # raises the scalar's error
    gap = np.array((0.0, *values, 0.0))
    cols = np.arange(m)
    h, hs = np.empty(xs.size), np.empty(xs.size)
    rows = max(1, _SWEEP_BLOCK // m)
    for r in range(0, xs.size, rows):
        x = xs[r : r + rows, None]
        right = e >= x  # ends[:k] < x <= ends[k:]
        d = np.where(right, e - x, x - e)
        end = e[np.lexsort((np.where(right, -cols, cols), ~right, -d))]
        right = end >= x
        d = np.where(right, end - x, x - end)
        n_left = np.cumsum(~right, axis=1)  # left events up to each column
        diff = gap[n_left] - gap[m - 1 - cols + n_left]  # left - right, held after each column
        fall = np.where(right[:, 1:] == right[:, :-1], np.abs(end[:, 1:] - end[:, :-1]), d[:, :-1] - d[:, 1:])
        step = fall > 0.0
        inc = np.zeros(d.shape)
        inc[:, 1:][step] = diff[:, :-1][step] * _log1p(fall[step] / d[:, 1:][step])
        T = np.cumsum(inc, axis=1)  # sequential along a row: T[c] = T[c - 1] + inc[c]
        h[r : r + rows] = T[:, -1] / math.pi
        hs[r : r + rows] = np.fmax.reduce(np.abs(T), axis=1) / math.pi  # a NaN never counts
    return h, hs


def conjugate_hardy(g: DecreasingStep, t: float) -> float:
    """Q g(t) = integral of g(s)/s over (t, infinity), closed form."""
    if not t >= 0.0:
        raise PreconditionError("conjugate Hardy operator needs t >= 0")
    total = 0.0
    for (lo, hi), v in zip(zip(g.breakpoints, g.breakpoints[1:]), g.values):
        a = max(lo, t)
        if a < hi:
            if a == 0.0:
                return math.inf
            total += v * math.log(hi / a)
    return total


# -- resampling layer -------------------------------------------------------


def _resample_grid(base_endpoints: Sequence[float]) -> list[float]:
    """A grid refined 16 points per gap between the base endpoints plus 20
    geometric tail points on both sides."""
    pts = sorted(set(base_endpoints))
    if len(pts) < 2:
        raise PreconditionError("resampling needs at least two endpoints")
    span = pts[-1] - pts[0]
    grid: list[float] = []
    for lo, hi in zip(pts, pts[1:]):
        step = (hi - lo) / 16
        grid.extend(lo + i * step for i in range(16))
    grid.append(pts[-1])
    for j in range(1, 21):
        grid.append(pts[-1] + span * (2.0 ** (j / 2.0) - 1.0))
        grid.append(pts[0] - span * (2.0 ** (j / 2.0) - 1.0))
    return sorted(set(grid))


def _step_of_cells(grid: Sequence[float], values: Sequence[float]) -> StepFunction:
    """|values[j]| on each cell (grid[j], grid[j + 1]) where it is positive
    and finite."""
    return _from_cells(grid, [v if 0.0 < v < math.inf else 0.0 for v in map(abs, values)])


def resample_step(func, base_endpoints: Sequence[float]) -> StepFunction:
    """Step approximation of |func| on the grid of _resample_grid, func taken
    at each cell's midpoint."""
    grid = _resample_grid(base_endpoints)
    return _step_of_cells(grid, [func(0.5 * (lo + hi)) for lo, hi in zip(grid, grid[1:])])


def apply_operator(op: str, f: StepFunction, u: WeightModel) -> StepFunction | DecreasingStep:
    """Image of f under the named operator, as a resampled step object."""
    if op in ("maximal", "hilbert", "hstar"):
        # resample_step, with every midpoint evaluated in one array pass; H and
        # H* are taken just off an endpoint that a midpoint falls within the
        # singular band of
        ends = f.ends
        grid = _resample_grid(ends)
        g = np.array(grid)
        mids = 0.5 * (g[:-1] + g[1:])
        if op == "maximal":
            vals = _maximal_array(f, mids)
        else:
            h, hs = _hilbert_array(f, _nudged_array(mids, ends))
            vals = hs if op == "hstar" else h
        return _step_of_cells(grid, vals.tolist())
    if op == "q":
        g = rearrange(f, u)
        qgrid = sorted(
            {t for t in g.breakpoints if t > 0.0}
            | {g.breakpoints[-1] * 2.0**k for k in range(-20, 2)}
        )
        prev = 0.0
        vals = []
        bps = [0.0]
        for t in qgrid:
            v = conjugate_hardy(g, 0.5 * (prev + t))
            if v > 0.0 and math.isfinite(v) and (not vals or v < vals[-1]):
                bps.append(t)
                vals.append(v)
            prev = t
        return DecreasingStep(tuple(bps), tuple(vals))
    raise PreconditionError(f"unknown operator {op!r}")


# -- empirical operator norms ----------------------------------------------


@dataclass(frozen=True)
class OperatorProbeReport:
    operator: str
    max_ratio: float
    norm_kind: str  # "strong" | "weak"
    approximate: bool
    details: tuple[tuple[str, float, float], ...] = ()  # (id, in_norm, out_norm)


def empirical_opnorm(
    op: str,
    u: WeightModel,
    w: WeightModel,
    p: float,
    family: Sequence[tuple[str, StepFunction]],
    target: str = "strong",
) -> OperatorProbeReport:
    """Ratios of output to input quasi-norms over a family of test functions;
    the max ratio is a lower bound for the operator norm."""
    if not family:
        raise PreconditionError("operator-norm probing needs a nonempty family")
    if target not in ("strong", "weak"):
        raise PreconditionError("target must be strong or weak")
    details = []
    for test_id, f in family:
        in_norm = lorentz_norm(f, u, w, p)
        if not in_norm > 0.0:  # every u-mass of f underflows
            raise PreconditionError(f"test function {test_id} has norm {in_norm!r}: its u-masses underflow")
        image = apply_operator(op, f, u)
        g = image if isinstance(image, DecreasingStep) else rearrange(image, u)
        out_norm = g.weak_norm(w, p) if target == "weak" else g.norm(w, p)
        details.append((test_id, in_norm, out_norm))
    return OperatorProbeReport(
        operator=op,
        max_ratio=max(out_norm / in_norm for _, in_norm, out_norm in details),
        norm_kind=target,
        approximate=True,
        details=tuple(details),
    )


def indicator_family(count: int, seed: int) -> list[tuple[str, StepFunction]]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        lo = float(rng.uniform(-4.0, 3.0))
        length = float(2.0 ** rng.uniform(-3.0, 3.0))
        out.append((f"indicator_{i}", indicator(singleton(lo, lo + length))))
    return out


def random_step_family(count: int, seed: int) -> list[tuple[str, StepFunction]]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(1, 5))  # pieces, before empty ones are dropped
        cuts = np.sort(rng.uniform(-4.0, 4.0, size=2 * n))
        pieces = []
        for k in range(n):
            region = singleton(float(cuts[2 * k]), float(cuts[2 * k + 1]))
            if region:
                pieces.append((region, float(2.0 ** rng.uniform(-2.0, 2.0))))
        if not pieces:
            continue
        out.append((f"random_{i}", make_step(pieces)))
    return out


def extremal_family(s: float, count: int = 1) -> list[tuple[str, StepFunction]]:
    """Step resamplings of the extremal configuration at ratio s."""
    out = []
    for i in range(count):
        shift = 4.0 * s * i
        F = build_extremal(Interval(shift, shift + s), singleton(shift, shift + 1.0))
        grid = sorted({shift + k * s / 256.0 for k in range(257)})
        step = _step_of_cells(grid, [F.evaluate(0.5 * (lo + hi)) for lo, hi in zip(grid, grid[1:])])
        out.append((f"extremal_s{s:g}_{i}", step))
    return out


# -- combined verdicts ------------------------------------------------------


@dataclass(frozen=True)
class HilbertVerdict:
    verdict: str
    index_route: str
    condition_route: str
    routes_agree: bool
    alpha: float
    beta: float
    maximal: VerdictRecord
    ainf_holds: bool
    bstar_holds: bool

    def as_dict(self) -> dict:
        return {"operator": "H", **asdict(self)}


def hilbert_verdict(u: WeightModel, w: WeightModel, p: float, estimates: BoydEstimates) -> HilbertVerdict:
    """Two-route boundedness verdict for the Hilbert transform.

    Route one uses the fitted indices (upper below 1, lower above 0); route
    two combines the maximal verdict with the flags of check_Ainf(u) and
    check_Bstar_inf(w), read from their common rule, not from their probe
    and grid passes.  For
    p <= 1 only the one-sided index implications apply, so the condition
    route is reported as informational there.
    """
    mv = maximal_verdict(u, w, p, estimates)
    beta = estimates.beta.exponent
    m_beta = max(estimates.beta.residual, 1e-3)
    # the alpha half is the maximal verdict; beta from lower-bound samples
    # overestimates the true lower index, so beta at or below 0 is decisive,
    # and a beta within its margin above 0 decides nothing
    if mv.verdict == "not_bounded" or beta <= 0.0:
        index_route = "not_bounded"
    elif mv.verdict == "bounded" and beta > m_beta:
        index_route = "bounded"
    else:
        index_route = "inconclusive"

    ainf_holds, bstar_holds = _infinite_mass(u), _infinite_mass(w)
    if ainf_holds and bstar_holds and mv.verdict == "bounded":
        condition_route = "bounded"
    elif mv.verdict == "inconclusive":
        condition_route = "inconclusive"
    else:
        condition_route = "not_bounded"

    agree = index_route == condition_route
    verdict = index_route if agree else "inconclusive"
    if p <= 1.0 and verdict == "bounded":
        verdict = "inconclusive"  # only one-sided implications below p = 1
    return HilbertVerdict(
        verdict=verdict,
        index_route=index_route,
        condition_route=condition_route,
        routes_agree=agree,
        alpha=mv.alpha,
        beta=beta,
        maximal=mv,
        ainf_holds=ainf_holds,
        bstar_holds=bstar_holds,
    )
