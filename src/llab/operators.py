"""Exact pointwise evaluation of the maximal operator, the Hilbert transform
and its maximal truncations, and the conjugate Hardy operator on step
functions, plus empirical operator-norm probing on the weighted spaces."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boyd import (
    BoydEstimates,
    VerdictRecord,
    compute_estimates,
    maximal_verdict,
)
from .construction import ExtremalSum, build_extremal
from .errors import PreconditionError, SingularInputError
from .intervals import Interval, singleton
from .rearrangement import (
    DecreasingStep,
    StepFunction,
    indicator,
    lorentz_norm,
    make_step,
    rearrange,
)
from .weights import WeightModel, check_Ainf, check_Bstar_inf

_ENDPOINT_EPS = 1e-9


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
    """
    ends, _, F = f.table
    i = bisect.bisect_right(ends, x)  # ends[:i] <= x < ends[i:]
    Fx = F[i - 1] + f.value_at(x) * (x - ends[i - 1]) if i else 0.0
    left = [*zip(ends[:i], F[:i]), (x, Fx)]
    right = [(x, Fx), *zip(ends[i:], F[i:])]
    best = 0.0
    for a, Fa in left:
        for b, Fb in right:
            if b > a:
                avg = (Fb - Fa) / (b - a)
                if avg > best:
                    best = avg
    return best


def _truncations(f: StepFunction, x: float) -> list[float]:
    """T(d), the integral of f(y)/(x - y) over |x - y| > d (no 1/pi factor),
    at every distance d from x to an endpoint of f, largest first.

    T vanishes beyond the largest distance.  Between consecutive distances
    f(x - r) and f(x + r) are constant, and T(near) - T(far) is their
    difference times log(far/near).  Below the smallest distance f is
    constant around x, so T stops changing: the last entry is pi Hf(x).
    """
    ends, values, _ = f.table
    e = _near_endpoint(ends, x)
    if e is not None:
        raise SingularInputError(f"Hilbert transform is singular at endpoint {e}")
    k = bisect.bisect_left(ends, x)
    gap = (0.0, *values, 0.0)  # gap[j]: f between ends[j - 1] and ends[j]
    # as r falls past |x - e_j|, f(x - r) (side 0) or f(x + r) (side 1)
    # takes the value of the gap on x's side of e_j
    events = sorted(
        [(x - ends[j], 0, gap[j + 1]) for j in range(k)]
        + [(ends[j] - x, 1, gap[j]) for j in range(k, len(ends))],
        reverse=True,
    )
    side = [0.0, 0.0]
    ts = [0.0]
    far = events[0][0] if events else 0.0
    for d, s, v in events:
        if d < far:
            ts.append(ts[-1] + (side[0] - side[1]) * math.log(far / d))
            far = d
        side[s] = v
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


def conjugate_hardy(g: DecreasingStep, t: float) -> float:
    """Q g(t) = integral of g(s)/s over (t, infinity), closed form."""
    if t < 0.0:
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


def resample_step(
    func, base_endpoints: Sequence[float], points_per_gap: int = 16, tail_octaves: int = 20
) -> StepFunction:
    """Step approximation of |func| on a grid refined at the base endpoints
    plus geometric tails on both sides."""
    pts = sorted(set(base_endpoints))
    if len(pts) < 2:
        raise PreconditionError("resampling needs at least two endpoints")
    span = pts[-1] - pts[0]
    grid: list[float] = []
    for lo, hi in zip(pts, pts[1:]):
        step = (hi - lo) / points_per_gap
        grid.extend(lo + i * step for i in range(points_per_gap))
    grid.append(pts[-1])
    for j in range(1, tail_octaves + 1):
        grid.append(pts[-1] + span * (2.0 ** (j / 2.0) - 1.0))
        grid.append(pts[0] - span * (2.0 ** (j / 2.0) - 1.0))
    grid = sorted(set(grid))
    pieces = []
    for lo, hi in zip(grid, grid[1:]):
        v = abs(func(0.5 * (lo + hi)))
        if v > 0.0 and math.isfinite(v):
            pieces.append((Interval(lo, hi), v))
    return make_step(pieces)


def _nudged(x: float, endpoints: Sequence[float]) -> float:
    e = _near_endpoint(endpoints, x)
    return x if e is None else x + 2.0 * _ENDPOINT_EPS * max(1.0, abs(e))


def apply_operator(op: str, f: StepFunction, u: WeightModel) -> StepFunction | DecreasingStep:
    """Image of f under the named operator, as a resampled step object."""
    ends = f.endpoints()
    if op == "maximal":
        return resample_step(lambda x: maximal(f, x), ends)
    if op == "hilbert":
        return resample_step(lambda x: hilbert(f, _nudged(x, ends)), ends)
    if op == "hstar":
        return resample_step(lambda x: hilbert_maximal(f, _nudged(x, ends)), ends)
    if op == "q":
        g = rearrange(f, u)
        qgrid = sorted(
            {t for t in g.breakpoints if t > 0.0}
            | {g.breakpoints[-1] * 2.0**k for k in range(-20, 2)}
        )
        pieces = []
        prev = 0.0
        vals = []
        bps = [0.0]
        for t in qgrid:
            v = conjugate_hardy(g, 0.5 * (prev + t))
            if v > 0.0 and math.isfinite(v) and (not vals or v < vals[-1]):
                bps.append(t)
                vals.append(v)
            prev = t
        return DecreasingStep(tuple(bps[: len(vals) + 1]), tuple(vals))
    raise PreconditionError(f"unknown operator {op!r}")


# -- empirical operator norms ----------------------------------------------


@dataclass(frozen=True)
class OperatorProbeReport:
    operator: str
    ratios: tuple[tuple[str, float], ...]
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
    ratios = []
    details = []
    for test_id, f in family:
        in_norm = lorentz_norm(f, u, w, p)
        image = apply_operator(op, f, u)
        g = image if isinstance(image, DecreasingStep) else rearrange(image, u)
        out_norm = g.weak_norm(w, p) if target == "weak" else g.norm(w, p)
        ratios.append((test_id, out_norm / in_norm))
        details.append((test_id, in_norm, out_norm))
    return OperatorProbeReport(
        operator=op,
        ratios=tuple(ratios),
        max_ratio=max(r for _, r in ratios),
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


def random_step_family(count: int, seed: int, max_pieces: int = 4) -> list[tuple[str, StepFunction]]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(1, max_pieces + 1))
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
        total = ExtremalSum([F])
        step = resample_step(
            total.evaluate,
            [shift + k * s / 256.0 for k in range(257)],
            points_per_gap=1,
            tail_octaves=0,
        )
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
        return {
            "operator": "H",
            "verdict": self.verdict,
            "index_route": self.index_route,
            "condition_route": self.condition_route,
            "routes_agree": self.routes_agree,
            "alpha": self.alpha,
            "beta": self.beta,
            "maximal": self.maximal.as_dict(),
            "ainf_holds": self.ainf_holds,
            "bstar_holds": self.bstar_holds,
        }


def hilbert_verdict(
    u: WeightModel,
    w: WeightModel,
    p: float,
    estimates: Optional[BoydEstimates] = None,
    budget: int = 1,
    seed: int = 0,
) -> HilbertVerdict:
    """Two-route boundedness verdict for the Hilbert transform.

    Route one uses the fitted indices (upper below 1, lower above 0); route
    two combines the weight-class checks with the maximal verdict.  For
    p <= 1 only the one-sided index implications apply, so the condition
    route is reported as informational there.
    """
    if estimates is None:
        estimates = compute_estimates(u, w, p, budget=budget, seed=seed)
    alpha, beta = estimates.alpha.exponent, estimates.beta.exponent
    m_alpha = max(estimates.alpha.residual, 1e-3)
    m_beta = max(estimates.beta.residual, 1e-3)
    # alpha comes from lower-bound samples, so alpha above 1 is decisive;
    # beta from lower-bound samples overestimates the true lower index, so
    # beta at or below 0 is decisive as well
    if alpha > 1.0 + m_alpha or beta < m_beta:
        index_route = "not_bounded"
    elif alpha < 1.0 - m_alpha and beta > m_beta:
        index_route = "bounded"
    else:
        index_route = "inconclusive"

    ainf = check_Ainf(u)
    bstar = check_Bstar_inf(w)
    mv = maximal_verdict(u, w, p, estimates)
    if ainf.holds and bstar.holds and mv.verdict == "bounded":
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
        alpha=alpha,
        beta=beta,
        maximal=mv,
        ainf_holds=ainf.holds,
        bstar_holds=bstar.holds,
    )
