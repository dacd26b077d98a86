"""Submultiplicative index functions and generalized Boyd indices.

The two joint index functions are suprema of W(u(union I_j)) / W(u(union S_j))
ratios over finite families of disjoint intervals with subsets at a fixed
length ratio.  Suprema over all finite families are not exhaustively
computable, so the searches here return certified lower bounds (deterministic
under a fixed seed) and verdicts use them asymmetrically: a lower-bound
estimate above the boundary is decisive, one below it is evidence only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .intervals import Interval, IntervalUnion, contains
from .weights import WeightModel

_CONFIG_RTOL = 1e-9


@dataclass(frozen=True)
class Configuration:
    """Family of disjoint intervals I_j with subsets S_j at a common ratio.

    `ratio` is |I_j| / |S_j| (>= 1) for every pair.
    """

    pairs: tuple[tuple[Interval, IntervalUnion], ...]
    ratio: float

    def __post_init__(self) -> None:
        ordered = sorted(self.pairs, key=lambda pair: pair[0].lo)
        for (a, _), (b, _) in zip(ordered, ordered[1:]):
            if a.hi > b.lo:
                raise PreconditionError("configuration intervals must be disjoint")
        for I, S in self.pairs:
            if not contains(IntervalUnion((I,)), S):
                raise PreconditionError("configuration needs S_j within I_j")
            if abs(I.length - self.ratio * S.measure) > _CONFIG_RTOL * I.length:
                raise PreconditionError("configuration ratio violated")

    def evaluate(self, u: WeightModel, w: WeightModel) -> float:
        """W(u(union I_j)) / W(u(union S_j)) for this family."""
        uI = sum(u.mass(I.lo, I.hi) for I, _ in self.pairs)
        uS = sum(u.weight_of_set(S) for _, S in self.pairs)
        return w.primitive(uI) / w.primitive(uS)


@dataclass(frozen=True)
class SubmultiplicativeSamples:
    arguments: tuple[float, ...]
    values: tuple[float, ...]
    direction: str  # "exact" | "lower_bound"
    budget: int = 1

    def __post_init__(self) -> None:
        if len(self.arguments) != len(self.values):
            raise ValueError("arguments and values must align")
        if list(self.arguments) != sorted(self.arguments):
            raise ValueError("arguments must be sorted increasing")


@dataclass(frozen=True)
class IndexEstimate:
    exponent: float
    constant: float
    fit_window: tuple[float, float]
    residual: float


# -- grids and anchors ------------------------------------------------------


def _scale_grid(
    w: WeightModel, u: Optional[WeightModel], t: float, per_octave: int = 8
) -> list[float]:
    """Geometric grid of scales refined around the weights' breakpoints."""
    scales = {2.0 ** (k / per_octave) for k in range(-20 * per_octave, 20 * per_octave + 1)}
    refine: list[float] = list(w.breakpoints)
    if u is not None:
        refine.extend(u.breakpoints)
    for b in refine:
        for j in range(-8, 9):
            s = b * 2.0 ** (j / 64.0)
            if s > 0.0:
                scales.add(s)
                if t > 0.0:
                    scales.add(s / t)
    return sorted(scales)


def _anchors(u: WeightModel) -> list[float]:
    out = {0.0}
    for b in u.breakpoints:
        out.add(b)
        out.add(-b)
    return sorted(out)


# -- the u = 1 index function ----------------------------------------------


def wbar(w: WeightModel, t: float) -> float:
    """sup_s W(st)/W(s) over a refined geometric grid; exact for power w."""
    if t <= 0.0:
        raise PreconditionError("wbar needs t > 0")
    if t == 1.0:
        return 1.0
    best = 0.0
    for s in _scale_grid(w, None, t):
        best = max(best, w.primitive(s * t) / w.primitive(s))
    return best


# -- configuration searches ------------------------------------------------


def _family_value(
    u: WeightModel, w: WeightModel, pairs: Sequence[tuple[tuple[float, float], tuple[float, float]]]
) -> float:
    uI = sum(u.mass(lo, hi) for (lo, hi), _ in pairs)
    uS = sum(u.mass(lo, hi) for _, (lo, hi) in pairs)
    if uS <= 0.0 or uI <= 0.0:
        return 0.0
    return w.primitive(uI) / w.primitive(uS)


def _coarse_best(u: WeightModel, w: WeightModel, ratio: float, upper: bool):
    """(value, pair) of the first best single pair (I, S) of the coarse grid,
    scored in one array pass.  For each anchor a of u, each scale small of
    the scale grid and big = small * ratio, in that loop order, it places
    I = (a, a + big) with S at its left end, I = (a - big, a) with S at its
    right end, and I centred on a with S centred in it.  The values are
    _family_value's bit for bit (inverted for the lower search); as in a
    scan with a strict `>`, a NaN is never best and the first of equal
    maxima wins."""
    a = np.array(_anchors(u))[:, None]
    small = np.array(_scale_grid(w, u, ratio))
    big = small * ratio
    half = (big - small) / 2.0
    left, right = a - big / 2.0, a + big / 2.0

    def stacked(*cols):
        return np.stack(np.broadcast_arrays(*cols), axis=-1).ravel()

    i_lo, i_hi = stacked(a, a - big, left), stacked(a + big, a, right)
    s_lo, s_hi = stacked(a, a - small, left + half), stacked(a + small, a, right - half)
    uI, uS = u.mass_array(i_lo, i_hi), u.mass_array(s_lo, s_hi)
    # _family_value's test, which a NaN mass passes; the others are scored
    # at 1.0 and then zeroed, so that no 0/0 is computed
    live = ~((uS <= 0.0) | (uI <= 0.0))
    v = w.primitive_array(np.where(live, uI, 1.0)) / w.primitive_array(np.where(live, uS, 1.0))
    v = np.where(live, v, 0.0)
    if not upper:
        v = np.divide(1.0, v, out=np.zeros_like(v), where=v > 0.0)
    best = int(np.nanargmax(v))
    return float(v[best]), ((float(i_lo[best]), float(i_hi[best])), (float(s_lo[best]), float(s_hi[best])))


def _replicate(pair, count: int):
    (i_lo, i_hi), (s_lo, s_hi) = pair
    span = 2.0 * (i_hi - i_lo)
    return [
        ((i_lo + j * span, i_hi + j * span), (s_lo + j * span, s_hi + j * span))
        for j in range(count)
    ]


def _search(
    u: WeightModel,
    w: WeightModel,
    t: float,
    upper: bool,
    budget: int,
    seed: int,
) -> tuple[float, Configuration]:
    """Shared search: |I| = big, |S| = small, ratio big/small = t or 1/t."""
    if budget <= 0:
        raise PreconditionError("search budget must be positive")
    ratio = t if upper else 1.0 / t

    def value(pairs) -> float:
        v = _family_value(u, w, pairs)
        return v if upper else 1.0 / v if v > 0.0 else 0.0

    best_val, best_pair = _coarse_best(u, w, ratio, upper)
    best_pairs = [best_pair]

    # Replicate the best single pair across disjoint translates.
    for count in (2, 4, 8, 16):
        pairs = _replicate(best_pair, count)
        v = value(pairs)
        if v > best_val:
            best_val, best_pairs = v, pairs

    # Seeded random restarts around the best single pair, coordinate descent.
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
        for _ in range(8):  # local descent on anchor and offset
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
            best_val, best_pairs = v, [pair]
            for count in (2, 4, 8, 16):
                rv = value(_replicate(pair, count))
                if rv > best_val:
                    best_val, best_pairs = rv, _replicate(pair, count)

    # rounding in the offset arithmetic can push S an ulp past I; the value
    # returned is that of the clamped pairs, so the witness replays exactly
    clamped = [
        ((i_lo, i_hi), (max(s_lo, i_lo), min(s_hi, i_hi)))
        for (i_lo, i_hi), (s_lo, s_hi) in best_pairs
    ]
    config = Configuration(
        pairs=tuple(
            (Interval(i_lo, i_hi), IntervalUnion((Interval(s_lo, s_hi),)))
            for (i_lo, i_hi), (s_lo, s_hi) in clamped
        ),
        ratio=ratio if upper else 1.0 / t,
    )
    return value(clamped), config


def _trivial_config() -> Configuration:
    return Configuration(
        pairs=((Interval(0.0, 1.0), IntervalUnion((Interval(0.0, 1.0),))),), ratio=1.0
    )


def wbar_u(
    u: WeightModel, w: WeightModel, t: float, budget: int = 1, seed: int = 0
) -> tuple[float, Configuration]:
    """Best W(u(union I))/W(u(union S)) found with |I_j| = t |S_j|.

    A certified lower bound of the supremum; deterministic under the seed.
    """
    if t < 1.0:
        raise PreconditionError("wbar_u needs t >= 1")
    if t == 1.0:
        return 1.0, _trivial_config()
    return _search(u, w, t, upper=True, budget=budget, seed=seed)


def underline_wu(
    u: WeightModel, w: WeightModel, t: float, budget: int = 1, seed: int = 0
) -> tuple[float, Configuration]:
    """Best W(u(union S))/W(u(union I)) found with |S_j| = t |I_j|, t in (0, 1]."""
    if not 0.0 < t <= 1.0:
        raise PreconditionError("underline_wu needs t in (0, 1]")
    if t == 1.0:
        return 1.0, _trivial_config()
    return _search(u, w, t, upper=False, budget=budget, seed=seed)


def default_upper_grid() -> tuple[float, ...]:
    return tuple(2.0**k for k in range(1, 11))


def default_lower_grid() -> tuple[float, ...]:
    return tuple(2.0**-k for k in range(10, 0, -1))


def _monotonize(vals: Sequence[float]) -> list[float]:
    # The true functions are non-decreasing, so lower bounds propagate upward.
    out: list[float] = []
    acc = 0.0
    for v in vals:
        acc = max(acc, v)
        out.append(acc)
    return out


def wbar_u_samples(
    u: WeightModel,
    w: WeightModel,
    ts: Optional[Sequence[float]] = None,
    budget: int = 1,
    seed: int = 0,
) -> SubmultiplicativeSamples:
    ts = tuple(ts) if ts is not None else default_upper_grid()
    vals = [wbar_u(u, w, t, budget=budget, seed=seed)[0] for t in ts]
    return SubmultiplicativeSamples(ts, tuple(_monotonize(vals)), "lower_bound", budget)


def underline_wu_samples(
    u: WeightModel,
    w: WeightModel,
    ts: Optional[Sequence[float]] = None,
    budget: int = 1,
    seed: int = 0,
) -> SubmultiplicativeSamples:
    ts = tuple(ts) if ts is not None else default_lower_grid()
    vals = [underline_wu(u, w, t, budget=budget, seed=seed)[0] for t in ts]
    return SubmultiplicativeSamples(ts, tuple(_monotonize(vals)), "lower_bound", budget)


def exact_samples(phi: Callable[[float], float], ts: Sequence[float]) -> SubmultiplicativeSamples:
    ts = tuple(sorted(ts))
    return SubmultiplicativeSamples(ts, tuple(phi(t) for t in ts), "exact")


# -- exponent fits ----------------------------------------------------------


def fit_upper_exponent(samples: SubmultiplicativeSamples, window_decades: float = 4.0) -> IndexEstimate:
    """Least-squares slope of log phi vs log t over the tail of the grid.

    Tail means t -> infinity for grids above 1 and t -> 0 for grids below 1.
    The constant is the smallest making phi(t) <= C t^exponent on all samples.
    """
    ts = np.asarray(samples.arguments, dtype=float)
    vals = np.asarray(samples.values, dtype=float)
    if ts.size < 4:
        raise PreconditionError("exponent fit needs at least 4 samples")
    span = 10.0**window_decades
    if ts.min() >= 1.0:
        mask = ts >= ts.max() / span
    else:
        mask = ts <= ts.min() * span
    if mask.sum() < 4:
        order = np.argsort(ts if ts.min() < 1.0 else -ts)
        mask = np.zeros_like(mask)
        mask[order[:4]] = True
    lt, lv = np.log(ts[mask]), np.log(vals[mask])
    slope, intercept = np.polyfit(lt, lv, 1)
    residual = float(np.max(np.abs(lv - (slope * lt + intercept))))
    constant = float(np.max(vals / ts**slope))
    return IndexEstimate(
        exponent=float(slope),
        constant=constant,
        fit_window=(float(ts[mask].min()), float(ts[mask].max())),
        residual=residual,
    )


def _power_estimate(samples: SubmultiplicativeSamples, p: float) -> IndexEstimate:
    powered = SubmultiplicativeSamples(
        samples.arguments,
        tuple(v ** (1.0 / p) for v in samples.values),
        samples.direction,
        samples.budget,
    )
    return fit_upper_exponent(powered)


@dataclass(frozen=True)
class BoydEstimates:
    p: float
    alpha: IndexEstimate
    beta: IndexEstimate
    upper: SubmultiplicativeSamples
    lower: SubmultiplicativeSamples


def compute_estimates(
    u: WeightModel,
    w: WeightModel,
    p: float,
    budget: int = 1,
    seed: int = 0,
    upper_ts: Optional[Sequence[float]] = None,
    lower_ts: Optional[Sequence[float]] = None,
) -> BoydEstimates:
    if p <= 0.0:
        raise PreconditionError("p must be positive")
    upper = wbar_u_samples(u, w, upper_ts, budget=budget, seed=seed)
    lower = underline_wu_samples(u, w, lower_ts, budget=budget, seed=seed)
    return BoydEstimates(
        p=p,
        alpha=_power_estimate(upper, p),
        beta=_power_estimate(lower, p),
        upper=upper,
        lower=lower,
    )


def boyd_indices(
    u: WeightModel,
    w: WeightModel,
    p: float,
    budget: int = 1,
    seed: int = 0,
    upper_ts: Optional[Sequence[float]] = None,
    lower_ts: Optional[Sequence[float]] = None,
) -> tuple[IndexEstimate, IndexEstimate]:
    """(upper index estimate, lower index estimate) for the p-quasi-norm."""
    est = compute_estimates(u, w, p, budget, seed, upper_ts, lower_ts)
    return est.alpha, est.beta


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class VerdictRecord:
    operator: str
    verdict: str  # "bounded" | "not_bounded" | "inconclusive"
    alpha: float
    margin: float
    q: Optional[float] = None
    q_constant: Optional[float] = None
    beta: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "operator": self.operator,
            "verdict": self.verdict,
            "alpha": self.alpha,
            "margin": self.margin,
        }
        if self.q is not None:
            out["q"] = self.q
            out["q_constant"] = self.q_constant
        if self.beta is not None:
            out["beta"] = self.beta
        return out


def maximal_verdict(
    u: WeightModel, w: WeightModel, p: float, estimates: BoydEstimates
) -> VerdictRecord:
    """Boundedness verdict for the maximal operator from the upper index.

    Bounded evidence requires both the fitted index below 1 and a certified
    power bound with q < p valid on all samples; an index above 1 is decisive
    since the samples are lower bounds.
    """
    phi_fit = fit_upper_exponent(estimates.upper)
    q, c_q = phi_fit.exponent, phi_fit.constant
    alpha = estimates.alpha.exponent
    margin = max(estimates.alpha.residual, 1e-3)
    if alpha > 1.0 + margin:
        verdict = "not_bounded"
    elif alpha < 1.0 - margin and q < p:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return VerdictRecord(
        operator="M", verdict=verdict, alpha=alpha, margin=margin, q=q, q_constant=c_q
    )


@dataclass(frozen=True)
class SubmultReport:
    ok: bool
    checked: int
    max_excess: float
    violations: tuple[tuple[float, float], ...]
    asserted: bool


def check_submultiplicative(
    phi: Callable[[float], float],
    ts: Sequence[float],
    ss: Sequence[float],
    direction: str = "exact",
    tol: float = 1e-9,
) -> SubmultReport:
    """Check phi(t*s) <= phi(t) phi(s) (1 + tol) over the sampled pairs.

    For lower-bound samples the inequality is reported, never asserted: a
    violated pair just means the search at t*s found more than the product
    bound, which is consistent with lower bounds.
    """
    violations = []
    max_excess = 0.0
    checked = 0
    for t in ts:
        for s in ss:
            lhs = phi(t * s)
            rhs = phi(t) * phi(s)
            checked += 1
            excess = lhs / rhs - 1.0 if rhs > 0.0 else math.inf
            max_excess = max(max_excess, excess)
            if excess > tol:
                violations.append((t, s))
    return SubmultReport(
        ok=not violations,
        checked=checked,
        max_excess=max_excess,
        violations=tuple(violations),
        asserted=direction == "exact",
    )
