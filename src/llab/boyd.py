"""Submultiplicative index functions and generalized Boyd indices.

The two joint index functions are suprema of W(u(union I_j)) / W(u(union S_j))
ratios over finite families of disjoint intervals with subsets at a fixed
length ratio.  Suprema over all finite families are not exhaustively
computable, so the searches here return certified lower bounds (deterministic
under a fixed seed) and verdicts use them asymmetrically: a lower-bound
estimate above the boundary is decisive, one below it is evidence only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .intervals import Interval, IntervalUnion
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
            if not all(I.lo <= p.lo and p.hi <= I.hi for p in S):
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
    residual: float


# -- grids and anchors ------------------------------------------------------

_OCTAVE_SCALES = frozenset(2.0 ** (k / 8) for k in range(-160, 161))


def _scale_grid(w: WeightModel, u: Optional[WeightModel], t: float) -> list[float]:
    """Geometric grid of scales, 8 per octave over 2^-20..2^20, refined around the weights' breakpoints."""
    scales = set(_OCTAVE_SCALES)
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
    if not 0.0 < t < math.inf:  # NaN fails too
        raise PreconditionError(f"wbar needs 0 < t < inf, got {t!r}")
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


@functools.lru_cache(maxsize=64)
def _coarse_pass(u: WeightModel, w: WeightModel, ratio: float):
    """((value, pair) of the upper search, (value, pair) of the lower one):
    the first best single pair (I, S) of the coarse grid at |I| = ratio |S|,
    scored in one array pass.  For each anchor a of u, each scale small of
    the scale grid and big = small * ratio, in that loop order, it places
    I = (a, a + big) with S at its left end, I = (a - big, a) with S at its
    right end, and I centred on a with S centred in it.  The values are
    _family_value's bit for bit (inverted for the lower search); as in a
    scan with a strict `>`, a NaN is never best and the first of equal
    maxima wins.

    The upper search at t and the lower one at 1/t share the ratio, so they
    share the pass, and the pass is cached.  Weights are frozen and every
    closed form reads only their fields, so equal weights give equal passes;
    a pass that raises is not cached and raises again."""
    a = np.array(_anchors(u))[:, None]
    small = np.array(_scale_grid(w, u, ratio))
    big = small * ratio
    half = (big - small) / 2.0
    left, right = a - big / 2.0, a + big / 2.0

    def stacked(*cols):
        return np.stack(np.broadcast_arrays(*cols), axis=-1).ravel()

    i_lo, i_hi = stacked(a, a - big, left), stacked(a + big, a, right)
    s_lo, s_hi = stacked(a, a - small, left + half), stacked(a + small, a, right - half)
    # one kernel pass for u over the ends of every I and S, one for W over
    # every u(I) and u(S): the grid shares most radii, each is evaluated once
    uI, uS = u.mass_array(np.stack([i_lo, s_lo]), np.stack([i_hi, s_hi]))
    # _family_value's test, which a NaN mass passes; the others are scored
    # at 1.0 and then zeroed, so that no 0/0 is computed
    live = ~((uS <= 0.0) | (uI <= 0.0))
    WI, WS = w.primitive_array(np.where(live, np.stack([uI, uS]), 1.0))
    if np.any(WS == 0.0):  # _family_value would divide by zero
        raise PreconditionError("the search needs W > 0 at every positive u-mass, but W underflows to 0")
    with np.errstate(over="ignore"):  # an overflowed ratio is inf, as in _family_value
        v = np.where(live, WI / WS, 0.0)

    def best(scores):
        k = int(np.nanargmax(scores))
        return float(scores[k]), ((float(i_lo[k]), float(i_hi[k])), (float(s_lo[k]), float(s_hi[k])))

    return best(v), best(np.divide(1.0, v, out=np.zeros_like(v), where=v > 0.0))


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

    def one(I, S, known=None):
        """(value([(I, S)]) bit for bit, (u(I), W(u(I)) or None)).  known, when
        given, is that second item from a pair with the same I and saves its
        kernel calls; as in _family_value, W(u(I)) is taken only when both
        masses are positive."""
        uI, WI = known if known is not None else (u.mass(*I), None)
        uS = u.mass(*S)
        if uS <= 0.0 or uI <= 0.0:
            return 0.0, (uI, WI)
        if WI is None:
            WI = w.primitive(uI)
        v = WI / w.primitive(uS)
        return v if upper else 1.0 / v if v > 0.0 else 0.0, (uI, WI)

    def replicated(val: float, pair):
        """(value, pairs): the best of the pair, scored val, and its 2, 4, 8
        and 16 disjoint translates."""
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

    coarse_val, best_pair = _coarse_pass(u, w, ratio)[0 if upper else 1]
    best_val, best_pairs = replicated(coarse_val, best_pair)

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
        v, known = one(*pair)
        for _ in range(8):  # local descent on anchor and offset
            improved = False
            for dx in (-0.25 * big, 0.25 * big):
                cand = ((pair[0][0] + dx, pair[0][1] + dx), (pair[1][0] + dx, pair[1][1] + dx))
                cv, cknown = one(*cand)
                if cv > v:
                    v, pair, known, improved = cv, cand, cknown, True
            i_lo = pair[0][0]
            off = pair[1][0] - i_lo
            for doff in (-0.25 * (big - small), 0.25 * (big - small)):
                noff = min(max(off + doff, 0.0), big - small)
                cand = (pair[0], (i_lo + noff, i_lo + noff + small))
                cv, known = one(*cand, known)  # I stays, so u(I) does too
                if cv > v:
                    v, pair, improved = cv, cand, True
            if not improved:
                break
        if v > best_val:
            best_val, best_pairs = replicated(v, pair)

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
        ratio=ratio,
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
    if not 1.0 <= t < math.inf:  # NaN fails too
        raise PreconditionError(f"wbar_u needs 1 <= t < inf, got {t!r}")
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


def _samples(search, ts, u, w, budget, seed) -> SubmultiplicativeSamples:
    """The monotonized values of one search over the grid ts."""
    vals = [search(u, w, t, budget=budget, seed=seed)[0] for t in ts]
    return SubmultiplicativeSamples(ts, tuple(_monotonize(vals)), "lower_bound", budget)


def wbar_u_samples(
    u: WeightModel, w: WeightModel, budget: int = 1, seed: int = 0
) -> SubmultiplicativeSamples:
    return _samples(wbar_u, default_upper_grid(), u, w, budget, seed)


def underline_wu_samples(
    u: WeightModel, w: WeightModel, budget: int = 1, seed: int = 0
) -> SubmultiplicativeSamples:
    return _samples(underline_wu, default_lower_grid(), u, w, budget, seed)


def exact_samples(phi: Callable[[float], float], ts: Sequence[float]) -> SubmultiplicativeSamples:
    ts = tuple(sorted(ts))
    return SubmultiplicativeSamples(ts, tuple(phi(t) for t in ts), "exact")


# -- exponent fits ----------------------------------------------------------


def fit_upper_exponent(samples: SubmultiplicativeSamples) -> IndexEstimate:
    """Least-squares slope of log phi vs log t over the tail of the grid.

    Tail means t -> infinity for grids above 1 and t -> 0 for grids below 1.
    The constant is the smallest making phi(t) <= C t^exponent on all samples.
    """
    ts = np.asarray(samples.arguments, dtype=float)
    vals = np.asarray(samples.values, dtype=float)
    if ts.size < 4:
        raise PreconditionError("exponent fit needs at least 4 samples")
    if not np.all((vals > 0.0) & (vals < math.inf)):  # 1/p-th powers overflow or underflow for a tiny p
        raise PreconditionError("exponent fit needs finite positive samples")
    span = 1e4  # the tail is the last four decades of the grid, or its last 4 samples
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
) -> BoydEstimates:
    if not p > 0.0:
        raise PreconditionError("p must be positive")
    upper = wbar_u_samples(u, w, budget=budget, seed=seed)
    lower = underline_wu_samples(u, w, budget=budget, seed=seed)
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
) -> tuple[IndexEstimate, IndexEstimate]:
    """(upper index estimate, lower index estimate) for the p-quasi-norm."""
    est = compute_estimates(u, w, p, budget, seed)
    return est.alpha, est.beta


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class VerdictRecord:
    operator: str
    verdict: str  # "bounded" | "not_bounded" | "inconclusive"
    alpha: float
    margin: float
    q: float  # exponent of the certified power bound phi(t) <= q_constant t^q
    q_constant: float

    def as_dict(self) -> dict:
        return asdict(self)


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
