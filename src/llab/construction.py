"""Covering construction, extremal test functions, and weak-type certificates.

The extremal function for a union of intervals S inside an interval I is
defined through its level sets: every superlevel set {f >= lam} is a disjoint
union of intervals each meeting S in exact proportion lam.  It is represented
here as a flat tuple of layers.  Layer 0 holds one interpolation leaf per
component of S and the level lam0 at which two of their level intervals
first touch; the merged blocks at lam0 are the set of the next layer, which
answers for the levels below lam0 scaled by 1/lam0.  The last layer has the
single block I.  All queries (evaluation, level sets, integrals) are
answered exactly from the layers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence

from numpy.polynomial.legendre import leggauss

from .boyd import Configuration
from .errors import PreconditionError
from .intervals import Interval, IntervalUnion, normalize, union
from .weights import WeightModel


# -- covering construction --------------------------------------------------


def cover(I: Interval, S: IntervalUnion, t: float) -> list[Interval]:
    """Disjoint intervals I_n covering S inside I with t |S ∩ I_n| = |I_n|."""
    if not S:
        raise PreconditionError("cover needs a nonempty set")
    if not all(I.lo <= p.lo and p.hi <= I.hi for p in S):
        raise PreconditionError("cover needs S within I")
    limit = I.length / S.measure
    if not 1.0 - 1e-12 <= t <= limit * (1.0 + 1e-12):  # NaN fails too
        raise PreconditionError(f"cover needs t in [1, |I|/|S|], got {t}")
    t = min(max(t, 1.0), limit)
    out: list[Interval] = []
    comps = list(S.parts)
    while comps:
        total = sum(c.length for c in comps)
        a1 = comps[0].lo
        if I.hi - t * total <= a1:
            out.append(Interval(I.hi - t * total, I.hi))
            break
        # next block: walk the gaps after a1 for the root of t|S ∩ (a1, c)| = c - a1;
        # a root numerically pinned at the far end takes all the components left
        cum = 0.0
        for split, comp in enumerate(comps, 1):
            cum += comp.length
            cpos = a1 + t * cum
            if comp.hi <= cpos <= (comps[split].lo if split < len(comps) else I.hi):
                break
        out.append(Interval(a1, cpos))
        comps = [c for c in comps[split:] if c.hi > cpos]
        if comps and comps[0].lo < cpos:
            comps[0] = Interval(cpos, comps[0].hi)
    return out


# -- extremal functions -----------------------------------------------------


@dataclass(frozen=True)
class _Leaf:
    """Single component (b, c) inside I = (a, d); level interval at lam is
    obtained by splitting the two side gaps in equal proportion."""

    a: float
    b: float
    c: float
    d: float

    @property
    def s_len(self) -> float:
        return self.c - self.b

    @property
    def i_len(self) -> float:
        return self.d - self.a

    def level_interval(self, lam: float) -> tuple[float, float]:
        if lam >= 1.0:
            return self.b, self.c
        gap = self.i_len - self.s_len
        theta = (self.s_len / lam - self.s_len) / gap
        theta = min(max(theta, 0.0), 1.0)
        return self.b - theta * (self.b - self.a), self.c + theta * (self.d - self.c)

    def value_at(self, x: float) -> float:
        if self.b <= x <= self.c:
            return 1.0
        if x < self.a or x > self.d:
            return 0.0
        if x < self.b:
            theta = (self.b - x) / (self.b - self.a)
        else:
            theta = (x - self.c) / (self.d - self.c)
        gap = self.i_len - self.s_len
        return self.s_len / (theta * gap + self.s_len)


# One layer: (floor, leaves, lam0, blocks).  floor is |set|/|I| for the
# layer's set; the leaves answer for the levels in [lam0, 1] and the blocks
# are their level intervals merged at lam0.  The last layer has lam0 = floor
# and blocks = (I,); a set that fills I is a last layer with no leaves and
# floor 1.
Layer = tuple[float, tuple[_Leaf, ...], float, tuple[Interval, ...]]


@dataclass(frozen=True)
class ExtremalFunction:
    """The level-set-proportional function for S inside I.  Use
    :func:`build_extremal`."""

    base_interval: Interval
    layers: tuple[Layer, ...]

    @property
    def floor(self) -> float:
        """|S|/|I|, the least value of f on I."""
        return self.layers[0][0]

    # -- queries ------------------------------------------------------------

    def level_set(self, lam: float) -> IntervalUnion:
        """{x : f(x) >= lam} as a disjoint union of intervals."""
        if not lam <= 1.0:
            if lam > 1.0:
                return normalize([])
            raise PreconditionError(f"level_set needs a level, got lam = {lam!r}")
        for floor, leaves, lam0, _ in self.layers:
            if lam <= floor:
                return IntervalUnion((self.base_interval,))
            if not lam < lam0:  # the last layer, with lam0 = floor, answers every level
                return normalize([leaf.level_interval(lam) for leaf in leaves])
            lam /= lam0

    def evaluate(self, x: float) -> float:
        I = self.base_interval
        if not I.lo <= x <= I.hi:
            if x != x:
                raise PreconditionError(f"evaluate needs a point, got x = {x!r}")
            return 0.0
        outer = []  # the layers x is not in a block of, each giving max(floor, lam0 v) on the way out
        for floor, leaves, lam0, blocks in self.layers:
            if x == I.lo or x == I.hi or any(block.lo <= x <= block.hi for block in blocks):
                break
            outer.append((floor, lam0))
        value = max([floor, *(leaf.value_at(x) for leaf in leaves)])
        for floor, lam0 in reversed(outer):
            value = max(floor, lam0 * value)
        return value

    def kinks(self, knots: Sequence[float]) -> list[float]:
        """The levels at which u({f >= lam}) may fail to be smooth, for a u
        smooth between the given knots: per layer the floor, the touching
        level lam0 with the kinks of the next layer scaled down by it, and
        the levels above lam0 at which a leaf's level interval crosses a
        knot x in one of its side gaps, which is the leaf's value at x."""
        out: list[float] = []
        for floor, leaves, lam0, _ in reversed(self.layers):
            if leaves:  # a set that fills I has none
                sides = [
                    leaf.value_at(x) for leaf in leaves for x in knots if leaf.a < x < leaf.b or leaf.c < x < leaf.d
                ]
                out = [floor, lam0, *(lam for lam in sides if lam >= lam0), *(lam0 * lam for lam in out)]
        return out

    def mean_value(self) -> float:
        """Mean of f over I: (1 + log s)/s with s = |I|/|S|, from the exact
        distribution |{f >= lam}| = |S|/lam on [floor, 1]."""
        return self.floor * (1.0 + math.log(1.0 / self.floor))


def build_extremal(I: Interval, S: IntervalUnion) -> ExtremalFunction:
    """Construct the extremal function for S = union of intervals inside I."""
    if not S:
        raise PreconditionError("extremal function needs a nonempty set")
    layers: list[Layer] = []
    while True:
        if not all(I.lo <= p.lo and p.hi <= I.hi for p in S):
            raise PreconditionError("extremal function needs S within I")
        floor = S.measure / I.length
        if not floor > 0.0:
            raise PreconditionError(f"extremal function needs |S|/|I| > 0, got {S.measure!r}/{I.length!r}")
        if S.measure >= I.length * (1.0 - 1e-15):
            layers.append((1.0, (), 1.0, (I,)))
            break
        leaves = tuple(_Leaf(I.lo, c.lo, c.hi, I.hi) for c in S.parts)
        # lam0: largest level at which two adjacent per-component intervals touch.
        lam0 = floor
        for left, right in zip(leaves, leaves[1:]):
            gap = right.b - left.c
            P = (left.d - left.c) * left.s_len / (left.i_len - left.s_len)
            Q = (right.b - right.a) * right.s_len / (right.i_len - right.s_len)
            if not P + Q > 0.0:  # products of two lengths underflow below about 1e-154
                raise PreconditionError(f"extremal construction underflows at |I| = {I.length!r}")
            xi = 1.0 + gap / (P + Q)
            lam0 = max(lam0, 1.0 / xi)
        if lam0 <= floor * (1.0 + 1e-12):
            # one component, or per-component intervals that only meet when they fill I
            layers.append((floor, leaves, floor, (I,)))
            break
        merged: list[tuple[float, float]] = []
        tol = 1e-12 * I.length
        for lo, hi in (leaf.level_interval(lam0) for leaf in leaves):
            if merged and lo <= merged[-1][1] + tol:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        if len(merged) >= len(leaves):
            # force the closest pair together: lam0 is a touching level
            gaps = [merged[i + 1][0] - merged[i][1] for i in range(len(merged) - 1)]
            i = gaps.index(min(gaps))
            merged[i] = (merged[i][0], merged[i + 1][1])
            del merged[i + 1]
        blocks = tuple(Interval(lo, hi) for lo, hi in merged)
        layers.append((floor, leaves, lam0, blocks))
        S = IntervalUnion(blocks)
    return ExtremalFunction(I, tuple(layers))


class ExtremalSum:
    """Sum of extremal functions with pairwise disjoint base intervals."""

    def __init__(self, summands: Sequence[ExtremalFunction]):
        ordered = sorted(summands, key=lambda F: F.base_interval.lo)
        for a, b in zip(ordered, ordered[1:]):
            if a.base_interval.hi > b.base_interval.lo:
                raise PreconditionError("extremal summands must have disjoint supports")
        self.summands = tuple(ordered)

    def level_set(self, lam: float) -> IntervalUnion:
        return union(*(F.level_set(lam) for F in self.summands))

    def evaluate(self, x: float) -> float:
        return sum(F.evaluate(x) for F in self.summands)

    def level_mass(self, u: WeightModel, lam: float) -> float:
        """u({sum >= lam}), summed over the summands' level sets."""
        return sum(u.weight_of_set(F.level_set(lam)) for F in self.summands)


# -- weak-type certificate --------------------------------------------------


_GL_ORDERS = (8, 16)  # the order-16 sum is the value, |Q8 - Q16| its error
_GL_RTOL = 1e-14  # a piece is halved while its error exceeds this share of the total
_GL_DEPTH = 40  # at most this many halvings of one piece
_GL_HALVINGS = 200  # and of all pieces together
_ROUNDING = 2.0**-44  # rounding allowance, relative to the absolute node sum


@cache
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss–Legendre rule on [-1, 1]."""
    nodes, weights = leggauss(n)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def layer_cake(
    p: float,
    mass_at_level: Callable[[float], float],
    kinks: Iterable[float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """(value, error) of the layer-cake integral of p lam^(p-1)
    mass_at_level(lam) over (lo, hi), 0 < lo < hi, for a mass_at_level that
    is smooth between the kinks.

    The cuts are lo, hi and the kinks between them; a kink within 2^-50
    relative of the cut before it or of hi is dropped, as the sliver it
    would make is inside the rounding allowance.  Each piece is integrated
    in t = log lam, where a power-law mass gives an exponential, by
    Gauss–Legendre of orders 8 and 16.  The piece of largest |Q8 - Q16| is
    halved while that error exceeds 1e-14 of the running total, which
    grades the mesh toward a singular end; a piece is halved at most 40
    times and all pieces at most 200 times, so a noisy integrand costs a
    bounded number of calls and shows in the error.  The value is the sum
    of the order-16 sums of the pieces; the error is the sum of their
    |Q8 - Q16| plus 2^-44 of their absolute node sums, for the rounding of
    the nodes, the integrand and the sums (each taken with math.fsum)."""
    cuts = [lo]
    for k in sorted(kinks):
        if cuts[-1] * (1.0 + 2.0**-50) < k < hi * (1.0 - 2.0**-50):
            cuts.append(k)
    cuts.append(hi)
    logs = [math.log(c) for c in cuts]

    def piece(a: float, b: float, depth: int) -> tuple:
        """(-|Q8 - Q16|, a, b, depth, Q16, absolute node sum) on (a, b) in log lam."""
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        sums = []
        for n in _GL_ORDERS:
            nodes, weights = _gauss_legendre(n)
            terms = []
            for x, wt in zip(nodes, weights):
                lam = math.exp(mid + half * x)
                terms.append(wt * half * p * lam**p * mass_at_level(lam))
            sums.append(terms)
        q_low, q_high = math.fsum(sums[0]), math.fsum(sums[1])
        return -abs(q_low - q_high), a, b, depth, q_high, math.fsum(map(abs, sums[1]))

    heap = [piece(a, b, 0) for a, b in zip(logs, logs[1:])]
    heapq.heapify(heap)  # the largest error first; ties go to the lower end
    total, done = math.fsum(q for *_, q, _ in heap), []
    for _ in range(_GL_HALVINGS):
        while heap and heap[0][3] == _GL_DEPTH:
            done.append(heapq.heappop(heap))
        if not heap or -heap[0][0] <= _GL_RTOL * abs(total):
            break
        _, a, b, depth, q, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for child in (piece(a, mid, depth + 1), piece(mid, b, depth + 1)):
            total += child[4]
            heapq.heappush(heap, child)
        total -= q
    pieces = sorted(done + heap, key=lambda piece: piece[1])
    value = math.fsum(q for *_, q, _ in pieces)
    error = math.fsum(-neg_err for neg_err, *_ in pieces) + _ROUNDING * math.fsum(size for *_, size in pieces)
    return value, error


def _level_kinks(u: WeightModel, w: WeightModel, total: ExtremalSum, lo: float, hi: float) -> list[float]:
    """The levels in (lo, hi) at which W(u({F >= lam})) may fail to be smooth:
    (a) each summand's floor, and where u is not constant on its interval
    the touching levels and (b) the levels at which a level interval
    crosses a knot of u; (c) the levels at which the total u-mass, which
    decreases in lam, crosses a knot of w, each found by bisection down to
    adjacent floats."""
    levels = []
    for F in total.summands:
        I = F.base_interval
        levels += [F.floor] if u.is_constant_on(I.lo, I.hi) else F.kinks(u.knots)
    if not w.knots:
        return levels
    top, bottom = total.level_mass(u, hi), total.level_mass(u, lo)
    for t in w.knots:
        if not top < t < bottom:
            continue
        a, b = lo, hi  # mass(a) > t >= mass(b)
        mid = a + 0.5 * (b - a)
        while a < mid < b:
            if total.level_mass(u, mid) > t:
                a = mid
            else:
                b = mid
            mid = a + 0.5 * (b - a)
        levels.append(b)
    return levels


def extremal_norm_p_and_error(
    u: WeightModel, w: WeightModel, p: float, total: ExtremalSum, s: float
) -> tuple[float, float]:
    """(value, error) of the p-th power of the Lorentz quasi-norm of the
    summed extremal function, by the layer-cake form: the flat part below
    1/s in closed form, the level-set integral over (1/s, 1) by
    :func:`layer_cake`, cut at the kinks of :func:`_level_kinks`."""
    sup_mass = sum(u.mass(F.base_interval.lo, F.base_interval.hi) for F in total.summands)
    flat = s**-p * w.primitive(sup_mass)
    lo = 1.0 / s
    middle, error = layer_cake(
        p, lambda lam: w.primitive(total.level_mass(u, lam)), _level_kinks(u, w, total, lo, 1.0), lo, 1.0
    )
    return flat + middle, error + _ROUNDING * flat


@dataclass(frozen=True)
class WeakTypeCertificate:
    p: float
    s: float
    family: Configuration
    threshold: float
    test_norm: float
    quadrature_error: float  # absolute error bound on test_norm^p
    superset_mass: float
    lower_bound: float  # from the upper end (test_norm^p + quadrature_error)^(1/p)
    log_bound_constant: float  # test_norm^p / ((1 + log s) W(u(union S)))

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "threshold": self.threshold,
            "test_norm": self.test_norm,
            "quadrature_error": self.quadrature_error,
            "superset_mass": self.superset_mass,
            "lower_bound": self.lower_bound,
            "log_bound_constant": self.log_bound_constant,
            "pairs": [
                {"I": [I.lo, I.hi], "S": [[c.lo, c.hi] for c in S.parts]}
                for I, S in self.family.pairs
            ],
        }


def weak_type_lower_bound(
    u: WeightModel, w: WeightModel, p: float, family: Configuration
) -> WeakTypeCertificate:
    """Operator-norm lower bound for the weak-type maximal inequality.

    The mean of each summand over its interval is (1 + log s)/s, so the whole
    union of the I_j sits inside {Mf > (1 + log s)/(2s)}; comparing the weak
    norm of that superlevel set with the test-function norm gives the bound,
    taken at the upper end of the test norm's quadrature bracket.
    """
    s = family.ratio
    if s <= 1.0:
        raise PreconditionError("certificate needs ratio s > 1")
    if not 1.0 < p < math.inf:  # NaN fails too
        raise PreconditionError(f"certificate machinery targets p > 1 and finite, got {p!r}")
    summands = [build_extremal(I, S) for I, S in family.pairs]
    total = ExtremalSum(summands)
    norm_p, error = extremal_norm_p_and_error(u, w, p, total, s)
    test_norm = norm_p ** (1.0 / p)
    threshold = (1.0 + math.log(s)) / (2.0 * s)
    superset_mass = w.primitive(sum(u.mass(I.lo, I.hi) for I, _ in family.pairs))
    subset_mass = w.primitive(sum(u.weight_of_set(S) for _, S in family.pairs))
    if not subset_mass > 0.0:
        raise PreconditionError(f"certificate needs W(u(S)) > 0, got {subset_mass!r}")
    if not norm_p + error > 0.0:  # f >= 1 on S, so only an underflow gives 0
        raise PreconditionError(f"test-function norm underflows to {norm_p!r} at p = {p!r}")
    lower_bound = superset_mass ** (1.0 / p) * threshold / (norm_p + error) ** (1.0 / p)
    return WeakTypeCertificate(
        p=p,
        s=s,
        family=family,
        threshold=threshold,
        test_norm=test_norm,
        quadrature_error=error,
        superset_mass=superset_mass,
        lower_bound=lower_bound,
        log_bound_constant=test_norm**p / ((1.0 + math.log(s)) * subset_mass),
    )


def wbar_u_bound_from_weak(C_weak: float, p: float, s: float) -> float:
    """Upper bound on the joint index function at s implied by a weak-type
    operator norm C_weak, with the constants of the proof chain tracked
    explicitly: W(u(union I)) <= C^p (2s/(1+log s))^p ||f||^p and
    ||f||^p <= (1 + log s) W(u(union S))."""
    if C_weak <= 0.0 or s <= 1.0:
        raise PreconditionError("bound needs C_weak > 0 and s > 1")
    return C_weak**p * 2.0**p * (1.0 + math.log(s)) ** (1.0 - p) * s**p
