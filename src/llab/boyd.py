"""Submultiplicative index functions and generalized Boyd indices.

The two joint index functions are suprema of W(u(union I_j)) / W(u(union S_j))
ratios over finite families of disjoint intervals with subsets at a fixed
length ratio.  Suprema over all finite families are not exhaustively
computable, so the searches here return certified lower bounds (deterministic
under a fixed seed) and verdicts use them asymmetrically: a lower-bound
estimate above the boundary is decisive, one below it is evidence only.
For a power pair (u = c|x|^gamma, gamma >= 0, and w = C t^a) the supremum is
attained by one pair, which is enumerated instead of searched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, PreconditionError
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
        """W(u(union I_j)) / W(u(union S_j)) for this family, scored by
        _score: an overflow or W(u(union S_j)) = 0 raises."""
        _check_half_line(w)
        uI = sum(u.mass(I.lo, I.hi) for I, _ in self.pairs)
        uS = sum(u.weight_of_set(S) for _, S in self.pairs)
        return _score(w, uI, uS, True)[0]


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

_OCTAVE_SCALES = np.array([2.0 ** (k / 8) for k in range(-160, 161)])


def _scale_parts(w: WeightModel, u: WeightModel) -> tuple[np.ndarray, np.ndarray]:
    """(the scales of the grid that no ratio changes, sorted: 8 per octave
    over 2^-20..2^20 and b 2^(j/64) for j = -8..8 at each breakpoint b of w
    and u, where positive; those refined ones, which a ratio t adds divided by t)."""
    refined = [b * 2.0 ** (j / 64.0) for b in (*w.breakpoints, *u.breakpoints) for j in range(-8, 9)]
    refined = np.array([s for s in refined if s > 0.0])
    return np.union1d(_OCTAVE_SCALES, refined), refined


def _scale_grid(w: WeightModel, u: WeightModel, t: float) -> list[float]:
    """Geometric grid of scales for ratio t > 0, refined around the weights' breakpoints (_scale_parts)."""
    scales, refined = _scale_parts(w, u)
    return np.union1d(scales, refined / t).tolist()


def _anchors(u: WeightModel) -> list[float]:
    out = {0.0}
    for b in u.breakpoints:
        out.add(b)
        out.add(-b)
    return sorted(out)


# -- the u = 1 index function ----------------------------------------------


def wbar(w: WeightModel, t: float) -> float:
    """sup_s W(st)/W(s) over a refined geometric grid, each ratio scored by
    _score, so under the search's error rules; exact for power w."""
    if not 0.0 < t < math.inf:  # NaN fails too
        raise PreconditionError(f"wbar needs 0 < t < inf, got {t!r}")
    if t == 1.0:
        return 1.0
    _check_half_line(w)
    best = 0.0
    for s in _scale_grid(w, w, t):
        best = max(best, _score(w, s * t, s, True)[0])
    return best


# -- configuration searches ------------------------------------------------


_OVERFLOW = "a weight mass overflows the float range"
_UNDERFLOW = "the search needs W > 0 at every positive u-mass, but W underflows to 0"


def _score(w: WeightModel, uI: float, uS: float, upper: bool, WI: Optional[float] = None):
    """(W(uI)/W(uS), inverted for the lower search, and W(uI)): the score of
    every candidate family, from its masses uI = u(union I) and uS = u(union S);
    WI, when given, is W(uI).  A mass that is not positive scores 0.0 and W is
    not taken; a mass or W that is not finite, and W(uS) = 0, raise.  W skips
    `primitive`'s checks: the masses are positive, and wbar, _index_sample
    and Configuration.evaluate run _check_half_line."""
    if uS <= 0.0 or uI <= 0.0:
        return 0.0, WI
    P = w._radial_primitive
    if WI is None:
        WI = P(uI)
    WS = P(uS)
    if not (uI < math.inf and uS < math.inf and WI < math.inf and WS < math.inf):  # W >= 0, NaN fails
        raise PreconditionError(_OVERFLOW)
    if WS == 0.0:
        raise PreconditionError(_UNDERFLOW)
    v = WI / WS
    return v if upper else 1.0 / v if v > 0.0 else 0.0, WI


def _check_half_line(w: WeightModel) -> None:
    """`primitive`'s domain check, which _score skips: its callers run it once."""
    if w.domain_kind != "half_line":
        raise ConfigurationError("primitive is defined for half-line weights")


def _family_value(
    u: WeightModel, w: WeightModel, pairs: Sequence[tuple[tuple[float, float], tuple[float, float]]], upper: bool = True
) -> float:
    """The _score of the family of pairs (I, S)."""
    uI = uS = 0.0
    for (i_lo, i_hi), (s_lo, s_hi) in pairs:
        uI += u.mass(i_lo, i_hi)
        uS += u.mass(s_lo, s_hi)
    return _score(w, uI, uS, upper)[0]


_GRID_PAIRS = 1  # weight pairs whose coarse-grid tables are kept
_GRID_OFFSETS = 8192  # offsets a table holds; a full table takes no more


class _GridTable:
    """What every coarse pass of one (u, w) pair shares: the nonnegative
    anchors a of u (`rows`), _scale_parts, and columns of u-masses, one cell
    per row, for each offset x of `keys` (sorted; a centre offset negated):
    u((a, a + x)) and then u((a - x, a)) for a side offset, u((a - x, a + x))
    for a centre one, the first of them at `cols`.  Columns are appended and
    never move: cell (row r, column c) of `mass` and of `W` (W of each mass,
    NaN until a pass needs it) is at c * m + r.  The first `n_cols` columns
    are the table's; a pass writes its own after them."""

    def __init__(self, u: WeightModel, w: WeightModel) -> None:
        anchors = np.array(_anchors(u))
        self.anchors, self.rows = anchors, anchors[anchors >= 0.0]
        self.scales, self.refined = _scale_parts(w, u)
        self.keys, self.cols, self.n_cols = np.empty(0), np.empty(0, dtype=np.intp), 0
        self.mass = self.W = np.empty(0)


@functools.lru_cache(maxsize=_GRID_PAIRS)
def _grid_table(u: WeightModel, w: WeightModel) -> _GridTable:
    return _GridTable(u, w)


def _placement(a: float, small: float, ratio: float, p: int):
    """The pair (I, S) of placement p (0: S at I's left end, 1: at its right
    end, 2: centred) at anchor a with |S| = small, |I| = small * ratio."""
    big = small * ratio
    if p == 0:
        return (a, a + big), (a, a + small)
    if p == 1:
        return (a - big, a), (a - small, a)
    half = (big - small) / 2.0
    left, right = a - big / 2.0, a + big / 2.0
    return (left, right), (left + half, right - half)


@functools.lru_cache(maxsize=64)
def _coarse_pass(u: WeightModel, w: WeightModel, ratio: float):
    """((value, pair) of the upper search, (value, pair) of the lower one):
    the first best single pair (I, S) of the coarse grid at |I| = ratio |S|.
    For each anchor a of u, each scale small of the scale grid and
    big = small * ratio, in that loop order, it places I = (a, a + big)
    with S at its left end, I = (a - big, a) with S at its right end, and
    I centred on a with S centred in it.  The values are _score's bit for
    bit, and W(u(S)) = 0 at a pair with positive masses raises its error; as
    in a scan with a strict `>`, a NaN is never best and the first of equal
    maxima wins.

    The masses come from the pair's _GridTable: the pass appends the columns
    of the offsets it lacks and one per centred S ((a - big/2) + half is not
    a - small/2 in floats, so it is this ratio's own), all from one
    mass_array call, then takes W of each cell that its live pairs (both
    masses positive) need and the table lacks, once per cell, in one
    primitive_array call.  Only nonnegative anchors are computed: u on the
    line is even and negation is exact, so anchor -b's left, right and
    centred pairs have b's right, left and centred masses.  The table keeps
    the columns once the pass has succeeded, up to _GRID_OFFSETS offsets,
    so it never saves an error a pass would raise; a W, a finite value of a
    finite mass, is kept once taken.

    The upper search at t and the lower one at 1/t share the ratio, so they
    share the pass, and the pass is cached.  Weights are frozen and every
    closed form reads only their fields, so equal weights give equal passes;
    a pass that raises is not cached and raises again."""
    if u.domain_kind == "half_line":  # anchor 0's right placement starts below 0
        raise ConfigurationError("set escapes the half-line domain")
    grid = _grid_table(u, w)
    a, m, c0 = grid.rows, grid.rows.size, grid.n_cols
    small = np.union1d(grid.scales, grid.refined / ratio)
    big = small * ratio
    half, x = (big - small) / 2.0, big / 2.0
    n, wanted = small.size, np.concatenate([small, big, -x])
    found = np.append(grid.keys, np.nan)[np.searchsorted(grid.keys, wanted)] == wanted
    new = np.unique(wanted[~found])  # the offsets the table lacks, sorted
    kc = int(np.searchsorted(new, 0.0))
    d, c, k = new[kc:, None], new[:kc, None], new.size - kc  # new side offsets, new centre keys -x
    # the new columns in table order: each side offset's right and left, the centres, the centred S
    anchor = np.broadcast_to(a, (k, m))
    lo = np.concatenate([np.stack([anchor, a - d], axis=1).reshape(2 * k, m), a + c, (a - x[:, None]) + half[:, None]])
    hi = np.concatenate([np.stack([a + d, anchor], axis=1).reshape(2 * k, m), a - c, (a + x[:, None]) - half[:, None]])
    c1 = c0 + lo.shape[0]
    if grid.mass.size < c1 * m:  # room for the pass's columns, doubling, the table's own kept
        size = max(c1 * m, 2 * grid.mass.size)
        grid.mass, grid.W = (np.concatenate([b[: c0 * m], np.empty(size - c0 * m)]) for b in (grid.mass, grid.W))
    M, W = grid.mass, grid.W
    M[c0 * m : c1 * m], W[c0 * m : c1 * m] = u.mass_array(lo, hi).ravel(), np.nan
    at_new = np.searchsorted(grid.keys, new)
    keys = np.insert(grid.keys, at_new, new)
    cols = np.insert(grid.cols, at_new, np.concatenate([c0 + 2 * k + np.arange(kc), c0 + 2 * np.arange(k)]))
    at_small, at_big, at_x = cols[np.searchsorted(keys, wanted)].reshape(3, n)
    cols_I = np.stack([at_big, at_big + 1, at_x], axis=-1)
    cols_S = np.stack([at_small, at_small + 1, np.arange(c1 - n, c1)], axis=-1)
    at = np.stack([cols_I, cols_S])[:, None] * m + np.arange(m)[:, None, None]  # axes: I or S, anchor, scale, placement
    # _score's rules: W only at positive masses, and W(uS) = 0 raises; every mass here is finite
    uI, uS = M[at]
    live = (uI > 0.0) & (uS > 0.0)
    W_IS = W[at]
    todo = at[np.isnan(W_IS) & live]
    if todo.size:
        first = todo.min()  # each cell once, in table order; most are the pass's own, at the end
        marked = np.zeros(c1 * m - first, dtype=bool)
        marked[todo - first] = True
        cells = np.flatnonzero(marked) + first
        W[cells] = w.primitive_array(M[cells])
        W_IS = W[at]
    WI, WS = W_IS
    if np.any(WS[live] == 0.0):
        raise PreconditionError(_UNDERFLOW)
    v = np.zeros(live.shape)
    with np.errstate(over="ignore"):  # an overflowed ratio is inf, as in _score
        np.divide(WI, WS, out=v, where=live)
    # anchors in _anchors order: -b's placements are b's, left and right swapped
    v = np.concatenate([v[:0:-1, :, [1, 0, 2]], v])
    if keys.size <= _GRID_OFFSETS:
        grid.keys, grid.cols, grid.n_cols = keys, cols, c1 - n

    def best(scores):  # scores hold no NaN: every live pair has both W
        i, j, p = np.unravel_index(int(np.argmax(scores)), scores.shape)
        return float(scores[i, j, p]), _placement(float(grid.anchors[i]), float(small[j]), ratio, int(p))

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
    mass = u.mass

    def replicated(val: float, pair):
        """(value, pairs): the best of the pair, scored val, and its 2, 4, 8
        and 16 disjoint translates, each family scored as _family_value
        scores it, from running sums of the translates' masses in order."""
        (i_lo, i_hi), (s_lo, s_hi) = pair
        span = 2.0 * (i_hi - i_lo)
        best, pairs, uI, uS = (val, [pair]), [], 0.0, 0.0
        for j in range(16):
            I, S = (i_lo + j * span, i_hi + j * span), (s_lo + j * span, s_hi + j * span)
            pairs.append((I, S))
            uI += mass(*I)
            uS += mass(*S)
            if j in (1, 3, 7, 15) and (v := _score(w, uI, uS, upper)[0]) > best[0]:
                best = v, pairs[:]
        return best

    coarse_val, best_pair = _coarse_pass(u, w, ratio)[0 if upper else 1]
    best_val, best_pairs = replicated(coarse_val, best_pair)

    # Seeded random restarts around the best single pair, coordinate descent.
    tkey = int(round(4096.0 * math.log2(t))) & 0x7FFFFFFF
    rng = np.random.default_rng([seed & 0x7FFFFFFF, tkey, int(upper)])
    gauss, uniform = rng.standard_normal, rng.random  # rng.normal(m, s) is m + s * gauss()
    (bi_lo, bi_hi), _ = best_pair
    base_len = bi_hi - bi_lo
    for _ in range(32 * budget):
        big = base_len * math.exp(0.0 + 0.5 * gauss())
        small = big / ratio
        a = bi_lo + (0.0 + base_len * gauss())
        offset = uniform() * (big - small)
        b, c = a + big, a + offset
        d, left = c + small, None
        uI = mass(a, b)
        v, WI = _score(w, uI, mass(c, d), upper)
        step, shift = 0.25 * big, 0.25 * (big - small)
        # Local descent on anchor and offset of the pair I = (a, b), S = (c, d),
        # with uI = u(I) and WI = W(uI) or None.  A candidate equal to the pair
        # (it scores v) or to the pair it last left (it scored below v) can
        # never pass `cv > v`, and was scored without raising, so it is skipped.
        for _ in range(8):
            improved = False
            for dx in (-step, step):
                cand = na, nb, nc, nd = a + dx, b + dx, c + dx, d + dx
                if cand == (a, b, c, d) or cand == left:
                    continue
                nuI = mass(na, nb)
                cv, nWI = _score(w, nuI, mass(nc, nd), upper)
                if cv > v:
                    v, left, uI, WI, improved = cv, (a, b, c, d), nuI, nWI, True
                    a, b, c, d = cand
            off = c - a
            for doff in (-shift, shift):
                nc = a + min(max(off + doff, 0.0), big - small)
                nd = nc + small
                if (nc == c and nd == d) or left == (a, b, nc, nd):
                    continue
                cv, WI = _score(w, uI, mass(nc, nd), upper, WI)  # I stays, so u(I) does too
                if cv > v:
                    v, left, c, d, improved = cv, (a, b, c, d), nc, nd, True
            if not improved:
                break
        if v > best_val:
            best_val, best_pairs = replicated(v, ((a, b), (c, d)))

    # rounding in the offset arithmetic can push S an ulp past I; the value
    # returned is that of the clamped pairs, so the witness replays exactly
    clamped = [
        ((i_lo, i_hi), (max(s_lo, i_lo), min(s_hi, i_hi)))
        for (i_lo, i_hi), (s_lo, s_hi) in best_pairs
    ]
    value = best_val if clamped == best_pairs else _family_value(u, w, clamped, upper)
    return value, _config(clamped, ratio)


def _config(pairs, ratio: float) -> Configuration:
    return Configuration(
        pairs=tuple((Interval(*I), IntervalUnion((Interval(*S),))) for I, S in pairs), ratio=ratio
    )


# -- power pairs: exact by enumeration -------------------------------------


def _is_power_pair(u: WeightModel, w: WeightModel) -> bool:
    """u = c|x|^gamma with gamma >= 0 and w = C t^a: every row of each piece
    table has the same (coef, exp)."""
    return {*u.knots, *w.knots} <= {0.0} and u.tail_exp >= 0.0


def _line_offsets(gamma: float, r: float, upper: bool) -> list[float]:
    """The x that can place S = (x, x + 1) best in I = (x, x + r) for
    u = |x|^gamma, gamma > 0, on the line: the candidates for the sup
    (upper) or inf of g(x) = u((x, x + r)) / u((x, x + 1)).  They are the
    cuts -r, -1 and 0, where an end crosses 0, and on (-r, -1) and (-1, 0)
    every sign change of g' that makes a local maximum (upper) or minimum,
    found by a scan of g''s numerator at 17 points of each piece and
    bisected to adjacent floats.  g is monotone on x >= 0 and on x <= -r
    (checked in 40-digit mpmath for gamma in {1/4, 1/2, 1, 3/2, 2, 3, 5}
    and r in {1/0.7, 3/2, 2, 8, 64, 1024}), with limit r, which g(0)
    exceeds and g(-r) undercuts.  S at the right end of I is the mirror
    image x -> -x of S at the left end, so the left end covers both."""
    scale = 1.0 / r

    def rising(x: float) -> bool:
        """g'(x) > 0: the sign of (u(c) - u(a))(Q(b) - Q(a)) - (Q(c) - Q(a))(u(b) - u(a))
        at a = x, b = x + 1, c = x + r, where Q(y) = y u(y) is gamma + 1
        times the odd primitive of u.  It is homogeneous in (a, b, c), and
        x lies in [-r, 0], so they are scaled by 1/r: every |end| is at
        most 1, and no product overflows where r^(2 gamma + 1) would."""
        a, b, c = x * scale, (x + 1.0) * scale, (x + r) * scale
        ua, ub, uc = (-a) ** gamma, (b if b > 0.0 else -b) ** gamma, c**gamma  # a <= 0 <= c
        qa = a * ua
        return (uc - ua) * (b * ub - qa) - (c * uc - qa) * (ub - ua) > 0.0

    xs = [-r, -1.0, 0.0]
    for lo, hi in ((-r, -1.0), (-1.0, 0.0)):
        grid = [lo + (hi - lo) * k / 16 for k in range(16)] + [hi]
        signs = [rising(x) for x in grid]
        for a, b, sign, next_sign in zip(grid, grid[1:], signs, signs[1:]):
            if sign != upper or next_sign == upper:  # no extreme of the kind sought
                continue
            while a < (mid := 0.5 * (a + b)) < b:
                if rising(mid) == upper:
                    a = mid
                else:
                    b = mid
            xs += [a, b]
    return xs


def _dyadic(x) -> tuple[int, int]:
    """x as n/d, d a power of two, as Fraction(x) reads a float or an integer."""
    return x.as_integer_ratio() if isinstance(x, float) else (x.numerator, x.denominator)


def _ratio_holds(t: float, i_lo: float, i_hi: float, s_lo: float, s_hi: float, upper: bool) -> bool:
    """|I| <= t|S| (upper) or |S| <= t|I|, exact: t and the ends i_hi, i_lo,
    s_hi and s_lo, converted in that order, are integers over powers of two,
    so both lengths are integers over the ends' largest power."""
    (num, den), *ends = map(_dyadic, (t, i_hi, i_lo, s_hi, s_lo))
    scale = max(q for _, q in ends)
    a, b, c, d = (n * (scale // q) for n, q in ends)
    return (a - b) * den <= num * (c - d) if upper else (c - d) * den <= num * (a - b)


def _conservative(pair, t: float, upper: bool):
    """pair with one end moved by ulps until _ratio_holds.  The end that
    moves is I's end beyond S, or S's end inside I; a lengthened I or
    shortened S then scores no more than the exact ratio allows."""
    (i_lo, i_hi), (s_lo, s_hi) = pair
    while not _ratio_holds(t, i_lo, i_hi, s_lo, s_hi, upper):
        if upper:  # S sits at I's left end, and the ratio holds once I.hi reaches S.hi
            i_hi = math.nextafter(i_hi, -math.inf)
        elif s_lo == i_lo:
            s_hi = math.nextafter(s_hi, -math.inf)
        else:
            s_lo = math.nextafter(s_lo, math.inf)
    return (i_lo, i_hi), (s_lo, s_hi)


def _power_pair(u: WeightModel, w: WeightModel, t: float, upper: bool) -> tuple[float, Configuration]:
    """W-bar_u(t) (upper) or W-underline_u(t) for u = c|x|^gamma, gamma >= 0,
    and w = C t^a, with a one-pair witness.

    W(u(I))/W(u(S)) = (u(I)/u(S))^(a + 1), so by the mediant inequality no
    family beats its best pair; the ratio is scale invariant, so |S| = 1 or
    |I| = 1; and sliding I over a fixed S (upper) or S inside a fixed I
    (lower) is quasi-convex for gamma >= 0, so S sits at an end of I.  With
    r = |I|/|S|, gamma = 0 gives u(I)/u(S) = r for every pair, and pairs
    that start at 0 keep their masses exact.  On the half-line the best pair
    is I = (0, r) with S = (0, 1) (upper) or S = (r - 1, r) (lower), the
    latter scaled here to |I| = 1.  On the line it is I = (x, x + r),
    S = (x, x + 1) at one of _line_offsets.  _family_value scores each
    candidate once; the best is made conservative and scored again if an
    end moved, so the value replays exactly and stays a lower bound."""
    gamma = u.tail_exp
    r = t if upper else 1.0 / t
    if gamma == 0.0:
        pairs = [((0.0, t), (0.0, 1.0)) if upper else ((0.0, 1.0), (0.0, t))]
    elif u.domain_kind == "half_line":
        pairs = [((0.0, t), (0.0, 1.0)) if upper else ((0.0, 1.0), (1.0 - t, 1.0))]
    else:
        pairs = [((x, x + r), (x, x + 1.0)) for x in _line_offsets(gamma, r, upper)]
    value, best = max(((_family_value(u, w, [c], upper), c) for c in pairs), key=lambda vc: vc[0])
    pair = _conservative(best, t, upper)
    return value if pair == best else _family_value(u, w, [pair], upper), _config([pair], r)


def _index_sample(u: WeightModel, w: WeightModel, t: float, upper: bool, budget: int, seed: int):
    """wbar_u (upper) or underline_wu at a checked t: 1.0 and the trivial
    witness at t = 1, else the power pair's enumeration or the search.  A
    power that overflows (Python's `**` or libm raises) is a violated
    precondition."""
    if t == 1.0:
        return 1.0, _config([((0.0, 1.0), (0.0, 1.0))], 1.0)
    _check_half_line(w)
    try:
        if _is_power_pair(u, w):
            return _power_pair(u, w, t, upper)
        return _search(u, w, t, upper, budget, seed)
    except OverflowError:
        raise PreconditionError(_OVERFLOW) from None


def wbar_u(
    u: WeightModel, w: WeightModel, t: float, budget: int = 1, seed: int = 0
) -> tuple[float, Configuration]:
    """Best W(u(union I))/W(u(union S)) found with |I_j| = t |S_j|.

    A certified lower bound of the supremum; deterministic under the seed.
    """
    if not 1.0 <= t < math.inf:  # NaN fails too
        raise PreconditionError(f"wbar_u needs 1 <= t < inf, got {t!r}")
    return _index_sample(u, w, t, True, budget, seed)


def underline_wu(
    u: WeightModel, w: WeightModel, t: float, budget: int = 1, seed: int = 0
) -> tuple[float, Configuration]:
    """Best W(u(union S))/W(u(union I)) found with |S_j| = t |I_j|, t in (0, 1]."""
    if not 0.0 < t <= 1.0:
        raise PreconditionError("underline_wu needs t in (0, 1]")
    return _index_sample(u, w, t, False, budget, seed)


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
    if not 0.0 < p < math.inf:  # NaN fails too
        raise PreconditionError(f"p must be positive and finite, got {p!r}")
    upper = wbar_u_samples(u, w, budget=budget, seed=seed)
    lower = underline_wu_samples(u, w, budget=budget, seed=seed)
    return BoydEstimates(
        p=p,
        alpha=_power_estimate(upper, p),
        beta=_power_estimate(lower, p),
        upper=upper,
        lower=lower,
    )


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class VerdictRecord:
    operator: str
    verdict: str  # "bounded" | "not_bounded" | "inconclusive"
    alpha: float
    margin: float

    def as_dict(self) -> dict:
        return asdict(self)


def maximal_verdict(
    u: WeightModel, w: WeightModel, p: float, estimates: BoydEstimates
) -> VerdictRecord:
    """Boundedness verdict for the maximal operator from the upper index alpha.

    The margin is max(fit residual, 1e-3): alpha below 1 by the margin is
    bounded, and alpha above 1 by it is decisive, since the samples are lower
    bounds; anything between is inconclusive.  Only the estimates are read;
    u, w and p are taken so that the call matches hilbert_verdict's.
    """
    alpha = estimates.alpha.exponent
    margin = max(estimates.alpha.residual, 1e-3)
    if alpha > 1.0 + margin:
        verdict = "not_bounded"
    elif alpha < 1.0 - margin:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return VerdictRecord(operator="M", verdict=verdict, alpha=alpha, margin=margin)
