"""Piecewise-power weights, their primitives, and weight-class certifications.

A weight is c * t^e on each segment of a partition of (0, T], continued past
the last breakpoint by a single power tail.  Weights on the whole line are
taken even: the segment description applies to |x|.  Every integral used by
the class checkers (doubling, B_p, B*_inf, averages) then has a closed form.

Each class checker reports the best constant over a probe grid, a lower
bound of the class constant, with its witness probe.  `holds` is exact: with
positive coefficients a weight is bounded above and below on every compact
set away from 0, so the exps of the first and the tail rows of its piece
table, γ0 and γ∞, decide each class (see each checker).
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .intervals import IntervalUnion


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float
    coef: float
    exp: float


def _power_int(coef: float, exp: float, a: float, b: float) -> float:
    """Integral of coef * t^exp over (a, b), 0 <= a <= b."""
    if b <= a:
        return 0.0
    if exp == -1.0:
        if a <= 0.0:
            return math.inf
        return coef * math.log(b / a)
    e1 = exp + 1.0
    lo = 0.0 if a == 0.0 else a**e1
    if a == 0.0 and e1 < 0.0:
        return math.inf
    return coef * (b**e1 - lo) / e1


def _finite(masses: np.ndarray) -> np.ndarray:
    """masses, unless one overflowed the float range: every caller of the
    array path divides or scores them, so that is a violated precondition."""
    if not np.all(np.isfinite(masses)):
        raise PreconditionError("a weight mass overflows the float range")
    return masses


def _log(x: np.ndarray) -> np.ndarray:
    """math.log per element of the 1-d float array x, bit for bit: numpy's
    float64 log calls the C library's log per element on a reversed view,
    not its SIMD kernel, which is an ulp off on about 1 % of inputs in
    (1, 1.001).  Raises math.log's error where an element is <= 0."""
    a = np.ascontiguousarray(x, dtype=float)
    if (a <= 0.0).any():
        raise ValueError("math domain error")
    return np.log(a[::-1])[::-1]


def _log1p(x: np.ndarray) -> np.ndarray:
    """math.log1p per element of the 1-d float array x, bit for bit, read
    as _log reads log: on a reversed view, past numpy's SIMD kernel.  Raises
    math.log1p's error where an element is <= -1."""
    a = np.ascontiguousarray(x, dtype=float)
    if (a <= -1.0).any():
        raise ValueError("math domain error")
    return np.log1p(a[::-1])[::-1]


def _pow(x, y) -> np.ndarray:
    """math.pow per element of x and y broadcast, bit for bit: the float64
    loop of np.float_power calls libm's pow, unlike np.power's.  Raises what
    math.pow raises at the first element, in C order, where it would: a
    finite x and y whose power is NaN or is infinite at x = 0 (a domain
    error), or infinite elsewhere (a range error)."""
    with np.errstate(all="ignore"):
        z = np.float_power(x, y)
    if not np.isfinite(z).all():
        x, y = np.broadcast_arrays(x, y)
        bad = np.flatnonzero(~np.isfinite(z) & np.isfinite(x) & np.isfinite(y))
        if bad.size:
            i = bad[0]
            if np.isnan(z.flat[i]) or x.flat[i] == 0.0:
                raise ValueError("math domain error")
            raise OverflowError("math range error")
    return z


@dataclass(frozen=True)
class WeightModel:
    segments: tuple[Segment, ...]
    domain_kind: str = "half_line"  # "half_line" | "line"
    tail_coef: float = 1.0
    tail_exp: float = 0.0

    def __post_init__(self) -> None:
        if self.domain_kind not in ("half_line", "line"):
            raise ConfigurationError(f"unknown domain kind {self.domain_kind!r}")
        numbers = [self.tail_coef, self.tail_exp]
        numbers += [x for seg in self.segments for x in (seg.lo, seg.hi, seg.coef, seg.exp)]
        if not all(math.isfinite(x) for x in numbers):
            raise ConfigurationError("weight parameters must be finite numbers")
        if not self.segments:
            raise ConfigurationError("weight needs at least one segment")
        prev = 0.0
        for seg in self.segments:
            if seg.lo != prev:
                raise ConfigurationError("segments must abut, starting at 0")
            if not seg.lo < seg.hi:
                raise ConfigurationError("segment needs lo < hi")
            if seg.coef <= 0.0:
                raise ConfigurationError("segment coefficient must be positive")
            if seg.lo == 0.0 and seg.exp <= -1.0:
                raise ConfigurationError(
                    "segment touching 0 needs exponent > -1 for integrability"
                )
            prev = seg.hi
        if self.tail_coef <= 0.0:
            raise ConfigurationError("tail coefficient must be positive")

    def __getstate__(self) -> dict:
        """The instance dict without the bound kernels, which are local
        functions, so pickle and deepcopy work; they are rebuilt on use."""
        return {k: v for k, v in vars(self).items() if k not in ("_radial_primitive", "mass")}

    # -- basic structure ---------------------------------------------------

    @property
    def top(self) -> float:
        return self.segments[-1].hi

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(seg.hi for seg in self.segments)

    @cached_property
    def _pieces(self) -> tuple[tuple[float, float, float, float, float, float], ...]:
        """(lo, coef, exp, e1 = exp + 1, lo^e1, W(lo)) per segment, then one row
        for the tail: the only place any closed form of the weight reads its
        parameters from.  lo^e1 is Python's `**`, and 0 at lo = 0."""
        rows, acc = [], 0.0
        for seg in self.segments:
            e1 = seg.exp + 1.0
            lo_pow = 0.0 if seg.lo == 0.0 else seg.lo**e1
            mass = _power_int(seg.coef, seg.exp, seg.lo, seg.hi)
            acc += mass
            # W(lo) as W(hi) - mass, not the running sum before the segment:
            # the two differ by an ulp on multi-segment weights, and seeded
            # searches break near-ties on such ulps.
            rows.append((seg.lo, seg.coef, seg.exp, e1, lo_pow, acc - mass))
        e1 = self.tail_exp + 1.0
        rows.append((self.top, self.tail_coef, self.tail_exp, e1, self.top**e1, acc))
        return tuple(rows)

    @cached_property
    def knots(self) -> tuple[float, ...]:
        """The points of the domain, in increasing order, at which the weight
        is not smooth: each breakpoint whose adjoining rows of the piece
        table differ in coef or exp (mirrored on the line), and on the line
        0 too unless the first row is constant (exp = 0)."""
        rows = self._pieces
        radii = [b[0] for a, b in zip(rows, rows[1:]) if a[1:3] != b[1:3]]
        if self.domain_kind == "half_line":
            return tuple(radii)
        zero = [0.0] if rows[0][2] != 0.0 else []
        return tuple([-r for r in reversed(radii)] + zero + radii)

    def is_constant_on(self, lo: float, hi: float) -> bool:
        """True if the weight is constant on (lo, hi): no knot inside, and the
        row that holds the interior radii has exp = 0."""
        if any(lo < x < hi for x in self.knots):
            return False
        r = max(abs(lo), abs(hi))
        return self._pieces[bisect_left(self.breakpoints, r)][2] == 0.0

    # -- pointwise and primitive -------------------------------------------

    def value(self, x: float) -> float:
        r = abs(x) if self.domain_kind == "line" else x
        if r < 0.0 or (r == 0.0 and self.domain_kind == "half_line"):
            raise ConfigurationError(f"point {x} outside the weight domain")
        _, coef, exp, *_ = self._pieces[bisect_left(self.breakpoints, r)]
        if r == 0.0 and exp < 0.0:
            return math.inf
        return coef * r**exp

    @cached_property
    def _radial_primitive(self) -> Callable[[float], float]:
        """W(r), the integral of the weight over radii (0, r), as a function
        bound once per weight to the piece table and breakpoints."""
        pieces, bps, log = self._pieces, self.breakpoints, math.log

        def P(r: float) -> float:
            if r < 0.0:
                raise PreconditionError("radius must be nonnegative")
            if r == 0.0:
                return 0.0
            # the row with lo < r <= hi (bisect_left), else the tail
            lo, coef, _, e1, lo_pow, base = pieces[bisect_left(bps, r)]
            if e1 == 0.0:
                return base + coef * log(r / lo)
            return base + coef * (r**e1 - lo_pow) / e1

        return P

    @cached_property
    def _piece_columns(self) -> tuple[np.ndarray, ...]:
        """The breakpoints, then the piece table's lo, coef, e1, lo^e1, W(lo)."""
        lo, coef, _, e1, lo_pow, base = np.array(self._pieces).T
        return np.array(self.breakpoints), lo, coef, e1, lo_pow, base

    def _radial_primitive_array(self, r: np.ndarray) -> np.ndarray:
        """_radial_primitive of every radius in r, bit for bit: the same rows
        (bisect_left's: a radius at a breakpoint is its left row's), libm's
        pow and log and the same order of operations, in one _pow pass; e1 = 0
        radii (0/0 there) are redone by _log, and zero radii set to 0.0 last."""
        if np.any(r < 0.0):
            raise PreconditionError("radius must be nonnegative")
        bps, *cols = self._piece_columns
        flat = r.ravel()
        rows = np.searchsorted(bps, flat, side="left")
        lo, coef, e1, lo_pow, base = (c[rows] for c in cols)
        with np.errstate(invalid="ignore"):
            out = base + coef * (_pow(flat, e1) - lo_pow) / e1
        if (logs := np.flatnonzero(e1 == 0.0)).size:
            out[logs] = base[logs] + coef[logs] * _log(flat[logs] / lo[logs])
        out[flat == 0.0] = 0.0
        return out.reshape(r.shape)[()]  # a 0-d r gives a float64, as a ufunc does

    def primitive(self, t: float) -> float:
        """W(t), the integral of the weight over (0, t).  Half-line only."""
        if self.domain_kind != "half_line":
            raise ConfigurationError("primitive is defined for half-line weights")
        if t < 0.0:
            raise PreconditionError("primitive needs t >= 0")
        return self._radial_primitive(t)

    @cached_property
    def mass(self) -> Callable[[float, float], float]:
        """mass(lo, hi), the integral of the weight over (lo, hi), lo <= hi,
        as a function bound once per weight to its primitive and domain."""
        P = self._radial_primitive
        if self.domain_kind == "half_line":

            def mass(lo: float, hi: float) -> float:
                if lo < 0.0:
                    raise ConfigurationError("set escapes the half-line domain")
                return P(hi) - P(lo)

            return mass

        def mass(lo: float, hi: float) -> float:
            if lo >= 0.0:
                return P(hi) - P(lo)
            if hi <= 0.0:
                return P(-lo) - P(-hi)
            return P(-lo) + P(hi)

        return mass

    def gap_masses(self, ends: Sequence[float]) -> list[float]:
        """mass(ends[j], ends[j + 1]) of every gap between the increasing ends,
        bit for bit, with the primitive taken once per end and neighbours
        combined by the rules of `mass`."""
        P = self._radial_primitive
        if self.domain_kind == "half_line":
            if ends and ends[0] < 0.0:
                raise ConfigurationError("set escapes the half-line domain")
            Ps = list(map(P, ends))
            return list(map(operator.sub, Ps[1:], Ps))
        Ps = [P(abs(e)) for e in ends]
        return [
            b - a if lo >= 0.0 else a - b if hi <= 0.0 else a + b
            for lo, hi, a, b in zip(ends, ends[1:], Ps, Ps[1:])
        ]

    def primitive_array(self, t) -> np.ndarray:
        """primitive of every entry of the array t."""
        if self.domain_kind != "half_line":
            raise ConfigurationError("primitive is defined for half-line weights")
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise PreconditionError("primitive needs t >= 0")
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(self._radial_primitive_array(t))

    def mass_array(self, lo, hi) -> np.ndarray:
        """mass of every interval (lo[i], hi[i]) of two equal-shape arrays.
        The radii of both ends go through the kernel in one pass: the raw
        ends on the half-line, their absolute values on the line.  A mass
        that overflows is a violated precondition, so no caller scores it."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        ends = np.stack([lo, hi])
        with np.errstate(over="ignore", invalid="ignore"):
            if self.domain_kind == "half_line":
                if np.any(lo < 0.0):
                    raise ConfigurationError("set escapes the half-line domain")
                a, b = self._radial_primitive_array(ends)
                mass = b - a
            else:
                a, b = self._radial_primitive_array(np.abs(ends))
                mass = np.where(lo >= 0.0, b - a, np.where(hi <= 0.0, a - b, a + b))
        return _finite(mass)

    def weight_of_set(self, E: IntervalUnion) -> float:
        """Integral of the weight over E (closed form, additive over parts)."""
        return sum((self.mass(p.lo, p.hi) for p in E.parts), 0.0)

    # -- tail-sensitive closed forms ---------------------------------------

    def bp_tail_integral(self, r: float, p: float) -> float:
        """Integral of w(t) t^{-p} over (r, infinity); inf if divergent."""
        if self.tail_exp - p >= -1.0:
            return math.inf
        total = 0.0
        for (lo, coef, exp, *_), hi in zip(self._pieces, (*self.breakpoints, math.inf)):
            a = max(lo, r)
            if a < hi:
                total += _power_int(coef, exp - p, a, hi)
        return total

    def bstar_integral(self, r: float) -> float:
        """Integral of W(t)/t over (0, r), in closed form per segment."""
        total = 0.0
        for (lo, coef, _, e1, lo_pow, base), hi in zip(self._pieces, (*self.breakpoints, math.inf)):
            b = min(hi, r)
            if b <= lo:
                break
            if e1 == 0.0:
                # W(t) = base + coef*log(t/lo) on this piece
                total += base * math.log(b / lo) + 0.5 * coef * math.log(b / lo) ** 2
            else:
                k = base - coef * lo_pow / e1  # W(t) = k + coef*t^e1/e1
                if lo == 0.0:
                    if k != 0.0:
                        return math.inf
                    log_term = 0.0
                else:
                    log_term = k * math.log(b / lo)
                total += log_term + coef * (b**e1 - lo_pow) / (e1 * e1)
        return total

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def power(exp: float, coef: float = 1.0, domain_kind: str = "half_line") -> "WeightModel":
        return WeightModel(
            segments=(Segment(0.0, 1.0, coef, exp),),
            domain_kind=domain_kind,
            tail_coef=coef,
            tail_exp=exp,
        )

    @staticmethod
    def constant(coef: float = 1.0, domain_kind: str = "half_line") -> "WeightModel":
        return WeightModel.power(0.0, coef, domain_kind)

    def to_json(self) -> str:
        return json.dumps(
            {
                "domain": self.domain_kind,
                "segments": [
                    {"from": s.lo, "to": s.hi, "coef": s.coef, "exp": s.exp}
                    for s in self.segments
                ],
                "tail": {"coef": self.tail_coef, "exp": self.tail_exp},
            }
        )

    @staticmethod
    def from_json(text: str) -> "WeightModel":
        try:
            obj = json.loads(text)
            segments = tuple(
                Segment(float(s["from"]), float(s["to"]), float(s["coef"]), float(s["exp"]))
                for s in obj["segments"]
            )
            tail_coef, tail_exp = float(obj["tail"]["coef"]), float(obj["tail"]["exp"])
            domain_kind = obj["domain"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed weight config: {exc}") from exc
        return WeightModel(segments, domain_kind, tail_coef, tail_exp)

    @staticmethod
    def load(path: str) -> "WeightModel":
        with open(path) as fh:
            return WeightModel.from_json(fh.read())


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassVerdict:
    class_name: str
    holds: bool
    constant: float
    witness: dict
    exponent: Optional[float] = None

    def as_dict(self) -> dict:
        """A non-finite constant is written as null with "diverges": true, so
        the JSON stays standard."""
        payload = {
            "class": self.class_name,
            "holds": self.holds,
            "constant": self.constant if math.isfinite(self.constant) else None,
            "witness": self.witness,
        }
        if payload["constant"] is None:
            payload["diverges"] = True
        if self.exponent is not None:
            payload["exponent"] = self.exponent
        return payload


def default_grid() -> tuple[float, ...]:
    return tuple(2.0**k for k in range(-20, 21))


# ratio helpers: every verdict witness can be re-evaluated through these.


def _positive_primitive(name: str, w: WeightModel, r: float) -> float:
    """W(r), by which the ratio helper `name` divides; W(r) = 0 (an underflow) raises."""
    if (W := w.primitive(r)) == 0.0:
        raise PreconditionError(f"{name} needs W(r) > 0, but W({r!r}) = 0")
    return W


def delta2_ratio(w: WeightModel, r: float) -> float:
    return w.primitive(2.0 * r) / _positive_primitive("delta2_ratio", w, r)


def bp_ratio(w: WeightModel, p: float, r: float) -> float:
    tail = w.bp_tail_integral(r, p)
    if math.isinf(tail):
        return math.inf
    return r**p * tail / _positive_primitive("bp_ratio", w, r)


def bstar_ratio(w: WeightModel, r: float) -> float:
    return w.bstar_integral(r) / _positive_primitive("bstar_ratio", w, r)


def a1_ratio(u: WeightModel, x: float, lo: float, hi: float) -> float:
    avg = u.mass(lo, hi) / (hi - lo)
    ux = u.value(x)
    if ux == 0.0:
        return math.inf
    return avg / ux


# -- checkers ---------------------------------------------------------------


def _end_exps(w: WeightModel) -> tuple[float, float]:
    """(γ0, γ∞): the exps of the first and the tail rows of w's piece table."""
    return w._pieces[0][2], w._pieces[-1][2]


def _infinite_mass(w: WeightModel) -> bool:
    """γ∞ > -1, so that w's mass on (0, ∞) is infinite: the rule of A_inf and
    B*_∞, and A1's lower bound on γ∞."""
    return _end_exps(w)[1] > -1.0


def _grid_verdict(name: str, w: WeightModel, holds: bool, ratio, **witness) -> ClassVerdict:
    """The verdict of one scale class of w: ratio(r) at every r of the
    default grid, the first of equal maxima as the witness {"r": r,
    **witness} and its ratio as the constant, a lower bound of the class
    constant, the sup over all r.  Every ratio divides by W(r), so W must
    not underflow to 0 at any grid scale; W increases, so the smallest
    scale decides.  Nor may a ratio overflow, unless the witness is
    r = "tail": B_p's divergent tail."""
    grid = default_grid()
    if w.primitive(grid[0]) == 0.0:
        raise PreconditionError(f"{name} needs W(r) > 0 on its grid, but W({grid[0]!r}) = 0")
    ratios = [ratio(r) for r in grid]
    over = [(r, v) for r, v in zip(grid, ratios) if not math.isfinite(v)]
    if over and witness.get("r") != "tail":  # np.argmax would pick a NaN, and an inf is no divergence
        raise PreconditionError(f"{name} ratio overflows to {over[0][1]!r} at r = {over[0][0]!r}: W or its integral overflows")
    best = int(np.argmax(ratios))
    return ClassVerdict(name, holds, ratios[best], {"r": grid[best], **witness})


def check_delta2(w: WeightModel) -> ClassVerdict:
    """Δ2, W(2r) <= C W(r), always holds: the ratio is continuous and
    positive, and tends to 2^(γ0 + 1) at 0 and to 2^max(γ∞ + 1, 0) at ∞."""
    return _grid_verdict("Delta2", w, True, lambda r: delta2_ratio(w, r))


def check_Bp(w: WeightModel, p: float) -> ClassVerdict:
    """B_p, r^p ∫_r^∞ w(t) t^-p dt <= C W(r), holds iff γ0 < p - 1 and
    γ∞ < p - 1 (for w = t^a, Ariño and Muckenhoupt 1990).  The integral
    diverges once γ∞ >= p - 1.  At 0 the ratio tends to (γ0 + 1)/(p - γ0 - 1)
    below the threshold, grows like p log(1/r) at it and like r^(p-1-γ0)
    above it; at ∞ it tends to (γ∞ + 1)/(p - γ∞ - 1), or 0 if γ∞ <= -1."""
    if not 0.0 < p < math.inf:  # NaN fails too
        raise PreconditionError(f"p must be positive and finite, got {p!r}")
    holds = all(g - p < -1.0 for g in _end_exps(w))  # as the divergence test below
    if w.tail_exp - p >= -1.0:  # the tail integral diverges at every scale
        return _grid_verdict("Bp", w, holds, lambda r: math.inf, r="tail", p=p)
    return _grid_verdict("Bp", w, holds, lambda r: bp_ratio(w, p, r), p=p)


def check_Bstar_inf(w: WeightModel) -> ClassVerdict:
    """B*_∞, ∫_0^r W(t)/t dt <= C W(r), holds iff γ∞ > -1 (Neugebauer 1991).
    W(t) ~ c t^(γ0+1) at 0, so there the ratio tends to 1/(γ0 + 1), and at ∞
    to 1/(γ∞ + 1) if γ∞ > -1.  Otherwise W grows like log r or stays bounded,
    and the integral grows like log² r or log r, beyond W."""
    return _grid_verdict("BstarInf", w, _infinite_mass(w), lambda r: bstar_ratio(w, r))


def _a1_probe_points(u: WeightModel) -> list[float]:
    """2^-10 .. 2^10, then 1.01 b and 0.99 b per breakpoint b.  No -x: u is
    even and negation exact, so -x scores as x, with its windows swapped."""
    return [2.0**m for m in range(-10, 11)] + [x for b in u.breakpoints for x in (b * 1.01, b * 0.99)]


def check_A1(u: WeightModel) -> ClassVerdict:
    """A1 ratios avg_J(u) / u(x) over every scale r = 2^-12 .. 2^12, probe
    point x > 0 and window J = (x, x + r), (x - r, x), scored in one array
    pass in that loop order.  As in a scan from 0 with a strict `>`, a NaN
    never counts and the first of equal maxima is the witness, whose ratio,
    the constant, bounds the A1 constant from below.  No centred window: it
    averages u as the mediant of its halves, never above both.

    A1 holds iff γ0 <= 0 and -1 < γ∞ <= 0, as u is comparable to
    |x|^γ0 (1 + |x|)^(γ∞ - γ0) (for |x|^γ, Muckenhoupt 1972).  If γ0 > 0,
    u(x) -> 0 as x -> 0 while its average over (x, 1) does not; if γ∞ > 0,
    the average over (x, R) grows like R^γ∞; if γ∞ <= -1, u is not A_inf.
    A u that underflows at a probe has an inf constant and never holds."""
    scales = tuple(2.0**k for k in range(-12, 13))
    points = _a1_probe_points(u)
    r, x = np.array(scales)[:, None], np.array(points)[None, :]
    lo = np.stack(np.broadcast_arrays(x, x - r), axis=-1)
    hi = np.stack(np.broadcast_arrays(x + r, x), axis=-1)
    if not np.all(lo < hi):
        raise PreconditionError("A1 needs x - r < x < x + r at every probe point")
    avg = u.mass_array(lo, hi) / (hi - lo)  # first, so a half-line u fails as the scan did
    ux = np.array([u.value(p) for p in points])[:, None]
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        ratio = np.divide(avg, ux, out=np.full_like(avg, math.inf), where=ux != 0.0)  # as a1_ratio
    ratio = np.where(ratio > 0.0, ratio, 0.0)
    best = int(np.argmax(ratio))
    best_ratio, best_witness = float(ratio.flat[best]), {}
    if best_ratio > 0.0:
        point = points[np.unravel_index(best, ratio.shape)[1]]
        best_witness = {"x": point, "lo": float(lo.flat[best]), "hi": float(hi.flat[best])}
    holds = math.isfinite(best_ratio) and max(_end_exps(u)) <= 0.0 and _infinite_mass(u)
    return ClassVerdict("A1", holds, best_ratio, best_witness)


@cache
def _ainf_scales_and_randoms() -> tuple[np.ndarray, np.ndarray]:
    """The A_inf probes' scales L, as a column, and per scale 32 random rows
    from seed 0, each drawing (start, frac, lo): u-free, so built once, read-only."""
    rng = np.random.default_rng(0)
    L = np.array([2.0**k for k in range(-10, 11)])[:, None]
    draws = rng.random((L.size, 32, 3))
    start = (draws[..., 0] - 0.5) * 4.0 * L
    frac = _pow(2.0, -8.0 * draws[..., 1])
    e_len = np.maximum(frac * L, 1e-12 * L)
    lo = start + draws[..., 2] * (L - e_len)
    randoms = np.stack([start, start + L, lo, lo + e_len], axis=-1)
    for block in (L, randoms):
        block.setflags(write=False)
    return L, randoms


def _ainf_probe_table(u: WeightModel) -> np.ndarray:
    """Rows (I.lo, I.hi, E.lo, E.hi) of the A_inf probes.  Per scale L: at
    every anchor of u three placements of I, in each three lengths of E,
    each at the left end, the right end and the centre of I; then the 32
    random rows of _ainf_scales_and_randoms."""
    L, randoms = _ainf_scales_and_randoms()
    a = np.array([0.0] + [b for b in u.breakpoints if math.isfinite(b)])[None, :]
    # axes: scale, anchor, placement of I, length of E, placement of E
    start = np.stack(np.broadcast_arrays(a, a - L / 2.0, a - L), axis=-1)[..., None, None]
    L5 = L[:, :, None, None, None]
    i_hi = start + L5
    e_len = np.array([0.5, 0.125, 0.015625])[:, None] * L5
    lo = np.concatenate(np.broadcast_arrays(start, i_hi - e_len, start + (L5 - e_len) / 2.0), axis=-1)
    fixed = np.stack(np.broadcast_arrays(start, i_hi, lo, lo + e_len), axis=-1).reshape(L.size, -1, 4)
    return np.concatenate([fixed, randoms], axis=1).reshape(-1, 4)


def check_Ainf(u: WeightModel) -> ClassVerdict:
    """A_inf, |E|/|I| <= C (u(E)/u(I))^δ for every interval I and set E in
    I, holds iff γ∞ > -1, as u is comparable to |x|^γ0 (1 + |x|)^(γ∞ - γ0)
    and γ0 > -1 (for |x|^γ, Muckenhoupt 1972).  Then the exponent is the
    sharp δ* = 1/(1 + max(0, γ0, γ∞)):

    - attained: |x|^γ has δ = 1/(1 + γ) for γ >= 0 (for a given |E|, u(E)
      is least at the minimum of u on I) and δ = 1 for γ in (-1, 0] (A1);
      |x|^γ0 (1 + |x|)^(γ∞ - γ0) is |x|^γ0 up to constants on (-1, 1) and
      |x|^γ∞ outside, so it has the lesser δ, and u, comparable to it,
      keeps that δ at another C;
    - sharp: E = (0, εL) in I = (0, L) has |E|/|I| = ε, while u(E)/u(I)
      tends to ε^(1 + γ0) as L -> 0 and to ε^(1 + γ∞) as L -> ∞; and δ <= 1
      for every u, by Lebesgue differentiation where u is continuous.

    If γ∞ <= -1, E = (R/2, R) in I = (0, R) has |E|/|I| = 1/2 while
    u(E)/u(I) -> 0 as R -> ∞: no (C, δ) exists, so the verdict has no
    exponent and an infinite constant, and takes no masses.

    The constant is the maximum of (|E|/|I|) / (u(E)/u(I))^δ* over the rows
    of _ainf_probe_table, never built as objects, floored at 1: a lower
    bound of the least C at δ*, whose witness is the first probe that
    attains it.  u(I) and u(E) of every probe go through one mass_array
    pass, and the powers through one _pow pass."""
    if u.domain_kind == "half_line":  # anchor 0's probes reach below 0
        raise ConfigurationError("set escapes the half-line domain")
    if not _infinite_mass(u):
        return ClassVerdict("AInf", False, math.inf, {})
    i_lo, i_hi, e_lo, e_hi = _ainf_probe_table(u).T
    if not np.all((i_lo <= e_lo) & (e_hi <= i_hi)):
        raise PreconditionError("A_inf probe needs E within I")
    n = i_lo.size
    mass = u.mass_array(np.concatenate([i_lo, e_lo]), np.concatenate([i_hi, e_hi]))
    uI, uE = mass[:n], mass[n:]
    if np.any(uI == 0.0):
        raise PreconditionError("A_inf probe needs u(I) > 0")
    x, y = uE / uI, (e_hi - e_lo) / (i_hi - i_lo)
    delta = 1.0 / (1.0 + max(0.0, *_end_exps(u)))
    scored = x > 0.0  # a u(E) that underflows to 0 sets no bound
    c = np.zeros(n)
    c[scored] = y[scored] / _pow(x[scored], delta)
    best = int(np.argmax(c))
    if c[best] <= 1.0:
        return ClassVerdict("AInf", True, 1.0, {}, exponent=delta)
    witness = {"I": [float(i_lo[best]), float(i_hi[best])], "E": [[float(e_lo[best]), float(e_hi[best])]]}
    return ClassVerdict("AInf", True, float(c[best]), witness, exponent=delta)
