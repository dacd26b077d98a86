"""Piecewise-power weights, their primitives, and weight-class certifications.

A weight is c * t^e on each segment of a partition of (0, T], continued past
the last breakpoint by a single power tail.  Weights on the whole line are
taken even: the segment description applies to |x|.  Every integral used by
the class checkers (doubling, B_p, B*_inf, averages) then has a closed form.

The class checkers are finite certifications, not proofs: each verdict
reports the best constant found over a probe grid together with the witness
probe, and the boolean `holds` encodes a bounded-trend heuristic.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .intervals import Interval, IntervalUnion, contains

_WITNESS_TOL = 1e-9


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

    # -- basic structure ---------------------------------------------------

    @property
    def top(self) -> float:
        return self.segments[-1].hi

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(seg.hi for seg in self.segments)

    @cached_property
    def _pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        """(lo, coef, exp, W(lo)) per segment, then one row for the tail."""
        rows, acc = [], 0.0
        for seg in self.segments:
            mass = _power_int(seg.coef, seg.exp, seg.lo, seg.hi)
            acc += mass
            # W(lo) as W(hi) - mass, not the running sum before the segment:
            # the two differ by an ulp on multi-segment weights, and seeded
            # searches break near-ties on such ulps.
            rows.append((seg.lo, seg.coef, seg.exp, acc - mass))
        rows.append((self.top, self.tail_coef, self.tail_exp, acc))
        return tuple(rows)

    def _piece(self, r: float) -> tuple[float, float, float, float]:
        """The row of radius r > 0: the segment with lo < r <= hi, else the tail."""
        return self._pieces[bisect_left(self.breakpoints, r)]

    # -- pointwise and primitive -------------------------------------------

    def value(self, x: float) -> float:
        r = abs(x) if self.domain_kind == "line" else x
        if r < 0.0 or (r == 0.0 and self.domain_kind == "half_line"):
            raise ConfigurationError(f"point {x} outside the weight domain")
        if r == 0.0:
            seg = self.segments[0]
            if seg.exp > 0.0:
                return 0.0
            if seg.exp == 0.0:
                return seg.coef
            return math.inf
        _, coef, exp, _ = self._piece(r)
        return coef * r**exp

    def _radial_primitive(self, r: float) -> float:
        if r < 0.0:
            raise PreconditionError("radius must be nonnegative")
        if r == 0.0:
            return 0.0
        lo, coef, exp, base = self._piece(r)
        return base + _power_int(coef, exp, lo, r)

    def primitive(self, t: float) -> float:
        """W(t), the integral of the weight over (0, t).  Half-line only."""
        if self.domain_kind != "half_line":
            raise ConfigurationError("primitive is defined for half-line weights")
        if t < 0.0:
            raise PreconditionError("primitive needs t >= 0")
        return self._radial_primitive(t)

    def mass(self, lo: float, hi: float) -> float:
        """Integral of the weight over (lo, hi), lo <= hi."""
        P = self._radial_primitive
        if self.domain_kind == "half_line":
            if lo < 0.0:
                raise ConfigurationError("set escapes the half-line domain")
            return P(hi) - P(lo)
        if lo >= 0.0:
            return P(hi) - P(lo)
        if hi <= 0.0:
            return P(-lo) - P(-hi)
        return P(-lo) + P(hi)

    def weight_of_set(self, E: IntervalUnion) -> float:
        """Integral of the weight over E (closed form, additive over parts)."""
        return sum((self.mass(p.lo, p.hi) for p in E.parts), 0.0)

    # -- tail-sensitive closed forms ---------------------------------------

    def bp_tail_integral(self, r: float, p: float) -> float:
        """Integral of w(t) t^{-p} over (r, infinity); inf if divergent."""
        if self.tail_exp - p >= -1.0:
            return math.inf
        total = 0.0
        for seg in self.segments:
            a, b = max(seg.lo, r), seg.hi
            if a < b:
                total += _power_int(seg.coef, seg.exp - p, a, b)
        a = max(self.top, r)
        e = self.tail_exp - p  # < -1
        total += self.tail_coef * a ** (e + 1.0) / (-(e + 1.0))
        return total

    def bstar_integral(self, r: float) -> float:
        """Integral of W(t)/t over (0, r), in closed form per segment."""
        total = 0.0
        for (lo, coef, exp, base), hi in zip(self._pieces, (*self.breakpoints, math.inf)):
            a, b = lo, min(hi, r)
            if b <= a:
                break
            if exp == -1.0:
                # W(t) = base + coef*log(t/lo) on this piece
                total += base * math.log(b / a) + 0.5 * coef * (
                    math.log(b / lo) ** 2 - math.log(a / lo) ** 2
                )
            else:
                e1 = exp + 1.0
                lo_pow = 0.0 if lo == 0.0 else lo**e1
                k = base - coef * lo_pow / e1  # W(t) = k + coef*t^e1/e1
                if a == 0.0:
                    if k != 0.0:
                        return math.inf
                    log_term = 0.0
                else:
                    log_term = k * math.log(b / a)
                a_pow = 0.0 if a == 0.0 else a**e1
                total += log_term + coef * (b**e1 - a_pow) / (e1 * e1)
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
    probe_scales: tuple[float, ...] = ()
    exponent: Optional[float] = None

    def to_json(self) -> str:
        payload = {
            "class": self.class_name,
            "holds": self.holds,
            "constant": self.constant,
            "witness": self.witness,
        }
        if self.exponent is not None:
            payload["exponent"] = self.exponent
        return json.dumps(payload)


def default_grid() -> tuple[float, ...]:
    return tuple(2.0**k for k in range(-20, 21))


def _tail_growth(scales: Sequence[float], values: Sequence[float], factor: float = 1.05) -> bool:
    """True if the values show a growth trend across the two largest decades."""
    pairs = sorted(zip(scales, values))
    top = pairs[-1][0]
    last = [v for s, v in pairs if s >= top / 10.0]
    prev = [v for s, v in pairs if top / 100.0 <= s < top / 10.0]
    if not prev or not last:
        return False
    return max(last) > max(prev) * factor


# ratio helpers: every verdict witness can be re-evaluated through these.


def delta2_ratio(w: WeightModel, r: float) -> float:
    return w.primitive(2.0 * r) / w.primitive(r)


def bp_ratio(w: WeightModel, p: float, r: float) -> float:
    tail = w.bp_tail_integral(r, p)
    if math.isinf(tail):
        return math.inf
    return r**p * tail / w.primitive(r)


def bstar_ratio(w: WeightModel, r: float) -> float:
    return w.bstar_integral(r) / w.primitive(r)


def a1_ratio(u: WeightModel, x: float, lo: float, hi: float) -> float:
    avg = u.weight_of_set(IntervalUnion((Interval(lo, hi),))) / (hi - lo)
    ux = u.value(x)
    if ux == 0.0:
        return math.inf
    return avg / ux


def ainf_point(u: WeightModel, I: Interval, E: IntervalUnion) -> tuple[float, float]:
    """(u(E)/u(I), |E|/|I|) for a probe pair E within I."""
    uI = u.weight_of_set(IntervalUnion((I,)))
    return u.weight_of_set(E) / uI, E.measure / I.length


# -- checkers ---------------------------------------------------------------


def check_delta2(w: WeightModel, grid: Optional[Sequence[float]] = None) -> ClassVerdict:
    grid = tuple(grid) if grid is not None else default_grid()
    if not grid or any(r <= 0 for r in grid):
        raise PreconditionError("delta2 grid must be nonempty and positive")
    ratios = [delta2_ratio(w, r) for r in grid]
    best = int(np.argmax(ratios))
    holds = math.isfinite(max(ratios)) and not _tail_growth(grid, ratios)
    return ClassVerdict(
        class_name="Delta2",
        holds=holds,
        constant=ratios[best],
        witness={"r": grid[best]},
        probe_scales=grid,
    )


def check_Bp(w: WeightModel, p: float, grid: Optional[Sequence[float]] = None) -> ClassVerdict:
    grid = tuple(grid) if grid is not None else default_grid()
    if w.tail_exp - p >= -1.0:
        return ClassVerdict(
            class_name="Bp",
            holds=False,
            constant=math.inf,
            witness={"r": "tail", "p": p},
            probe_scales=grid,
        )
    ratios = [bp_ratio(w, p, r) for r in grid]
    best = int(np.argmax(ratios))
    holds = math.isfinite(max(ratios)) and not _tail_growth(grid, ratios)
    return ClassVerdict(
        class_name="Bp",
        holds=holds,
        constant=ratios[best],
        witness={"r": grid[best], "p": p},
        probe_scales=grid,
    )


def check_Bstar_inf(w: WeightModel, grid: Optional[Sequence[float]] = None) -> ClassVerdict:
    grid = tuple(grid) if grid is not None else default_grid()
    ratios = [bstar_ratio(w, r) for r in grid]
    best = int(np.argmax(ratios))
    holds = math.isfinite(max(ratios)) and not _tail_growth(grid, ratios)
    return ClassVerdict(
        class_name="BstarInf",
        holds=holds,
        constant=ratios[best],
        witness={"r": grid[best]},
        probe_scales=grid,
    )


def _a1_probe_points(u: WeightModel) -> list[float]:
    pts = [s * 2.0**m for m in range(-10, 11) for s in (1.0, -1.0)]
    for b in u.breakpoints:
        pts.extend([b * 1.01, -b * 1.01, b * 0.99, -b * 0.99])
    return [x for x in pts if x != 0.0]


def check_A1(u: WeightModel, grid: Optional[Sequence[float]] = None) -> ClassVerdict:
    scales = tuple(grid) if grid is not None else tuple(2.0**k for k in range(-12, 13))
    points = _a1_probe_points(u)
    best_ratio, best_witness = 0.0, {}
    per_scale: list[float] = []
    for r in scales:
        scale_max = 0.0
        for x in points:
            for lo, hi in ((x - r, x + r), (x, x + r), (x - r, x)):
                ratio = a1_ratio(u, x, lo, hi)
                if ratio > scale_max:
                    scale_max = ratio
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_witness = {"x": x, "lo": lo, "hi": hi}
        per_scale.append(scale_max)
    holds = math.isfinite(best_ratio) and not _tail_growth(scales, per_scale, factor=1.1)
    return ClassVerdict(
        class_name="A1",
        holds=holds,
        constant=best_ratio,
        witness=best_witness,
        probe_scales=scales,
    )


def default_ainf_probes(
    u: WeightModel, seed: int = 0, randoms_per_scale: int = 32
) -> list[tuple[Interval, IntervalUnion]]:
    """Edge, center, and seeded random placements of E inside I per scale."""
    rng = np.random.default_rng(seed)
    probes: list[tuple[Interval, IntervalUnion]] = []
    scales = [2.0**k for k in range(-10, 11)]
    anchors = [0.0] + [b for b in u.breakpoints if math.isfinite(b)]
    for L in scales:
        for a in anchors:
            for start in (a, a - L / 2.0, a - L):
                I = Interval(start, start + L)
                for frac in (0.5, 0.125, 0.015625):
                    e_len = frac * L
                    for lo in (I.lo, I.hi - e_len, I.lo + (L - e_len) / 2.0):
                        probes.append((I, IntervalUnion((Interval(lo, lo + e_len),))))
        for _ in range(randoms_per_scale):
            start = (rng.random() - 0.5) * 4.0 * L
            I = Interval(start, start + L)
            frac = 2.0 ** (-8.0 * rng.random())
            e_len = max(frac * L, 1e-12 * L)
            lo = I.lo + rng.random() * (L - e_len)
            probes.append((I, IntervalUnion((Interval(lo, lo + e_len),))))
    return probes


def check_Ainf(
    u: WeightModel,
    probes: Optional[Sequence[tuple[Interval, IntervalUnion]]] = None,
) -> ClassVerdict:
    """Fit C_u and alpha with |E|/|I| <= C_u (u(E)/u(I))^alpha over the probes."""
    if probes is None:
        probes = default_ainf_probes(u)
    if not probes:
        raise PreconditionError("A_inf needs at least one probe")
    slopes: list[tuple[float, float]] = []  # (|I|, slope)
    cloud: list[tuple[float, float]] = []
    for I, E in probes:
        if not contains(IntervalUnion((I,)), E):
            raise PreconditionError("A_inf probe needs E within I")
        x, y = ainf_point(u, I, E)
        cloud.append((x, y))
        if 0.0 < x < 0.999 and 0.0 < y:
            slopes.append((I.length, math.log(y) / math.log(x)))
    if not slopes:
        alpha = 1.0
    else:
        alpha = min(1.0, min(s for _, s in slopes))
    alpha = max(alpha, 1e-6)
    c_u, witness = 1.0, {}
    for (I, E), (x, y) in zip(probes, cloud):
        if x <= 0.0:
            continue
        c = y / x**alpha
        if c > c_u:
            c_u = c
            witness = {"I": [I.lo, I.hi], "E": [[p.lo, p.hi] for p in E.parts]}
    holds = True
    if slopes:
        scales = [s for s, _ in slopes]
        top = max(scales)
        bottom = min(scales)
        last = [v for s, v in slopes if s >= top / 10.0]
        first = [v for s, v in slopes if s <= bottom * 10.0]
        m_last, m_first = min(last), min(first)
        if m_last < 0.25 and m_last < 0.5 * m_first:
            holds = False
    return ClassVerdict(
        class_name="AInf",
        holds=holds,
        constant=c_u,
        witness=witness,
        probe_scales=tuple(sorted({I.length for I, _ in probes})),
        exponent=alpha,
    )
