"""Weighted distribution functions, decreasing rearrangements, and the
strong/weak Lorentz quasi-norms, exact on step functions."""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ConfigurationError
from .intervals import Interval, IntervalUnion, normalize, union
from .weights import WeightModel

_CROSSCHECK_RTOL = 1e-10


@dataclass(frozen=True)
class StepFunction:
    """Finitely-valued positive function: sum of value * indicator(region).

    Regions are pairwise disjoint; equal-value pieces are merged on
    construction so the level structure is canonical.
    """

    pieces: tuple[tuple[IntervalUnion, float], ...]

    def __post_init__(self) -> None:
        for region, value in self.pieces:
            if value <= 0.0:
                raise ValueError("step values must be strictly positive")
            if not region:
                raise ValueError("step regions must be nonempty")
        values = [v for _, v in self.pieces]
        if len(set(values)) != len(values):
            raise ValueError("equal-value pieces must be merged (use make_step)")

    @property
    def support(self) -> IntervalUnion:
        return union(*(region for region, _ in self.pieces))

    @cached_property
    def table(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """Position-sorted view of f, built once: the sorted endpoints e_j, the
        value of f on each gap (e_j, e_j+1) (0 between parts), and the
        integral of f over (-inf, e_j) at each endpoint.

        A part spans one gap unless parts overlap, which make_step rejects but
        a StepFunction built directly may hold; then the first piece holding a
        gap gives its value.
        """
        ends = sorted({e for region, _ in self.pieces for p in region.parts for e in (p.lo, p.hi)})
        values = [0.0] * max(len(ends) - 1, 0)
        for region, v in reversed(self.pieces):
            for p in region.parts:
                for j in range(bisect_left(ends, p.lo), bisect_left(ends, p.hi)):
                    values[j] = v
        F = [0.0] * len(ends)
        for j, v in enumerate(values):
            F[j + 1] = F[j] + v * (ends[j + 1] - ends[j])
        return tuple(ends), tuple(values), tuple(F)

    def endpoints(self) -> list[float]:
        return list(self.table[0])

    def value_at(self, x: float) -> float:
        """f(x); 0 at every endpoint and outside the support."""
        ends, values, _ = self.table
        j = bisect_left(ends, x)
        if 0 < j < len(ends) and ends[j] != x:
            return values[j - 1]
        return 0.0

    def scaled(self, c: float) -> "StepFunction":
        if c <= 0.0:
            raise ValueError("scaling factor must be positive")
        return StepFunction(tuple((r, c * v) for r, v in self.pieces))

    def to_json(self) -> str:
        return json.dumps(
            [
                {"region": [[p.lo, p.hi] for p in region.parts], "value": value}
                for region, value in self.pieces
            ]
        )

    @staticmethod
    def from_json(text: str) -> "StepFunction":
        obj = json.loads(text)
        return make_step([(normalize(item["region"]), float(item["value"])) for item in obj])


def _as_union(region) -> IntervalUnion:
    if isinstance(region, IntervalUnion):
        return region
    if isinstance(region, Interval):
        return IntervalUnion((region,))
    if region and not isinstance(region[0], (tuple, list, Interval)):
        region = [region]  # a bare (lo, hi) pair
    return normalize(region)


def make_step(pieces: Sequence[tuple[IntervalUnion, float]]) -> StepFunction:
    """Build a StepFunction, merging equal-value pieces and checking disjointness.

    Regions may be IntervalUnions, Intervals, (lo, hi) pairs, or lists of pairs.
    """
    by_value: dict[float, list[IntervalUnion]] = {}
    for region, value in pieces:
        region = _as_union(region)
        if region:
            by_value.setdefault(float(value), []).append(region)
    merged = tuple(
        (union(*regions), value) for value, regions in sorted(by_value.items(), reverse=True)
    )
    parts = sorted((p.lo, p.hi) for region, _ in merged for p in region.parts)
    if any(hi > lo for (_, hi), (lo, _) in zip(parts, parts[1:])):
        raise ValueError("step regions must be pairwise disjoint")
    return StepFunction(merged)


def indicator(region: IntervalUnion, value: float = 1.0) -> StepFunction:
    return make_step([(region, value)])


@dataclass(frozen=True)
class DecreasingStep:
    """Right-continuous non-increasing step on [0, inf): values[i] on
    [breakpoints[i], breakpoints[i+1]), zero past the last breakpoint."""

    breakpoints: tuple[float, ...]  # 0 = t0 < t1 < ... < tn
    values: tuple[float, ...]  # v1 > v2 > ... > vn > 0

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.values) + 1:
            raise ValueError("need one more breakpoint than values")
        if self.breakpoints and self.breakpoints[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        for a, b in zip(self.values, self.values[1:]):
            if not a > b:
                raise ValueError("values must be strictly decreasing")
        if self.values and self.values[-1] <= 0.0:
            raise ValueError("values must be positive")

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("decreasing steps live on [0, inf)")
        for (lo, hi), v in zip(zip(self.breakpoints, self.breakpoints[1:]), self.values):
            if lo <= t < hi:
                return v
        return 0.0

    def _primitives(self, w: WeightModel, p: float) -> list[float]:
        """W at every breakpoint, after checking the norm's arguments."""
        if w.domain_kind != "half_line":
            raise ConfigurationError("Lorentz norms need w on the half-line")
        if p <= 0.0:
            raise ValueError("p must be positive")
        return [w.primitive(t) for t in self.breakpoints]

    def norm(self, w: WeightModel, p: float) -> float:
        """L^p(w) norm (integral of g^p w)^(1/p), exact via the primitive.

        Cross-checks the direct sum against the layer-cake form.
        """
        Ws = self._primitives(w, p)
        direct = sum(v**p * (Ws[i + 1] - Ws[i]) for i, v in enumerate(self.values))
        vs = (*self.values, 0.0)
        layer = sum((vs[i] ** p - vs[i + 1] ** p) * Ws[i + 1] for i in range(len(self.values)))
        if direct > 0.0 and abs(direct - layer) > _CROSSCHECK_RTOL * direct:
            raise ConfigurationError(f"layer-cake cross-check failed: {direct!r} vs {layer!r}")
        return direct ** (1.0 / p)

    def weak_norm(self, w: WeightModel, p: float) -> float:
        """sup_t g(t) W^{1/p}(t): attained among left limits at breakpoints."""
        Ws = self._primitives(w, p)
        return max((v * Ws[i + 1] ** (1.0 / p) for i, v in enumerate(self.values)), default=0.0)


def distribution(f: StepFunction, u: WeightModel, s: float) -> float:
    """u-measure of the strict superlevel set {|f| > s}."""
    if s < 0.0:
        raise ValueError("levels are nonnegative")
    return sum(u.weight_of_set(region) for region, value in f.pieces if value > s)


def superlevel(f: StepFunction, s: float) -> IntervalUnion:
    regions = [region for region, value in f.pieces if value > s]
    return union(*regions) if regions else normalize([])


def rearrange(f: StepFunction, u: WeightModel) -> DecreasingStep:
    """Decreasing rearrangement of f with respect to the measure u(x)dx."""
    ranked = sorted(f.pieces, key=lambda rv: -rv[1])
    breakpoints = [0.0]
    values = []
    acc = 0.0
    for region, value in ranked:
        mass = u.weight_of_set(region)
        if mass <= 0.0:
            continue
        acc += mass
        breakpoints.append(acc)
        values.append(value)
    return DecreasingStep(tuple(breakpoints), tuple(values))


def lorentz_norm(f: StepFunction, u: WeightModel, w: WeightModel, p: float) -> float:
    """Quasi-norm (integral of (f*_u)^p w)^(1/p), exact via the primitive."""
    return rearrange(f, u).norm(w, p)


def weak_lorentz_norm(f: StepFunction, u: WeightModel, w: WeightModel, p: float) -> float:
    """sup_t f*_u(t) W^{1/p}(t)."""
    return rearrange(f, u).weak_norm(w, p)
