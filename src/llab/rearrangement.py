"""Weighted distribution functions, decreasing rearrangements, and the
strong/weak Lorentz quasi-norms, exact on step functions."""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InternalCheckError, PreconditionError
from .intervals import Interval, IntervalUnion, _as_pairs, normalize, union
from .weights import WeightModel

_CROSSCHECK_RTOL = 1e-10
_SPAN_BLOCK = 1 << 16  # entries per block of rows of StepFunction.spans


@dataclass(frozen=True)
class StepFunction:
    """Finitely-valued positive function, stored as its position table: the
    value values[j] on each gap (ends[j], ends[j + 1]) between the strictly
    increasing endpoints, 0 between parts, and 0 outside (ends[0], ends[-1]).

    The form is canonical: the value changes at every end, so no two
    adjacent gaps share a value, the first and last gaps are positive, and
    equal functions have equal tables.
    """

    ends: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        ends, values = self.ends, self.values
        if len(ends) != (len(values) + 1 if values else 0):
            raise ValueError("need one value per gap between consecutive ends")
        if not all(map(operator.lt, ends, ends[1:])):
            raise ValueError("step ends must be strictly increasing")
        if not all(map(operator.le, repeat(0.0), values)):
            raise ValueError("step values must be positive, or 0 between parts")
        padded = (0.0, *values, 0.0)
        if any(map(operator.eq, padded[: len(ends)], padded[1:])):
            raise ValueError("the value of a step must change at every end (use make_step)")

    @cached_property
    def table(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """The sorted endpoints e_j, the value of f on each gap (e_j, e_j+1),
        and the integral of f over (-inf, e_j) at each endpoint."""
        ends = self.ends
        F = [0.0] * len(ends)
        for j, v in enumerate(self.values):
            F[j + 1] = F[j] + v * (ends[j + 1] - ends[j])
        return ends, self.values, tuple(F)

    @cached_property
    def _levels(self) -> list[tuple[float, list[int]]]:
        """(value, the indices j of its gaps (ends[j], ends[j + 1]) in position
        order) for every distinct value, largest first."""
        by_value: dict[float, list[int]] = {}
        for j, v in enumerate(self.values):
            if v:
                by_value.setdefault(v, []).append(j)
        return sorted(by_value.items(), reverse=True)

    @cached_property
    def pieces(self) -> tuple[tuple[IntervalUnion, float], ...]:
        """(region, value) for every distinct value, largest first: the
        level sets of f, each with its parts in position order."""
        e = self.ends
        return tuple((IntervalUnion(tuple(Interval(e[j], e[j + 1]) for j in gaps)), v) for v, gaps in self._levels)

    @cached_property
    def spans(self) -> tuple[float, ...]:
        """For each gap i = 0, ..., m between the sorted endpoints e_j (x in
        gap i when e_j <= x < e_k for j < i <= k), the largest average
        (F_k - F_j)/(e_k - e_j) of f over (e_j, e_k) with j < i <= k; -inf
        where there is no such pair, and a NaN average never counts.

        These averages do not depend on where in the gap x lies, so the
        table is built once: O(m^2) time in blocks of rows, O(m) memory.
        """
        ends, _, F = self.table
        m = len(ends)
        e, F = np.array(ends), np.array(F)
        best = np.full(m + 1, -np.inf)
        cols = np.arange(m)
        step = max(1, _SPAN_BLOCK // max(m, 1))
        with np.errstate(all="ignore"):  # 0/0 at k = j is masked; fmax skips inf - inf
            for j0 in range(0, m, step):
                j = cols[j0 : j0 + step, None]
                avg = (F - F[j]) / (e - e[j])  # avg[j, k]
                avg[cols <= j] = -np.inf
                # reach[j, i]: the best avg[j, k] over k >= i, kept for i > j
                reach = np.fmax.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
                reach[cols <= j] = -np.inf
                best[:m] = np.fmax(best[:m], np.fmax.reduce(reach, axis=0))
        return tuple(best.tolist())

    def value_at(self, x: float) -> float:
        """f(x); 0 at every endpoint and outside the support."""
        ends, values, _ = self.table
        j = bisect_left(ends, x)
        if 0 < j < len(ends) and ends[j] != x:
            return values[j - 1]
        return 0.0

    def to_json(self) -> str:
        """The pieces as JSON: one region and value per distinct value."""
        e = self.ends
        return json.dumps([{"region": [[e[j], e[j + 1]] for j in gaps], "value": v} for v, gaps in self._levels])

    @staticmethod
    def from_json(text: str) -> "StepFunction":
        return make_step([(item["region"], float(item["value"])) for item in json.loads(text)])


def _from_cells(ends: Sequence[float], values: Sequence[float]) -> StepFunction:
    """The StepFunction of value values[j] on each cell (ends[j], ends[j + 1])
    of the strictly increasing ends: an end is kept where the value changes
    across it, taken as 0 outside the cells, so adjacent cells of equal value
    merge and the cells of value 0 at both ends drop."""
    padded = (0.0, *values, 0.0)
    keep = [j for j in range(len(ends)) if padded[j] != padded[j + 1]]
    return StepFunction(tuple(ends[j] for j in keep), tuple(padded[j + 1] for j in keep[:-1]))


def make_step(pieces: Sequence[tuple[IntervalUnion, float]]) -> StepFunction:
    """Build a StepFunction from (region, value) pieces, merging the parts of
    one value that overlap or abut; parts of different values may abut but
    not overlap.

    Regions may be IntervalUnions, Intervals, (lo, hi) pairs, or lists of pairs.
    """
    parts = []
    for region, value in pieces:
        if isinstance(region, IntervalUnion):
            region = region.parts
        elif isinstance(region, Interval) or region and not isinstance(region[0], (tuple, list, Interval)):
            region = [region]  # one Interval or a bare (lo, hi) pair
        pairs = _as_pairs(region)
        if pairs:
            v = float(value)
            if not v > 0.0:
                raise ValueError("step values must be strictly positive")
            parts.extend((lo, hi, v) for lo, hi in pairs)
    ends: list[float] = []
    values: list[float] = []
    for lo, hi, v in sorted(parts):
        if not ends or lo > ends[-1]:
            if ends:
                values.append(0.0)
            ends.append(lo)
        elif v == values[-1]:
            ends[-1] = max(ends[-1], hi)
            continue
        elif lo < ends[-1]:
            raise ValueError("step regions must be pairwise disjoint")
        ends.append(hi)
        values.append(v)
    return _from_cells(ends, values)


def indicator(region: IntervalUnion) -> StepFunction:
    return make_step([(region, 1.0)])


@dataclass(frozen=True)
class DecreasingStep:
    """Right-continuous non-increasing step on [0, inf): values[i] on
    [breakpoints[i], breakpoints[i+1]), zero past the last breakpoint."""

    breakpoints: tuple[float, ...]  # 0 = t0 < t1 < ... < tn
    values: tuple[float, ...]  # v1 > v2 > ... > vn > 0

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.values) + 1:
            raise ValueError("need one more breakpoint than values")
        bps, vs = self.breakpoints, self.values
        if bps and bps[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if not all(map(operator.lt, bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not all(map(operator.gt, vs, vs[1:])):
            raise ValueError("values must be strictly decreasing")
        if vs and vs[-1] <= 0.0:
            raise ValueError("values must be positive")

    def __call__(self, t: float) -> float:
        if not t >= 0.0:
            raise ValueError("decreasing steps live on [0, inf)")
        for (lo, hi), v in zip(zip(self.breakpoints, self.breakpoints[1:]), self.values):
            if lo <= t < hi:
                return v
        return 0.0

    def _primitives(self, w: WeightModel, p: float) -> list[float]:
        """W at every breakpoint, after checking the norm's arguments.  The
        breakpoints start at 0 and increase, so W is read without the
        per-call checks of `primitive`."""
        if w.domain_kind != "half_line":
            raise ConfigurationError("Lorentz norms need w on the half-line")
        if not 0.0 < p < math.inf:  # NaN fails too
            raise ValueError(f"p must be positive and finite, got {p!r}")
        return list(map(w._radial_primitive, self.breakpoints))

    def norm(self, w: WeightModel, p: float) -> float:
        """L^p(w) norm (integral of g^p w)^(1/p), exact via the primitive.

        Cross-checks the direct sum against the layer-cake form.
        """
        Ws = self._primitives(w, p)
        direct = sum(v**p * (Ws[i + 1] - Ws[i]) for i, v in enumerate(self.values))
        if self.values and direct < np.finfo(float).tiny:  # subnormal: the cross-check would fail on rounding
            raise PreconditionError(f"the p-th power of the norm underflows to {direct!r}")
        vs = (*self.values, 0.0)
        layer = sum((vs[i] ** p - vs[i + 1] ** p) * Ws[i + 1] for i in range(len(self.values)))
        if direct > 0.0 and abs(direct - layer) > _CROSSCHECK_RTOL * direct:
            raise InternalCheckError(f"layer-cake cross-check failed: {direct!r} vs {layer!r}")
        return direct ** (1.0 / p)

    def weak_norm(self, w: WeightModel, p: float) -> float:
        """sup_t g(t) W^{1/p}(t): attained among left limits at breakpoints."""
        Ws = self._primitives(w, p)
        return max((v * Ws[i + 1] ** (1.0 / p) for i, v in enumerate(self.values)), default=0.0)


def distribution(f: StepFunction, u: WeightModel, s: float) -> float:
    """u-measure of the strict superlevel set {|f| > s}, for s >= 0."""
    if not s >= 0.0:  # a NaN level too
        raise ValueError(f"levels are nonnegative, got {s!r}")
    return sum((mass for value, mass in _level_masses(f, u) if value > s), 0.0)


def superlevel(f: StepFunction, s: float) -> IntervalUnion:
    """The strict superlevel set {|f| > s}, for s >= 0."""
    if not s >= 0.0:
        raise ValueError(f"levels are nonnegative, got {s!r}")
    regions = [region for region, value in f.pieces if value > s]
    return union(*regions) if regions else normalize([])


def _level_masses(f: StepFunction, u: WeightModel) -> list[tuple[float, float]]:
    """(value, u-mass of its level set) for every distinct value of f, largest
    first: the masses of the level's gaps summed in position order, the
    additions of u.weight_of_set, with one primitive per end of f."""
    masses = u.gap_masses(f.ends)
    return [(value, sum([masses[j] for j in gaps], 0.0)) for value, gaps in f._levels]


def rearrange(f: StepFunction, u: WeightModel) -> DecreasingStep:
    """Decreasing rearrangement of f with respect to the measure u(x)dx."""
    breakpoints = [0.0]
    values = []
    acc = 0.0
    for value, mass in _level_masses(f, u):
        if mass <= 0.0 or acc + mass == acc:  # a step of no width in floating point
            continue
        acc += mass
        breakpoints.append(acc)
        values.append(value)
    if not np.isfinite(acc):
        raise PreconditionError(f"the u-masses of the level sets overflow to {acc!r}")
    return DecreasingStep(tuple(breakpoints), tuple(values))


def lorentz_norm(f: StepFunction, u: WeightModel, w: WeightModel, p: float) -> float:
    """Quasi-norm (integral of (f*_u)^p w)^(1/p), exact via the primitive."""
    return rearrange(f, u).norm(w, p)


def weak_lorentz_norm(f: StepFunction, u: WeightModel, w: WeightModel, p: float) -> float:
    """sup_t f*_u(t) W^{1/p}(t)."""
    return rearrange(f, u).weak_norm(w, p)
