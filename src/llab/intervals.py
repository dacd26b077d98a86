"""Finite disjoint unions of open intervals on the real line.

Endpoints are plain floats and open/closed distinctions are ignored: every
quantity computed downstream (lengths, weighted measures, integrals) is
insensitive to boundary points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError


@dataclass(frozen=True, order=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:  # NaN fails too, as where a coordinate overflowed
            raise PreconditionError(f"interval needs lo < hi, got ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class IntervalUnion:
    """Ordered, pairwise separated intervals.  Build via :func:`normalize`."""

    parts: tuple[Interval, ...]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    @property
    def measure(self) -> float:
        return sum(p.length for p in self.parts)

    def to_json(self) -> str:
        return json.dumps([[p.lo, p.hi] for p in self.parts])

    @staticmethod
    def from_json(text: str) -> "IntervalUnion":
        return normalize([tuple(pair) for pair in json.loads(text)])


EMPTY = IntervalUnion(())


def _as_pairs(raw: Iterable) -> list[tuple[float, float]]:
    """(lo, hi) of every Interval or (lo, hi) pair of raw with lo < hi, in
    order; a pair with lo > hi is an error, a degenerate or NaN one is dropped."""
    pairs = []
    for item in raw:
        if isinstance(item, Interval):
            pairs.append((item.lo, item.hi))
        else:
            lo, hi = item
            pairs.append((float(lo), float(hi)))
    for lo, hi in pairs:
        if lo > hi:
            raise ValueError(f"raw interval needs lo <= hi, got ({lo}, {hi})")
    return [p for p in pairs if p[0] < p[1]]


def normalize(raw: Iterable) -> IntervalUnion:
    """Merge overlapping or abutting intervals; drop degenerate ones.

    Accepts Interval objects or (lo, hi) pairs with lo <= hi.
    """
    pairs = sorted(_as_pairs(raw))
    merged: list[tuple[float, float]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in merged))


def union(*unions: IntervalUnion) -> IntervalUnion:
    parts: list[Interval] = []
    for u in unions:
        parts.extend(u.parts)
    return normalize(parts)


def measure(u: IntervalUnion) -> float:
    return u.measure


def intersect(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    out = []
    for a in u.parts:
        for b in v.parts:
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if lo < hi:
                out.append((lo, hi))
    return normalize(out)


def overlap_measures(u: IntervalUnion, v: IntervalUnion) -> list[float]:
    """intersect(u, IntervalUnion((part,))).measure for every part of v, in
    one merge of the two sorted part lists: the overlaps with each part are
    summed in u's order, as that measure sums them."""
    out, i, parts = [], 0, u.parts
    for part in v.parts:
        while i < len(parts) and parts[i].hi <= part.lo:  # left of every later part of v too
            i += 1
        pieces, j = [], i
        while j < len(parts) and parts[j].lo < part.hi:
            lo, hi = max(parts[j].lo, part.lo), min(parts[j].hi, part.hi)
            if lo < hi:
                pieces.append(hi - lo)
            j += 1
        out.append(sum(pieces))
    return out


def singleton(lo: float, hi: float) -> IntervalUnion:
    return normalize([(lo, hi)])


def endpoints(u: IntervalUnion) -> list[float]:
    out: list[float] = []
    for p in u.parts:
        out.append(p.lo)
        out.append(p.hi)
    return out


def parse_union(text: str) -> IntervalUnion:
    """Parse 'a,b;c,d' (or JSON '[[a,b],...]') into an interval union."""
    text = text.strip()
    if text.startswith("["):
        return IntervalUnion.from_json(text)
    pairs: list[Sequence[float]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, hi = chunk.split(",")
        pairs.append((float(lo), float(hi)))
    return normalize(pairs)
