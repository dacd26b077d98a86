"""Interval arithmetic: oracles are direct point-sampling membership tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contains, difference
from llab.intervals import (
    EMPTY,
    Interval,
    IntervalUnion,
    intersect,
    measure,
    normalize,
    overlap_measures,
    parse_union,
    singleton,
    union,
)

pairs = st.lists(
    st.tuples(
        st.floats(-50, 50, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
    ).map(lambda p: (min(p), max(p))),
    max_size=8,
)


def _member(u: IntervalUnion, x: float) -> bool:
    return any(p.lo < x < p.hi for p in u.parts)


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_normalize_merges_and_sorts():
    u = normalize([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)])
    assert [(p.lo, p.hi) for p in u.parts] == [(0.0, 2.0), (3.0, 4.0)]
    # abutting intervals merge
    v = normalize([(0.0, 1.0), (1.0, 2.0)])
    assert [(p.lo, p.hi) for p in v.parts] == [(0.0, 2.0)]


@given(pairs)
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(raw):
    u = normalize(raw)
    assert normalize(u.parts) == u


@given(pairs)
@settings(max_examples=200, deadline=None)
def test_parts_are_separated(raw):
    u = normalize(raw)
    for a, b in zip(u.parts, u.parts[1:]):
        assert a.hi < b.lo


@given(pairs, pairs)
@settings(max_examples=200, deadline=None)
def test_measure_inclusion_exclusion(raw_a, raw_b):
    a, b = normalize(raw_a), normalize(raw_b)
    lhs = measure(union(a, b)) + measure(intersect(a, b))
    rhs = measure(a) + measure(b)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(pairs, pairs)
@settings(max_examples=100, deadline=None)
def test_set_ops_match_membership_oracle(raw_a, raw_b):
    a, b = normalize(raw_a), normalize(raw_b)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-55, 55, size=200)
    eps = 1e-9
    for x in xs:
        in_a, in_b = _member(a, x), _member(b, x)
        # skip points within eps of any endpoint: membership there is a
        # boundary question the library deliberately ignores
        ends = [e for p in list(a.parts) + list(b.parts) for e in (p.lo, p.hi)]
        if any(abs(x - e) < eps for e in ends):
            continue
        assert _member(union(a, b), x) == (in_a or in_b)
        assert _member(intersect(a, b), x) == (in_a and in_b)
        assert _member(difference(a, b), x) == (in_a and not in_b)


@given(pairs, pairs)
@settings(max_examples=300, deadline=None)
def test_overlap_measures_are_the_intersect_loop(raw_a, raw_b):
    # bit for bit: the same clipped pieces, summed in the same order
    a, b = normalize(raw_a), normalize(raw_b)
    want = [intersect(a, IntervalUnion((part,))).measure for part in b.parts]
    assert overlap_measures(a, b) == want


def test_contains_is_measure_based():
    big = normalize([(0.0, 10.0)])
    small = normalize([(1.0, 2.0), (3.0, 4.0)])
    assert contains(big, small)
    assert not contains(small, big)
    assert contains(big, big)
    # boundary-touching subset still counts
    assert contains(big, normalize([(0.0, 10.0)]))


def test_difference_then_union_recovers():
    a = normalize([(0.0, 5.0)])
    b = normalize([(1.0, 2.0), (3.0, 4.0)])
    got = union(difference(a, b), intersect(a, b))
    assert measure(got) == pytest.approx(measure(a), rel=1e-12)


def test_singleton_and_empty():
    s = singleton(1.0, 2.0)
    assert s.measure == 1.0 and len(s) == 1
    assert measure(EMPTY) == 0.0 and not EMPTY


def test_parse_union_both_syntaxes():
    assert parse_union("1,2;3,4") == normalize([(1.0, 2.0), (3.0, 4.0)])
    assert parse_union("[[1,2],[3,4]]") == normalize([(1.0, 2.0), (3.0, 4.0)])


def test_json_round_trip():
    u = normalize([(0.0, 1.0), (2.5, 3.5)])
    assert IntervalUnion.from_json(u.to_json()) == u
    assert json.loads(u.to_json()) == [[0.0, 1.0], [2.5, 3.5]]
