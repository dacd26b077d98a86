"""Rearrangements and Lorentz quasi-norms.

Primary oracle: the layer-cake / equimeasurability identity
    integral of |f|^p du  =  integral of (f*_u)^p dt
holds for every p > 0 and every weight u; the left side is computed by
scipy quadrature of u over the step regions, the right side from the
rearrangement. A sorting oracle covers the u = 1 case directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    distribution_oracle,
    lorentz_norms_oracle,
    make_step_oracle,
    rearrange_oracle,
    scaled,
    step_functions,
)
from llab.errors import ConfigurationError, PreconditionError
from llab.intervals import Interval, IntervalUnion, normalize, singleton
from llab.rearrangement import (
    DecreasingStep,
    StepFunction,
    distribution,
    indicator,
    lorentz_norm,
    make_step,
    rearrange,
    superlevel,
    weak_lorentz_norm,
)
from llab.operators import apply_operator
from llab.weights import Segment, WeightModel


def random_step(rng, n_pieces=4):
    cuts = np.sort(rng.uniform(-8.0, 8.0, size=2 * n_pieces))
    pieces = []
    for k in range(n_pieces):
        lo, hi = float(cuts[2 * k]), float(cuts[2 * k + 1])
        if hi - lo > 1e-6:
            pieces.append((singleton(lo, hi), float(rng.uniform(0.1, 5.0))))
    return make_step(pieces)


def u_integral(u, region):
    return sum(
        quad(u.value, p.lo, p.hi, limit=200)[0] for p in region.parts
    )


# -- construction ------------------------------------------------------------


def test_make_step_merges_equal_values():
    f = make_step([((0.0, 1.0), 2.0), ((3.0, 4.0), 2.0), ((1.0, 2.0), 1.0)])
    assert len(f.pieces) == 2
    vals = sorted(v for _, v in f.pieces)
    assert vals == [1.0, 2.0]


def test_make_step_rejects_overlap():
    with pytest.raises(ValueError):
        make_step([((0.0, 2.0), 1.0), ((1.0, 3.0), 2.0)])


def test_value_at():
    f = make_step([((0.0, 1.0), 2.0), ((2.0, 3.0), 1.0)])
    assert f.value_at(0.5) == 2.0
    assert f.value_at(2.5) == 1.0
    assert f.value_at(1.5) == 0.0


def scan_value_at(parts, x):
    """f(x) by a linear scan over every part, the open interval (lo, hi)."""
    return next((v for lo, hi, v in parts if lo < x < hi), 0.0)


@given(step_functions(), st.lists(st.floats(-60.0, 60.0), max_size=50))
@settings(max_examples=100, deadline=None)
def test_value_at_matches_linear_scan(case, xs):
    f, parts = case
    ends = f.ends
    probes = xs + [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
    probes += [np.nextafter(e, d) for e in ends for d in (-np.inf, np.inf)]
    for x in probes:
        assert f.value_at(float(x)) == scan_value_at(parts, float(x))


@given(step_functions())
@settings(max_examples=100, deadline=None)
def test_value_at_zero_at_endpoints_and_in_gaps(case):
    f, parts = case
    ends = f.ends
    assert list(ends) == sorted({e for lo, hi, _ in parts for e in (lo, hi)})
    assert all(f.value_at(e) == 0.0 for e in ends)
    for a, b in zip(ends, ends[1:]):
        if not any(lo <= a and b <= hi for lo, hi, _ in parts):
            assert f.value_at(0.5 * (a + b)) == 0.0
    if ends:
        assert f.value_at(ends[0] - 1.0) == f.value_at(ends[-1] + 1.0) == 0.0


def test_step_function_validation():
    for ends, values in [
        ((0.0, 2.0, 1.0), (1.0, 2.0)),  # unsorted ends
        ((0.0, 1.0, 1.0), (1.0, 2.0)),  # a repeated end
        ((0.0, math.nan, 2.0), (1.0, 2.0)),
        ((0.0, 1.0, 2.0), (1.0,)),  # one value short
        ((0.0, 1.0), (1.0, 2.0)),
        ((0.0,), ()),  # an end without a gap
        ((0.0, 1.0, 2.0), (1.0, 1.0)),  # adjacent equal values
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 0.0)),
        ((0.0, 1.0, 2.0), (0.0, 1.0)),  # a zero first gap
        ((0.0, 1.0, 2.0), (1.0, 0.0)),  # a zero last gap
        ((0.0, 1.0, 2.0, 3.0), (1.0, -1.0, 2.0)),  # a negative value
        ((0.0, 1.0, 2.0, 3.0), (1.0, math.nan, 2.0)),
    ]:
        with pytest.raises(ValueError):
            StepFunction(ends, values)
    f = StepFunction((0.0, 1.0, 2.0, 3.0), (2.0, 0.0, 1.0))
    assert f == make_step([((2.0, 3.0), 1.0), ((0.0, 1.0), 2.0)])
    assert scaled(f, 2.0) == StepFunction((0.0, 1.0, 2.0, 3.0), (4.0, 0.0, 2.0))
    for c in (0.0, -1.0):
        with pytest.raises(ValueError):
            scaled(f, c)
    with pytest.raises(ValueError):  # the middle value underflows to 0
        scaled(StepFunction((0.0, 1.0, 2.0, 3.0), (1.0, 1e-300, 2.0)), 1e-300)
    with pytest.raises(ValueError):  # the two values round to one
        scaled(StepFunction((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 1.0 + 2.0**-52)), 1e-310)


_COORDS = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2.0**-40, 1.5, 2.0, 3.0, 4.0])
_ORDERED = st.tuples(_COORDS, _COORDS).map(lambda p: (min(p), max(p)))  # degenerate at times
_RAW_PAIRS = st.one_of(
    _ORDERED,
    _ORDERED,
    _ORDERED.map(list),
    st.tuples(_COORDS, _COORDS),  # reversed at times
    st.tuples(st.just(math.nan), _COORDS),
    st.tuples(_COORDS, st.just(math.nan)),
)
_INTERVALS = _ORDERED.filter(lambda p: p[0] < p[1]).map(lambda p: Interval(*p))
_REGIONS = st.one_of(
    _INTERVALS,
    st.lists(_INTERVALS, max_size=3).map(lambda parts: IntervalUnion(tuple(parts))),  # unsorted at times
    st.lists(_ORDERED, max_size=3).map(normalize),
    _RAW_PAIRS,
    st.lists(st.one_of(_RAW_PAIRS, _INTERVALS), max_size=3),
)
# mostly positive; at times 0 or negative, which make_step rejects
_VALUES = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 2.0, 3.0, 0.0, -1.0]))


@st.composite
def _disjoint_pieces(draw):
    """Pieces on distinct half-unit cells, so that none overlap and many
    abut, valued from a pool of four, each region in one of the forms
    make_step accepts."""
    cells = [(k / 2.0, k / 2.0 + 0.5) for k in draw(st.permutations(range(16)))]
    pieces = []
    for size in draw(st.lists(st.integers(1, 3), max_size=5)):
        part, cells = cells[:size], cells[size:]
        forms = [part, [list(c) for c in part], [Interval(*c) for c in part], normalize(part)]
        forms += [IntervalUnion(tuple(Interval(*c) for c in part))]  # unsorted and abutting at times
        forms += [part[0], Interval(*part[0])] if size == 1 else []
        pieces.append((draw(st.sampled_from(forms)), draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))))
    return pieces


def _outcome(build, pieces):
    """(pieces, JSON, table) of the step built from pieces, or the type of
    the exception the build raised."""
    try:
        f = build(pieces)
    except ValueError as exc:  # PreconditionError is one
        return type(exc)
    return f.pieces, f.to_json(), f.table


@given(st.one_of(_disjoint_pieces(), st.lists(st.tuples(_REGIONS, _VALUES), max_size=6)))
@settings(max_examples=500, deadline=None)
def test_make_step_matches_the_union_per_value_oracle(pieces):
    assert _outcome(make_step, pieces) == _outcome(make_step_oracle, pieces)


def test_make_step_rejects_a_sliver_of_overlap():
    with pytest.raises(ValueError):
        make_step([((0.0, 1.0 + 1e-13), 2.0), ((1.0, 2.0), 1.0)])
    with pytest.raises(ValueError):
        make_step([((0.0, 1.0), 2.0), ((2.0, 3.0), 2.0), ((3.0 - 1e-13, 4.0), 1.0)])
    f = make_step([((0.0, 1.0), 2.0), ((1.0, 2.0), 1.0), ((2.0, 3.0), 3.0), ((3.0, 4.0), 1.0)])
    assert [f.value_at(x) for x in (0.5, 1.5, 2.5, 3.5)] == [2.0, 1.0, 3.0, 1.0]


def test_decreasing_step_validation():
    with pytest.raises(ValueError):
        DecreasingStep(breakpoints=(0.0, 1.0, 2.0), values=(1.0, 2.0))  # increasing
    g = DecreasingStep(breakpoints=(0.0, 1.0, 3.0), values=(2.0, 0.5))
    assert g(0.5) == 2.0 and g(2.0) == 0.5 and g(5.0) == 0.0


# -- distribution and rearrangement -----------------------------------------


def test_distribution_unit_weight():
    u = WeightModel.constant(domain_kind="line")
    f = make_step([((0.0, 1.0), 2.0), ((1.0, 3.0), 1.0)])
    assert distribution(f, u, 1.5) == pytest.approx(1.0)
    assert distribution(f, u, 0.5) == pytest.approx(3.0)
    assert distribution(f, u, 2.5) == 0.0


def test_distribution_above_every_level_is_float_zero():
    # the sum over no level used to start from the int 0
    f = make_step([((0.0, 1.0), 2.0)])
    got = distribution(f, WeightModel.power(1.0, domain_kind="line"), 5.0)
    assert type(got) is float and got == 0.0


def test_superlevel_sets():
    f = make_step([((0.0, 1.0), 2.0), ((1.0, 3.0), 1.0)])
    assert superlevel(f, 1.5) == normalize([(0.0, 1.0)])
    assert superlevel(f, 0.5) == normalize([(0.0, 3.0)])


@pytest.mark.parametrize("s", [-1.0, math.nan])
def test_levels_must_be_nonnegative(s):
    # superlevel(f, -1) used to return the support, distribution(f, u, nan) 0.0
    f = make_step([((0.0, 1.0), 2.0), ((2.0, 3.0), 1.0)])
    with pytest.raises(ValueError, match="nonnegative"):
        superlevel(f, s)
    with pytest.raises(ValueError, match="nonnegative"):
        distribution(f, WeightModel.constant(domain_kind="line"), s)


def test_distribution_matches_quadrature():
    rng = np.random.default_rng(3)
    u = WeightModel.power(1.0, domain_kind="line")
    for _ in range(20):
        f = random_step(rng)
        s = float(rng.uniform(0.05, 5.0))
        assert distribution(f, u, s) == pytest.approx(
            u_integral(u, superlevel(f, s)), rel=1e-8, abs=1e-10
        )


def test_rearrange_sorting_oracle_unit_weight():
    # for u = 1 the rearrangement is the sorted value sequence with
    # Lebesgue lengths: check against explicit sorting on random steps
    rng = np.random.default_rng(7)
    u = WeightModel.constant(domain_kind="line")
    for _ in range(200):
        f = random_step(rng, n_pieces=int(rng.integers(1, 6)))
        g = rearrange(f, u)
        ordered = sorted(
            ((v, region.measure) for region, v in f.pieces), reverse=True
        )
        t = 0.0
        for v, length in ordered:
            mid = t + 0.5 * length
            assert g(mid) == pytest.approx(v, rel=1e-12)
            t += length
        assert g(t * 1.01) == 0.0


def test_rearrange_is_decreasing_and_equimeasurable():
    rng = np.random.default_rng(11)
    u = WeightModel.power(1.0, domain_kind="line")
    for _ in range(50):
        f = random_step(rng)
        g = rearrange(f, u)
        assert all(a > b for a, b in zip(g.values, g.values[1:]))
        # equimeasurability: u{f > s} = |{g > s}| for s between values
        levels = sorted(v for _, v in f.pieces)
        probes = [0.5 * levels[0]] + [
            0.5 * (a + b) for a, b in zip(levels, levels[1:])
        ]
        for s in probes:
            mass = distribution(f, u, s)
            lebesgue = sum(
                hi - lo
                for (lo, hi), v in zip(
                    zip(g.breakpoints, g.breakpoints[1:]), g.values
                )
                if v > s
            )
            assert mass == pytest.approx(lebesgue, rel=1e-9, abs=1e-12)


_ORACLE_US = {
    "abs": WeightModel.power(1.0, domain_kind="line"),
    "three": WeightModel(
        (Segment(0.0, 0.8, 1.3, 0.35), Segment(0.8, 2.1, 0.7, -1.0), Segment(2.1, 3.5, 0.4, 1.2)),
        domain_kind="line",
        tail_coef=1.0,
        tail_exp=0.45,
    ),
    "half": WeightModel(
        (Segment(0.0, 0.5, 1.0, 0.3), Segment(0.5, 2.0, 0.8, -1.0), Segment(2.0, 6.0, 0.5, 0.6)),
        tail_coef=0.9,
        tail_exp=0.25,
    ),
}
_ORACLE_W = WeightModel(
    (Segment(0.0, 0.5, 1.0, 0.3), Segment(0.5, 2.0, 0.8, -0.2), Segment(2.0, 6.0, 0.5, 0.6)),
    tail_coef=0.9,
    tail_exp=0.25,
)


def _bits(xs):
    return [float(x).hex() for x in xs]


def assert_level_layer_matches_oracles(f, u):
    """rearrange, distribution at 0, at every value of f and between values,
    and both Lorentz norms, bit for bit against the loops over the level sets."""
    if u.domain_kind == "half_line" and f.ends:  # the same cells moved to start at 0
        f = StepFunction(tuple(e - f.ends[0] for e in f.ends), f.values)
    g, oracle = rearrange(f, u), rearrange_oracle(f, u)
    assert (_bits(g.breakpoints), _bits(g.values)) == (_bits(oracle.breakpoints), _bits(oracle.values))
    levels = sorted({0.0, *f.values})
    for s in levels + [0.5 * (a + b) for a, b in zip(levels, levels[1:])]:
        got, want = distribution(f, u, s), distribution_oracle(f, u, s)
        assert repr(got) == repr(want)
    for p in (0.5, 1.5, 3.0):
        got = lorentz_norm(f, u, _ORACLE_W, p), weak_lorentz_norm(f, u, _ORACLE_W, p)
        assert _bits(got) == _bits(lorentz_norms_oracle(f, u, _ORACLE_W, p))


@given(step_functions(max_pieces=60), st.sampled_from(sorted(_ORACLE_US)))
@settings(max_examples=150, deadline=None)
def test_level_layer_is_the_loop_over_level_sets(case, u_name):
    # repeated values give levels of several parts; empty cells give zero gaps
    f, _ = case
    assert_level_layer_matches_oracles(f, _ORACLE_US[u_name])


@pytest.mark.parametrize("op", ["maximal", "hilbert", "hstar"])
def test_level_layer_on_operator_images(op):
    rng = np.random.default_rng(23)
    for _ in range(3):
        image = apply_operator(op, random_step(rng, n_pieces=6), _ORACLE_US["abs"])
        for u in _ORACLE_US.values():
            assert_level_layer_matches_oracles(image, u)


def test_rearrange_keeps_its_overflow_and_domain_errors():
    huge = WeightModel.constant(1e300, domain_kind="line")
    f = make_step([((0.0, 1e10), 2.0), ((2e10, 3e10), 1.0)])
    with pytest.raises(PreconditionError, match="level sets overflow to nan"):
        rearrange(f, huge)
    with pytest.raises(ConfigurationError, match="escapes the half-line"):
        rearrange(make_step([((-1.0, 1.0), 2.0)]), WeightModel.constant())


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
def test_layer_cake_identity(p):
    # integral of |f|^p du == integral of (f*_u)^p dt (w = 1 Lorentz norm)
    rng = np.random.default_rng(13)
    u = WeightModel.power(0.5, domain_kind="line")
    w1 = WeightModel.constant()
    for _ in range(10):
        f = random_step(rng)
        lhs = sum(
            v**p * u_integral(u, region) for region, v in f.pieces
        )
        rhs = lorentz_norm(f, u, w1, p) ** p
        assert rhs == pytest.approx(lhs, rel=1e-8)


def test_lorentz_norm_known_values():
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    f = make_step([((0.0, 1.0), 2.0), ((1.0, 3.0), 1.0)])
    assert lorentz_norm(f, u, w, 1.0) == pytest.approx(4.0)
    assert lorentz_norm(f, u, w, 2.0) == pytest.approx(math.sqrt(6.0))
    assert weak_lorentz_norm(f, u, w, 1.0) == pytest.approx(3.0)
    assert weak_lorentz_norm(f, u, w, 2.0) == pytest.approx(max(2.0, math.sqrt(3.0)))


def test_weak_norm_grid_oracle():
    rng = np.random.default_rng(17)
    u = WeightModel.power(1.0, domain_kind="line")
    w = WeightModel.power(0.5)
    p = 2.0
    for _ in range(20):
        f = random_step(rng)
        g = rearrange(f, u)
        grid = np.linspace(1e-6, g.breakpoints[-1] * 1.1, 4000)
        oracle = max(g(t) * w.primitive(t) ** (1.0 / p) for t in grid)
        got = weak_lorentz_norm(f, u, w, p)
        assert got >= oracle - 1e-9
        assert got == pytest.approx(oracle, rel=5e-3)


@given(st.floats(0.1, 10.0), st.floats(0.5, 4.0))
@settings(max_examples=60, deadline=None)
def test_norm_homogeneity(c, p):
    u = WeightModel.power(1.0, domain_kind="line")
    w = WeightModel.power(0.5)
    f = make_step([((-1.0, 0.5), 2.0), ((1.0, 2.0), 1.0)])
    assert lorentz_norm(scaled(f, c), u, w, p) == pytest.approx(
        c * lorentz_norm(f, u, w, p), rel=1e-9
    )
    assert weak_lorentz_norm(scaled(f, c), u, w, p) == pytest.approx(
        c * weak_lorentz_norm(f, u, w, p), rel=1e-9
    )


def test_norm_monotone_in_function():
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.power(1.0)
    f = indicator((0.0, 2.0))
    g = make_step([((0.0, 2.0), 1.0), ((3.0, 4.0), 0.5)])
    assert lorentz_norm(g, u, w, 2.0) >= lorentz_norm(f, u, w, 2.0)


def test_json_round_trip():
    f = make_step([((0.0, 1.0), 2.0), ((2.0, 3.0), 1.0)])
    from llab.rearrangement import StepFunction

    assert StepFunction.from_json(f.to_json()) == f
