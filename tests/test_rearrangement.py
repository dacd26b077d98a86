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

from conftest import step_functions
from llab.errors import ConfigurationError
from llab.intervals import normalize, singleton
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
from llab.weights import WeightModel


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
    ends = f.endpoints()
    probes = xs + [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
    probes += [np.nextafter(e, d) for e in ends for d in (-np.inf, np.inf)]
    for x in probes:
        assert f.value_at(float(x)) == scan_value_at(parts, float(x))


@given(step_functions())
@settings(max_examples=100, deadline=None)
def test_value_at_zero_at_endpoints_and_in_gaps(case):
    f, parts = case
    ends = f.endpoints()
    assert ends == sorted({e for lo, hi, _ in parts for e in (lo, hi)})
    assert all(f.value_at(e) == 0.0 for e in ends)
    for a, b in zip(ends, ends[1:]):
        if not any(lo <= a and b <= hi for lo, hi, _ in parts):
            assert f.value_at(0.5 * (a + b)) == 0.0
    if ends:
        assert f.value_at(ends[0] - 1.0) == f.value_at(ends[-1] + 1.0) == 0.0


def test_value_at_on_overlapping_parts_takes_the_first_piece():
    # make_step rejects overlaps, a StepFunction built directly may hold one
    f = StepFunction(((singleton(0.0, 1.0 + 1e-13), 2.0), (singleton(1.0, 2.0), 1.0)))
    assert [f.value_at(x) for x in (0.5, 1.0 + 5e-14, 1.5)] == [2.0, 2.0, 1.0]


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


def test_superlevel_sets():
    f = make_step([((0.0, 1.0), 2.0), ((1.0, 3.0), 1.0)])
    assert superlevel(f, 1.5) == normalize([(0.0, 1.0)])
    assert superlevel(f, 0.5) == normalize([(0.0, 3.0)])


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
    assert lorentz_norm(f.scaled(c), u, w, p) == pytest.approx(
        c * lorentz_norm(f, u, w, p), rel=1e-9
    )
    assert weak_lorentz_norm(f.scaled(c), u, w, p) == pytest.approx(
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
