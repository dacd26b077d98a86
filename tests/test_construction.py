"""Covering construction, extremal functions, and weak-type certificates.

Oracles:
  - covering: each output interval I_n must satisfy t|S ∩ I_n| = |I_n|
    exactly, the I_n are disjoint, and their union covers S; verified on
    hand-built cases and seeded random families.
  - extremal function: for every level lam in [|S|/|I|, 1], each component
    J of {f >= lam} must satisfy |S ∩ J| = lam |J|; the distribution
    identity |{f >= lam}| = |S|/lam and the mean value (1 + log s)/s with
    s = |I|/|S| follow and are checked against direct numerics.
  - certificate: for u = w = 1, p = 2, I = (0, e), S = (0, 1), the chain
    evaluates in closed form: the test function has norm^2 = 2 - 1/e, the
    threshold is 1/e, and the lower bound is (2e-1)^{-1/2}.
"""

import math

import numpy as np
import pytest

from conftest import random_pair
from llab.boyd import Configuration
from llab.construction import (
    ExtremalSum,
    build_extremal,
    cover,
    extremal_norm_p,
    weak_type_lower_bound,
    wbar_u_bound_from_weak,
)
from llab.errors import PreconditionError
from llab.intervals import (
    Interval,
    IntervalUnion,
    contains,
    intersect,
    normalize,
    parse_union,
    singleton,
    union,
)
from llab.weights import WeightModel


def check_cover(I, S, t):
    out = cover(I, S, t)
    # disjoint (allowing shared endpoints), inside I
    for a, b in zip(out, out[1:]):
        assert a.hi <= b.lo + 1e-12 * I.length
    covered = normalize(out)
    assert contains(normalize([I]), covered)
    assert contains(covered, S), "output must cover S"
    for J in out:
        part = intersect(S, IntervalUnion((J,))).measure
        assert t * part == pytest.approx(J.length, rel=1e-9)
    return out


def test_cover_hand_cases():
    out = check_cover(Interval(0.0, 4.0), singleton(1.0, 2.0), 2.0)
    assert [(j.lo, j.hi) for j in out] == [(1.0, 3.0)]
    out = check_cover(Interval(0.0, 4.0), singleton(3.0, 4.0), 2.0)
    assert [(j.lo, j.hi) for j in out] == [(2.0, 4.0)]
    check_cover(Interval(0.0, 6.0), parse_union("1,2;3,3.5"), 2.0)


def test_cover_trivial_ratio_one():
    S = parse_union("0.5,1;2,3")
    out = check_cover(Interval(0.0, 4.0), S, 1.0)
    assert normalize(out).measure == pytest.approx(S.measure)


def test_cover_random_families():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        I, S = random_pair(rng, max_components=8)
        t = float(rng.uniform(1.0, I.length / S.measure))
        check_cover(I, S, t)


def test_extremal_requires_subset():
    with pytest.raises((PreconditionError, ValueError)):
        build_extremal(Interval(0.0, 1.0), singleton(2.0, 3.0))


def test_extremal_m1_closed_form():
    # I=(0,4), S=(1,2): {f >= 1/2} = (2/3, 8/3) by the proportional
    # splitting ((b-x)/(b-a) = (y-c)/(d-c), y-x = |S|/lam)
    F = build_extremal(Interval(0.0, 4.0), singleton(1.0, 2.0))
    J = F.level_set(0.5)
    assert len(J.parts) == 1
    assert J.parts[0].lo == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert J.parts[0].hi == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert F.evaluate(1.5) == 1.0  # f = 1 on S
    assert F.evaluate(10.0) == 0.0  # zero off I
    assert F.floor == pytest.approx(0.25)


def _check_extremal_instance(I, S, n_lambda=50):
    F = build_extremal(I, S)
    floor = S.measure / I.length
    assert F.floor == pytest.approx(floor, rel=1e-12)
    prev = None
    for i in range(n_lambda):
        lam = min(floor + (1.0 - floor) * (i + 1) / n_lambda, 1.0)
        J = F.level_set(lam)
        # per-component proportionality
        for part in J.parts:
            got = intersect(S, IntervalUnion((part,))).measure
            assert got == pytest.approx(lam * part.length, rel=1e-9, abs=1e-12)
        # S sits inside the level set (f = 1 on S) and each S-component
        # lands in a single level-set component: never split across J's
        for sp in S.parts:
            holders = [
                part
                for part in J.parts
                if part.lo <= sp.lo + 1e-9 * I.length
                and sp.hi <= part.hi + 1e-9 * I.length
            ]
            assert len(holders) == 1
        # nesting: higher levels sit inside lower ones
        if prev is not None:
            assert contains(prev, J)
        prev = J
        # distribution identity
        assert J.measure == pytest.approx(S.measure / lam, rel=1e-9)
    # f = 1 on S, f >= floor on I (sample points)
    rng = np.random.default_rng(5)
    for sp in S.parts:
        xs = rng.uniform(sp.lo, sp.hi, size=5)
        for x in xs:
            assert F.evaluate(float(x)) == pytest.approx(1.0, rel=1e-9)
    for x in rng.uniform(I.lo, I.hi, size=20):
        assert F.evaluate(float(x)) >= floor * (1.0 - 1e-9)
    # mean value identity
    s = I.length / S.measure
    assert F.mean_value() == pytest.approx((1.0 + math.log(s)) / s, rel=1e-9)
    return F


def test_extremal_m2_instance():
    _check_extremal_instance(Interval(0.0, 4.0), parse_union("0.5,1;2.5,3"))


def test_extremal_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(40):
        I, S = random_pair(rng, max_components=6)
        _check_extremal_instance(I, S, n_lambda=20)


def test_extremal_mean_matches_quadrature():
    from scipy.integrate import quad

    I, S = Interval(0.0, 4.0), parse_union("0.5,1;2.5,3")
    F = build_extremal(I, S)
    pts = sorted({I.lo, I.hi, *(e for p in S.parts for e in (p.lo, p.hi))})
    oracle = quad(F.evaluate, I.lo, I.hi, points=pts, limit=400)[0] / I.length
    assert F.mean_value() == pytest.approx(oracle, rel=1e-7)


def test_extremal_sum_disjoint():
    F1 = build_extremal(Interval(0.0, 4.0), singleton(1.0, 2.0))
    F2 = build_extremal(Interval(10.0, 14.0), singleton(11.0, 12.0))
    T = ExtremalSum([F1, F2])
    J = T.level_set(0.5)
    assert J == union(F1.level_set(0.5), F2.level_set(0.5))
    assert T.evaluate(1.5) == 1.0 and T.evaluate(11.5) == 1.0
    with pytest.raises((PreconditionError, ValueError)):
        ExtremalSum([F1, build_extremal(Interval(1.0, 5.0), singleton(2.0, 3.0))])


# -- weak-type certificate ---------------------------------------------------


def _unit_family(s):
    I = Interval(0.0, s)
    S = singleton(0.0, 1.0)
    return Configuration(pairs=((I, S),), ratio=s)


def test_certificate_closed_form_lp2():
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    cert = weak_type_lower_bound(u, w, 2.0, _unit_family(math.e))
    assert cert.threshold == pytest.approx(1.0 / math.e, rel=1e-9)
    assert cert.test_norm**2 == pytest.approx(2.0 - 1.0 / math.e, rel=1e-9)
    assert cert.lower_bound == pytest.approx((2.0 * math.e - 1.0) ** -0.5, abs=1e-3)


def test_test_function_norm_matches_direct_integral():
    # ||f||^p in Lambda^p(w): f is the extremal function, u = 1 so the
    # rearrangement is governed by the distribution identity |{f>=lam}| =
    # |S|/lam on [floor, 1]; integrate (f*)^p w directly on a fine grid
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.power(0.5)
    fam = _unit_family(4.0)
    p = 2.0
    total = ExtremalSum([build_extremal(I, S) for I, S in fam.pairs])
    got = extremal_norm_p(u, w, p, total, fam.ratio)
    # oracle: f* equals 1 on (0,|S|) and |S|/t on (|S|, |I|), as the
    # inverse of the distribution function; integrate p-th power times w
    from scipy.integrate import quad

    S_mass, I_mass = 1.0, 4.0
    oracle = quad(lambda tt: w.value(tt) * 1.0, 0.0, S_mass)[0]
    oracle += quad(lambda tt: w.value(tt) * (S_mass / tt) ** p, S_mass, I_mass)[0]
    assert got == pytest.approx(oracle, rel=1e-8)


def test_certificate_requires_stretch():
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    with pytest.raises(PreconditionError):
        weak_type_lower_bound(u, w, 2.0, _unit_family(1.0))


def test_wbar_bound_consistency():
    # for u = w = 1 the exact index function is wbar_u(s) = s; the bound
    # derived from the weak-type constant C = 1 must dominate it
    for s in [2.0**k for k in range(1, 9)]:
        assert wbar_u_bound_from_weak(1.0, 2.0, s) >= s * (1.0 - 1e-12)


def test_certificate_scales_with_weight():
    # doubling w doubles W and scales the bound by 2^{1/p} / 2^{1/p} = 1
    u = WeightModel.constant(domain_kind="line")
    cert1 = weak_type_lower_bound(u, WeightModel.constant(), 2.0, _unit_family(4.0))
    cert2 = weak_type_lower_bound(
        u, WeightModel.constant(coef=2.0), 2.0, _unit_family(4.0)
    )
    assert cert2.lower_bound == pytest.approx(cert1.lower_bound, rel=1e-9)
