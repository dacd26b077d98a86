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
  - layer-cake kernel: closed forms; scipy's quad split at the same kinks;
    and the bracket that monotonicity of the level-set mass proves,
    sum g(lam_{i+1}) d(lam^p) <= integral <= sum g(lam_i) d(lam^p).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import contains, cover_oracle, deep_pair, extremal_oracle, random_pair, shallow_stack
from llab import construction
from llab.boyd import Configuration, compute_estimates
from llab.construction import (
    ExtremalSum,
    _level_kinks,
    build_extremal,
    cover,
    extremal_norm_p_and_error,
    layer_cake,
    weak_type_lower_bound,
)
from llab.errors import PreconditionError
from llab.intervals import (
    Interval,
    IntervalUnion,
    intersect,
    normalize,
    parse_union,
    singleton,
    union,
)
from llab.rearrangement import lorentz_norm, make_step, weak_lorentz_norm
from llab.weights import Segment, WeightModel, check_Bp


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
    got = extremal_norm_p_and_error(u, w, p, total, fam.ratio)[0]
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


def test_nan_p_is_rejected():
    # each entry point that takes p raises for NaN and inf the error it raises
    # for p out of range, not a NaN or wrong norm or a failure after the searches
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    f = make_step([((0.0, 1.0), 2.0)])
    for p in (math.nan, math.inf):
        for norm in (lorentz_norm, weak_lorentz_norm):
            with pytest.raises(ValueError, match="p must be positive"):
                norm(f, u, w, p)
        with pytest.raises(PreconditionError, match="p must be positive"):
            compute_estimates(u, w, p)
        with pytest.raises(PreconditionError, match="targets p > 1"):
            weak_type_lower_bound(u, w, p, _unit_family(math.e))


def test_bp_check_and_index_bound_reject_a_bad_p():
    # check_Bp blamed the weight for a NaN or infinite p and gave a divergent
    # verdict for p <= 0
    w = WeightModel.power(0.5)
    for p in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(PreconditionError, match="p must be positive and finite"):
            check_Bp(w, p)


def test_nan_level_or_point_is_rejected():
    # a NaN level, point or ratio names itself instead of giving an empty
    # level set, the floor value, a zero mass or an interval error
    I, S = Interval(0.0, 10.0), normalize([(1.0, 2.0), (4.0, 5.0)])
    F = build_extremal(I, S)
    total = ExtremalSum([F])
    u = WeightModel.constant(domain_kind="line")
    for call, name in (
        (lambda: F.level_set(math.nan), "lam = nan"),
        (lambda: F.evaluate(math.nan), "x = nan"),
        (lambda: total.level_mass(u, math.nan), "lam = nan"),
        (lambda: cover(I, S, math.nan), "got nan"),
    ):
        with pytest.raises(PreconditionError, match=name):
            call()


def test_certificate_scales_with_weight():
    # doubling w doubles W and scales the bound by 2^{1/p} / 2^{1/p} = 1
    u = WeightModel.constant(domain_kind="line")
    cert1 = weak_type_lower_bound(u, WeightModel.constant(), 2.0, _unit_family(4.0))
    cert2 = weak_type_lower_bound(
        u, WeightModel.constant(coef=2.0), 2.0, _unit_family(4.0)
    )
    assert cert2.lower_bound == pytest.approx(cert1.lower_bound, rel=1e-9)


# -- layer-cake kernel ---------------------------------------------------------


def _counted(f):
    calls = [0]

    def g(lam):
        calls[0] += 1
        return f(lam)

    return g, calls


def test_layer_cake_power_law_is_one_piece():
    # p lam^(p-1) lam^-3 with p = 2 is 2 lam^-2, an exponential in log lam
    g, calls = _counted(lambda lam: lam**-3.0)
    value, error = layer_cake(2.0, g, [], 0.1, 1.0)
    assert abs(value - 18.0) <= error < 1e-12 * 18.0
    assert calls[0] == 24


def test_layer_cake_grades_toward_a_singular_end():
    # sqrt(1 - lam) has an unbounded derivative at hi = 1
    exact = 2.0 / 3.0 * 0.75**1.5
    g, calls = _counted(lambda lam: math.sqrt(1.0 - lam))
    value, error = layer_cake(1.0, g, [], 0.25, 1.0)
    assert abs(value - exact) <= error < 1e-12 * exact
    assert calls[0] > 24


def test_layer_cake_cuts_at_kinks():
    # a kink at 0.6 given is one more piece; not given, halving finds it at
    # many times the cost, and the error still bounds the miss
    f = lambda lam: abs(lam - 0.6) + 1.0  # noqa: E731
    exact = 0.35**2 / 2.0 + 0.4**2 / 2.0 + 0.75
    g, calls = _counted(f)
    value, error = layer_cake(1.0, g, [0.6, 2.0], 0.25, 1.0)
    assert abs(value - exact) <= error < 1e-12 and calls[0] == 48
    g, calls = _counted(f)
    value, error = layer_cake(1.0, g, [], 0.25, 1.0)
    assert abs(value - exact) <= error < 1e-12 and calls[0] > 10 * 48


def _quad_calls(u, w, p, fam):
    """Integrand calls of the adaptive quadrature at its old tolerances."""
    total = ExtremalSum([build_extremal(I, S) for I, S in fam.pairs])
    calls = [0]

    def integrand(lam):
        calls[0] += 1
        return p * lam ** (p - 1.0) * w.primitive(total.level_mass(u, lam))

    quad(integrand, 1.0 / fam.ratio, 1.0, limit=200, epsabs=1e-12, epsrel=1e-11)
    return calls[0]


def _kernel_calls(u, w, p, fam, monkeypatch):
    calls = []
    kernel = construction.layer_cake

    def counting(p, mass_at_level, kinks, lo, hi):
        g, n = _counted(mass_at_level)
        calls.append(n)
        return kernel(p, g, kinks, lo, hi)

    monkeypatch.setattr(construction, "layer_cake", counting)
    cert = weak_type_lower_bound(u, w, p, fam)
    monkeypatch.undo()
    return cert, calls[0][0]


def _family(I, parts):
    I, S = Interval(*I), normalize(parts)
    return Configuration(pairs=((I, S),), ratio=I.length / S.measure)


@pytest.mark.parametrize(
    "I, parts",
    [
        ((0.0, math.e), [(0.0, 1.0)]),
        ((0.0, 8.0), [(1.0, 2.0), (3.0, 4.0)]),
        ((0.0, 12.0), [(1.0, 2.0), (3.0, 4.0), (6.0, 7.0)]),
        ((-4.0, 4.0), [(-2.0, -1.0), (0.5, 1.5)]),
    ],
)
def test_certificate_calls_against_quad(I, parts, monkeypatch):
    u, w = WeightModel.power(1.0, domain_kind="line"), WeightModel.power(0.5)
    fam = _family(I, parts)
    cert, calls = _kernel_calls(u, w, 2.0, fam, monkeypatch)
    if len(parts) == 1:
        assert calls <= 24  # quad: 21
    else:
        assert calls < _quad_calls(u, w, 2.0, fam)
    assert 0.0 < cert.quadrature_error < 1e-12 * cert.test_norm**2


def test_certificate_for_constant_u_is_one_piece(monkeypatch):
    # u = 1: the mass |S|/lam is one analytic piece, whatever the touching levels
    u, w = WeightModel.constant(domain_kind="line"), WeightModel.power(0.43)
    fam = _family((0.0, 11.0), [(0.5, 1.7), (3.0, 3.9), (6.2, 7.0), (9.1, 10.0)])
    _, calls = _kernel_calls(u, w, 2.0, fam, monkeypatch)
    assert calls == 24


_U3_TAIL = (Segment(0.8, 2.1, 0.7, 0.0), Segment(2.1, 3.5, 0.4, 1.2))
_W3 = WeightModel(
    segments=(Segment(0.0, 1.1, 1.0, 0.35), Segment(1.1, 2.4, 1.6, -1.0), Segment(2.4, 3.2, 0.6, 0.8)),
    tail_coef=1.0,
    tail_exp=0.3,
)


@st.composite
def certificate_inputs(draw):
    """(u, w, p, family): u constant, |x| or three segments on the line (the
    first exponent may be negative), w a power or three segments with an
    exp = -1 segment, and a family of one or two pairs at a common ratio
    with 1-4 components of S in all."""
    u_kind = draw(st.sampled_from(["constant", "abs", "three"]))
    if u_kind == "constant":
        u = WeightModel.constant(domain_kind="line")
    elif u_kind == "abs":
        u = WeightModel.power(1.0, domain_kind="line")
    else:
        head = Segment(0.0, 0.8, 1.3, draw(st.floats(-0.7, 1.0)))
        u = WeightModel((head, *_U3_TAIL), domain_kind="line", tail_coef=1.0, tail_exp=0.45)
    w = draw(st.sampled_from([None, _W3])) or WeightModel.power(draw(st.floats(-0.5, 1.5)))
    p = draw(st.floats(1.2, 3.0))
    s = draw(st.floats(1.5, 8.0))
    counts = draw(st.sampled_from([(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start, pairs = float(rng.uniform(-4.0, 1.0)), []
    for k in counts:
        lengths = rng.uniform(0.2, 1.5, size=k)
        gaps = rng.uniform(0.1, 2.0, size=k - 1)
        m, room = float(lengths.sum()), 0.9 * s * float(lengths.sum())
        if m + gaps.sum() > room:
            gaps *= (room - m) / gaps.sum()
        L = s * m
        lo = start + float(rng.uniform(0.0, L - m - gaps.sum()))
        parts = []
        for length, gap in zip(lengths, [*gaps, 0.0]):
            parts.append((lo, lo + float(length)))
            lo += float(length + gap)
        pairs.append((Interval(start, start + L), normalize(parts)))
        start += L + float(rng.uniform(0.1, 2.0))
    return u, w, p, Configuration(pairs=tuple(pairs), ratio=s)


@given(certificate_inputs())
@settings(max_examples=50, deadline=None)
def test_extremal_norm_against_quad_and_monotone_bracket(inputs):
    u, w, p, fam = inputs
    total = ExtremalSum([build_extremal(I, S) for I, S in fam.pairs])
    s = fam.ratio
    value, error = extremal_norm_p_and_error(u, w, p, total, s)

    def g(lam):
        return w.primitive(total.level_mass(u, lam))

    lo = 1.0 / s
    flat = s**-p * w.primitive(sum(u.mass(I.lo, I.hi) for I, _ in fam.pairs))
    kinks = sorted({k for k in _level_kinks(u, w, total, lo, 1.0) if lo < k < 1.0})
    middle, estimate = quad(
        lambda lam: p * lam ** (p - 1.0) * g(lam), lo, 1.0, points=kinks or None, limit=400, epsabs=0.0, epsrel=1e-13
    )
    assert abs(value - (flat + middle)) <= max(1e-12 * abs(value), estimate + error)

    # g decreases in lam, so each slice of the layer cake lies between its
    # end values times d(lam^p)
    levels = np.linspace(lo, 1.0, 2001).tolist()
    gs = [g(lam) for lam in levels]
    steps = [b**p - a**p for a, b in zip(levels, levels[1:])]
    below = flat + math.fsum(gb * d for gb, d in zip(gs[1:], steps))
    above = flat + math.fsum(ga * d for ga, d in zip(gs, steps))
    assert below <= value <= above


# -- the layers against the recursion tree -----------------------------------


@st.composite
def extremal_cases(draw):
    """(I, S): S = I; 2-8 components of one width with gaps growing
    geometrically, so the level intervals meet a pair at a time; or 1-8
    components at random, the first and last possibly at I's ends."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, kind = float(rng.uniform(-5.0, 2.0)), draw(st.sampled_from(["fill", "geometric", "random"]))
    if kind == "fill":
        I = Interval(lo, lo + float(rng.uniform(0.5, 10.0)))
        return I, IntervalUnion((I,))
    if kind == "geometric":
        n, growth, width = draw(st.integers(2, 8)), draw(st.floats(1.001, 3.0)), float(rng.uniform(0.05, 1.0))
        p, parts = lo + float(rng.uniform(0.0, 1.0)), []
        for k in range(n):
            parts.append((p, p + width))
            p += width + 0.1 * growth**k
        return Interval(lo, p + float(rng.uniform(0.0, 1.0))), normalize(parts)
    hi = lo + float(rng.uniform(0.5, 20.0))
    cuts = np.sort(rng.uniform(lo, hi, size=2 * draw(st.integers(1, 8)))).tolist()
    cuts[0] = lo if draw(st.booleans()) else cuts[0]
    cuts[-1] = hi if draw(st.booleans()) else cuts[-1]
    return Interval(lo, hi), normalize([(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if b > a])


_KNOTS = {
    "constant": WeightModel.constant(domain_kind="line").knots,
    "abs": WeightModel.power(1.0, domain_kind="line").knots,
    "three": WeightModel(
        (Segment(0.0, 0.8, 1.3, -0.4), *_U3_TAIL), domain_kind="line", tail_coef=1.0, tail_exp=0.45
    ).knots,
}


@given(extremal_cases(), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_layers_match_the_recursion_tree_bit_for_bit(case, share):
    I, S = case
    old, new = extremal_oracle(I, S), build_extremal(I, S)
    assert repr((new.floor, new.mean_value())) == repr((old.floor, old.mean_value()))
    touching, node, scale = [], old, 1.0  # each node's lam0 on the scale of the top
    while node is not None:
        if node.lam0 is not None:
            scale *= node.lam0
            touching += [scale, math.nextafter(scale, 0.0), math.nextafter(scale, 2.0)]
        node = node.outer
    lams = [old.floor, math.nextafter(old.floor, 2.0), *(k / 64 for k in range(1, 65)), 1.5, *touching]
    for lam in lams:
        assert repr(new.level_set(lam)) == repr(old.level_set(lam)), lam
    ends = [e for J in old.all_blocks() for e in (J.lo, J.hi)] + [e for J in S.parts for e in (J.lo, J.hi)]
    for x in [I.lo - 1.0, I.lo, I.hi, I.hi + 1.0, *ends, *np.linspace(I.lo, I.hi, 41).tolist()]:
        assert repr(new.evaluate(x)) == repr(old.evaluate(x)), x
    for name, knots in _KNOTS.items():
        assert repr(new.kinks(knots)) == repr(old.kinks(knots)), name
    limit = I.length / S.measure
    for t in (1.0, 1.0 + share * (limit - 1.0), limit):
        assert repr(cover(I, S, t)) == repr(cover_oracle(I, S, t)), t


def test_deep_sets_need_no_recursion():
    # one layer per component, and one cover block per component of the
    # evenly spaced set: code recursing once per layer or block fails here
    I, S = deep_pair(300, 1.01)
    even = normalize([(k, k + 0.5) for k in range(320)])
    with shallow_stack():
        F = build_extremal(I, S)
        levels = [F.level_set(lam) for lam in (0.5 * F.floor, 1.5 * F.floor, 0.5, 1.0)]
        values = [F.evaluate(x) for x in (I.lo, 0.5 * (I.lo + I.hi), S.parts[-1].hi + 0.5)]
        kinks = F.kinks(WeightModel.power(1.0, domain_kind="line").knots)
        covers = [cover(Interval(0.0, 330.0), even, t) for t in (1.0, 2.0)]
    assert len(F.layers) == 300
    assert levels[0].parts == (I,) and levels[-1] == S
    assert F.floor <= min(values) <= max(values) < 1.0
    assert len(kinks) == 2 * 300
    assert [len(c) for c in covers] == [320, 320]
    for lam, J in zip((1.5 * F.floor, 0.5), levels[1:]):
        assert J.measure == pytest.approx(S.measure / lam, rel=1e-9)
