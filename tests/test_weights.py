"""Weight models and class certifications.

Oracles: scipy adaptive quadrature for every closed-form integral, plus
hand-derived constants for pure powers w(t) = t^a:
  W(r) = r^{a+1}/(a+1)
  doubling constant   W(2r)/W(r)         = 2^{a+1}
  B_p ratio           r^p B_p-tail / W   = (a+1)/(p-a-1)   (needs a < p-1)
  B*_inf ratio        (int_0^r W/t) / W  = 1/(a+1)
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    ainf_point,
    ainf_probes_oracle,
    check_A1_oracle,
    check_Ainf_oracle,
    search_shapes,
)
from llab.errors import ConfigurationError, PreconditionError
from llab.intervals import Interval, normalize, singleton
from llab.weights import (
    Segment,
    WeightModel,
    _ainf_probe_table,
    a1_ratio,
    bp_ratio,
    bstar_ratio,
    check_A1,
    check_Ainf,
    check_Bp,
    check_Bstar_inf,
    check_delta2,
    delta2_ratio,
)


def two_segment():
    return WeightModel(
        segments=(Segment(0.0, 1.0, 1.0, 0.5), Segment(1.0, 3.0, 2.0, -0.25)),
        tail_coef=0.5,
        tail_exp=1.0,
    )


# -- primitives against quadrature ------------------------------------------


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5, 3.0, 7.0, 50.0])
def test_primitive_matches_quadrature(t):
    w = two_segment()
    oracle, _ = quad(w.value, 0.0, t, points=[1.0, 3.0], limit=200)
    assert w.primitive(t) == pytest.approx(oracle, rel=1e-9)


def test_primitive_pure_power():
    for a in (-0.5, 0.0, 1.0, 2.0):
        w = WeightModel.power(a)
        for t in (0.25, 1.0, 4.0, 100.0):
            assert w.primitive(t) == pytest.approx(t ** (a + 1) / (a + 1), rel=1e-12)


def test_weight_of_set_line_domain_even():
    u = WeightModel.power(1.0, domain_kind="line")  # u(x) = |x|
    E = normalize([(-2.0, -1.0), (0.5, 1.5)])
    oracle = quad(lambda x: abs(x), -2.0, -1.0)[0] + quad(lambda x: abs(x), 0.5, 1.5)[0]
    assert u.weight_of_set(E) == pytest.approx(oracle, rel=1e-12)
    # straddling zero
    assert u.weight_of_set(singleton(-1.0, 2.0)) == pytest.approx(0.5 + 2.0, rel=1e-12)


def test_bp_tail_integral_matches_quadrature():
    w = two_segment()
    p = 3.0
    for r in (0.5, 2.0, 10.0):
        cut = max(r, 3.0)
        pts = [x for x in (1.0, 3.0) if r < x < cut] or None
        head = quad(lambda t: w.value(t) * t**-p, r, cut, points=pts, limit=400)[0]
        tail = quad(lambda t: w.value(t) * t**-p, cut, np.inf, limit=400)[0]
        assert w.bp_tail_integral(r, p) == pytest.approx(head + tail, rel=1e-8)


def test_bp_tail_integral_divergent():
    w = WeightModel.power(1.0)
    assert w.bp_tail_integral(1.0, 2.0) == math.inf  # tail exp - p = -1


def test_bstar_integral_matches_quadrature():
    w = two_segment()
    for r in (0.5, 2.0, 10.0):
        oracle = quad(lambda t: w.primitive(t) / t, 0.0, r, points=[1.0, 3.0], limit=400)[0]
        assert w.bstar_integral(r) == pytest.approx(oracle, rel=1e-8)


def test_bstar_integral_log_segment():
    # exp = -1 away from zero exercises the log^2 closed form
    w = WeightModel(
        segments=(Segment(0.0, 1.0, 1.0, 0.0), Segment(1.0, 2.0, 1.0, -1.0)),
        tail_coef=0.5,
        tail_exp=-1.0,
    )
    for r in (1.5, 2.0, 6.0):
        oracle = quad(lambda t: w.primitive(t) / t, 0.0, r, points=[1.0, 2.0], limit=400)[0]
        assert w.bstar_integral(r) == pytest.approx(oracle, rel=1e-8)


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        WeightModel(segments=(Segment(0.5, 1.0, 1.0, 0.0),))  # gap at 0
    with pytest.raises(ConfigurationError):
        WeightModel(segments=(Segment(0.0, 1.0, -1.0, 0.0),))  # negative coef
    with pytest.raises(ConfigurationError):
        WeightModel(segments=(Segment(0.0, 1.0, 1.0, -1.5),))  # not integrable
    with pytest.raises(ConfigurationError):
        WeightModel.power(0.0, domain_kind="circle")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["hi", "coef", "exp", "tail_coef", "tail_exp"])
def test_non_finite_parameters_rejected(field, bad):
    seg = {"lo": 0.0, "hi": 1.0, "coef": 1.0, "exp": 0.5}
    tail = {"tail_coef": 1.0, "tail_exp": 0.5}
    if field in seg:
        seg[field] = bad
    else:
        tail[field] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        WeightModel(segments=(Segment(**seg),), **tail)


def test_json_round_trip():
    w = two_segment()
    assert WeightModel.from_json(w.to_json()) == w
    with pytest.raises(ConfigurationError):
        WeightModel.from_json('{"domain": "half_line"}')


def test_json_non_number_rejected():
    text = two_segment().to_json().replace('"coef": 0.5', '"coef": "half"')
    with pytest.raises(ConfigurationError):
        WeightModel.from_json(text)


# -- class certifications ----------------------------------------------------


def test_delta2_power_constant():
    for a in (-0.5, 0.0, 1.0, 2.0):
        v = check_delta2(WeightModel.power(a))
        assert v.holds
        assert v.constant == pytest.approx(2.0 ** (a + 1.0), rel=1e-9)


def test_delta2_witness_reproducible():
    w = two_segment()
    v = check_delta2(w)
    assert v.holds
    assert delta2_ratio(w, v.witness["r"]) == pytest.approx(v.constant, rel=1e-12)


@pytest.mark.parametrize(
    "a,p", [(0.0, 2.0), (1.0, 4.0), (-0.5, 1.5), (0.5, 2.0)]
)
def test_bp_power_constant(a, p):
    v = check_Bp(WeightModel.power(a), p)
    assert v.holds
    assert v.constant == pytest.approx((a + 1.0) / (p - a - 1.0), rel=1e-6)
    assert bp_ratio(WeightModel.power(a), p, v.witness["r"]) == pytest.approx(
        v.constant, rel=1e-12
    )


def test_bp_fails_at_and_above_threshold():
    assert not check_Bp(WeightModel.power(1.0), 2.0).holds  # a = p-1
    assert not check_Bp(WeightModel.power(1.5), 2.0).holds  # a > p-1


def test_bstar_power_constant():
    for a in (-0.5, 0.0, 1.0, 3.0):
        w = WeightModel.power(a)
        v = check_Bstar_inf(w)
        assert v.holds
        assert v.constant == pytest.approx(1.0 / (a + 1.0), rel=1e-6)
        assert bstar_ratio(w, v.witness["r"]) == pytest.approx(v.constant, rel=1e-12)


def test_bstar_fails_for_log_growth():
    # w = 1 on (0,1), then t^{-1}: int_0^r W/t ~ (log r)^2/2 beats W(r) ~ log r
    w = WeightModel(
        segments=(Segment(0.0, 1.0, 1.0, 0.0),), tail_coef=1.0, tail_exp=-1.0
    )
    assert not check_Bstar_inf(w).holds


def test_a1_constant_and_failure():
    v = check_A1(WeightModel.constant(domain_kind="line"))
    assert v.holds and v.constant == pytest.approx(1.0, rel=1e-9)
    vh = check_A1(WeightModel.power(-0.5, domain_kind="line"))
    assert vh.holds and math.isfinite(vh.constant)
    assert a1_ratio(
        WeightModel.power(-0.5, domain_kind="line"),
        vh.witness["x"],
        vh.witness["lo"],
        vh.witness["hi"],
    ) == pytest.approx(vh.constant, rel=1e-12)
    assert not check_A1(WeightModel.power(1.0, domain_kind="line")).holds


def test_ainf_constant_is_pinned_by_its_exponent():
    # C_u is scored on the probes that set alpha: a sloped probe cannot push
    # it above 1, and one without a slope has u(E)/u(I) >= 0.999 or |E| = 0
    us = [u for u, _ in search_shapes().values()]
    us += [WeightModel.power(e, domain_kind="line") for e in (-0.9, -0.5, 0.5, 2.0, 5.0)]
    for u in us:
        v = check_Ainf(u)
        assert v.exponent > 1e-6
        assert 1.0 <= v.constant <= 0.999**-v.exponent


def test_ainf_unit_and_abs():
    v = check_Ainf(WeightModel.constant(domain_kind="line"))
    assert v.holds
    assert v.exponent == pytest.approx(1.0, abs=1e-6)
    assert v.constant == pytest.approx(1.0, rel=1e-6)

    va = check_Ainf(WeightModel.power(1.0, domain_kind="line"))
    assert va.holds
    # u(x)=|x| satisfies the comparison with exponent 1/2; the fitted
    # exponent is the most conservative probe slope, so it sits at or below
    assert 0.0 < va.exponent <= 0.5 + 1e-9
    # every probe must satisfy |E|/|I| <= C (u(E)/u(I))^alpha; spot check
    from llab.intervals import Interval

    x, y = ainf_point(
        WeightModel.power(1.0, domain_kind="line"),
        Interval(0.0, 1.0),
        singleton(0.0, 0.25),
    )
    assert y <= va.constant * x**va.exponent * (1.0 + 1e-9)


def test_ainf_closed_form_probe():
    # u=|x|, I=(0,1), E=(0,eps): u(E)/u(I) = eps^2, |E|/|I| = eps, slope 1/2
    u = WeightModel.power(1.0, domain_kind="line")
    from llab.intervals import Interval

    for eps in (0.5, 0.1, 0.01):
        x, y = ainf_point(u, Interval(0.0, 1.0), singleton(0.0, eps))
        assert x == pytest.approx(eps**2, rel=1e-12)
        assert y == pytest.approx(eps, rel=1e-12)


@given(st.floats(-0.9, 3.0), st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
def test_power_primitive_scaling(a, frac):
    # W(cr) = c^{a+1} W(r) for pure powers: homogeneity of the closed form
    w = WeightModel.power(a)
    r = 5.0
    assert w.primitive(frac * r) == pytest.approx(
        frac ** (a + 1.0) * w.primitive(r), rel=1e-9
    )


# -- mass and primitive on random multi-segment weights ----------------------


@st.composite
def multi_segment(draw, domain_kind):
    """2-4 abutting segments, the second with exponent -1, and a power tail."""
    n = draw(st.integers(2, 4))
    exps = [draw(st.floats(-0.5, 2.0)), -1.0] + [
        draw(st.one_of(st.just(-1.0), st.floats(-2.0, 2.0))) for _ in range(n - 2)
    ]
    segments, lo = [], 0.0
    for exp in exps:
        hi = lo + draw(st.floats(0.1, 3.0))
        segments.append(Segment(lo, hi, draw(st.floats(0.1, 5.0)), exp))
        lo = hi
    return WeightModel(
        segments=tuple(segments),
        domain_kind=domain_kind,
        tail_coef=draw(st.floats(0.1, 5.0)),
        tail_exp=draw(st.one_of(st.just(-1.0), st.floats(-2.0, 2.0))),
    )


def any_weight_and_points(k):
    """A weight of either domain kind and k sorted points inside its domain."""

    @st.composite
    def build(draw):
        kind = draw(st.sampled_from(["half_line", "line"]))
        w = draw(multi_segment(kind))
        bottom = 0.0 if kind == "half_line" else -20.0
        xs = sorted(draw(st.floats(bottom, 20.0)) for _ in range(k))
        return w, xs

    return build()


@given(any_weight_and_points(3))
@settings(max_examples=200, deadline=None)
def test_mass_is_additive(case):
    w, (a, b, c) = case
    R = max(abs(a), abs(c))
    scale = w.mass(-R if w.domain_kind == "line" else 0.0, R)
    assert w.mass(a, b) + w.mass(b, c) == pytest.approx(
        w.mass(a, c), rel=1e-12, abs=1e-12 * scale
    )


@given(multi_segment("line"), st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_line_mass_is_symmetric(u, x, y):
    a, b = min(x, y), max(x, y)
    assert u.mass(-b, -a) == u.mass(a, b)


@given(st.sampled_from(["half_line", "line"]).flatmap(multi_segment))
@settings(max_examples=100, deadline=None)
def test_breakpoints_belong_to_the_left_segment(w):
    pieces = list(w.segments) + [Segment(w.top, math.inf, w.tail_coef, w.tail_exp)]
    for left, right in zip(pieces, pieces[1:]):
        b = left.hi
        assert w.value(b) == left.coef * b**left.exp
        above = math.nextafter(b, math.inf)
        assert w.value(above) == right.coef * above**right.exp
        if w.domain_kind == "line":
            assert w.value(-b) == w.value(b)


@given(multi_segment("half_line"), st.floats(1e-9, 20.0), st.floats(0.0, 20.0))
@settings(max_examples=100, deadline=None)
def test_half_line_mass_rejects_negative_lo(w, x, y):
    with pytest.raises(ConfigurationError):
        w.mass(-x, y)
    with pytest.raises(ConfigurationError):
        w.mass_array(np.array([0.0, -x]), np.array([1.0, y]))


def quad_mass(w, a, b, near=1e-300):
    """scipy quad of w.value over (a, b), split at the kinks of w and at
    +-2^j, so that every piece away from 0 spans at most a factor of 2 (of
    2^16 below 2^-60, where quad keeps 5e-15 on x^e, -0.5 <= e <= 2); and
    a slack bounding the part of (a, b) within `near` of 0, which quad
    leaves out.  quad's nodes reach 5e-7 of a piece's width from its ends:
    against 0 they fall among subnormals or onto 0, where a half-line weight
    is undefined and an exp < 0 segment infinite (on x^e over (0, q) quad is
    off by 6e-8 relative at q = 1e-301 and raises at q = 1e-321).  The slack
    is twice the first segment's c near^(e + 1) / (e + 1) per side of 0."""
    kinks = {0.0, near} | set(w.breakpoints) | {2.0**j for j in range(-60, 6)}
    kinks |= {2.0**j for j in range(-988, -60, 16)}
    kinks |= {-k for k in kinks}
    cuts = [a] + sorted(k for k in kinks if a < k < b) + [b]
    pieces = [(p, q) for p, q in zip(cuts, cuts[1:]) if max(abs(p), abs(q)) > near]
    first = w.segments[0]
    sides = (a < near and b > 0.0) + (w.domain_kind == "line" and a < 0.0 and b > -near)
    slack = 2.0 * sides * first.coef * near ** (first.exp + 1.0) / (first.exp + 1.0)
    rest = math.fsum(
        quad(w.value, p, q, limit=200, epsabs=0.0, epsrel=1e-13)[0] for p, q in pieces
    )
    return rest, slack


def _near_zero_weight(domain_kind):
    return WeightModel(
        segments=(Segment(0.0, 1.0, 2.0, -0.5), Segment(1.0, 2.0, 1.0, -1.0)),
        domain_kind=domain_kind,
        tail_coef=1.0,
        tail_exp=0.5,
    )


@given(any_weight_and_points(2))
@example((_near_zero_weight("half_line"), [0.0, 5e-324]))
@example((_near_zero_weight("line"), [-1e-310, 10.0]))
@example(
    (
        WeightModel(segments=(Segment(0.0, 1.0, 1.5, 1.34375),), tail_coef=1.0, tail_exp=-1.0),
        [0.0, 2.5171575508845073e-135],
    )
)
@settings(max_examples=100, deadline=None)
def test_mass_and_primitive_match_quadrature(case):
    w, (a, b) = case
    assume(b > a)
    rest, slack = quad_mass(w, a, b)
    # a subnormal mass is rounded to an absolute grid of 5e-324, where 1e-10
    # relative is below one step: the example's mass 2.185565e-316 is the
    # closed form rounded to nearest, and quad's fsum of pieces is one step off
    assert abs(w.mass(a, b) - rest) <= 1e-10 * abs(rest) + slack + 4 * math.ulp(0.0)
    if w.domain_kind == "half_line":
        assert w.primitive(b) - w.primitive(a) == w.mass(a, b)


# -- the array kernel against the scalar one ----------------------------------


@st.composite
def weight_and_probe_points(draw):
    """A weight of either domain kind and points of its domain full of
    repeated radii: up to 12 drawn among 0.0, -0.0, the breakpoints (both
    signs on the line) and floats, then on the line the mirror -x of each,
    then every value twice."""
    kind = draw(st.sampled_from(["half_line", "line"]))
    w = draw(multi_segment(kind))
    special = [0.0, -0.0, *w.breakpoints]
    if kind == "line":
        special += [-b for b in w.breakpoints]
    bottom = 0.0 if kind == "half_line" else -20.0
    point = st.one_of(st.sampled_from(special), st.floats(bottom, 20.0))
    xs = draw(st.lists(point, min_size=1, max_size=12))
    if kind == "line":
        xs += [-x for x in xs]
    return w, xs + xs


@given(weight_and_probe_points())
@settings(max_examples=300, deadline=None)
def test_array_kernel_is_the_scalar_kernel(case):
    # bit for bit: same rows, same libm calls, same order of operations
    w, xs = case
    lo, hi = (np.array(col) for col in zip(*[(a, b) for a in xs for b in xs if a <= b]))
    assert w.mass_array(lo, hi).tolist() == [w.mass(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    if w.domain_kind == "half_line":
        assert w.primitive_array(np.array(xs)).tolist() == [w.primitive(r) for r in xs]


# -- the class checks against their scalar loops ------------------------------


@pytest.mark.parametrize("shape", sorted(search_shapes()))
def test_class_checks_are_the_scalar_loops(shape):
    u, _ = search_shapes()[shape]
    rows = [[I.lo, I.hi, E.parts[0].lo, E.parts[0].hi] for I, E in ainf_probes_oracle(u)]
    assert _ainf_probe_table(u).tolist() == rows
    # repr tells every float bit apart, -0.0 from 0.0 included
    assert repr(check_A1(u)) == repr(check_A1_oracle(u))
    assert repr(check_Ainf(u)) == repr(check_Ainf_oracle(u))


@st.composite
def extreme_weight(draw):
    """A half-line weight of 1-3 segments and a tail whose coefficients are
    now and then huge or tiny, so that W overflows or underflows somewhere
    on the default grid."""
    coef = st.one_of(st.floats(0.1, 4.0), st.sampled_from([5e-324, 1e-300, 1e-150, 1e150, 1e300, 1.7e308]))
    bounds = [0.0, *sorted(set(draw(st.lists(st.floats(0.1, 8.0), min_size=1, max_size=3))))]
    segments = tuple(
        Segment(a, b, draw(coef), draw(st.floats(-0.9 if a == 0.0 else -2.0, 3.0)))
        for a, b in zip(bounds, bounds[1:])
    )
    return WeightModel(segments, tail_coef=draw(coef), tail_exp=draw(st.floats(-2.0, 3.0)))


@given(extreme_weight(), st.floats(0.2, 6.0))
# W = 1e300 t^2/2 overflows from r = 2^14 on: each ratio was inf/inf there,
# and np.argmax picked the NaN as the constant; for c = 1e296 only W(2^21)
# and r^p times the B_p tail overflow, and the constants were inf
@example(WeightModel.power(1.0, coef=1e300), 3.0)
@example(WeightModel.power(1.0, coef=1e296), 2.01)
@settings(max_examples=100, deadline=None)
def test_scale_checks_never_return_nan(w, p):
    for check in (check_delta2, lambda w: check_Bp(w, p), check_Bstar_inf):
        try:
            verdict = check(w)
        except PreconditionError:
            continue
        assert math.isfinite(verdict.constant) or verdict.constant == math.inf
        # an infinite constant is B_p's divergent tail, never an overflow
        assert math.isfinite(verdict.constant) or verdict.witness["r"] == "tail"


def test_overflowing_masses_are_a_precondition():
    # u = 1 on (0, 1), then 1e308: u's primitive overflows from |x| = 2 on,
    # which check_A1 and check_Ainf each used to test for themselves and the
    # configuration search not at all
    u = WeightModel((Segment(0.0, 1.0, 1.0, 0.0),), "line", tail_coef=1e308)
    assert math.isfinite(u.mass_array(np.array([-1.5]), np.array([1.5]))[0])
    for lo, hi in ((0.0, 4.0), (-1.9, 1.9)):  # P(4) = inf; P(1.9) + P(1.9) = inf
        with pytest.raises(PreconditionError, match="overflows"):
            u.mass_array(np.array([lo]), np.array([hi]))
    with pytest.raises(PreconditionError, match="overflows"):
        WeightModel.power(1.0, coef=1e300).primitive_array(np.array([1.0, 1e5]))
    for check in (check_A1, check_Ainf):
        with pytest.raises(PreconditionError, match="overflows"):
            check(u)


def far_breakpoint_weight():
    """u = 1 on (0, 1e13), then 2: near 1e13 a float's ulp is 2^-9."""
    return WeightModel((Segment(0.0, 1e13, 1.0, 0.0),), "line", tail_coef=2.0)


def test_ainf_probe_with_null_u_mass_is_a_precondition():
    # the probes of length 2^-10 at the anchor 1e13 round to a point: u(I) = 0
    with pytest.raises(PreconditionError, match="u\\(I\\) > 0"):
        check_Ainf(far_breakpoint_weight())


def test_a1_scale_below_an_ulp_is_a_precondition():
    # r = 2^-12 vanishes next to the probe points 1.01e13 and 0.99e13: x + r == x
    with pytest.raises(PreconditionError, match="x - r < x < x \\+ r"):
        check_A1(far_breakpoint_weight())
