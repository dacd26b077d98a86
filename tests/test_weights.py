"""Weight models and class certifications.

Oracles: scipy adaptive quadrature for every closed-form integral, plus
hand-derived constants for pure powers w(t) = t^a:
  W(r) = r^{a+1}/(a+1)
  doubling constant   W(2r)/W(r)         = 2^{a+1}
  B_p ratio           r^p B_p-tail / W   = (a+1)/(p-a-1)   (needs a < p-1)
  B*_inf ratio        (int_0^r W/t) / W  = 1/(a+1)
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    ainf_dense_constant,
    ainf_point,
    ainf_probes_oracle,
    check_A1_full_scan,
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
    _ainf_scales_and_randoms,
    _log,
    _pow,
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


@pytest.mark.parametrize("shape", sorted(search_shapes()))
def test_weight_with_built_kernels_round_trips(shape):
    # mass and the scalar primitive are local functions cached on the
    # instance; pickle and deepcopy drop them, and the copy rebuilds them.
    # The array path's piece columns, built before the copy, travel with it.
    ends = [-3.0, -0.7, 0.0, 0.4, 1.1, 2.5, 9.0]

    def array_bits(w, xs):
        half_line = w.domain_kind == "half_line"
        return _bits(w.mass_array(xs[:-1], xs[1:])), _bits(w.primitive_array(xs)) if half_line else None

    for weight in search_shapes()[shape]:
        xs = ends if weight.domain_kind == "line" else ends[2:]
        masses = [weight.mass(lo, hi).hex() for lo, hi in zip(xs, xs[1:])]
        arrays = array_bits(weight, xs)
        for twin in (pickle.loads(pickle.dumps(weight)), copy.deepcopy(weight)):
            assert twin == weight and hash(twin) == hash(weight)
            assert [twin.mass(lo, hi).hex() for lo, hi in zip(xs, xs[1:])] == masses
            assert "_piece_columns" in vars(twin) and array_bits(twin, xs) == arrays


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


def test_a1_witness_of_constant_u_is_the_first_right_window():
    # every window ties at 1.0, so the first scored one wins: (x, x + r) at
    # the first point and scale; the full scan picks its centred window
    v = check_A1(WeightModel.constant(domain_kind="line"))
    assert v.witness == {"x": 2**-10, "lo": 2**-10, "hi": 2**-10 + 2**-12}
    assert check_A1_full_scan(WeightModel.constant(domain_kind="line")).witness["lo"] == 2**-10 - 2**-12


@st.composite
def line_weight(draw):
    """A line u of 1-3 segments over 0.05-50 each, head exponent in
    (-0.9, 2), inner ones in (-2.5, 2.5), tail exponent in (-0.9, 1.5)."""
    segments, lo = [], 0.0
    for j in range(draw(st.integers(1, 3))):
        hi = lo + draw(st.floats(0.05, 50.0))
        exp = draw(st.floats(-0.9, 2.0) if j == 0 else st.floats(-2.5, 2.5))
        segments.append(Segment(lo, hi, draw(st.floats(0.1, 5.0)), exp))
        lo = hi
    return WeightModel(tuple(segments), "line", draw(st.floats(0.1, 5.0)), draw(st.floats(-0.9, 1.5)))


@given(line_weight())
@example(WeightModel((Segment(0.0, 1.0, 1.0, 1.0),), "line", 1.0, 0.0))
@settings(max_examples=40, deadline=None)
def test_a1_is_the_full_scan(u):
    # neither the centred window nor a point left of 0 ever sets the constant
    v, full = check_A1(u), check_A1_full_scan(u)
    assert (v.constant.hex(), v.holds) == (full.constant.hex(), full.holds)
    assert a1_ratio(u, **v.witness) == v.constant


def test_ainf_unit_and_abs():
    v = check_Ainf(WeightModel.constant(domain_kind="line"))
    assert v.holds
    assert v.exponent == pytest.approx(1.0, abs=1e-6)
    assert v.constant == pytest.approx(1.0, rel=1e-6)

    va = check_Ainf(WeightModel.power(1.0, domain_kind="line"))
    assert va.holds
    # the sharp exponent of u(x) = |x| is 1/(1 + 1) = 1/2
    assert 0.0 < va.exponent <= 0.5 + 1e-9
    # every probe must satisfy |E|/|I| <= C (u(E)/u(I))^δ*; spot check
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


# -- class flags from the theorems --------------------------------------------


def head_tail(g0, ginf, domain_kind="half_line"):
    """g0 on (0, 1), then the tail ginf."""
    return WeightModel((Segment(0.0, 1.0, 1.0, g0),), domain_kind, 1.0, ginf)


def line_power(g):
    return WeightModel.power(g, domain_kind="line")


CHECKS = {
    "Delta2": check_delta2,
    "Bp": lambda w: check_Bp(w, 2.0),
    "BstarInf": check_Bstar_inf,
    "A1": check_A1,
    "AInf": check_Ainf,
}

# weights near the class boundaries, p = 2; growth trends over a probe grid
# misjudge the first nine
BOUNDARY_FLAGS = [
    ("A1", "|x|^0.01", line_power(0.01), False),
    ("A1", "1,|x|^0.02", head_tail(0.0, 0.02, "line"), False),
    ("AInf", "1,|x|^-0.95", head_tail(0.0, -0.95, "line"), True),
    ("BstarInf", "1,t^-0.95", head_tail(0.0, -0.95), True),
    ("Bp", "t,1", head_tail(1.0, 0.0), False),
    ("Bp", "t^1.05,1", head_tail(1.05, 0.0), False),
    ("A1", "|x|,1", head_tail(1.0, 0.0, "line"), False),
    ("A1", "1,|x|^-0.95", head_tail(0.0, -0.95, "line"), True),
    ("AInf", "|x|^-0.999", line_power(-0.999), True),
    ("A1", "|x|^0.05", line_power(0.05), False),
    ("A1", "|x|^-0.5", line_power(-0.5), True),
    ("A1", "|x|^-0.999", line_power(-0.999), True),
    ("AInf", "|x|^-0.99", line_power(-0.99), True),
    ("AInf", "|x|^3", line_power(3.0), True),
    ("AInf", "1,|x|^-1.5", head_tail(0.0, -1.5, "line"), False),
    ("AInf", "1,|x|^-1", head_tail(0.0, -1.0, "line"), False),
    ("BstarInf", "1,t^-1", head_tail(0.0, -1.0), False),
    ("BstarInf", "1,t^-1.2", head_tail(0.0, -1.2), False),
    ("BstarInf", "1,t^-3", head_tail(0.0, -3.0), False),
    ("BstarInf", "t^-0.999", WeightModel.power(-0.999), True),
    ("Delta2", "1,t^-3", head_tail(0.0, -3.0), True),
    ("Bp", "t^0.99", WeightModel.power(0.99), True),
    ("Bp", "t^0.999,1", head_tail(0.999, 0.0), True),
]


@pytest.mark.parametrize(
    "name,w,holds", [pytest.param(n, w, h, id=f"{n}-{label}") for n, label, w, h in BOUNDARY_FLAGS]
)
def test_boundary_weights_get_the_theorems_flags(name, w, holds):
    assert CHECKS[name](w).holds is holds


# the line weights of BOUNDARY_FLAGS and |x|^γ for γ = 0, 1/2, 1, 2, 3
AINF_LINE_WEIGHTS = {label: w for _, label, w, _ in BOUNDARY_FLAGS if w.domain_kind == "line"}
AINF_LINE_WEIGHTS.update({f"|x|^{g}": line_power(g) for g in (0.0, 0.5, 1.0, 2.0)})  # |x|^3 is a boundary weight


@pytest.mark.parametrize("label", sorted(AINF_LINE_WEIGHTS))
def test_ainf_exponent_is_the_sharp_one(label):
    u = AINF_LINE_WEIGHTS[label]
    g0, ginf = u.segments[0].exp, u.tail_exp
    v = check_Ainf(u)
    if ginf <= -1.0:  # no (C, δ) at all: E = (R/2, R) in I = (0, R) as R -> ∞
        assert (v.holds, v.constant, v.witness, v.exponent) == (False, math.inf, {}, None)
        assert v.as_dict() == {"class": "AInf", "holds": False, "constant": None, "witness": {}, "diverges": True}
        return
    assert v.holds and v.exponent == 1.0 / (1.0 + max(0.0, g0, ginf))
    if not v.witness:
        assert v.constant == 1.0
        return
    # the constant is its witness probe's bound, above the floor 1
    ((lo, hi),) = v.witness["E"]
    x, y = ainf_point(u, Interval(*v.witness["I"]), singleton(lo, hi))
    assert y / x**v.exponent == v.constant > 1.0


@pytest.mark.parametrize("ginf", [0.5, -1.5])
def test_ainf_of_a_half_line_u_is_a_configuration_error(ginf):
    # on either side of the theorem's threshold, the diverging side taking no masses
    with pytest.raises(ConfigurationError, match="escapes the half-line"):
        check_Ainf(head_tail(0.0, ginf))


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0, 3.0])
def test_ainf_constant_of_a_power_tends_to_its_supremum(g):
    # E = (-εL, εL) in I = (-εL, L - εL): |E|/|I| = 2ε and u(E)/u(I) ->
    # 2 ε^(γ+1) as ε -> 0, so the bound at δ* = 1/(γ+1) tends to 2^(γ/(γ+1)),
    # which the library's sparser probes stay below
    u = line_power(g)
    v = check_Ainf(u)
    sup = 2.0 ** (g / (g + 1.0))
    assert ainf_dense_constant(u, v.exponent, 30) == pytest.approx(sup, abs=1e-3)
    assert 1.0 < v.constant < sup


# u = |x|^-1/2, search_shapes' multi u and the multi u of perfbench's search_inputs(1, 0)
AINF_SETTLING_WEIGHTS = {
    "|x|^-0.5": line_power(-0.5),
    "multi": search_shapes()["multi"][0],
    "multi-2": WeightModel(
        (
            Segment(0.0, 0.7344472644085874, 0.6150542434010532, 0.9374092065256332),
            Segment(0.7344472644085874, 2.440494848091862, 1.9296463680521927, 0.0),
            Segment(2.440494848091862, 2.968790687577828, 0.8515456015106817, 0.7849323562728311),
        ),
        "line",
        1.0,
        0.5519996016763971,
    ),
}


@pytest.mark.parametrize("label", sorted(AINF_SETTLING_WEIGHTS))
def test_ainf_constant_settles_as_the_scales_widen(label):
    # C(δ*) is finite: probes out to 2^±30 find little more than out to 2^±10
    u = AINF_SETTLING_WEIGHTS[label]
    v = check_Ainf(u)
    near, far = (ainf_dense_constant(u, v.exponent, k) for k in (10, 30))
    assert far == pytest.approx(near, rel=0.05)
    assert 1.0 <= v.constant <= far


@st.composite
def weight_at_thresholds(draw):
    """(w, g0, ginf, p): a weight of 1-3 segments whose exponent at 0, g0, and
    tail exponent, ginf, each sit on a class threshold or 0.01 to either
    side of it, on the half-line or the line."""
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))

    def near(thresholds):
        return draw(st.sampled_from([t + d for t in thresholds for d in (-0.01, 0.0, 0.01)]))

    g0, ginf = near([0.0, p - 1.0]), near([-1.0, 0.0, p - 1.0])
    segments, lo = [], 0.0
    for j in range(draw(st.integers(1, 3))):
        hi = lo + draw(st.floats(0.05, 50.0))
        segments.append(Segment(lo, hi, draw(st.floats(0.1, 5.0)), g0 if j == 0 else draw(st.floats(-2.5, 2.5))))
        lo = hi
    domain_kind = draw(st.sampled_from(["half_line", "line"]))
    return WeightModel(tuple(segments), domain_kind, draw(st.floats(0.1, 5.0)), ginf), g0, ginf, p


@given(weight_at_thresholds())
@settings(max_examples=60, deadline=None)
def test_flags_are_the_theorems(case):
    w, g0, ginf, p = case
    if w.domain_kind == "half_line":
        got = (check_delta2(w).holds, check_Bp(w, p).holds, check_Bstar_inf(w).holds)
        assert got == (True, g0 < p - 1.0 and ginf < p - 1.0, ginf > -1.0)
    else:
        assert (check_A1(w).holds, check_Ainf(w).holds) == (g0 <= 0.0 and -1.0 < ginf <= 0.0, ginf > -1.0)


def test_ratios_off_the_grid_side_with_the_theorems():
    # w = t, then 1: the B_2 ratio is 2(log(1/r) + 1), past any grid constant
    w = head_tail(1.0, 0.0)
    v = check_Bp(w, 2.0)
    far = bp_ratio(w, 2.0, 2.0**-60)
    assert far == pytest.approx(2.0 * (60.0 * math.log(2.0) + 1.0), rel=1e-12)
    assert far > v.constant and not v.holds
    # w = 1, then t^-0.95: the B*_inf ratio rises, slowly, to 1/0.05 = 20
    w = head_tail(0.0, -0.95)
    v = check_Bstar_inf(w)
    assert v.constant < bstar_ratio(w, 2.0**200) < 20.0 and v.holds
    # u = |x|, then 1: avg u / u(x) near 0 is about 1 / (2x)
    u = head_tail(1.0, 0.0, "line")
    v = check_A1(u)
    assert a1_ratio(u, 2.0**-40, 2.0**-40, 1.0) > 5e11 > v.constant and not v.holds


@pytest.mark.parametrize(
    "ratio,r",
    [(lambda w, r: bp_ratio(w, 2.0, r), 1e-300), (bstar_ratio, 1e-300), (delta2_ratio, 1e-320)],
    ids=["bp_ratio", "bstar_ratio", "delta2_ratio"],
)
def test_ratio_helpers_reject_an_underflowing_W(ratio, r):
    # w = t^0.999, then 1: W(r) underflows to 0, by which each helper divides
    w = head_tail(0.999, 0.0)
    assert w.primitive(r) == 0.0
    with pytest.raises(PreconditionError, match=rf"needs W\(r\) > 0, but W\({r!r}\) = 0"):
        ratio(w, r)


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
    repeated radii: up to 12 drawn among 0.0, -0.0, the breakpoints and
    their neighbouring floats on each side, where the array kernel's rows
    are cut (all with both signs on the line), and floats, then on the line
    the mirror -x of each, then every value twice."""
    kind = draw(st.sampled_from(["half_line", "line"]))
    w = draw(multi_segment(kind))
    near = [x for b in w.breakpoints for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
    special = [0.0, -0.0, *near]
    if kind == "line":
        special += [-x for x in near]
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


def test_primitive_array_of_no_radii_is_empty():
    out = two_segment().primitive_array(np.array([]))
    assert out.shape == (0,) and out.dtype == float


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).ravel().tolist()


def _math_pow(xs, ys):
    """math.pow over the pairs in order: ("ok", values) or the first error's (type, message)."""
    try:
        return "ok", [math.pow(x, y) for x, y in zip(xs, ys)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _pow_outcome(x, y):
    try:
        return "ok", np.ravel(_pow(x, y)).tolist()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


pow_bases = st.one_of(
    st.floats(allow_nan=False),  # infinities and subnormals included
    st.floats(0.0, 2.0**-1022, exclude_max=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e-300, -1e300, 1.0, -1.0, 2.0, math.nan]),
)
pow_exps = st.one_of(
    st.floats(-5.0, 120.0),
    st.integers(-5, 120).map(float),
    st.sampled_from([-1.0, -0.5, -3.0, math.nan, math.inf, -math.inf, 5e-324]),
)


@given(st.lists(st.tuples(pow_bases, pow_exps), min_size=1, max_size=12), st.sampled_from(["pairs", "x", "y"]))
@example([(0.0, -1.0)], "pairs")  # a domain error, not a range error
@example([(-0.0, -3.0), (2.0, 0.5)], "y")
@example([(5e-324, 0.5), (1e300, 2.0)], "pairs")
@example([(0.0, math.inf), (math.nan, 0.0), (1.0, math.nan)], "pairs")
@settings(max_examples=500, deadline=None)
def test_pow_is_math_pow(pairs, broadcast):
    # every value bit for bit, and an error's type and message at the first
    # element where math.pow raises, with a float broadcast against an array
    # either way
    xs, ys = (list(col) for col in zip(*pairs))
    if broadcast == "x":
        xs = [xs[0]] * len(ys)
        x, y = xs[0], np.array(ys)
    elif broadcast == "y":
        ys = [ys[0]] * len(xs)
        x, y = np.array(xs), ys[0]
    else:
        x, y = np.array(xs), np.array(ys)
    want, got = _math_pow(xs, ys), _pow_outcome(x, y)
    if want[0] == "ok" and got[0] == "ok":
        assert _bits(got[1]) == _bits(want[1])
    else:
        assert got == want


def test_pow_raises_at_the_first_failing_element():
    # a range error and two domain errors in one array: the first in C order decides
    x = np.array([[2.0, 10.0, -2.0], [0.0, 3.0, 1.0]])
    y = np.array([[0.5, 400.0, 0.5], [-1.0, 2.0, 7.0]])
    assert _pow_outcome(x, y) == (OverflowError, "math range error")
    assert _pow_outcome(x.T, y.T) == (ValueError, "math domain error")  # C order of x.T: 2, 0, 10
    assert _pow_outcome(x[:, ::-1], y[:, ::-1]) == (ValueError, "math domain error")
    assert _pow_outcome(np.array([5.0, 0.0]), -2.0) == (ValueError, "math domain error")
    assert _pow_outcome(1e300, np.array([1.0, 2.0])) == (OverflowError, "math range error")


def _math_log(xs):
    """math.log over xs in order: ("ok", values) or the error's (type, message)."""
    try:
        return "ok", [math.log(x) for x in xs]
    except ValueError as exc:
        return type(exc), str(exc)


def _log_outcome(x):
    try:
        return "ok", _log(x).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


log_args = st.one_of(
    st.floats(min_value=0.0),  # 0.0, subnormals and inf included
    st.floats(1.0, 1.001),  # where numpy's SIMD log strays most
    st.floats(0.0, 2.0**-1022, exclude_max=True),
    st.sampled_from([-0.0, -1.0, -math.inf, 5e-324, 1.7976931348623157e308, math.inf, math.nan, 1.0]),
)


@given(st.lists(log_args, max_size=12))
@example([2.0, 0.0, 3.0])
@example([2.0, -0.0])
@example([math.nan, 2.0, -5e-324])
@example([math.nan, 5e-324, math.inf])
@settings(max_examples=500, deadline=None)
def test_log_is_math_log(xs):
    # every value bit for bit, NaN passing through, and math.log's error
    # where an element is <= 0
    want, got = _math_log(xs), _log_outcome(np.array(xs, dtype=float))
    if want[0] == "ok" and got[0] == "ok":
        assert _bits(got[1]) == _bits(want[1])
    else:
        assert got == want


def test_log_is_math_log_in_bulk():
    # the regimes of the weight kernel, the Hilbert pass and check_Ainf:
    # near-1 ratios, moderate ones, 10^U(-300, 300), subnormals and floats
    # near the top of the range, at sizes 0, 1, 2 and 2^16, strided either
    # way and boolean-indexed
    rng = np.random.default_rng(38)
    n = 1 << 13
    x = np.concatenate(
        [
            1.0 + rng.uniform(0.0, 1e-12, n),
            rng.uniform(1.0, 1.001, n),
            rng.uniform(1.0, 2.0, n),
            rng.uniform(0.0, 1.0, n),
            rng.uniform(1.0, 50.0, n),
            10.0 ** rng.uniform(-300.0, 300.0, n),
            rng.uniform(0.0, 2.0**-1022, n),
            rng.uniform(1e308, 1.7976931348623157e308, n - 3),
            [5e-324, math.inf, 1.0],
        ]
    )
    x = x[rng.permutation(x.size)]
    assert x.size == 1 << 16
    for view in (x[:0], x[:1], x[:2], x, x[::3], x[::-1], x[::-7], x[x < 1.5]):
        assert _bits(_log(view)) == _bits([math.log(v) for v in view.tolist()])


@st.composite
def kernel_radii(draw):
    """A multi-segment weight and a 2-D array of radii in no order, repeated:
    0.0, -0.0, NaN, the breakpoints and the floats next to each, and floats."""
    w = draw(multi_segment("half_line"))
    near = [x for b in w.breakpoints for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
    radius = st.one_of(st.sampled_from([0.0, -0.0, math.nan, *near]), st.floats(0.0, 20.0))
    rs = draw(st.lists(radius, min_size=1, max_size=12))
    rs = draw(st.permutations(rs + rs))
    return w, np.array(rs).reshape(2, -1)


@given(kernel_radii())
# row 0's mass overflows, so its W(lo) is inf - inf: a NaN that zero radii must not take
@example((WeightModel((Segment(0.0, 1e100, 1e300, 1.0),), tail_exp=1.0), np.array([[0.0, 2.0], [-0.0, 1.0]])))
@settings(max_examples=300, deadline=None)
def test_array_kernel_takes_each_radius_as_the_scalar_kernel(case):
    # no dedupe: each radius finds its row by itself, bit for bit
    w, r = case
    P = w._radial_primitive
    got = w._radial_primitive_array(r)
    assert got.shape == r.shape
    want = np.array([P(x) for x in r.ravel().tolist()]).reshape(r.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert _bits(got[~nan]) == _bits(want[~nan])
    one = w._radial_primitive_array(np.asarray(r.flat[0]))  # a 0-d input gives a scalar
    assert type(one) is np.float64 and _bits(one) == _bits(got.flat[0])


@st.composite
def weight_and_ends(draw):
    """A one- or three-segment weight of either domain kind, the middle of
    three segments with exp = -1 off 0, and up to 12 increasing ends drawn
    among -0.0, 0.0, the breakpoints (both signs) and floats around 0; on
    the half-line the first end is below 0 at times."""
    kind = draw(st.sampled_from(["half_line", "line"]))
    exps = [draw(st.floats(-0.5, 2.0))]
    if draw(st.booleans()):
        exps += [-1.0, draw(st.floats(-2.0, 2.0))]
    segments, lo = [], 0.0
    for exp in exps:
        hi = lo + draw(st.floats(0.1, 3.0))
        segments.append(Segment(lo, hi, draw(st.floats(0.1, 5.0)), exp))
        lo = hi
    w = WeightModel(
        segments=tuple(segments),
        domain_kind=kind,
        tail_coef=draw(st.floats(0.1, 5.0)),
        tail_exp=draw(st.one_of(st.just(-1.0), st.floats(-2.0, 2.0))),
    )
    special = [-0.0, 0.0, *w.breakpoints, *(-b for b in w.breakpoints)]
    xs = draw(st.lists(st.one_of(st.sampled_from(special), st.floats(-20.0, 20.0)), max_size=12))
    if kind == "half_line" and draw(st.integers(0, 3)):
        xs = [abs(x) if x else x for x in xs]  # keeps -0.0
    ends = []
    for x in sorted(xs):
        if not ends or x > ends[-1]:
            ends.append(x)
    return w, ends


@given(weight_and_ends())
@example((WeightModel.power(0.5, domain_kind="line"), [-2.0, -0.0, 3.0]))
@example((WeightModel.power(0.5), [-0.0, 1.0, 2.0]))
@settings(max_examples=300, deadline=None)
def test_gap_masses_are_the_masses(case):
    # bit for bit, -0.0 included: one primitive per end, mass's rules per gap
    w, ends = case
    if w.domain_kind == "half_line" and ends and ends[0] < 0.0:
        with pytest.raises(ConfigurationError, match="escapes the half-line"):
            w.gap_masses(ends)
        with pytest.raises(ConfigurationError, match="escapes the half-line"):
            w.mass(ends[0], ends[-1])
        return
    got = [x.hex() for x in w.gap_masses(ends)]
    assert got == [w.mass(a, b).hex() for a, b in zip(ends, ends[1:])]


# -- the class checks against their scalar loops ------------------------------


@pytest.mark.parametrize("shape", sorted(search_shapes()))
def test_class_checks_are_the_scalar_loops(shape):
    u, _ = search_shapes()[shape]
    rows = [[I.lo, I.hi, E.parts[0].lo, E.parts[0].hi] for I, E in ainf_probes_oracle(u)]
    assert _ainf_probe_table(u).tolist() == rows
    # repr tells every float bit apart, -0.0 from 0.0 included
    assert repr(check_A1(u)) == repr(check_A1_oracle(u))
    assert repr(check_Ainf(u)) == repr(check_Ainf_oracle(u))


def test_ainf_random_probes_are_built_once_read_only():
    # they depend on the scales alone, so every u shares one block
    L, randoms = _ainf_scales_and_randoms()
    assert _ainf_scales_and_randoms()[1] is randoms and randoms.shape == (L.size, 32, 4)
    for block in (L, randoms):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0


@st.composite
def ainf_weight(draw):
    """A line weight of 1-3 segments, now and then with an exp = -1 row away
    from 0, and coefficients from 1e-300 to 1e300."""
    coef = st.one_of(st.floats(0.1, 5.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
    segments, lo = [], 0.0
    for j in range(draw(st.integers(1, 3))):
        hi = lo + draw(st.floats(0.05, 50.0))
        exp = draw(st.floats(-0.9, 2.0) if j == 0 else st.one_of(st.just(-1.0), st.floats(-2.5, 2.5)))
        segments.append(Segment(lo, hi, draw(coef), exp))
        lo = hi
    tail_exp = draw(st.one_of(st.just(-1.0), st.floats(-1.5, 1.5)))
    return WeightModel(tuple(segments), "line", draw(coef), tail_exp)


def _outcome(check, u):
    """repr of check(u), or the type and message of its PreconditionError."""
    try:
        return repr(check(u))
    except PreconditionError as exc:
        return f"{type(exc).__name__}: {exc}"


@given(ainf_weight())
@example(WeightModel.constant(domain_kind="line"))  # every probe ties
@example(WeightModel.power(1e-12, domain_kind="line"))  # near ties: x within 4e-16 to 5e-12 relative of y
@example(WeightModel((Segment(0.0, 1.0, 1.0, 0.0),), "line", tail_coef=1e308))  # masses overflow
# an inner exp, 1.30, above both end exps: δ* reads only the ends
@example(
    WeightModel(
        (
            Segment(0.0, 7.15148321623934, 2.1911594824087195, -0.6695451592087734),
            Segment(7.15148321623934, 9.438965074602145, 0.4277690074232404, -0.3987319508585818),
            Segment(9.438965074602145, 9.515791936498577, 3.8252219477914555, 1.2981013794738723),
        ),
        "line",
        1.9015875863123548,
        1.2557451757925464,
    )
)
@settings(max_examples=100, deadline=None)
def test_ainf_is_the_scalar_loop(u):
    # every bit of the exponent, the constant and the witness, or the error,
    # is the scalar loop's
    assert _outcome(check_Ainf, u) == _outcome(check_Ainf_oracle, u)


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
