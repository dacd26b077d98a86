"""Index functions and Boyd-type exponent fits.

Closed-form oracles used below, all for pure powers w(t) = t^a on the
half-line (so W(r) = r^{a+1}/(a+1)):

  wbar(t)              = sup_s W(st)/W(s) = t^{a+1}            (a >= -1)
  wbar_u, u = 1        = wbar                                  (single pair
                         (0, ts) over (0, s) already attains the supremum)
  wbar_u, u = |x|      = Phi_1(t)^{a+1}, Phi_1(t) = u(I)/u(S) at
                         S = (x, x+1), I = (x, x+t), x = (sqrt(1+t^2)-1-t)/2:
                         ((x+t)^2 + x^2) / ((x+1)^2 + x^2), above the t^2
                         of S = (0,1), I = (0,t)
  underline_wu, u = 1  = sup_s W(st)/W(s) = t^{a+1} for t <= 1
"""

import dataclasses
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    check_submultiplicative,
    coarse_best_oracle,
    conservative_oracle,
    exact_samples,
    power_pair_oracle,
    search_oracle,
    search_shapes,
)
from llab import boyd
from llab.boyd import (
    _GRID_OFFSETS,
    Configuration,
    _coarse_pass,
    _conservative,
    _grid_table,
    _line_offsets,
    _ratio_holds,
    _search,
    compute_estimates,
    default_lower_grid,
    default_upper_grid,
    fit_upper_exponent,
    maximal_verdict,
    underline_wu,
    wbar,
    wbar_u,
    wbar_u_samples,
)
from llab.errors import ConfigurationError, PreconditionError
from llab.intervals import Interval, IntervalUnion, singleton
from llab.weights import Segment, WeightModel


def test_configuration_validation():
    I = Interval(0.0, 4.0)
    S = singleton(1.0, 2.0)
    cfg = Configuration(pairs=((I, S),), ratio=4.0)
    assert cfg.ratio == 4.0
    with pytest.raises(ValueError):
        Configuration(pairs=((I, S),), ratio=3.0)  # wrong ratio
    with pytest.raises(ValueError):
        Configuration(pairs=((I, singleton(5.0, 6.0)),), ratio=4.0)  # S not in I


def test_configuration_evaluate():
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    cfg = Configuration(pairs=((Interval(0.0, 4.0), singleton(1.0, 2.0)),), ratio=4.0)
    assert cfg.evaluate(u, w) == pytest.approx(4.0)


def test_configuration_evaluate_has_the_search_error_rules():
    # evaluate used to divide W's values: 0/0 raised ZeroDivisionError when W
    # underflows, and inf/inf returned NaN when it overflows
    u = WeightModel.constant(domain_kind="line")
    tiny = Configuration(pairs=((Interval(0.0, 0.2), singleton(0.0, 0.1)),), ratio=2.0)
    with pytest.raises(PreconditionError, match="W underflows to 0"):
        tiny.evaluate(u, WeightModel((Segment(0.0, 5.0, 5e-324, 0.0),)))
    huge = Configuration(pairs=((Interval(0.0, 4e10), singleton(0.0, 2e10)),), ratio=2.0)
    with pytest.raises(PreconditionError, match="overflows"):
        huge.evaluate(u, WeightModel.power(1.0, 1e300))
    with pytest.raises(ConfigurationError, match="half-line"):
        tiny.evaluate(u, WeightModel.constant(domain_kind="line"))


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.7, 2.0])
def test_wbar_power_closed_form(a):
    w = WeightModel.power(a)
    for t in (2.0, 8.0, 100.0):
        assert wbar(w, t) == pytest.approx(t ** (a + 1.0), rel=1e-9)


def test_wbar_has_the_search_error_rules():
    # W = 5e-324 t underflows to 0 at the grid's small scales; wbar used to
    # divide by that 0 and raise ZeroDivisionError
    w = WeightModel((Segment(0.0, 5.0, 5e-324, 0.0),))
    with pytest.raises(PreconditionError, match="W underflows to 0"):
        wbar(w, 2.0)
    with pytest.raises(ConfigurationError, match="half-line"):
        wbar(WeightModel.power(0.5, domain_kind="line"), 2.0)
    assert wbar(WeightModel.power(0.5, domain_kind="line"), 1.0) == 1.0


def test_wbar_u_needs_t_at_least_one():
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    with pytest.raises(PreconditionError):
        wbar_u(u, w, 0.5)
    v, cfg = wbar_u(u, w, 1.0)
    assert v == 1.0


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_index_functions_reject_non_finite_t(t):
    # NaN used to give wbar = 0.0 and inf a ZeroDivisionError; wbar_u read
    # NaN as an overflowing mass and inf as a RuntimeWarning
    u, w = WeightModel.constant(domain_kind="line"), WeightModel.power(0.5)
    for call in (lambda: wbar(w, t), lambda: wbar_u(u, w, t), lambda: underline_wu(u, w, t)):
        with pytest.raises(PreconditionError, match="needs"):
            call()


def test_wbar_u_unit_weight_matches_wbar():
    u = WeightModel.constant(domain_kind="line")
    for a in (0.0, 1.0, -0.5):
        w = WeightModel.power(a)
        for t in (2.0, 16.0, 256.0):
            v, cfg = wbar_u(u, w, t)
            assert v == pytest.approx(wbar(w, t), rel=1e-6)
            # returned configuration reproduces the reported value
            assert cfg.evaluate(u, w) == pytest.approx(v, rel=1e-9)


def test_wbar_u_abs_weight_quadratic():
    # u=|x|, w=1: S=(0,s), I=(0,ts) gives ratio (ts)^2/s^2 = t^2, so the
    # search must report at least t^2
    u = WeightModel.power(1.0, domain_kind="line")
    w = WeightModel.constant()
    for t in (2.0, 4.0, 8.0):
        v, cfg = wbar_u(u, w, t)
        assert v >= t**2 * (1.0 - 1e-9)
        assert cfg.evaluate(u, w) == pytest.approx(v, rel=1e-9)


def test_underline_wu_closed_forms():
    u = WeightModel.constant(domain_kind="line")
    for a in (0.0, 1.0):
        w = WeightModel.power(a)
        for t in (0.5, 0.125):
            v, cfg = underline_wu(u, w, t)
            assert v == pytest.approx(t ** (a + 1.0), rel=1e-6)
            # evaluate always reports W(uI)/W(uS); the lower search value
            # is its reciprocal
            assert cfg.evaluate(u, w) == pytest.approx(1.0 / v, rel=1e-9)
    with pytest.raises(PreconditionError):
        underline_wu(u, WeightModel.constant(), 2.0)


def test_samples_are_monotone():
    u = WeightModel.power(1.0, domain_kind="line")
    w = WeightModel.constant()
    samples = wbar_u_samples(u, w)
    assert list(samples.values) == sorted(samples.values)
    assert samples.direction == "lower_bound"


def test_fit_recovers_planted_exponent():
    ts = [2.0**k for k in range(1, 11)]
    est = fit_upper_exponent(exact_samples(lambda t: t**0.7, ts))
    assert est.exponent == pytest.approx(0.7, abs=1e-6)
    assert est.constant == pytest.approx(1.0, rel=1e-6)
    assert est.residual < 1e-9
    # with a prefactor the constant adapts
    est2 = fit_upper_exponent(exact_samples(lambda t: 3.0 * t**0.7, ts))
    assert est2.exponent == pytest.approx(0.7, abs=1e-6)
    assert est2.constant == pytest.approx(3.0, rel=1e-6)


def test_fit_lower_orientation():
    ts = [2.0**-k for k in range(1, 11)]
    est = fit_upper_exponent(exact_samples(lambda t: t**1.3, ts))
    assert est.exponent == pytest.approx(1.3, abs=1e-6)


def test_fit_needs_four_samples():
    with pytest.raises(PreconditionError):
        fit_upper_exponent(exact_samples(lambda t: t, [2.0, 4.0, 8.0]))


@pytest.mark.parametrize("a,p", [(0.0, 2.0), (1.0, 2.0), (-0.5, 1.5), (2.0, 4.0)])
def test_boyd_indices_power_weights(a, p):
    # alpha = beta = (a+1)/p for w = t^a with u = 1
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.power(a)
    est = compute_estimates(u, w, p)
    alpha, beta = est.alpha, est.beta
    assert alpha.exponent == pytest.approx((a + 1.0) / p, abs=1e-2)
    assert beta.exponent == pytest.approx((a + 1.0) / p, abs=1e-2)


def test_submultiplicative_exact_power():
    rep = check_submultiplicative(
        lambda t: t**1.4, [2.0**k for k in range(1, 6)], [2.0**k for k in range(1, 6)]
    )
    assert rep.ok and rep.asserted and rep.checked == 25


def test_submultiplicative_flags_violator():
    rep = check_submultiplicative(math.exp, [4.0], [4.0])  # e^16 > e^4 * e^4
    assert not rep.ok and rep.violations == ((4.0, 4.0),)


def test_maximal_verdict_routes():
    u = WeightModel.constant(domain_kind="line")
    est = compute_estimates(u, WeightModel.constant(), 2.0)
    assert maximal_verdict(u, WeightModel.constant(), 2.0, est).verdict == "bounded"
    # w = t^{p-1+0.2} has alpha > 1: decisive failure
    w_bad = WeightModel.power(1.2)
    est_bad = compute_estimates(u, w_bad, 2.0)
    assert maximal_verdict(u, w_bad, 2.0, est_bad).verdict == "not_bounded"


def test_determinism_same_seed():
    u = WeightModel.power(1.0, domain_kind="line")
    w = WeightModel.power(0.5)
    a = wbar_u(u, w, 8.0, budget=1, seed=42)
    b = wbar_u(u, w, 8.0, budget=1, seed=42)
    assert a[0] == b[0] and a[1] == b[1]


@pytest.mark.parametrize("t,seed", [(2.0**-5, 10), (2.0**-9, 15), (2.0**-6, 17)])
def test_witness_replays_to_reported_value(t, seed):
    # rounding in the offset arithmetic can push S an ulp past I; the
    # configuration clamps it, and the reported value must be the clamped one
    # (the search itself: underline_wu takes this power pair to _power_pair)
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    v, cfg = _search(u, w, t, False, 1, seed)
    assert 1.0 / cfg.evaluate(u, w) == pytest.approx(v, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [2.0**-8, 2.0**-1, 2.0, 2.0**7])
@pytest.mark.parametrize("shape", sorted(search_shapes()))
def test_coarse_stage_is_the_scalar_scan(shape, t):
    u, w = search_shapes()[shape]
    upper = t > 1.0
    ratio = t if upper else 1.0 / t
    assert _coarse_pass(u, w, ratio)[0 if upper else 1] == coarse_best_oracle(u, w, ratio, upper)


@pytest.mark.parametrize("t", [2.0, 2.0**7, 2.0**-1, 2.0**-7])
@pytest.mark.parametrize("shape", sorted(search_shapes()))
def test_search_is_the_scalar_restart_loop(shape, t):
    # the search at t and the one at 1/t share a cached coarse pass and the
    # descent reuses u(I) on its offset steps; neither may move a result,
    # whichever direction runs first, and an equal but separately built
    # (u, w) must find the same.  _search is called directly, since
    # wbar_u and underline_wu take power pairs to _power_pair instead
    u, w = search_shapes()[shape]
    upper = t > 1.0

    def search(u, w, t, seed):
        return _search(u, w, t, upper, 1, seed)

    def mirror(u, w, t, seed):
        return _search(u, w, t, not upper, 1, seed)

    expected = {seed: search_oracle(u, w, t, upper, 1, seed) for seed in (0, 17)}
    for mirror_first in (True, False):
        _coarse_pass.cache_clear()
        for seed in (0, 17):
            if mirror_first:
                mirror(u, w, 1.0 / t, seed=seed)
            assert search(u, w, t, seed=seed) == expected[seed]
            mirror(u, w, 1.0 / t, seed=seed)
    twin_u, twin_w = search_shapes()[shape]
    assert twin_u is not u and twin_w is not w
    for seed in (0, 17):
        assert search(twin_u, twin_w, t, seed=seed) == expected[seed]


@pytest.mark.parametrize("t", [2.0**3, 2.0**-3])
def test_descent_skips_pairs_it_has_scored(t, monkeypatch):
    # the descent does not re-score the pair it stands on or the one it just
    # left; the oracle scores every candidate, so it makes more _score calls
    # than the search outside its coarse scan (the coarse pass calls none)
    u, w = search_shapes()["multi"]
    upper = t > 1.0
    calls = []
    score = boyd._score
    monkeypatch.setattr(boyd, "_score", lambda *args: calls.append(None) or score(*args))

    def count(run):
        calls.clear()
        return run(), len(calls)

    found, n_search = count(lambda: _search(u, w, t, upper, 1, 0))
    expected, n_oracle = count(lambda: search_oracle(u, w, t, upper, 1, 0))
    _, n_coarse = count(lambda: coarse_best_oracle(u, w, t if upper else 1.0 / t, upper))
    assert found == expected
    assert n_search < n_oracle - n_coarse


def _count_mass_passes(monkeypatch):
    calls = []
    mass_array = WeightModel.mass_array

    def counted(self, lo, hi):
        calls.append(self)
        return mass_array(self, lo, hi)

    monkeypatch.setattr(WeightModel, "mass_array", counted)
    return calls


def test_one_coarse_pass_per_ratio(monkeypatch):
    calls = _count_mass_passes(monkeypatch)
    _coarse_pass.cache_clear()
    u, w = search_shapes()["multi"]
    compute_estimates(u, w, 2.0)
    # the upper search at 2^k and the lower one at 2^-k share ratio 2^k
    assert len(calls) == 10
    twin_u, twin_w = search_shapes()["multi"]
    compute_estimates(twin_u, twin_w, 2.0)  # equal weights: the same passes
    assert len(calls) == 10


def test_failed_coarse_pass_is_not_cached(monkeypatch):
    # W = 5e-324 t underflows to 0 at the coarse grid's small u-masses
    calls = _count_mass_passes(monkeypatch)
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel((Segment(0.0, 5.0, 5e-324, 0.0),))
    for attempt in (1, 2):
        with pytest.raises(PreconditionError, match="underflows"):
            wbar_u(u, w, 2.0)
        assert len(calls) == attempt
    with pytest.raises(PreconditionError, match="underflows"):
        underline_wu(u, w, 0.5)
    assert len(calls) == 3


def _clear_coarse_caches():
    _coarse_pass.cache_clear()
    _grid_table.cache_clear()


@st.composite
def _piecewise_weights(draw, domain, min_segments):
    """A weight of min_segments..3 segments on the domain; a row off 0 may
    have exp = -1, and any row may be constant."""
    n = draw(st.integers(min_segments, 3))
    ends = np.cumsum(draw(st.lists(st.floats(0.2, 2.5), min_size=n, max_size=n))).tolist()

    def exponent(lo):
        return draw(st.one_of(st.just(0.0), st.just(-1.0) if lo > 0.0 else st.nothing(), st.floats(-0.8, 1.5)))

    segments, lo = [], 0.0
    for hi in ends:
        segments.append(Segment(lo, hi, draw(st.floats(0.3, 3.0)), exponent(lo)))
        lo = hi
    return WeightModel(tuple(segments), domain, draw(st.floats(0.3, 3.0)), exponent(lo))


@given(
    u=_piecewise_weights("line", 1),
    w=_piecewise_weights("half_line", 2),
    ratios=st.lists(
        st.one_of(
            st.integers(1, 10).map(lambda k: 2.0**k),
            st.floats(1.0, 1500.0, exclude_min=True, exclude_max=True),
        ),
        min_size=3,
        max_size=6,
        unique=True,
    ),
    data=st.data(),
)
@settings(max_examples=12, deadline=None)
def test_coarse_pass_matches_the_scan_in_any_ratio_order(u, w, ratios, data):
    # every ratio after the first reads masses and W that earlier ratios put
    # in the pair's table; no order may move a value or a witness
    _clear_coarse_caches()
    for ratio in data.draw(st.permutations(ratios)):
        for upper in (True, False):
            assert _coarse_pass(u, w, ratio)[0 if upper else 1] == coarse_best_oracle(u, w, ratio, upper)


@given(
    u=_piecewise_weights("line", 1),
    w=_piecewise_weights("half_line", 2),
    k=st.integers(1, 10),
    upper=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_descent_is_the_scalar_restart_loop_on_any_pair(u, w, k, upper, seed):
    # the descent holds its pair as four floats and u(I) and W(u(I)) beside
    # them; on any weights and seed it must walk the oracle's candidates
    t = 2.0**k if upper else 2.0**-k
    _clear_coarse_caches()
    assert _search(u, w, t, upper, 1, seed) == search_oracle(u, w, t, upper, 1, seed)


_U3, _W3 = search_shapes()["multi"]
_TWO_PIECE = (Segment(0.0, 1.0, 1.0, 0.5), Segment(1.0, 2.0, 1.0, 3.0))
_UNDERFLOW = (PreconditionError, "the search needs W > 0 at every positive u-mass, but W underflows to 0")
_RANGE = (OverflowError, "math range error")


@pytest.mark.parametrize(
    "u,w,before,bad,after,error",
    [
        # W = 5e-324 t underflows to 0 at the grid's small u-masses
        (WeightModel.constant(domain_kind="line"), WeightModel((Segment(0.0, 5.0, 5e-324, 0.0),)),
         [4.0, 700.5], 2.0, [], _UNDERFLOW),
        # libm's pow overflows on u's masses: at every ratio for tail_exp 40, from 64 on for 30
        (WeightModel(_TWO_PIECE, "line", 1.0, 40.0), _W3, [4.0, 700.5], 2.0, [], _RANGE),
        (WeightModel(_TWO_PIECE, "line", 1.0, 30.0), _W3, [2.0, 700.5], 64.0, [8.0], _RANGE),
        # and on W of the masses, from 1024 on
        (_U3, WeightModel(_W3.segments[:2], "half_line", 1.0, 25.0), [2.0, 4096.0], 1024.0, [16.0], _RANGE),
        # W(1.0) underflows to 0, but no pair with positive masses needs it:
        # the pass raises nothing and is the scalar scan (error None)
        (WeightModel((Segment(0.0, 1.0, 5e-324, 3.0),), "line", 1e17, 0.0),
         WeightModel((Segment(0.0, 1.0, 5e-324, 2.0),)), [5.0, 700.5], 2.0, [], (None, None)),
        (WeightModel(_TWO_PIECE, "half_line", 1.0, 0.5), _W3, [4.0], 2.0, [],
         (ConfigurationError, "set escapes the half-line domain")),
    ],
)
def test_failed_coarse_pass_raises_whatever_ran_before(u, w, before, bad, after, error):
    # a pass raises the same error on a fresh table and on one that other
    # ratios of the pair have filled, and leaves the table valid for later ones
    kind, message = error
    for warm in (False, True):
        _clear_coarse_caches()
        for ratio in before if warm else ():
            try:
                _coarse_pass(u, w, ratio)
            except kind as exc:
                assert str(exc) == message
        if kind is None:
            assert _coarse_pass(u, w, bad) == tuple(coarse_best_oracle(u, w, bad, upper) for upper in (True, False))
            continue
        with pytest.raises(kind) as info:
            _coarse_pass(u, w, bad)
        assert type(info.value) is kind and str(info.value) == message
    for ratio in after:
        assert _coarse_pass(u, w, ratio) == tuple(coarse_best_oracle(u, w, ratio, upper) for upper in (True, False))


def test_grid_table_stays_under_its_cap():
    # 300 ratios of about 1,000 new offsets each would hold 300,000; a full
    # table takes no more, and passes past that point still match the scan
    u = WeightModel((Segment(0.0, 1.3, 0.8, 0.6),), "line", 1.4, 0.2)
    w = WeightModel((Segment(0.0, 0.9, 1.0, 0.3), Segment(0.9, 2.0, 0.5, 0.0)), "half_line", 1.2, 0.7)
    _clear_coarse_caches()
    ratios = 1.0 + 1499.0 * np.random.default_rng(3).random(300)
    for k, ratio in enumerate(ratios.tolist()):
        got = _coarse_pass(u, w, ratio)
        table = _grid_table(u, w)
        assert table.keys.size <= _GRID_OFFSETS
        if k in (0, 150, 299):
            assert got == tuple(coarse_best_oracle(u, w, ratio, upper) for upper in (True, False))
    assert table.keys.size > _GRID_OFFSETS // 2


def test_a_warm_table_leaves_a_pass_only_its_centred_s(monkeypatch):
    # once compute_estimates has filled the pair's table, a pass at one of its
    # ratios takes u's primitive only at the centred S's ends and W only at
    # their masses: every other mass and W is the table's
    u, w = search_shapes()["multi"]
    _clear_coarse_caches()
    compute_estimates(u, w, 2.0)
    _coarse_pass.cache_clear()
    radii, masses = [], []
    kernel, primitive_array = WeightModel._radial_primitive_array, WeightModel.primitive_array

    def recorded_kernel(self, r):
        if self is u:
            radii.extend(np.ravel(r).tolist())
        return kernel(self, r)

    def recorded_primitive_array(self, t):
        masses.extend(np.ravel(t).tolist())
        return primitive_array(self, t)

    monkeypatch.setattr(WeightModel, "_radial_primitive_array", recorded_kernel)
    monkeypatch.setattr(WeightModel, "primitive_array", recorded_primitive_array)
    ratio = 2.0**3
    got = _coarse_pass(u, w, ratio)
    ends, centred = set(), set()
    for a in [a for a in boyd._anchors(u) if a >= 0.0]:  # the pass computes no other anchor
        for small in boyd._scale_grid(w, u, ratio):
            _, (lo, hi) = boyd._placement(a, small, ratio, 2)
            ends |= {abs(lo), abs(hi)}
            centred.add(u.mass(lo, hi))
    assert radii and set(radii) <= ends
    assert masses and set(masses) <= centred
    assert got == tuple(coarse_best_oracle(u, w, ratio, upper) for upper in (True, False))


# W = 1e-246 t^5 near 0: the coarse pass succeeds, and at these t a restart's
# W(u(S)) underflows to 0 (it used to end in a ZeroDivisionError)
_SUBNORMAL_U = WeightModel((Segment(0.0, 1.0, 1.0, 1.0), Segment(1.0, 2.0, 1.0, 0.0)), "line", 1.0, 0.0)
_SUBNORMAL_W = WeightModel((Segment(0.0, 1.0, 1e-246, 5.0), Segment(1.0, 2.0, 1e-246, 0.0)), "half_line", 1e-246, 0.5)


@pytest.mark.parametrize("t", [2.0, 4.0, 8.0, 32.0, 128.0])
def test_restart_underflow_is_a_precondition(t):
    _clear_coarse_caches()
    _coarse_pass(_SUBNORMAL_U, _SUBNORMAL_W, t)
    with pytest.raises(PreconditionError) as info:
        wbar_u(_SUBNORMAL_U, _SUBNORMAL_W, t)
    assert str(info.value) == _UNDERFLOW[1]


def _outcome(call):
    """call's result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _underflowing_weights(draw):
    """A half-line w whose first row is 10^U(-300, -100) t^U(2, 12), so that
    W underflows to 0 at small u-masses."""
    w = draw(_piecewise_weights("half_line", 1))
    head = dataclasses.replace(w.segments[0], coef=10.0 ** draw(st.floats(-300, -100)), exp=draw(st.floats(2, 12)))
    return WeightModel((head, *w.segments[1:]), "half_line", w.tail_coef, w.tail_exp)


@given(
    u=_piecewise_weights("line", 1),
    w=_underflowing_weights(),
    ratios=st.lists(st.integers(1, 10).map(lambda k: 2.0**k), min_size=2, max_size=3, unique=True),
)
@example(u=_SUBNORMAL_U, w=_SUBNORMAL_W, ratios=[2.0, 16.0])
@settings(max_examples=6, deadline=None)
def test_scan_parity_with_errors(u, w, ratios):
    # the coarse pass and the search raise where the scalar scan and the
    # scalar restart loop do, with the same error, and else return the same
    _clear_coarse_caches()
    for ratio in ratios:
        for upper in (True, False):
            assert _outcome(lambda: _coarse_pass(u, w, ratio)[0 if upper else 1]) == _outcome(
                lambda: coarse_best_oracle(u, w, ratio, upper)
            )
            t = ratio if upper else 1.0 / ratio
            for seed in (0, 17):
                assert _outcome(lambda: _search(u, w, t, upper, 1, seed)) == _outcome(
                    lambda: search_oracle(u, w, t, upper, 1, seed)
                )


def test_index_functions_raise_one_overflow_error():
    # libm's pow overflows on u's masses in the coarse pass (test above);
    # wbar_u and underline_wu report it as a violated precondition
    u = WeightModel(_TWO_PIECE, "line", 1.0, 40.0)
    for search, t in ((wbar_u, 2.0), (underline_wu, 0.5)):
        _clear_coarse_caches()
        with pytest.raises(PreconditionError) as info:
            search(u, _W3, t)
        assert str(info.value) == "a weight mass overflows the float range"


@pytest.mark.parametrize("u", [WeightModel.power(1.0, domain_kind="line"), _U3], ids=["power", "multi"])
def test_index_functions_need_w_on_the_half_line(u):
    trivial = Configuration(pairs=((Interval(0.0, 1.0), singleton(0.0, 1.0)),), ratio=1.0)
    line_w = WeightModel.power(0.5, domain_kind="line")
    for search, t in ((wbar_u, 2.0), (underline_wu, 0.5)):
        _clear_coarse_caches()
        with pytest.raises(ConfigurationError) as info:
            search(u, line_w, t)
        assert str(info.value) == "primitive is defined for half-line weights"
        for w in (line_w, _W3, _SUBNORMAL_W):
            assert search(u, w, 1.0) == (1.0, trivial)


# -- power pairs: the exact route -------------------------------------------


def _rtol(a, t, upper):
    """1e-12 relative, plus on the lower side the rounding of the witness's
    u(S) = P(x + 1) - P(x) at |x| up to r = 1/t, which cancels to about
    r * eps relative and is raised to the power a + 1."""
    return 1e-12 if upper else 1e-12 + 2.0 * (a + 1.0) * 2.0**-52 / t


def _abs_sup():
    """perfbench's abs_sup oracle: the single-pair supremum for u = |x|."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.abs_sup


@pytest.mark.parametrize("domain", ["line", "half_line"])
def test_power_pair_constant_u_is_t_to_the_a_plus_one(domain):
    u = WeightModel.constant(domain_kind=domain)
    for a in (-0.5, 0.0, 0.43, 1.0, 3.0):
        w = WeightModel.power(a)
        for k in (1, 5, 10, 20):
            for search, t in ((wbar_u, 2.0**k), (underline_wu, 2.0**-k)):
                want = t ** (a + 1.0)
                assert abs(search(u, w, t)[0] - want) <= 4 * math.ulp(want)


def test_power_pair_abs_u_closed_forms():
    # u = |x| on the line, w = 1: the sup of u(I)/u(S) is at
    # x* = (sqrt(1 + r^2) - 1 - r)/2 and the inf at -(1 + sqrt(2r^2 - 2r + 1))/2,
    # with S = (x*, x* + 1) and I = (x*, x* + r)
    abs_sup = _abs_sup()
    u, w = WeightModel.power(1.0, domain_kind="line"), WeightModel.constant()
    with mpmath.workdps(40):
        for r in (2.0, 8.0, 64.0, 1024.0):
            R = mpmath.mpf(r)

            def ratio(x):
                return ((x + R) * abs(x + R) - x * abs(x)) / ((x + 1) * abs(x + 1) - x * abs(x))

            sup = ratio((mpmath.sqrt(1 + R**2) - 1 - R) / 2)
            inf_ = ratio(-(1 + mpmath.sqrt(2 * R**2 - 2 * R + 1)) / 2)
            for t, upper, want in ((r, True, sup), (1.0 / r, False, 1 / inf_)):
                got = (wbar_u if upper else underline_wu)(u, w, t)[0]
                assert abs(got - want) <= _rtol(0.0, t, upper) * want
                assert abs(abs_sup(t, upper) - want) <= 5e-15 * want


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.3])
def test_power_pair_half_line_closed_forms(gamma):
    # upper: I = (0, r), S = (0, 1), rho = r^(gamma+1); lower: I = (0, r),
    # S = (r - 1, r), rho = r^(gamma+1) / (r^(gamma+1) - (r - 1)^(gamma+1))
    u = WeightModel.power(gamma, 1.5)
    for a in (-0.5, 0.0, 1.0):
        w = WeightModel.power(a, 0.7)
        for k in (1, 5, 10):
            r = 2.0**k
            with mpmath.workdps(40):
                R, e1 = mpmath.mpf(r), gamma + 1.0
                upper = float((R**e1) ** (a + 1))
                lower = float((R**e1 / (R**e1 - (R - 1) ** e1)) ** -(a + 1))
            assert abs(wbar_u(u, w, r)[0] - upper) <= _rtol(a, r, True) * upper
            assert abs(underline_wu(u, w, 1.0 / r)[0] - lower) <= _rtol(a, 1.0 / r, False) * lower


@pytest.mark.parametrize("t", [2.0**15, 2.0**-15])
def test_power_pair_steep_u_on_the_line(t):
    # u = |x|^50: unscaled, the sign scan's products reach r^101 and
    # overflow, and the lower side missed its interior minimum by 47 %
    u, w = WeightModel.power(50.0, domain_kind="line"), WeightModel.constant()
    upper = t > 1.0
    want = power_pair_oracle(50.0, 0.0, t, upper, "line")
    value = (wbar_u if upper else underline_wu)(u, w, t)[0]
    assert abs(value - want) <= _rtol(0.0, t, upper) * want


@given(
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    a=st.floats(-1.0, 3.0, exclude_min=True),
    k=st.integers(1, 20),
    upper=st.booleans(),
    domain=st.sampled_from(["line", "half_line"]),
)
@settings(max_examples=30, deadline=None)
def test_power_pair_is_the_exact_single_pair_optimum(gamma, a, k, upper, domain):
    t = 2.0**k if upper else 2.0**-k
    u, w = WeightModel.power(gamma, 1.5, domain), WeightModel.power(a, 0.7)
    value, config = (wbar_u if upper else underline_wu)(u, w, t)
    want = power_pair_oracle(gamma, a, t, upper, domain)
    assert abs(value - want) <= _rtol(a, t, upper) * want
    # the search places intervals left of 0, outside a half-line u; its
    # witness drifts past the exact ratio, so its value can pass the sup,
    # and at large t it can fail its own ratio check
    if domain == "line":
        try:
            searched = _search(u, w, t, upper, 1, 0)[0]
        except PreconditionError as exc:
            assert "ratio violated" in str(exc) and k >= 15
        else:
            assert value >= min(searched, want) * (1.0 - _rtol(a, t, upper))
    ((I, S),) = config.pairs
    (S,) = S.parts
    long, short = Fraction(I.hi) - Fraction(I.lo), Fraction(S.hi) - Fraction(S.lo)
    assert long <= Fraction(t) * short if upper else short <= Fraction(t) * long
    replay = config.evaluate(u, w)
    assert (replay if upper else 1.0 / replay) == value


# the ends the ratio test meets at the float range's edges, then any float
_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    a_lo=_ENDS,
    a_hi=_ENDS,
    b_lo=_ENDS,
    b_hi=_ENDS,
    t=st.one_of(st.integers(-60, 60).map(lambda k: 2.0**k), st.floats(5e-324, 1e300)),
)
@example(a_lo=1.0, a_hi=1.0, b_lo=-1e300, b_hi=-1e300, t=0.1)  # equal ends: 0 <= 0
@example(a_lo=-1e300, a_hi=1e300, b_lo=-1e300, b_hi=1e300, t=1.0)
@example(a_lo=0.0, a_hi=5e-324, b_lo=-5e-324, b_hi=0.0, t=1.0)
@example(a_lo=0.0, a_hi=3 * 5e-324, b_lo=0.0, b_hi=1e300, t=5e-324)
@example(a_lo=0.0, a_hi=1.0, b_lo=0.0, b_hi=10.0, t=0.1)  # 0.1 is a little above 1/10
@settings(max_examples=500, deadline=None)
def test_ratio_test_is_the_fraction_test(a_lo, a_hi, b_lo, b_hi, t):
    # |A| <= t|B| on integers over one power of two, as I, S (upper) and as
    # S, I (lower), is the same test in Fractions, negative lengths included
    want = Fraction(a_hi) - Fraction(a_lo) <= Fraction(t) * (Fraction(b_hi) - Fraction(b_lo))
    assert _ratio_holds(t, a_lo, a_hi, b_lo, b_hi, True) is want
    assert _ratio_holds(t, b_lo, b_hi, a_lo, a_hi, False) is want


def test_ratio_test_reads_integers_as_fraction_does():
    # Fraction(t) took Python and numpy integers, and so does the integer test
    assert _ratio_holds(np.int64(3), 0.0, 3.0, 0.0, 1.0, True) and not _ratio_holds(2, 0.0, 3.0, 0.0, 1.0, True)
    u, w = WeightModel.power(1.0, domain_kind="line"), WeightModel.power(0.5)
    for t in (4, np.int64(4)):
        assert wbar_u(u, w, t)[0] == wbar_u(u, w, 4.0)[0]


@pytest.mark.parametrize("gamma", [1e-14, 0.5, 1.0, 2.5, 50.0])
def test_conservative_is_the_fraction_reference(gamma):
    # every candidate pair of the power route, line offsets and half-line
    # pairs, at t = 2^+-1 ... 2^+-40, moves to the same ends as the Fraction loop
    moved = 0
    for k in range(1, 41):
        r = 2.0**k
        for upper in (True, False):
            t = r if upper else 1.0 / r
            pairs = [((x, x + r), (x, x + 1.0)) for x in _line_offsets(gamma, r, upper)]
            pairs.append(((0.0, t), (0.0, 1.0)) if upper else ((0.0, 1.0), (1.0 - t, 1.0)))
            for pair in pairs:
                got = _conservative(pair, t, upper)
                assert repr(got) == repr(conservative_oracle(pair, t, upper))
                moved += got != pair
    assert moved  # some candidates step by ulps
