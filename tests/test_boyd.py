"""Index functions and Boyd-type exponent fits.

Closed-form oracles used below, all for pure powers w(t) = t^a on the
half-line (so W(r) = r^{a+1}/(a+1)):

  wbar(t)              = sup_s W(st)/W(s) = t^{a+1}            (a >= -1)
  wbar_u, u = 1        = wbar                                  (single pair
                         (0, ts) over (0, s) already attains the supremum)
  wbar_u, u = |x|      >= W(t^2 s)/W(s) at S=(0,s), I=(0,ts):  u maps
                         lengths quadratically at the origin
  underline_wu, u = 1  = sup_s W(st)/W(s) = t^{a+1} for t <= 1
"""

import math

import numpy as np
import pytest

from conftest import coarse_best_oracle, search_oracle, search_shapes
from llab.boyd import (
    Configuration,
    _coarse_pass,
    boyd_indices,
    check_submultiplicative,
    compute_estimates,
    default_lower_grid,
    default_upper_grid,
    exact_samples,
    fit_upper_exponent,
    maximal_verdict,
    underline_wu,
    wbar,
    wbar_u,
    wbar_u_samples,
)
from llab.errors import PreconditionError
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


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.7, 2.0])
def test_wbar_power_closed_form(a):
    w = WeightModel.power(a)
    for t in (2.0, 8.0, 100.0):
        assert wbar(w, t) == pytest.approx(t ** (a + 1.0), rel=1e-9)


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
    alpha, beta = boyd_indices(u, w, p)
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
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    v, cfg = underline_wu(u, w, t, seed=seed)
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
    # (u, w) must find the same
    u, w = search_shapes()[shape]
    upper = t > 1.0
    search, mirror = (wbar_u, underline_wu) if upper else (underline_wu, wbar_u)
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
