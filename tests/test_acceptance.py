"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion states its tolerance and (where applicable) its
runtime budget inline.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import check_submultiplicative, contains, exact_samples, maximal_grid_oracle, random_pair
from llab.boyd import (
    Configuration,
    SubmultiplicativeSamples,
    compute_estimates,
    fit_upper_exponent,
    maximal_verdict,
    underline_wu_samples,
    wbar,
    wbar_u,
    wbar_u_samples,
)
from llab.construction import (
    build_extremal,
    cover,
    weak_type_lower_bound,
    wbar_u_bound_from_weak,
)
from llab.intervals import Interval, IntervalUnion, intersect, normalize, singleton
from llab.operators import hilbert, hilbert_verdict, maximal
from llab.rearrangement import make_step, indicator
from llab.weights import Segment, WeightModel, check_Bp, check_Bstar_inf


def _report(num: int, label: str, started: float) -> None:
    print(f"criterion {num:2d} [{label}]: PASS ({time.perf_counter() - started:.2f}s)")


def _random_step(rng, n_pieces=3):
    cuts = np.sort(rng.uniform(-5.0, 5.0, size=2 * n_pieces))
    pieces = []
    for k in range(n_pieces):
        lo, hi = float(cuts[2 * k]), float(cuts[2 * k + 1])
        if hi - lo > 1e-3:
            pieces.append((singleton(lo, hi), float(rng.uniform(0.2, 3.0))))
    if not pieces:
        return _random_step(rng, n_pieces)
    return make_step(pieces)


# -- 1: covering identity ----------------------------------------------------


def _check_cover_instance(I, S, t):
    out = cover(I, S, t)
    for a, b in zip(out, out[1:]):
        assert a.hi <= b.lo + 1e-12 * I.length  # disjoint
    covered = normalize(out)
    assert contains(IntervalUnion((I,)), covered)
    assert contains(covered, S)  # coverage
    for J in out:
        part = intersect(S, IntervalUnion((J,))).measure
        assert t * part == pytest.approx(J.length, rel=1e-9)


def test_criterion_01_covering_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        I, S = random_pair(rng, max_components=8)
        t = float(rng.uniform(1.0, I.length / S.measure))
        _check_cover_instance(I, S, t)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"covering suite too slow: {elapsed:.2f}s"
    _report(1, "covering identity, 1000 instances, 1e-9", started)


# -- 2 and 3: extremal-function suite + mean/distribution identities ---------


def _extremal_instances():
    rng = np.random.default_rng(202)
    for _ in range(200):
        yield random_pair(rng, max_components=6)


def _check_extremal(I, S, n_lambda=50):
    F = build_extremal(I, S)
    floor = S.measure / I.length
    prev = None
    for i in range(n_lambda):
        lam = min(floor + (1.0 - floor) * (i + 1) / n_lambda, 1.0)
        J = F.level_set(lam)
        for part in J.parts:
            got = intersect(S, IntervalUnion((part,))).measure
            assert got == pytest.approx(lam * part.length, rel=1e-9, abs=1e-12)
        for sp in S.parts:  # S-components never split across J's
            holders = [
                part
                for part in J.parts
                if part.lo <= sp.lo + 1e-9 * I.length
                and sp.hi <= part.hi + 1e-9 * I.length
            ]
            assert len(holders) == 1
        if prev is not None:
            assert contains(prev, J)  # nesting
        prev = J
        # criterion 3: distribution identity at every sampled level
        assert J.measure == pytest.approx(S.measure / lam, rel=1e-9)
    # f = 1 on S, f >= floor on I
    for sp in S.parts:
        assert F.evaluate(0.5 * (sp.lo + sp.hi)) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(7)
    for x in rng.uniform(I.lo, I.hi, size=10):
        assert F.evaluate(float(x)) >= floor * (1.0 - 1e-9)
    # criterion 3: mean identity
    s = I.length / S.measure
    assert F.mean_value() == pytest.approx((1.0 + math.log(s)) / s, rel=1e-9)


def test_criterion_02_03_extremal_suite():
    started = time.perf_counter()
    for I, S in _extremal_instances():
        _check_extremal(I, S)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"extremal suite too slow: {elapsed:.2f}s"
    _report(2, "extremal level sets, 200 instances x 50 levels, 1e-9", started)
    _report(3, "mean and distribution identities, 1e-9", started)


# -- 4: u = 1 collapse -------------------------------------------------------


def test_criterion_04_unit_collapse():
    started = time.perf_counter()
    u = WeightModel.constant(domain_kind="line")
    mixture = WeightModel(
        segments=(Segment(0.0, 1.0, 1.0, 0.5), Segment(1.0, 3.0, 2.0, -0.25)),
        tail_coef=0.5,
        tail_exp=1.0,
    )
    weights = [
        WeightModel.constant(),
        WeightModel.power(1.0),
        WeightModel.power(-0.5),
        mixture,
    ]
    ts = [2.0**k for k in range(1, 11)]
    for w in weights:
        for t in ts:
            v, _ = wbar_u(u, w, t)
            ref = wbar(w, t)
            assert abs(v - ref) <= 0.01 * ref, (w, t, v, ref)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"collapse suite too slow: {elapsed:.2f}s"
    _report(4, "u=1 collapse wbar_u vs wbar, 1%", started)


# -- 5: power-weight Boyd indices --------------------------------------------


def test_criterion_05_power_boyd_indices():
    started = time.perf_counter()
    u = WeightModel.constant(domain_kind="line")
    for a in (-0.5, 0.0, 1.0, 2.0):
        w = WeightModel.power(a)
        upper = wbar_u_samples(u, w)
        lower = underline_wu_samples(u, w)
        for p in (1.5, 2.0, 4.0):
            expected = (a + 1.0) / p
            powered_up = SubmultiplicativeSamples(
                upper.arguments,
                tuple(v ** (1.0 / p) for v in upper.values),
                upper.direction,
                upper.budget,
            )
            powered_lo = SubmultiplicativeSamples(
                lower.arguments,
                tuple(v ** (1.0 / p) for v in lower.values),
                lower.direction,
                lower.budget,
            )
            alpha = fit_upper_exponent(powered_up).exponent
            beta = fit_upper_exponent(powered_lo).exponent
            assert alpha == pytest.approx(expected, abs=1e-2), (a, p, alpha)
            assert beta == pytest.approx(expected, abs=1e-2), (a, p, beta)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"index suite too slow: {elapsed:.2f}s"
    _report(5, "power-weight Boyd indices (a+1)/p, 1e-2", started)


# -- 6: B_p threshold --------------------------------------------------------


def test_criterion_06_bp_threshold():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    pairs = []
    while len(pairs) < 20:
        a = float(rng.uniform(-0.9, 4.0))
        p = float(rng.uniform(1.0, 5.0))
        if abs(a - (p - 1.0)) >= 0.05:
            pairs.append((a, p))
    for a, p in pairs:
        verdict = check_Bp(WeightModel.power(a), p)
        should_hold = a < p - 1.0
        assert verdict.holds == should_hold, (a, p, verdict)
        if should_hold:
            assert verdict.constant == pytest.approx(
                (a + 1.0) / (p - a - 1.0), rel=1e-6
            )
    _report(6, "B_p threshold at a = p-1, constant 1e-6", started)


# -- 7: B*_inf constant ------------------------------------------------------


def test_criterion_07_bstar_constant():
    started = time.perf_counter()
    for a in (-0.75, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
        verdict = check_Bstar_inf(WeightModel.power(a))
        assert verdict.holds
        assert verdict.constant == pytest.approx(1.0 / (a + 1.0), rel=1e-6)
    _report(7, "B*_inf constant 1/(a+1), 1e-6", started)


# -- 8: submultiplicativity and fit recovery ---------------------------------


def test_criterion_08_submultiplicative():
    started = time.perf_counter()
    # exact index function for u = 1 and power w: phi(t) = wbar(w, t)
    for a in (0.0, 0.7, 2.0):
        w = WeightModel.power(a)
        grid = [2.0**k for k in range(1, 11)]
        rep = check_submultiplicative(
            lambda t: wbar(w, t), grid, grid, direction="exact", tol=1e-9
        )
        assert rep.ok, (a, rep.violations)
        assert rep.checked == 100
    est = fit_upper_exponent(
        exact_samples(lambda t: t**0.7, [2.0**k for k in range(1, 11)])
    )
    assert est.exponent == pytest.approx(0.7, abs=1e-6)
    _report(8, "submultiplicativity 10x10 grid + fit recovery 1e-6", started)


# -- 9: Hilbert transform exactness ------------------------------------------


def _hilbert_pv_oracle(f, x):
    ends = f.ends
    dists = sorted({abs(x - e) for e in ends if abs(x - e) > 1e-12})
    eps = 0.5 * dists[0]
    R = (max(ends) - min(ends)) + max(abs(x - e) for e in ends) + 1.0
    pts = sorted({d for d in (abs(x - e) for e in ends) if eps < d < R})
    val, _ = quad(
        lambda s: (f.value_at(x - s) - f.value_at(x + s)) / s,
        eps,
        R,
        points=pts or None,
        limit=500,
    )
    return val / math.pi


def test_criterion_09_hilbert_exactness():
    started = time.perf_counter()
    f0 = indicator((-1.0, 1.0))
    assert hilbert(f0, 2.0) == pytest.approx(math.log(3.0) / math.pi, abs=1e-10)
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 100:
        f = _random_step(rng)
        x = float(rng.uniform(-6.0, 6.0))
        if min(abs(x - e) for e in f.ends) < 1e-3:
            continue
        assert hilbert(f, x) == pytest.approx(_hilbert_pv_oracle(f, x), abs=1e-6)
        checked += 1
    _report(9, "Hilbert closed form vs PV quadrature, 100 probes, 1e-6", started)


# -- 10: maximal operator exactness ------------------------------------------


def test_criterion_10_maximal_exactness():
    started = time.perf_counter()
    assert maximal(indicator((0.0, 1.0)), 2.0) == 0.5
    rng = np.random.default_rng(1010)
    for _ in range(100):
        f = _random_step(rng, n_pieces=2)
        x = float(rng.uniform(-6.0, 6.0))
        exact = maximal(f, x)
        oracle = maximal_grid_oracle(f, x, n=2000)
        # the optimizing window has candidate endpoints, all of which are
        # in the oracle grid, so the two must agree to rounding
        assert exact >= oracle - 1e-12
        assert exact == pytest.approx(oracle, abs=1e-6)
    _report(10, "maximal candidate endpoints vs dense grid, 100 probes, 1e-6", started)


# -- 11: weak-type certificate -----------------------------------------------


def test_criterion_11_weak_type_certificate():
    started = time.perf_counter()
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    fam = Configuration(
        pairs=((Interval(0.0, math.e), singleton(0.0, 1.0)),), ratio=math.e
    )
    cert = weak_type_lower_bound(u, w, 2.0, fam)
    assert cert.lower_bound == pytest.approx((2.0 * math.e - 1.0) ** -0.5, abs=1e-3)
    for s in [2.0**k for k in range(1, 9)]:
        # exact wbar_u(s) = s here; the bound from the weak constant C = 1
        # must sit above it
        assert wbar_u_bound_from_weak(1.0, 2.0, s) >= s * (1.0 - 1e-12)
    _report(11, "weak-type certificate (2e-1)^{-1/2}, 1e-3 + bound consistency", started)


# -- 12: verdict coherence ---------------------------------------------------


def test_criterion_12_verdict_coherence():
    started = time.perf_counter()
    u = WeightModel.constant(domain_kind="line")
    w1 = WeightModel.constant()
    for p in (1.5, 2.0, 4.0):
        est = compute_estimates(u, w1, p)
        mv = maximal_verdict(u, w1, p, est)
        assert mv.verdict == "bounded", (p, mv)
        assert check_Bp(w1, p).holds  # condition route for M
        hv = hilbert_verdict(u, w1, p, estimates=est)
        assert hv.verdict == "bounded", (p, hv)
        assert hv.index_route == "bounded" and hv.condition_route == "bounded"
        # w = t^{p-1+0.2}: both routes report failure evidence for M
        w_bad = WeightModel.power(p - 1.0 + 0.2)
        est_bad = compute_estimates(u, w_bad, p)
        assert maximal_verdict(u, w_bad, p, est_bad).verdict == "not_bounded", p
        assert not check_Bp(w_bad, p).holds
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"verdict suite too slow: {elapsed:.2f}s"
    _report(12, "verdict coherence, both routes, p in {1.5, 2, 4}", started)


# -- 13: determinism ---------------------------------------------------------


def test_criterion_13_determinism():
    started = time.perf_counter()
    # the random-instance streams rerun identically
    def cover_trace():
        rng = np.random.default_rng(101)
        rows = []
        for _ in range(50):
            I, S = random_pair(rng, max_components=8)
            t = float(rng.uniform(1.0, I.length / S.measure))
            rows.append(
                (I.lo, I.hi, tuple((c.lo, c.hi) for c in S.parts), t,
                 tuple((j.lo, j.hi) for j in cover(I, S, t)))
            )
        return repr(rows)

    assert cover_trace() == cover_trace()

    # the randomized index search reruns identically under a fixed seed
    u = WeightModel.power(1.0, domain_kind="line")
    w = WeightModel.power(0.5)

    def search_trace():
        samples = wbar_u_samples(u, w, budget=1, seed=99)
        return ",".join(format(v, ".17g") for v in samples.values)

    assert search_trace() == search_trace()
    _report(13, "determinism: byte-identical reruns under fixed seeds", started)
