"""Exact operator evaluation on step functions.

Oracles:
  - maximal operator: dense grid over candidate interval endpoints (every
    pair of grid points containing x), with the grid refined enough that
    the best average is within 1e-6 of the exact candidate-endpoint answer.
  - Hilbert transform: principal-value quadrature with a symmetric cutoff,
    integrating (f(x - s) - f(x + s))/s over s in (eps, R); for a step
    function locally constant near x the cutoff error vanishes once eps
    clears the distance to the nearest endpoint, which makes the
    eps-extrapolated value exact.
  - maximal truncations: the closed-form truncated integral on a dense
    geometric grid of truncation radii, with the most the grid can miss.
  - explicit values: H(chi_(-1,1))(2) = (1/pi) log 3, M(chi_(0,1))(2) = 1/2.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    maximal_grid_oracle,
    maximal_pairs_oracle,
    step_functions,
    truncations_mpmath,
    truncations_sort_oracle,
)
from llab.boyd import compute_estimates
from llab.errors import PreconditionError, SingularInputError
from llab.intervals import singleton
from llab.operators import (
    _near_endpoint,
    _truncations,
    apply_operator,
    conjugate_hardy,
    empirical_opnorm,
    extremal_family,
    hilbert,
    hilbert_maximal,
    hilbert_verdict,
    indicator_family,
    maximal,
    random_step_family,
    resample_step,
)
from llab.rearrangement import indicator, make_step, rearrange
from llab.weights import Segment, WeightModel, check_Ainf


def random_step(rng, n_pieces=3):
    cuts = np.sort(rng.uniform(-5.0, 5.0, size=2 * n_pieces))
    pieces = []
    for k in range(n_pieces):
        lo, hi = float(cuts[2 * k]), float(cuts[2 * k + 1])
        if hi - lo > 1e-3:
            pieces.append((singleton(lo, hi), float(rng.uniform(0.2, 3.0))))
    if not pieces:
        return random_step(rng, n_pieces)
    return make_step(pieces)


def hilbert_pv_oracle(f, x):
    ends = f.ends
    dists = sorted({abs(x - e) for e in ends if abs(x - e) > 1e-12})
    eps = 0.5 * dists[0] if dists else 1e-6
    R = (max(ends) - min(ends)) + max(abs(x - e) for e in ends) + 1.0

    def integrand(s):
        return f.value_at(x - s) - f.value_at(x + s)

    pts = sorted({d for d in (abs(x - e) for e in ends) if eps < d < R})
    val, _ = quad(
        lambda s: integrand(s) / s, eps, R, points=pts or None, limit=500
    )
    return val / math.pi


def truncation_sweep_oracle(f, x, n=200001):
    """(max of |T(eps)|/pi over a dense geometric eps grid, the most the grid
    can miss), T(eps) being the integral of f(y)/(x - y) over |x - y| > eps.

    T is constant below the smallest and above the largest distance from x
    to an endpoint of f, and between grid points it moves by at most
    2 max|f| log(eps_{k+1}/eps_k), since T'(eps) = (f(x+eps) - f(x-eps))/eps.
    """
    parts = [(p.lo, p.hi, v) for region, v in f.pieces for p in region.parts]
    lo, hi, val = (np.array(c, dtype=float) for c in zip(*parts))
    dists = np.abs(x - np.concatenate([lo, hi]))
    eps = np.geomspace(0.5 * dists.min(), 2.0 * dists.max(), n)[:, None]

    def log_terms(a, b):
        return np.log(np.abs(x - a)) - np.log(np.abs(x - b))

    left = np.where(lo < x - eps, log_terms(lo, np.minimum(hi, x - eps)), 0.0)
    right = np.where(hi > x + eps, log_terms(np.maximum(lo, x + eps), hi), 0.0)
    T = ((left + right) * val).sum(axis=1)
    miss = 2.0 * np.abs(val).max() * math.log(eps[1, 0] / eps[0, 0])
    return float(np.abs(T).max()) / math.pi, miss / math.pi


# -- closed-form anchors -----------------------------------------------------


def test_hilbert_explicit_value():
    f = indicator((-1.0, 1.0))
    assert hilbert(f, 2.0) == pytest.approx(math.log(3.0) / math.pi, abs=1e-10)
    # odd symmetry
    assert hilbert(f, -2.0) == pytest.approx(-math.log(3.0) / math.pi, abs=1e-10)


def test_hilbert_interior_point():
    f = indicator((0.0, 1.0))
    # H chi at interior x: (1/pi) log(x/(1-x)); zero at the midpoint
    assert hilbert(f, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert hilbert(f, 0.75) == pytest.approx(math.log(3.0) / math.pi, abs=1e-10)


def test_hilbert_singular_endpoint():
    f = indicator((-1.0, 1.0))
    with pytest.raises(SingularInputError):
        hilbert(f, 1.0)


@pytest.mark.parametrize("e", [1.0, -3.0, 1e6])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_singular_band_is_relative_to_the_endpoint(e, side):
    f = make_step([((e - 2.0, e), 1.0), ((e, e + 0.5), 2.0)])
    scale = max(1.0, abs(e))
    for op in (hilbert, hilbert_maximal):
        with pytest.raises(SingularInputError):
            op(f, e + side * 0.5e-9 * scale)
        assert math.isfinite(op(f, e + side * 2e-9 * scale))


def test_maximal_explicit_values():
    f = indicator((0.0, 1.0))
    assert maximal(f, 2.0) == 0.5
    assert maximal(f, 0.5) == 1.0
    assert maximal(f, -1.0) == 0.5


@pytest.mark.parametrize("op", [maximal, hilbert, hilbert_maximal])
def test_nan_point_is_a_precondition(op):
    # each returned 0.0: NaN is no endpoint, bisects below every one, and
    # every average and distance from it is NaN, which no `>` picks
    f = indicator((0.0, 1.0))
    with pytest.raises(PreconditionError, match="NaN"):
        op(f, math.nan)
    assert math.isfinite(op(f, 2.0))


# -- quadrature / grid oracles ----------------------------------------------


def test_hilbert_against_pv_quadrature():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        f = random_step(rng)
        x = float(rng.uniform(-6.0, 6.0))
        if min(abs(x - e) for e in f.ends) < 1e-3:
            continue
        assert hilbert(f, x) == pytest.approx(hilbert_pv_oracle(f, x), abs=1e-6)
        checked += 1


def test_maximal_against_grid_oracle():
    rng = np.random.default_rng(37)
    for _ in range(100):
        f = random_step(rng)
        x = float(rng.uniform(-6.0, 6.0))
        exact = maximal(f, x)
        approx = maximal_grid_oracle(f, x, n=600)
        # the grid oracle underestimates; exact must dominate and be close
        assert exact >= approx - 1e-12
        assert exact == pytest.approx(approx, rel=5e-3)


def test_hstar_dominates_truncations_and_hits_h():
    rng = np.random.default_rng(41)
    for _ in range(30):
        f = random_step(rng)
        x = float(rng.uniform(-6.0, 6.0))
        if min(abs(x - e) for e in f.ends) < 1e-3:
            continue
        hs = hilbert_maximal(f, x)
        assert hs >= abs(hilbert(f, x)) - 1e-9


def test_hstar_against_truncation_sweep():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 40:
        f = random_step(rng, n_pieces=3 if checked % 2 else 8)
        x = float(rng.uniform(-6.0, 6.0))
        if min(abs(x - e) for e in f.ends) < 1e-3:
            continue
        hs = hilbert_maximal(f, x)
        sweep, miss = truncation_sweep_oracle(f, x)
        # exact dominates every sampled truncation and the grid misses little
        assert sweep - 1e-12 <= hs <= sweep + miss + 1e-12
        checked += 1


def test_conjugate_hardy_closed_form():
    u = WeightModel.constant(domain_kind="line")
    g = rearrange(make_step([((1.0, 2.0), 3.0)]), u)
    assert conjugate_hardy(g, 0.5) == pytest.approx(3.0 * math.log(2.0))
    assert conjugate_hardy(g, 0.0) == math.inf
    assert conjugate_hardy(g, 5.0) == 0.0
    with pytest.raises(PreconditionError):
        conjugate_hardy(g, -1.0)


def test_nan_t_is_rejected():
    # a NaN t is rejected as a negative one is, not read as t = 0 (Q g = inf)
    # or as a point past the last breakpoint (g = 0)
    g = rearrange(make_step([((1.0, 2.0), 3.0)]), WeightModel.constant(domain_kind="line"))
    with pytest.raises(PreconditionError, match="t >= 0"):
        conjugate_hardy(g, math.nan)
    with pytest.raises(ValueError, match=r"\[0, inf\)"):
        g(math.nan)


def test_conjugate_hardy_matches_quadrature():
    u = WeightModel.constant(domain_kind="line")
    rng = np.random.default_rng(43)
    for _ in range(10):
        f = random_step(rng)
        g = rearrange(f, u)
        top = g.breakpoints[-1]
        for t in (0.1 * top, 0.5 * top):
            oracle = quad(
                lambda s: g(s) / s, t, top, points=list(g.breakpoints[1:-1]), limit=400
            )[0]
            assert conjugate_hardy(g, t) == pytest.approx(oracle, rel=1e-8)


# -- resampling and probe families ------------------------------------------


def test_resample_captures_plateau():
    f = indicator((0.0, 1.0))
    g = resample_step(lambda x: maximal(f, x), [0.0, 1.0])
    assert g.value_at(0.5) == pytest.approx(1.0)
    assert g.value_at(2.5) == pytest.approx(maximal(f, 2.5), rel=0.3)


def test_apply_operator_shapes():
    u = WeightModel.constant(domain_kind="line")
    f = indicator((-1.0, 1.0))
    from llab.rearrangement import DecreasingStep, StepFunction

    assert isinstance(apply_operator("maximal", f, u), StepFunction)
    assert isinstance(apply_operator("hilbert", f, u), StepFunction)
    assert isinstance(apply_operator("q", f, u), DecreasingStep)
    with pytest.raises(PreconditionError):
        apply_operator("unknown", f, u)


def test_probe_families_deterministic():
    a = random_step_family(4, seed=9)
    b = random_step_family(4, seed=9)
    assert [f.to_json() for _, f in a] == [f.to_json() for _, f in b]
    assert len(indicator_family(5, seed=0)) == 5
    assert len(extremal_family(4.0, count=2)) == 2


def test_empirical_opnorm_lp_maximal():
    # on L^2 the maximal operator has norm >= 1 (indicators already give
    # ratios close to 1 from the plateau around the support)
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    rep = empirical_opnorm("maximal", u, w, 2.0, indicator_family(4, 0), "strong")
    assert rep.max_ratio > 1.0
    assert all(r > 0.0 for _, _, r in [(d[0], d[1], d[2] / d[1]) for d in rep.details])


def test_hilbert_verdict_lp():
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.constant()
    hv = hilbert_verdict(u, w, 2.0, compute_estimates(u, w, 2.0))
    assert hv.verdict == "bounded"
    assert hv.index_route == "bounded" and hv.condition_route == "bounded"
    assert hv.routes_agree


def test_hilbert_verdict_bad_weight():
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.power(1.2)
    hv = hilbert_verdict(u, w, 2.0, compute_estimates(u, w, 2.0))
    assert hv.index_route == "not_bounded"
    assert hv.verdict == "not_bounded"


def test_hilbert_verdict_reads_the_class_flags_without_their_probes():
    # u = 1 on (0, 1), then 1e-200: the probe mass u((2, 3)) rounds to 0, so
    # check_Ainf refuses u, and the verdict did too, although A_inf holds by
    # its theorem (tail exp 0 > -1)
    u = WeightModel((Segment(0.0, 1.0, 1.0, 0.0),), "line", tail_coef=1e-200)
    w = WeightModel.power(0.5)
    hv = hilbert_verdict(u, w, 2.0, compute_estimates(u, w, 2.0))
    assert hv.ainf_holds and hv.bstar_holds
    with pytest.raises(PreconditionError, match="u\\(I\\) > 0"):
        check_Ainf(u)


@pytest.mark.parametrize("a", [-0.999, -0.9985])
def test_hilbert_verdict_beta_within_its_margin_is_inconclusive(a):
    # u = 1, w = t^a: the lower index a + 1 fits to 5e-4 and 7.5e-4, above
    # 0 but within the margin 1e-3, which decides neither way
    u = WeightModel.constant(domain_kind="line")
    w = WeightModel.power(a)
    est = compute_estimates(u, w, 2.0)
    assert 0.0 < est.beta.exponent < 1e-3
    hv = hilbert_verdict(u, w, 2.0, est)
    assert hv.index_route == "inconclusive"
    assert hv.verdict == "inconclusive"


# -- properties on large multi-part step functions --------------------------


def log_terms(parts, x):
    """v (log|x - a| - log|x - b|) per part (a, b) of value v, in numpy."""
    lo, hi, val = (np.array(c, dtype=float) for c in zip(*parts))
    return val * (np.log(np.abs(x - lo)) - np.log(np.abs(x - hi)))


@given(step_functions(), st.floats(-60.0, 60.0))
@settings(max_examples=100, deadline=None)
def test_hilbert_matches_numpy_closed_form(case, x):
    f, parts = case
    assume(parts and min(abs(x - e) for e in f.ends) > 1e-6)
    terms = log_terms(parts, x)
    # both sides round each of their n log terms; scale by their total size
    slack = 1e-14 * float(np.sum(np.abs(terms)) + np.sum([v for _, _, v in parts]))
    assert abs(hilbert(f, x) - float(terms.sum()) / math.pi) <= slack


@given(step_functions(), st.floats(-60.0, 60.0))
@settings(max_examples=50, deadline=None)
def test_hstar_matches_truncations_at_endpoint_distances(case, x):
    f, parts = case
    assume(parts and min(abs(x - e) for e in f.ends) > 1e-6)
    lo, hi, val = (np.array(c, dtype=float) for c in zip(*parts))
    eps = np.unique(np.abs(x - np.concatenate([lo, hi])))[:, None]
    left = np.where(lo < x - eps, np.log(np.abs(x - lo)) - np.log(np.abs(np.minimum(hi, x - eps) - x)), 0.0)
    right = np.where(hi > x + eps, np.log(np.abs(np.maximum(lo, x + eps) - x)) - np.log(np.abs(hi - x)), 0.0)
    T = ((left + right) * val).sum(axis=1)
    terms = log_terms(parts, x)
    want = max(abs(float(terms.sum())), float(np.abs(T).max())) / math.pi
    slack = 1e-14 * float(np.sum(np.abs(terms)) + val.sum())
    assert hilbert_maximal(f, x) >= abs(hilbert(f, x))
    assert abs(hilbert_maximal(f, x) - want) <= slack


def _case(pieces):
    f = make_step(pieces)
    return f, [(p.lo, p.hi, v) for region, v in f.pieces for p in region.parts]


def assert_maximal_is_the_pair_loop(f, y):
    # The averages from y are a subset of the pair loop's candidates, so the
    # first inequality is exact.  The second is the mediant bound: an average
    # over (a, b) with a < y < b never exceeds the larger of those over (a, y)
    # and (y, b), and each computed average is within about 1.5 eps of its
    # exact value, so the pair loop is at most about 3 eps above.  Both start
    # from f(y), so Mf >= f holds in floats too.
    assert maximal(f, y) <= maximal_pairs_oracle(f, y) <= maximal(f, y) * (1 + 4 * 2**-52)
    assert maximal(f, y) >= f.value_at(y)


# the pair (-2, 7) averages 3.0, the averages from x 2.9999999999999996
@example(case=_case([((-2.0, 7.0), 3.0)]), x=-1.3)
# the averages from x are 3.6999999999999997, below f(x) = 3.7
@example(case=_case([((-1.35, 0.21), 3.7)]), x=0.07)
@example(case=_case([]), x=0.5)  # no ends: only the 0.0 candidate
@given(step_functions(max_pieces=40), st.floats(-60.0, 60.0))
@settings(max_examples=100, deadline=None)
def test_maximal_is_the_pair_loop(case, x):
    f, _ = case
    ends = f.ends
    points = [x, *ends, math.inf, -math.inf]
    points += [math.nextafter(e, side) for e in ends for side in (-math.inf, math.inf)]
    for y in points:
        assert_maximal_is_the_pair_loop(f, y)
    with pytest.raises(PreconditionError):
        maximal(f, math.nan)


def test_maximal_with_overflowing_integrals_is_the_pair_loop():
    # F overflows to inf past the first piece, so some averages are inf and
    # some are inf - inf = NaN, which must never count
    f = make_step([((0.0, 1e10), 1e300), ((2e10, 3e10), 1e299), ((4e10, 5e10), 2.0)])
    ends = f.ends
    points = [*ends, 5e9, 1.5e10, 4.5e10, 6e10, -1.0, math.inf, -math.inf]
    points += [math.nextafter(e, side) for e in ends for side in (-math.inf, math.inf)]
    for y in points:
        assert_maximal_is_the_pair_loop(f, y)
    with pytest.raises(PreconditionError):
        maximal(f, math.nan)


# two runs of ends whose distances from x = +-1e17 round together (ulp(1e17)
# = 16), so each step there is log1p of an endpoint difference over a distance
_TIED_RUNS = _case(
    [((0.0, 1.0), 1.0), ((1.0, 2.0), 3.0), ((2.0, 1024.0), 4.0), ((1024.0, 1025.0), 2.0), ((1025.0, 1026.0), 5.0)]
)
# ends mirrored about 0, so the midpoint of ends[0] and ends[-1] ties the sides
_MIRRORED = _case([((-4.0, -3.0), 1.0), ((-3.0, -1.0), 2.0), ((1.0, 3.0), 3.0), ((3.0, 4.0), 5.0)])


@given(step_functions(), st.floats(-60.0, 60.0), st.sampled_from(["plain", "midpoint", "far"]))
@example(case=_TIED_RUNS, x=1.0, where="far")
@example(case=_TIED_RUNS, x=-1.0, where="far")
@example(case=_MIRRORED, x=0.0, where="midpoint")
@settings(max_examples=100, deadline=None)
def test_truncations_are_the_sorted_sweep(case, x, where):
    f, _ = case
    ends = f.ends
    if where == "midpoint" and ends:  # equal distances on both sides
        j = int(abs(x) * 1e6) % len(ends)
        x = 0.5 * (ends[j] + ends[-1 - j])
    elif where == "far":  # distances that round together on one side
        x = math.copysign(1e17, x)
    assume(_near_endpoint(ends, x) is None)
    assert _truncations(f, x) == truncations_sort_oracle(f, x)


@pytest.mark.parametrize("x", [1e17, -1e17])
def test_truncations_far_from_tied_runs_are_exact(x):
    # every endpoint on one side, at distances that round together in two
    # runs of three: still one entry per endpoint, each T at its true distance
    f, _ = _TIED_RUNS
    got, want = _truncations(f, x), truncations_mpmath(f, x)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


@given(
    st.floats(-60.0, 60.0),
    st.floats(-60.0, 60.0),
    st.floats(0.01, 100.0),
    st.floats(1e3, 1e15),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_hilbert_of_an_indicator_far_away(a, b, c, r, right):
    # far from the support the log of a ratio of rounded distances has lost
    # its digits; the closed form reads log1p of the length over a distance
    assume(a < b)
    f = make_step([((a, b), c)])
    x = r if right else -r
    want = c * (math.log1p((b - a) / (x - b)) if right else math.log1p((a - b) / (b - x))) / math.pi
    assert abs(hilbert(f, x) - want) <= 1e-14 * abs(want)
