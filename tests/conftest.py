"""Shared fixtures: canonical weights and seeded instance generators."""

import numpy as np
import pytest
from hypothesis import strategies as st

from llab.intervals import Interval, normalize
from llab.rearrangement import make_step
from llab.weights import WeightModel


@pytest.fixture
def w_unit():
    return WeightModel.constant()


@pytest.fixture
def u_unit():
    return WeightModel.constant(domain_kind="line")


@pytest.fixture
def u_abs():
    return WeightModel.power(1.0, domain_kind="line")


def random_pair(rng, max_components=6):
    """A seeded (I, S) pair: an interval I and a union S of disjoint
    subintervals of I with positive total measure strictly below |I|."""
    lo = float(rng.uniform(-10.0, 10.0))
    length = float(rng.uniform(0.5, 20.0))
    I = Interval(lo, lo + length)
    m = int(rng.integers(1, max_components + 1))
    cuts = np.sort(rng.uniform(lo, lo + length, size=2 * m))
    parts = [(float(cuts[2 * k]), float(cuts[2 * k + 1])) for k in range(m)]
    S = normalize([p for p in parts if p[1] - p[0] > 1e-6 * length])
    if not S or S.measure >= 0.999 * length:
        return random_pair(rng, max_components)
    return I, S


@st.composite
def step_functions(draw, max_pieces=200):
    """(f, parts): a step function on up to max_pieces consecutive cells of a
    random partition, some cells left empty and the values drawn from a small
    pool, so regions have several parts and parts abut; parts lists the
    (lo, hi, value) of every part of every region."""
    n = draw(st.integers(1, max_pieces))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.unique(rng.uniform(-50.0, 50.0, size=n + 1))
    pool = 2.0 ** rng.uniform(-3.0, 3.0, size=draw(st.integers(1, 8)))
    keep = rng.uniform(size=cuts.size - 1) >= draw(st.floats(0.0, 0.8))
    cells = [(float(a), float(b)) for a, b, k in zip(cuts, cuts[1:], keep) if k]
    f = make_step([(cell, float(rng.choice(pool))) for cell in cells])
    parts = [(p.lo, p.hi, v) for region, v in f.pieces for p in region.parts]
    return f, parts


def maximal_grid_oracle(f, x, n=4000):
    """Best average of f over windows (a, b) with a <= x <= b drawn from a
    uniform n-point grid one unit past the endpoints of f, plus the endpoints
    and x itself.  All pairs at once: the overlap of each window with each
    piece is taken in the same floating-point order as a pairwise loop."""
    ends = f.endpoints()
    lo, hi = min(ends) - 1.0, max(ends) + 1.0
    grid = np.array(sorted(set(np.linspace(lo, hi, n)) | set(ends) | {x}))
    a = grid[grid <= x][:, None]
    b = grid[grid >= x][None, :]
    total = np.zeros((a.size, b.size))
    for region, v in f.pieces:
        inside = np.zeros_like(total)
        for p in region.parts:
            inside += np.maximum(0.0, np.minimum(b, p.hi) - np.maximum(a, p.lo))
        total += v * inside
    width = b - a
    wide = width >= 1e-12
    return float((total[wide] / width[wide]).max(initial=0.0))
