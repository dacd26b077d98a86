"""Operator images evaluated in one array pass.

Oracles:
  - image_oracle: the resample loop with one scalar evaluation per grid
    midpoint; every image must equal it byte for byte.
  - the scalar kernels maximal, hilbert and hilbert_maximal: the array
    kernels must return the same floats, compared with ==, and raise the
    same errors.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import image_oracle, nudged, step_functions, step_of_cells_oracle
from llab.errors import PreconditionError, SingularInputError
from llab.operators import (
    _hilbert_array,
    _maximal_array,
    _nudged_array,
    _step_of_cells,
    apply_operator,
    hilbert,
    hilbert_maximal,
    maximal,
)
from llab.rearrangement import make_step
from llab.weights import WeightModel

U = WeightModel.constant(domain_kind="line")


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PreconditionError, SingularInputError) as exc:
        return type(exc), str(exc)


def assert_maximal_matches(f, xs):
    xs = np.array(xs, dtype=float)
    assert np.array_equal(_maximal_array(f, xs), [maximal(f, x) for x in xs.tolist()])


def assert_hilbert_matches(f, xs):
    """Both outputs of _hilbert_array against the scalar kernels, NaN equal
    to NaN."""
    xs = np.array(xs, dtype=float)
    h, hs = _hilbert_array(f, xs)
    assert np.array_equal(h, [hilbert(f, x) for x in xs.tolist()], equal_nan=True)
    assert np.array_equal(hs, [hilbert_maximal(f, x) for x in xs.tolist()], equal_nan=True)


def near_points(ends):
    """The endpoints, their float neighbours and points inside and just
    outside the singular band of each."""
    out = [*ends, *(math.nextafter(e, side) for e in ends for side in (-math.inf, math.inf))]
    return out + [e + s * max(1.0, abs(e)) for e in ends for s in (-3e-9, -0.5e-9, 0.5e-9, 3e-9)]


@given(step_functions(max_pieces=30), st.sampled_from(["maximal", "hilbert", "hstar"]))
@settings(max_examples=60, deadline=None)
def test_images_are_the_scalar_loop(case, op):
    f, parts = case
    assume(parts)
    got = outcome(lambda: apply_operator(op, f, U).to_json())
    assert got == outcome(lambda: image_oracle(op, f).to_json())


@given(step_functions(max_pieces=40), st.floats(-60.0, 60.0))
@settings(max_examples=60, deadline=None)
def test_array_kernels_are_the_scalar_kernels(case, x):
    f, parts = case
    assume(parts)
    ends = f.ends
    # the same distance on both sides; distances that round together on one side
    points = [x, 0.5 * (ends[0] + ends[-1]), 0.5 * (ends[1 % len(ends)] + ends[-2]), 1e17, -1e17]
    points += near_points(ends)
    assert_maximal_matches(f, points)
    assert_hilbert_matches(f, [y for y in points if nudged(y, ends) == y])
    moved = _nudged_array(np.array(points), ends)
    assert moved.tolist() == [nudged(y, ends) for y in points]
    assert_hilbert_matches(f, moved)


_CELL_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, -2.0, 1e-300, math.nan, math.inf, -math.inf])


@given(
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=60),
    st.lists(st.tuples(_CELL_VALUES, st.integers(1, 4)), max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_step_of_cells_is_one_make_step_per_cell(points, runs):
    values = [v for v, count in runs for _ in range(count)]  # runs of equal values
    grid = sorted(set(points))[: len(values) + 1]
    values = values[: len(grid) - 1]
    got, want = _step_of_cells(grid, values), step_of_cells_oracle(grid, values)
    assert (got.pieces, got.to_json(), got.table) == (want.pieces, want.to_json(), want.table)


def test_array_kernels_raise_the_scalar_error():
    # 1 + 0.5e-9 is nudged to 1 + 2.5e-9, which is in the band of 1 + 2e-9
    f = make_step([((0.0, 1.0), 1.0), ((1.0, 1.0 + 2e-9), 2.0), ((1.0 + 2e-9, 2.0), 3.0)])
    ends = f.ends
    xs = np.array([0.5, 1.0 + 0.5e-9, 1.5])
    stuck = nudged(1.0 + 0.5e-9, ends)
    assert _nudged_array(xs, ends)[1] == stuck
    with pytest.raises(SingularInputError) as scalar:
        hilbert(f, stuck)
    with pytest.raises(SingularInputError) as batch:
        _hilbert_array(f, _nudged_array(xs, ends))
    assert str(batch.value) == str(scalar.value)
    assert outcome(apply_operator, "hstar", f, U) == outcome(image_oracle, "hstar", f)
    assert outcome(image_oracle, "hstar", f) == (SingularInputError, str(scalar.value))
    for kernel in (_maximal_array, _hilbert_array):
        with pytest.raises(PreconditionError, match="NaN"):
            kernel(f, np.array([0.5, math.nan]))


def test_array_kernels_with_overflowing_integrals():
    # F is inf past the first piece, and some averages and some T are NaN
    f = make_step([((0.0, 1e10), 1e300), ((2e10, 3e10), 1e299), ((4e10, 5e10), 2.0)])
    ends = f.ends
    points = [5e9, 1.5e10, 4.5e10, 6e10, -1.0, -7e10, 2.5e10, 3.5e10, *near_points(ends)]
    assert_maximal_matches(f, points)
    assert_hilbert_matches(f, _nudged_array(np.array(points), ends))
    for op in ("maximal", "hilbert", "hstar"):
        assert apply_operator(op, f, U).to_json() == image_oracle(op, f).to_json()


def test_overflowing_distance_is_a_precondition():
    # x - e overflows to inf for the far endpoint, though f and x are finite;
    # hilbert returned nan and hilbert_maximal 0.0
    f = make_step([((0.0, 1.0), 1.0), ((1e308, 1.7e308), 2.0)])
    for op in (hilbert, hilbert_maximal):
        with pytest.raises(PreconditionError, match="overflows"):
            op(f, -1e308)
    with pytest.raises(PreconditionError, match="overflows"):
        _hilbert_array(f, np.array([0.5, -1e308]))
    assert maximal(f, -1e308) == 1e-308
    assert _maximal_array(f, np.array([-1e308])).tolist() == [1e-308]


def test_image_memory_is_linear():
    # 300 pieces: a grid of 4,840 midpoints by 301 endpoints, and one
    # N x m float64 array of that shape is 11.6 MB
    rng = np.random.default_rng(59)
    edges = np.cumsum(rng.uniform(0.05, 0.5, size=301))
    f = make_step([((float(a), float(b)), float(v)) for a, b, v in zip(edges, edges[1:], rng.permutation(300) + 1.0)])
    f.table
    tracemalloc.start()
    try:
        image = apply_operator("hilbert", f, U)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(image.pieces) == 4840
    assert peak < 0.5 * 4840 * 301 * 8
