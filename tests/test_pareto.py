"""Unit tests for pareto-front mathematics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExplorationError
from repro.util.pareto import (
    ParetoCoverage,
    average_axis_distance,
    dominates,
    is_pareto_point,
    pareto_coverage,
    pareto_front,
    pareto_indices,
)


class TestDominates:
    def test_strictly_better_on_all_axes(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))

    def test_better_on_one_equal_on_other(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_trade_off_points_do_not_dominate(self):
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 3.0))

    def test_three_dimensional(self):
        assert dominates((1, 1, 1), (1, 1, 2))
        assert not dominates((1, 1, 2), (2, 2, 1))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ExplorationError):
            dominates((1.0,), (1.0, 2.0))


class TestParetoIndices:
    def test_single_point_is_pareto(self):
        assert pareto_indices([(3.0, 4.0)]) == [0]

    def test_dominated_point_excluded(self):
        assert pareto_indices([(1, 1), (2, 2)]) == [0]

    def test_trade_off_chain_all_kept(self):
        points = [(1, 4), (2, 3), (3, 2), (4, 1)]
        assert pareto_indices(points) == [0, 1, 2, 3]

    def test_duplicates_all_kept(self):
        assert pareto_indices([(1, 1), (1, 1)]) == [0, 1]

    def test_mixed(self):
        points = [(1, 5), (2, 2), (3, 3), (5, 1), (2, 6)]
        assert pareto_indices(points) == [0, 1, 3]

    def test_preserves_input_order(self):
        points = [(4, 1), (1, 4), (2, 2)]
        assert pareto_indices(points) == [0, 1, 2]

    def test_nan_row_kept_and_dominates_nothing(self):
        points = [(1.0, 1.0), (math.nan, 0.0), (2.0, 2.0), (0.0, math.nan)]
        assert pareto_indices(points) == [0, 1, 3]

    def test_infinities_compare_as_floats(self):
        points = [(math.inf, 1.0), (math.inf, 2.0), (-math.inf, math.inf)]
        assert pareto_indices(points) == [0, 2]

    def test_ragged_input_raises(self):
        with pytest.raises(ExplorationError, match="dimension mismatch"):
            pareto_indices([(1.0, 2.0), (1.0,)])

    def test_empty_input(self):
        assert pareto_indices([]) == []

    def test_zero_dimensional_vectors_all_kept(self):
        assert pareto_indices([(), (), ()]) == [0, 1, 2]


def _all_pairs_oracle(points):
    """The definition: indices no other point dominates, in input order."""
    return [
        i
        for i, p in enumerate(points)
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i)
    ]


_objective = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]),
)


@st.composite
def _point_sets(draw):
    dims = draw(st.integers(min_value=0, max_value=3))
    vector = st.tuples(*[_objective] * dims)
    points = draw(st.lists(vector, max_size=24))
    # Force duplicates: re-append some drawn points.
    if points:
        extra = draw(st.lists(st.sampled_from(points), max_size=6))
        points = points + extra
        points = draw(st.permutations(points))
    return points


class TestParetoIndicesDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_point_sets())
    def test_matches_all_pairs_oracle(self, points):
        assert pareto_indices(points) == _all_pairs_oracle(points)


def _coverage_oracle(reference, explored, rel_tol):
    """Table 2 metrics as scalar loops: ``math.isclose`` matching and
    ``min(..., key=...)`` for the closest explored point."""
    found, missed = [], []
    for ref in map(tuple, reference):
        if any(
            all(
                math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-12)
                for x, y in zip(ref, e)
            )
            for e in explored
        ):
            found.append(ref)
        else:
            missed.append(ref)
    dims = len(reference[0])
    if not missed:
        return ParetoCoverage(1.0, (0.0,) * dims, tuple(found), ())
    if not explored:
        raise ExplorationError("empty exploration")
    totals = [0.0] * dims
    for ref in missed:
        near = min(
            explored,
            key=lambda c: sum(
                abs(x - y) / abs(y) if y else abs(x - y)
                for x, y in zip(c, ref)
            ),
        )
        for axis in range(dims):
            denom = abs(ref[axis]) or 1.0
            totals[axis] += 100.0 * abs(near[axis] - ref[axis]) / denom
    return ParetoCoverage(
        len(found) / len(reference),
        tuple(total / len(missed) for total in totals),
        tuple(found),
        tuple(missed),
    )


@st.composite
def _coverage_cases(draw):
    dims = draw(st.integers(min_value=1, max_value=3))
    vector = st.tuples(*[_objective] * dims)
    reference = draw(st.lists(vector, min_size=1, max_size=6))
    explored = draw(st.lists(vector, max_size=8))
    # Near copies of reference points, inside and outside the tolerance.
    for ref in draw(st.lists(st.sampled_from(reference), max_size=3)):
        scale = draw(
            st.sampled_from([1.0, 1.0 + 1e-10, 1.0 + 1e-8, 1.01, 1.0101])
        )
        explored.append(tuple(x * scale for x in ref))
    rel_tol = draw(st.sampled_from([0.0, 1e-9, 0.01]))
    return reference, draw(st.permutations(explored)), rel_tol


class TestCoverageDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_coverage_cases())
    def test_matches_scalar_oracle(self, case):
        reference, explored, rel_tol = case
        outcomes = []
        for measure in (pareto_coverage, _coverage_oracle):
            try:
                # repr tells NaN, -0.0 and 0.0 apart, so equal reprs are
                # equal bits.
                outcomes.append(repr(measure(reference, explored, rel_tol)))
            except ExplorationError:
                outcomes.append("ExplorationError")
        assert outcomes[0] == outcomes[1]


class TestParetoFront:
    def test_key_extraction(self):
        items = [{"c": 1, "p": 5}, {"c": 2, "p": 2}, {"c": 3, "p": 4}]
        front = pareto_front(items, key=lambda d: (d["c"], d["p"]))
        assert front == [items[0], items[1]]

    def test_empty_input_gives_empty_front(self):
        assert pareto_front([], key=lambda x: x) == []

    def test_three_objectives(self):
        items = [(1, 1, 9), (1, 9, 1), (9, 1, 1), (5, 5, 5), (9, 9, 9)]
        front = pareto_front(items, key=lambda v: v)
        assert (9, 9, 9) not in front
        assert len(front) == 4


class TestIsParetoPoint:
    def test_non_dominated(self):
        assert is_pareto_point((1, 5), [(2, 2), (3, 3)])

    def test_dominated(self):
        assert not is_pareto_point((4, 4), [(2, 2)])


class TestCoverage:
    def test_full_coverage(self):
        reference = [(1.0, 4.0), (2.0, 2.0)]
        result = pareto_coverage(reference, reference)
        assert result.coverage == 1.0
        assert result.coverage_percent == 100.0
        assert result.axis_distances == (0.0, 0.0)
        assert result.missed == ()

    def test_partial_coverage(self):
        reference = [(1.0, 4.0), (2.0, 2.0)]
        explored = [(1.0, 4.0), (2.1, 2.1)]
        result = pareto_coverage(reference, explored)
        assert result.coverage == 0.5
        assert len(result.missed) == 1
        # Closest to (2, 2) is (2.1, 2.1): 5% on each axis.
        assert result.axis_distances[0] == pytest.approx(5.0)
        assert result.axis_distances[1] == pytest.approx(5.0)

    def test_tolerance_counts_near_matches(self):
        reference = [(100.0, 10.0)]
        explored = [(100.5, 10.05)]
        loose = pareto_coverage(reference, explored, rel_tol=0.01)
        assert loose.coverage == 1.0
        strict = pareto_coverage(reference, explored, rel_tol=1e-9)
        assert strict.coverage == 0.0

    def test_empty_reference_raises(self):
        with pytest.raises(ExplorationError):
            pareto_coverage([], [(1.0, 1.0)])

    def test_three_axis_distances(self):
        reference = [(10.0, 10.0, 10.0)]
        explored = [(11.0, 12.0, 13.0)]
        result = pareto_coverage(reference, explored)
        assert result.axis_distances == pytest.approx((10.0, 20.0, 30.0))


class TestAverageAxisDistance:
    def test_empty_missed_gives_empty(self):
        assert average_axis_distance([], [(1.0, 1.0)]) == ()

    def test_empty_explored_raises(self):
        with pytest.raises(ExplorationError):
            average_axis_distance([(1.0, 1.0)], [])

    def test_picks_closest_candidate(self):
        missed = [(10.0, 10.0)]
        explored = [(100.0, 100.0), (10.5, 10.5)]
        distances = average_axis_distance(missed, explored)
        assert distances == pytest.approx((5.0, 5.0))

    def test_zero_reference_axis_uses_absolute(self):
        distances = average_axis_distance([(0.0, 10.0)], [(0.5, 10.0)])
        assert distances[0] == pytest.approx(50.0)
        assert distances[1] == 0.0
