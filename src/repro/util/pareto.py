"""Pareto-front mathematics used throughout the exploration layers.

The paper evaluates designs in two- and three-dimensional objective
spaces (cost/performance, performance/power, cost/power, and the full
cost/performance/power space). Throughout this module every objective is
*minimized*: cost in gates, average memory latency in cycles, and energy
per access in nJ all improve downward, matching the paper's axes.

Besides front extraction, this module implements the two quality metrics
of the paper's Table 2:

* **coverage** — the percentage of reference pareto points that the
  exploration actually found, and
* **average axis distance** — for each missed pareto point, the
  per-axis percentile deviation to the closest point the exploration did
  produce ("there are no significant gaps in the coverage of the pareto
  curve" when this is small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.errors import ExplorationError

T = TypeVar("T")

Vector = Sequence[float]


def dominates(a: Vector, b: Vector) -> bool:
    """Return True if point ``a`` pareto-dominates point ``b``.

    ``a`` dominates ``b`` when it is no worse on every axis and strictly
    better on at least one (all axes minimized). Matches the paper's
    definition: "a design is on the pareto curve if there is no other
    design which is better in both cost and performance".
    """
    if len(a) != len(b):
        raise ExplorationError(
            f"dimension mismatch in dominance test: {len(a)} vs {len(b)}"
        )
    no_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return no_worse and strictly_better


def _rows(vectors: Sequence[Vector], dims: int) -> np.ndarray:
    """``vectors`` as a float matrix of ``dims`` columns."""
    for vector in vectors:
        if len(vector) != dims:
            raise ExplorationError(
                f"dimension mismatch: {dims} vs {len(vector)}"
            )
    return np.asarray(vectors, dtype=float).reshape(len(vectors), dims)


def pareto_indices(points: Sequence[Vector]) -> list[int]:
    """Indices of the non-dominated points of ``points``, in input order.

    The result is exactly the set of points that no other point
    :func:`dominates`:

    * duplicate coordinates are all retained (none of two equal points
      dominates the other), mirroring the paper's plots where distinct
      architectures may share a cost/latency pair;
    * a point with a NaN on any axis is always kept and dominates
      nothing, because every ``<=``/``<`` comparison with NaN is false;
    * ``inf`` and ``-inf`` compare as ordinary floats (``inf <= inf``
      holds, ``inf < inf`` does not);
    * zero-dimensional vectors are all kept;
    * vectors of different lengths raise :class:`ExplorationError`.

    The points are sorted lexicographically and walked in that order,
    each tested with NumPy row operations against the front kept so
    far. That is exact: a dominating point sorts strictly before the
    point it dominates, and a dominated dominator is itself dominated
    by a kept point (dominance is transitive).
    """
    dims = len(points[0]) if len(points) else 0
    values = _rows(points, dims)
    if len(values) < 2 or dims == 0:
        return list(range(len(values)))
    has_nan = np.isnan(values).any(axis=1)
    comparable = np.flatnonzero(~has_nan)
    order = comparable[np.lexsort(values[comparable].T[::-1])]
    front = np.empty((len(order), dims))
    kept = list(np.flatnonzero(has_nan))
    size = 0
    for index in order:
        point = values[index]
        head = front[:size]
        # Everything in ``head`` sorts at or before ``point``, so a row
        # no worse on every axis and not equal to it dominates it.
        if ((head <= point).all(axis=1) & (head != point).any(axis=1)).any():
            continue
        front[size] = point
        size += 1
        kept.append(index)
    return sorted(int(index) for index in kept)


def pareto_front(
    items: Iterable[T], key: Callable[[T], Vector]
) -> list[T]:
    """Return the pareto-optimal subset of ``items`` under ``key``.

    ``key`` maps an item to its objective vector (all axes minimized).
    The result preserves input order, so deterministic exploration runs
    yield deterministic fronts. Records the ``pareto.front`` span and
    the ``pareto.points_in`` / ``pareto.points_kept`` counters.
    """
    materialized = list(items)
    with obs.span("pareto.front"):
        vectors = [tuple(key(item)) for item in materialized]
        front = [materialized[i] for i in pareto_indices(vectors)]
    obs.incr("pareto.points_in", len(materialized))
    obs.incr("pareto.points_kept", len(front))
    return front


def is_pareto_point(point: Vector, points: Sequence[Vector]) -> bool:
    """True when no point of ``points`` dominates ``point``."""
    return not any(dominates(q, point) for q in points)


@dataclass(frozen=True)
class ParetoCoverage:
    """Coverage of a reference pareto front by an exploration result.

    Attributes mirror the rows of the paper's Table 2:

    * ``coverage`` — fraction in [0, 1] of reference pareto points that
      the exploration found (within ``rel_tol`` on every axis).
    * ``axis_distances`` — per-axis average percentile deviation between
      each *missed* pareto point and the closest explored point; empty
      axes deviation is 0.0 when nothing was missed.
    * ``found`` / ``missed`` — the partitioned reference points.
    """

    coverage: float
    axis_distances: tuple[float, ...]
    found: tuple[tuple[float, ...], ...]
    missed: tuple[tuple[float, ...], ...]

    @property
    def coverage_percent(self) -> float:
        """Coverage as a percentage, as printed in Table 2."""
        return 100.0 * self.coverage


def _matches(ref: np.ndarray, explored: np.ndarray, rel_tol: float) -> bool:
    """Does some row of ``explored`` match ``ref`` on every axis?

    Per axis this is ``math.isclose(x, y, rel_tol=rel_tol,
    abs_tol=1e-12)`` on whole columns: equal values (``inf`` included)
    match, an infinite value matches only itself, NaN matches nothing.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(explored - ref)
        tolerance = np.maximum(
            np.abs(rel_tol * explored), np.abs(rel_tol * ref)
        )
        close = (diff <= tolerance) | (diff <= 1e-12)
    close &= ~(np.isinf(explored) | np.isinf(ref))
    close |= explored == ref
    return bool(close.all(axis=1).any())


def _closest(point: Sequence[float], candidates: np.ndarray) -> int:
    """Index of the candidate minimizing the summed relative deviation.

    Like ``min(..., key=...)``: the first minimum wins, a NaN deviation
    is never smaller than another, and a NaN first deviation is kept.
    """
    total = np.zeros(len(candidates))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for axis, y in enumerate(point):
            deviation = np.abs(candidates[:, axis] - y)
            total += deviation / abs(y) if y else deviation
    if np.isnan(total[0]):
        return 0
    return int(np.argmin(np.where(np.isnan(total), np.inf, total)))


def average_axis_distance(
    missed: Sequence[Vector], explored: Sequence[Vector]
) -> tuple[float, ...]:
    """Average per-axis percentile deviation of missed pareto points.

    For every missed reference point, finds the closest explored point
    (by summed relative deviation) and accumulates ``|x - ref| / ref``
    per axis; returns per-axis averages in percent. This is the paper's
    "average percentile deviation in terms of cost, performance and
    energy consumption, between the pareto points which have not been
    covered, and the closest exploration point which approximates them".
    """
    if not missed:
        return ()
    if not explored:
        raise ExplorationError("cannot measure distance to an empty exploration")
    dims = len(missed[0])
    candidates = _rows(explored, dims)
    totals = [0.0] * dims
    for ref in missed:
        near = explored[_closest(ref, candidates)]
        for axis in range(dims):
            denom = abs(ref[axis]) or 1.0
            totals[axis] += 100.0 * abs(near[axis] - ref[axis]) / denom
    return tuple(total / len(missed) for total in totals)


def pareto_coverage(
    reference: Sequence[Vector],
    explored: Sequence[Vector],
    rel_tol: float = 1e-9,
) -> ParetoCoverage:
    """Measure how well ``explored`` covers the ``reference`` pareto front.

    ``reference`` should already be a pareto front (typically produced by
    full simulation of the design space); ``explored`` is whatever the
    heuristic produced. A reference point counts as *found* when some
    explored point matches it within ``rel_tol`` on every axis, as
    ``math.isclose`` with ``abs_tol=1e-12`` decides. Vectors of
    different lengths raise :class:`ExplorationError`.
    """
    if not reference:
        raise ExplorationError("reference pareto front is empty")
    dims = len(reference[0])
    references = [tuple(ref) for ref in reference]
    explored = [tuple(e) for e in explored]
    reference_rows = _rows(references, dims)
    rows = _rows(explored, dims)
    if explored and rel_tol < 0:
        raise ValueError("tolerances must be non-negative")
    found: list[tuple[float, ...]] = []
    missed: list[tuple[float, ...]] = []
    for ref, ref_row in zip(references, reference_rows):
        if _matches(ref_row, rows, rel_tol):
            found.append(ref)
        else:
            missed.append(ref)
    if missed:
        distances = average_axis_distance(missed, explored)
    else:
        distances = tuple(0.0 for _ in range(dims))
    return ParetoCoverage(
        coverage=len(found) / len(reference),
        axis_distances=distances,
        found=tuple(found),
        missed=tuple(missed),
    )
