"""Design-selection helpers on top of pareto fronts.

The paper leaves the final pick to the designer ("allowing the designer
to further refine the choice, according to the goals of the system").
These utilities support that step programmatically: a knee-point
detector for "best bang per gate" picks, a normalized weighted score
for explicit priorities, and the evenly spread picks with which APEX
and ConEx thin a pareto front before the next phase.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

from repro.errors import ExplorationError

T = TypeVar("T")


def knee_point(
    items: Sequence[T],
    key: Callable[[T], tuple[float, float]],
) -> T:
    """The knee of a 2-D trade-off curve.

    Normalizes both axes to [0, 1] over the input, then returns the
    item farthest below the chord from the first to the last point of
    the cost-ordered curve — the classic maximum-deviation knee. With
    fewer than three points, returns the first item (no interior
    exists).
    """
    if not items:
        raise ExplorationError("knee_point needs at least one item")
    ordered = sorted(items, key=lambda it: key(it)[0])
    if len(ordered) < 3:
        return ordered[0]
    points = [key(it) for it in ordered]
    x_values = [p[0] for p in points]
    y_values = [p[1] for p in points]
    x_span = max(x_values) - min(x_values) or 1.0
    y_span = max(y_values) - min(y_values) or 1.0
    normalized = [
        ((x - min(x_values)) / x_span, (y - min(y_values)) / y_span)
        for x, y in points
    ]
    (x0, y0), (x1, y1) = normalized[0], normalized[-1]
    chord = math.hypot(x1 - x0, y1 - y0) or 1.0

    def deviation(point: tuple[float, float]) -> float:
        # Signed distance from the chord; knees bow below it.
        x, y = point
        return ((x1 - x0) * (y0 - y) - (x0 - x) * (y1 - y0)) / chord

    best_index = max(range(len(normalized)), key=lambda i: deviation(normalized[i]))
    return ordered[best_index]


def spread_picks(
    items: Sequence[T], count: int, key: Callable[[T], float]
) -> list[T]:
    """``count`` items spread evenly along ``key``, endpoints included.

    The items are sorted by ``key`` (stably, so ties keep input order);
    with at most ``count`` of them all are returned in that order, and
    a ``count`` of one (or less) keeps the lowest.
    """
    ordered = sorted(items, key=key)
    if len(ordered) <= count:
        return ordered
    if count <= 1:
        return [ordered[0]]
    picks = {0, len(ordered) - 1}
    step = (len(ordered) - 1) / (count - 1)
    for i in range(1, count - 1):
        picks.add(round(i * step))
    return [ordered[i] for i in sorted(picks)]


def weighted_best(
    items: Sequence[T],
    key: Callable[[T], Sequence[float]],
    weights: Sequence[float],
) -> T:
    """The item minimizing a normalized weighted objective sum.

    Each axis is min-max normalized over the input before weighting, so
    weights express relative priorities rather than unit conversions.
    """
    if not items:
        raise ExplorationError("weighted_best needs at least one item")
    if any(w < 0 for w in weights) or not any(weights):
        raise ExplorationError(f"weights must be non-negative, not all zero: {weights}")
    vectors = [tuple(key(it)) for it in items]
    dims = len(vectors[0])
    if len(weights) != dims:
        raise ExplorationError(
            f"{len(weights)} weights for {dims}-dimensional objectives"
        )
    lows = [min(v[d] for v in vectors) for d in range(dims)]
    spans = [
        (max(v[d] for v in vectors) - lows[d]) or 1.0 for d in range(dims)
    ]

    def score(vector: Sequence[float]) -> float:
        return sum(
            w * (vector[d] - lows[d]) / spans[d]
            for d, w in enumerate(weights)
        )

    def weighted_axes(vector: Sequence[float]) -> tuple[float, ...]:
        # Score ties between distinct vectors can only come from
        # floating-point degeneracy (e.g. subnormal values underflowing
        # during normalization); break them on the weighted axes
        # themselves, falling back to input order for true duplicates.
        return tuple(vector[d] for d, w in enumerate(weights) if w)

    best_index = min(
        range(len(items)),
        key=lambda i: (score(vectors[i]), weighted_axes(vectors[i])),
    )
    return items[best_index]
