"""Access-pattern classification (the APEX front-end).

APEX extracts "the most active access patterns exhibited by the
application data structures" from the C source. Our instrumented
workloads know their own data-structure semantics, so they export
*pattern hints* that stand in for that source-level analysis; for
untagged traces this module also provides an address-stream heuristic
classifier so the pipeline works on any trace.

Pattern taxonomy (following the paper and APEX):

* ``STREAM`` — sequential / constant-stride accesses (input buffers,
  sample streams) → candidates for stream buffers.
* ``SELF_INDIRECT`` — "array references which use the current array
  element value to compute the index for the next array element
  access" (hash probe chains, linked lists) → candidates for
  linked-list / self-indirect DMA-like modules.
* ``INDEXED`` — irregular but heavily reused accesses within a bounded
  table → candidates for on-chip SRAM mapping.
* ``RANDOM`` — irregular, low-reuse accesses → left to the cache.
* ``SCALAR`` — tiny-footprint globals → cheap to keep on-chip.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from repro.errors import TraceError
from repro.trace.events import Trace


class AccessPattern(Enum):
    """APEX access-pattern classes."""

    STREAM = "stream"
    SELF_INDIRECT = "self_indirect"
    INDEXED = "indexed"
    RANDOM = "random"
    SCALAR = "scalar"


#: Footprints at or below this size are classified SCALAR.
SCALAR_FOOTPRINT_BYTES = 256

#: Fraction of accesses sharing the dominant stride needed for STREAM.
STREAM_STRIDE_FRACTION = 0.70

#: Revisit fraction above which an irregular structure is INDEXED.
INDEXED_REVISIT_FRACTION = 0.50


@dataclass(frozen=True)
class PatternProfile:
    """Summary of one data structure's access behaviour.

    Attributes:
        struct: structure name.
        pattern: classified access pattern.
        count: number of accesses.
        footprint: bytes spanned by the structure's address range.
        read_fraction: fraction of accesses that are reads.
        dominant_stride: most common inter-access stride in bytes.
        stride_fraction: fraction of accesses at the dominant stride.
        revisit_fraction: fraction of accesses whose address was seen
            before (a cheap temporal-reuse signal).
    """

    struct: str
    pattern: AccessPattern
    count: int
    footprint: int
    read_fraction: float
    dominant_stride: int
    stride_fraction: float
    revisit_fraction: float


def _features(trace: Trace, struct: str) -> PatternProfile:
    mask = trace.struct_mask(struct)
    addresses = trace.addresses[mask]
    kinds = trace.kinds[mask]
    count = len(addresses)
    footprint = trace.footprint(struct)
    read_fraction = float(np.mean(kinds == 0)) if count else 0.0
    if count > 1:
        strides = np.diff(addresses)
        stride_counts = Counter(strides.tolist())
        dominant_stride, dominant_count = stride_counts.most_common(1)[0]
        stride_fraction = dominant_count / len(strides)
    else:
        dominant_stride, stride_fraction = 0, 0.0
    unique = len(np.unique(addresses))
    revisit_fraction = 1.0 - unique / count if count else 0.0
    return PatternProfile(
        struct=struct,
        pattern=AccessPattern.RANDOM,
        count=count,
        footprint=footprint,
        read_fraction=read_fraction,
        dominant_stride=int(dominant_stride),
        stride_fraction=float(stride_fraction),
        revisit_fraction=float(revisit_fraction),
    )


def _classify(profile: PatternProfile) -> AccessPattern:
    """Heuristic classification from address-stream features alone."""
    if profile.footprint <= SCALAR_FOOTPRINT_BYTES:
        return AccessPattern.SCALAR
    if (
        profile.stride_fraction >= STREAM_STRIDE_FRACTION
        and profile.dominant_stride != 0
    ):
        return AccessPattern.STREAM
    if profile.revisit_fraction >= INDEXED_REVISIT_FRACTION:
        return AccessPattern.INDEXED
    return AccessPattern.RANDOM


def classify_structure(
    trace: Trace,
    struct: str,
    hint: AccessPattern | None = None,
) -> PatternProfile:
    """Profile and classify one data structure of ``trace``.

    When ``hint`` is given (the workload's source-level knowledge, the
    stand-in for APEX's C analysis) it overrides the heuristic class but
    the measured features are still reported.
    """
    profile = _features(trace, struct)
    pattern = hint if hint is not None else _classify(profile)
    return PatternProfile(
        struct=profile.struct,
        pattern=pattern,
        count=profile.count,
        footprint=profile.footprint,
        read_fraction=profile.read_fraction,
        dominant_stride=profile.dominant_stride,
        stride_fraction=profile.stride_fraction,
        revisit_fraction=profile.revisit_fraction,
    )


def profile_patterns(
    trace: Trace,
    hints: Mapping[str, AccessPattern] | None = None,
) -> dict[str, PatternProfile]:
    """Classify every data structure in ``trace``.

    Returns profiles keyed by structure name, ordered by descending
    access count — "the most active access patterns" first, the order
    APEX considers them.
    """
    hints = dict(hints or {})
    unknown = set(hints) - set(trace.structs)
    if unknown:
        raise TraceError(
            f"hints reference structures absent from trace: {sorted(unknown)}"
        )
    profiles = [
        classify_structure(trace, struct, hints.get(struct))
        for struct in trace.structs
    ]
    profiles.sort(key=lambda p: p.count, reverse=True)
    return {p.struct: p for p in profiles}
