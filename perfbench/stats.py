"""Order statistics and span arithmetic shared by the benchmark and its
spread check.  Pure Python, no program imports."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, as ``statistics.quantiles(values, n=10)``
    gives it, refused unless at least :data:`TAIL_SAMPLES` samples lie
    strictly beyond it."""
    if len(values) < 2:
        raise TooFewSamples(f"p90 of {len(values)} samples")
    q = statistics.quantiles(values, n=10)[-1]
    beyond = sum(1 for v in values if v > q)
    if beyond < TAIL_SAMPLES:
        raise TooFewSamples(
            f"p90 of {len(values)} samples has {beyond} beyond it; "
            f"{TAIL_SAMPLES} are required"
        )
    return float(q)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return float((q3 - q1) / mid) if mid else float("inf")


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence) -> list[float]:
    """Per-span self time: duration minus the part of the span's interval
    its direct children cover.  ``spans`` are ``(name, start, end,
    parent)``-prefixed records; ``parent`` is an index or ``-1``."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children[parent].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered(children[i], span[1], span[2])
        for i, span in enumerate(spans)
    ]


def outermost(spans: Sequence, names: set[str]) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named in
    ``names`` — so a layer that re-enters itself is counted once."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out
