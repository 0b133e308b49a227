"""Arithmetic the benchmark reports with: percentiles, backlog, ladder, self time."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile, *q* in (0, 1]; failed samples may be ``inf``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail_quantile(count: int, beyond: int = TAIL_BEYOND) -> float:
    """Highest nearest-rank quantile with at least *beyond* samples above it."""
    if count < 2 * beyond:
        raise ValueError(f"{count} samples cannot support a tail at or above the median")
    return (count - beyond) / count


def backlog_grew(lags_ms: Sequence[float], window_ms: float) -> bool:
    """True when the generator fell behind by more than a fifth of the window.

    At a rate *r* above the server's capacity *c* the send lag grows by
    ``window * (1 - c / r)``, so this flags rates more than 25% above
    capacity; the lag is compared, by medians, between the first and the
    last fifth of the sends so that one slow request does not decide it.
    """
    if len(lags_ms) < 5:
        return False
    fifth = len(lags_ms) // 5
    growth = statistics.median(lags_ms[-fifth:]) - statistics.median(lags_ms[:fifth])
    return growth > window_ms / 5


def rung_passes(latencies_ms: Sequence[float], lags_ms: Sequence[float], limit_ms: float, window_ms: float) -> bool:
    """A ladder rung passes when its p99 meets the limit and no backlog built up."""
    return percentile(latencies_ms, 0.99) <= limit_ms and not backlog_grew(lags_ms, window_ms)


def slo_rate(rungs: Sequence[tuple[float, bool]]) -> float:
    """Highest rate of an ascending ladder below which every rung passed."""
    best = 0.0
    for rate, passed in rungs:
        if not passed:
            break
        best = rate
    return best


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """Duration of ``[start, end]`` not covered by any child interval."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start, child_end = max(child_start, cursor), min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (``statistics.quantiles``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
