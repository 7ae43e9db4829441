"""The benchmark's arithmetic: percentiles and run-to-run spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of an ascending sequence.

    Nearest-rank always returns a value that was measured, so a p95 of
    latencies is one operation's latency, never an interpolation between a
    cheap and a dear mode.
    """
    if not len(ordered):
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median.

    The measure the benchmark's acceptance uses: ``statistics.quantiles``
    with ``n=4`` over one metric's values from runs with different seeds.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
