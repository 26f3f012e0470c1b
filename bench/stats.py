"""Order statistics shared by the benchmark and its spread checker."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default method: rank ``q/100 * (n-1)``
    on the sorted sample, interpolated between its two neighbours.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def median(values) -> float:
    return percentile(values, 50.0)


def relative_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles are taken as ``statistics.quantiles(values, n=4)`` gives them.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
