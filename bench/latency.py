"""Latency statistics in which a failed operation ranks slower than every success.

Percentiles use the nearest-rank rule on the sorted list: the q-th percentile
of n values is the value at rank ceil(q * n / 100), for whole q.
"""

from __future__ import annotations

# the tail percentile is the highest one with at least this many values beyond it
TAIL_BEYOND = 10


def effective_latencies(latencies, ok) -> list:
    """Sorted latencies where each failed operation is slower than every success.

    A failure's latency becomes the slowest success plus its own measured time,
    so it ranks after all successes and remains a measured, finite number.
    """
    worst = max((t for t, good in zip(latencies, ok) if good), default=0.0)
    return sorted(t if good else worst + t for t, good in zip(latencies, ok))


def rank(q: int, n: int) -> int:
    """1-based nearest rank of the q-th percentile of n values."""
    return max(1, -(-q * n // 100))


def percentile(sorted_values, q: int) -> float:
    """Nearest-rank q-th percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    return sorted_values[rank(q, len(sorted_values)) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND values beyond its rank.

    Never below the median: with fewer than 2 * TAIL_BEYOND values it is 50.
    """
    if n < 1:
        raise ValueError("no values")
    return max(50, 100 * (n - TAIL_BEYOND) // n)


def summarize(latencies, ok) -> dict:
    """Median and tail of the effective latencies, with the tail's percentile."""
    eff = effective_latencies(latencies, ok)
    q = tail_percentile(len(eff))
    return {"p50": percentile(eff, 50), "tail": percentile(eff, q), "tail_percentile": q}
