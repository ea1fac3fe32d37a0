"""Latency statistics: integer-ns values in, deterministic summary out."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

HISTOGRAM_BIN_NS = 1_000  # fixed 1 us bins


@dataclass(frozen=True)
class RunStats:
    count: int
    min_ns: int
    max_ns: int
    mean_ns: float
    stddev_ns: float
    p50_ns: int
    p99_ns: int
    jitter_ns: int  # max - min
    histogram: tuple[tuple[int, int], ...]  # (bin in us, count), sorted

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["histogram_us"] = [list(pair) for pair in doc.pop("histogram")]
        return doc


def percentile_nearest_rank(sorted_values, q: float) -> int:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1]


def compute_stats(values_ns) -> RunStats:
    """Summarize a batch of integer-ns configuration times."""
    values = sorted(values_ns)
    if not values:
        raise ValueError("no values to summarize")
    n = len(values)
    mean = sum(values) / n
    squares = 0.0  # summed left to right: sum() of floats compensates from 3.12 on
    for v in values:
        squares += (v - mean) ** 2
    variance = squares / n
    bins: dict[int, int] = {}
    for v in values:
        bins[v // HISTOGRAM_BIN_NS] = bins.get(v // HISTOGRAM_BIN_NS, 0) + 1
    return RunStats(
        count=n,
        min_ns=values[0],
        max_ns=values[-1],
        mean_ns=mean,
        stddev_ns=math.sqrt(variance),
        p50_ns=percentile_nearest_rank(values, 0.50),
        p99_ns=percentile_nearest_rank(values, 0.99),
        jitter_ns=values[-1] - values[0],
        histogram=tuple(sorted(bins.items())),
    )


def ns_to_us_str(ns: int) -> str:
    """Format ns (an int, or an exact Fraction) as us with one decimal, round half up.

    Exact for values on the 100 ns grid, which covers everything exported.
    """
    if ns < 0:
        raise ValueError(f"negative time {ns}")
    tenths = (ns + 50) // 100
    return f"{tenths // 10}.{tenths % 10}"
