"""Arithmetic behind the reported numbers. Pure Python, tested on its own."""

from __future__ import annotations

import math
import statistics

# A tail percentile counts as resolved only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(samples, q: float) -> float:
    """The q-th quantile (0 < q <= 1) by the nearest-rank rule: the smallest
    sample with at least a share q of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th quantile."""
    return n - max(math.ceil(q * n - 1e-9), 1)


def tail_resolved(n: int, q: float) -> bool:
    """True when the q-th quantile of n samples has enough samples beyond
    it to be read as a tail latency rather than as the maximum."""
    return samples_beyond(n, q) >= MIN_SAMPLES_BEYOND


def latency_summary(durations) -> dict:
    """Median and p90 of per-operation wall times, with the sample count."""
    n = len(durations)
    return {
        "p50": statistics.median(durations),
        "p90": nearest_rank(durations, 0.9),
        "n": n,
        "p90_beyond": samples_beyond(n, 0.9),
        "p90_resolved": tail_resolved(n, 0.9),
    }


def failed_frac(failed: int, attempted: int) -> float:
    """Failed over attempted operations. ``attempted`` counts every
    operation started, the failed ones and the repeat check included."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
