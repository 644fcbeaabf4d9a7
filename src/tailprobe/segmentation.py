"""Jump detection and last-segment slope for ECFM traces.

A jump at (1-based) increment index k means the trace moved more between
C(k) and C(k+1) than a robust threshold allows:

    d_k > median(positive increments) + jump_factor * IQR(all increments)/1.349

The 1.349 factor converts an IQR to a Gaussian-equivalent standard deviation.
Jumps split positions 1..n into half-open segments [1, j1), [j1, j2), ...,
with the final segment closed at n. The verdict evidence uses the slope of an
ordinary least-squares line fitted over the last segment of sufficient
length, against raw 1-based position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .quantiles import iqr, median


@dataclass(frozen=True)
class SegmentationConfig:
    jump_factor: float = 10.0
    min_segment_frac: float = 0.10
    fallback: str = "longest_segment"

    def __post_init__(self):
        if not np.isfinite(self.jump_factor) or self.jump_factor <= 0:
            raise ConfigError(f"jump_factor must be positive, got {self.jump_factor!r}")
        if not 0.0 < self.min_segment_frac <= 1.0:
            raise ConfigError(
                f"min_segment_frac must lie in (0, 1], got {self.min_segment_frac!r}"
            )
        if self.fallback not in ("longest_segment", "whole_trace"):
            raise ConfigError(
                "fallback must be 'longest_segment' or 'whole_trace', "
                f"got {self.fallback!r}"
            )


def detect_jumps(increments, cfg: SegmentationConfig) -> np.ndarray:
    """1-based indices k where increment d_k exceeds the robust threshold."""
    d = np.asarray(increments, dtype=float)
    if d.ndim != 1 or len(d) < 10:
        raise DataError(
            f"need at least 10 increments to detect jumps, got {d.shape}"
        )
    pos = d[d > 0]
    if len(pos) == 0:
        return np.empty(0, dtype=int)
    thr = float(median(pos)) + cfg.jump_factor * iqr(d) / 1.349
    return np.flatnonzero(d > thr) + 1


def segments_between_jumps(n: int, jumps) -> list[tuple[int, int]]:
    """Half-open 1-based segments [start, end) splitting positions 1..n at
    the jump indices; the final segment includes position n."""
    n = int(n)
    if n < 1:
        raise ConfigError(f"trace length must be >= 1, got {n}")
    j = np.asarray(jumps, dtype=int)
    if len(j) > 0:
        if np.any(np.diff(j) <= 0):
            raise ConfigError("jump indices must be strictly increasing")
        if j[0] < 1 or j[-1] > n:
            raise ConfigError(f"jump indices must lie in [1, {n}]")
    bounds = np.concatenate(([1], j, [n + 1]))
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)]


def last_long_segment(
    segments: list[tuple[int, int]], n: int, cfg: SegmentationConfig
) -> tuple[tuple[int, int], bool]:
    """Latest segment of length >= min_segment_frac * n, or the configured
    fallback. Returns (segment, used_fallback)."""
    if not segments:
        raise ConfigError("empty segment list")
    min_len = cfg.min_segment_frac * n
    for start, end in reversed(segments):
        if end - start >= min_len:
            return (start, end), False
    if cfg.fallback == "whole_trace":
        return (1, n + 1), True
    lengths = [end - start for start, end in segments]
    best = len(lengths) - 1 - int(np.argmax(lengths[::-1]))  # latest of the longest
    return segments[best], True


def fit_slope(trace_values, segment: tuple[int, int]) -> float:
    """OLS slope of trace values over 1-based positions [start, end);
    DataError where it is not finite."""
    c = np.asarray(trace_values, dtype=float)
    start, end = int(segment[0]), int(segment[1])
    if not 1 <= start < end <= len(c) + 1:
        raise ConfigError(
            f"segment [{start}, {end}) outside trace of length {len(c)}"
        )
    if end - start < 3:
        raise ConfigError(
            f"segment [{start}, {end}) too short for a slope fit (need >= 3)"
        )
    k = np.arange(start, end, dtype=float)
    y = c[start - 1 : end - 1]
    slope = float(np.polyfit(k, y, 1)[0])
    if not np.isfinite(slope):
        raise DataError(f"slope over [{start}, {end}) is not finite")
    return slope
