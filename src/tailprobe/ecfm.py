"""Empirical cumulative fourth moment (ECFM) of a normalized series.

The trace C(k) = (1/k) * sum_{i<=k} (x_i - xbar)^4 uses the full-sample mean
throughout, so C is exactly the running average of a fixed transformed series
and its increments are d_k = C(k+1) - C(k). Finite-fourth-moment inputs
plateau; infinite-fourth-moment inputs show persistent jumps.

Normalization is robust: center by the median and divide by the
conditional standard deviation of the inner 10-90% of the data, so extreme
values cannot inflate the scale estimate they are judged against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .quantiles import median, sorted_median, sorted_quantile


def masked_deviations(x: np.ndarray, mask: np.ndarray, count, exact: bool):
    """Row means of ``x`` over ``mask`` (``count`` values per row) and x
    minus them, 0 outside ``mask``. Where ``exact`` (x and x - mean finite)
    the mask multiplies: x * 0 is a signed zero, a sum's term as 0.0 is."""
    if not exact:
        mean = np.where(mask, x, 0.0).sum(axis=1) / count
        return mean, np.where(mask, x - mean[:, None], 0.0)
    weight = mask.astype(float)  # multiplies faster than a bool mask
    dev = x * weight
    mean = dev.sum(axis=1) / count
    np.subtract(x, mean[:, None], out=dev)
    dev *= weight
    return mean, dev


def _cond_std_rows(v: np.ndarray, s: np.ndarray, q_lo: float, q_hi: float) -> np.ndarray:
    """``cond_std`` of each row of a C-contiguous 2-D array ``v``, given its
    rows sorted (``s``): NaN where fewer than 2 values lie in the band,
    exactly 0 where the band holds a single distinct value.

    The sums run over the rows in their given order, along contiguous
    memory, so a row rounds exactly as the same values passed alone as a
    1-row array; they mask by multiplication (``masked_deviations``) while
    no value exceeds 1e300 / n. The sort gives the band's bounds and, where
    the std is within 1e-10 of the mean, its smallest and largest value,
    which decide the single-value case (equal values leave a few ulps).
    """
    lo, hi = sorted_quantile(s, [q_lo, q_hi])
    inner = (v >= lo[:, None]) & (v <= hi[:, None])
    count = np.count_nonzero(inner, axis=1)
    exact = np.abs(s[:, [0, -1]]).max(initial=0.0) * s.shape[1] < 1e300
    with np.errstate(invalid="ignore", divide="ignore"):
        mean, dev = masked_deviations(v, inner, count, exact)
        std = np.sqrt(np.square(dev, out=dev).sum(axis=1) / (count - 1))
        near = np.flatnonzero(~(std > 1e-10 * np.abs(mean)))
    # Equal values can leave a mean one rounding off them, and with it a
    # spurious std near 1e-17 that would blow normalized values up. The
    # band's values sit at sorted positions [first, first + count); the
    # clips only keep rows with count < 2, set to NaN below, in range.
    if len(near):
        first = np.count_nonzero(s[near] < lo[near, None], axis=1)
        ends = np.clip(np.stack([first, first + count[near] - 1]), 0, s.shape[1] - 1)
        band_min, band_max = np.take_along_axis(s[near], ends.T, axis=1).T
        std[near[band_min == band_max]] = 0.0
    std[count < 2] = np.nan
    return std


def cond_std(values, q_lo: float = 0.1, q_hi: float = 0.9) -> float:
    """Sample std (ddof=1) of the values lying within the [q_lo, q_hi]
    quantile band, inclusive; 0 when those values are all equal."""
    v = np.asarray(values, dtype=float)
    if not 0.0 <= q_lo < q_hi <= 1.0:
        raise ConfigError(f"need 0 <= q_lo < q_hi <= 1, got ({q_lo}, {q_hi})")
    row = np.ascontiguousarray(v.reshape(1, -1))
    std = float(_cond_std_rows(row, np.sort(row, axis=1), q_lo, q_hi)[0])
    if np.isnan(std):
        raise DataError("trimmed subset has fewer than 2 points; need >= 2 for a std")
    return std


def normalize(values) -> np.ndarray:
    """(v - median(v)) / cond_std(v); raises on zero conditional std."""
    v = np.asarray(values, dtype=float)
    s = cond_std(v)
    if s == 0.0:
        raise DataError("zero conditional standard deviation; cannot normalize")
    return (v - float(median(v))) / s


def normalize_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``normalize`` of every row of a 2-D array whose conditional std is
    positive, and the conditional std of every row (NaN or 0 where it is
    not). One sort per row gives the median and the band, and each row
    rounds exactly as ``normalize`` rounds it alone."""
    v = np.ascontiguousarray(rows, dtype=float)
    s = np.sort(v, axis=1)
    scale = _cond_std_rows(v, s, 0.1, 0.9)
    kept = scale > 0
    rows = slice(None) if kept.all() else kept  # a slice takes no copy
    z = v[rows] - sorted_median(s)[rows, None]
    z /= scale[rows, None]
    return z, scale


@dataclass(frozen=True)
class EcfmTrace:
    """ECFM values C(1..n) and their n-1 increments."""

    values: np.ndarray
    increments: np.ndarray


def ecfm(values) -> EcfmTrace:
    """Running fourth-moment trace of a series, using the full-sample mean."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise DataError(f"need a 1-D series of length >= 2, got shape {v.shape}")
    dev2 = (v - v.mean()) ** 2
    dev4 = dev2 * dev2  # `** 4` takes a slow, layout-dependent path for negative bases
    k = np.arange(1, len(v) + 1, dtype=float)
    c = np.cumsum(dev4) / k
    return EcfmTrace(values=c, increments=np.diff(c))
