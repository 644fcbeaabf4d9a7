"""Single quantile convention used across the package, read off one sort.

All quantiles, medians-of-quantiles, IQRs, and calibrated thresholds use the
(i - 0.5)/n plotting-position rule with linear interpolation: numpy's
"hazen" method, reproduced here bit for bit, so results are reproducible
across modules and equal ``np.quantile(..., method="hazen")``. Medians are
the middle order statistic, or the mean of the two middle ones, and equal
``np.median``; that is not the Hazen 0.5-quantile, which rounds differently.

Both sort the values with ``np.sort`` and read the order statistics off the
sorted slices. numpy's own routines call ``np.partition`` instead, which is
several times slower than ``np.sort`` on the same rows wherever numpy runs
its vectorised (AVX-512) sort, and one sort can then serve every order
statistic a caller needs (``sorted_quantile`` and ``sorted_median`` read
rows already sorted).

A slice holding a NaN gives NaN, as in numpy; an empty slice raises
IndexError. The one difference from numpy is the sign of a zero result
when a slice holds both +0.0 and -0.0, which neither routine orders.
"""

from __future__ import annotations

import numpy as np


def _sorted(values, axis: int | None) -> np.ndarray:
    """The values sorted along ``axis`` (all of them when None), that axis last."""
    v = np.asarray(values, dtype=float)
    if axis is None:
        return np.sort(v, axis=None)
    return np.moveaxis(np.sort(v, axis=axis), axis, -1)


def _length(s: np.ndarray) -> int:
    """Length of the sorted axis; an empty slice has no order statistics."""
    n = s.shape[-1]
    if n == 0:
        raise IndexError("empty slice: no order statistics")
    return n


def _nan_if_nan(last: np.ndarray, out: np.ndarray):
    """``out``, NaN wherever the sorted slice ends in NaN (np.sort puts NaNs
    last); 0-d results come back as scalars."""
    return np.where(np.isnan(last), last, out)[()]


def sorted_quantile(s: np.ndarray, q) -> np.ndarray | float:
    """Hazen quantile(s) along the last axis of ``s``, which must be sorted
    along it. The dimension of a 1-D ``q`` comes first, as in np.quantile."""
    q = np.asarray(q, dtype=float)
    if q.ndim > 1 or not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError(f"quantiles must be a scalar or 1-D, within [0, 1]; got {q}")
    n = _length(s)
    # numpy's virtual index for alpha = beta = 1/2, rounded as numpy rounds it
    virtual = np.clip(n * q + 0.5 - 1, 0, n - 1)
    lo = np.floor(virtual).astype(np.intp)
    g = virtual - lo
    a, b = s[..., lo], s[..., np.minimum(lo + 1, n - 1)]
    # numpy's two-sided lerp; the one-sided a + (b - a) g differs in the last bit
    diff = b - a
    out = np.where(g >= 0.5, b - diff * (1.0 - g), a + diff * g)
    if q.ndim:
        return np.moveaxis(_nan_if_nan(s[..., -1:], out), -1, 0)
    return _nan_if_nan(s[..., -1], out)


def quantile(values: np.ndarray, q, axis: int | None = None) -> np.ndarray | float:
    """Hazen quantile(s) of all values, or of each slice along ``axis``;
    equal to ``np.quantile(values, q, axis=axis, method="hazen")``."""
    return sorted_quantile(_sorted(values, axis), q)


def sorted_median(s: np.ndarray) -> np.ndarray | float:
    """Median along the last axis of ``s``, which must be sorted along it."""
    n = _length(s)
    mid = s[..., n // 2]
    out = mid if n % 2 else (s[..., n // 2 - 1] + mid) / 2
    return _nan_if_nan(s[..., -1], out)


def median(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Median of all values, or of each slice along ``axis``; equal to
    ``np.median(values, axis=axis)``."""
    return sorted_median(_sorted(values, axis))


def iqr(values: np.ndarray) -> float:
    """Interquartile range under the shared quantile convention."""
    lo, hi = quantile(values, [0.25, 0.75])
    return float(hi - lo)
