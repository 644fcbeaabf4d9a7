"""Single quantile convention used across the package.

All quantiles, medians-of-quantiles, IQRs, and calibrated thresholds use the
(i - 0.5)/n plotting-position rule with linear interpolation (numpy's
"hazen" method) so results are reproducible to the bit across modules.
"""

from __future__ import annotations

import numpy as np


def quantile(values: np.ndarray, q, axis: int | None = None) -> np.ndarray | float:
    """Hazen quantile(s) of all values, or of each slice along ``axis``."""
    return np.quantile(np.asarray(values, dtype=float), q, axis=axis, method="hazen")


def iqr(values: np.ndarray) -> float:
    """Interquartile range under the shared quantile convention."""
    lo, hi = quantile(values, [0.25, 0.75])
    return float(hi - lo)
