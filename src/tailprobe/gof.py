"""Goodness of fit: empirical curves, the KS statistic, Monte-Carlo p-values.

The KS statistic is evaluated exactly at the jump points of the empirical
CDF: max over order statistics of max(F(x_(i)) - (i-1)/n, i/n - F(x_(i))).
One kernel, ``knot_ks``, serves the fitted families and the spectrogram
bins' laws alike, evaluating the CDF only where the maximum can lie.

Because families are fitted to the sample before testing, asymptotic KS
p-values are invalid; ``ks_pvalue_mc`` instead draws replicates from the
fitted law and refits each replicate before computing its statistic, so the
null distribution reflects the estimation step. This calibration is for
independent samples; spectrogram sub-signals with overlapping frames are
handled by the pipeline-matched null in the verdict layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .distributions import (
    AlphaStable,
    DistributionSpec,
    cdf,
    fit_gen_chi2,
    sample as draw,
    stream,
)
from .errors import ConfigError, DataError


def clean_sample(values) -> np.ndarray:
    """The sample as floats; DataError unless it is 1-D, nonempty and finite."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) == 0:
        raise DataError(f"need a nonempty 1-D sample, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DataError("sample contains NaN or Inf")
    return v


def ecdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample and right-continuous empirical CDF heights i/n."""
    v = np.sort(clean_sample(values))
    n = len(v)
    return v, np.arange(1, n + 1) / n


def empirical_tail(values) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample and strictly positive tail estimates 1 - (i-0.5)/n,
    suitable for log-log tail plots (no zero at the maximum)."""
    v = np.sort(clean_sample(values))
    n = len(v)
    return v, 1.0 - (np.arange(1, n + 1) - 0.5) / n


_KS_SLACK = 1e-12  # margin in case a CDF rounds non-monotonically


def knot_ks(x: np.ndarray, cdf_at) -> np.ndarray:
    """Exact two-sided KS distance of each sorted row of x against its own
    CDF; ``cdf_at(rows, cols)`` gives row r's CDF at x[r, c] for broadcasting
    index arrays. The CDF is monotone along a row, so its values at two knots
    bound both KS terms, F_j - j/n and (j+1)/n - F_j, between them: the knots
    (every stride-th index, and the last) are evaluated for every row, and a
    block between two only if its bound plus the slack beats the knots'
    maximum. The maximum is over evaluated terms alone, so it equals the
    dense formula's bit for bit."""
    nr, n = x.shape
    stride = isqrt(n) // 6 + 2  # 5 on a 366-frame band, 18 at n = 10^4

    def terms(f: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.maximum(f - j / n, (j + 1) / n - f)

    knots = np.append(np.arange(0, n - 1, stride), n - 1)
    fk = cdf_at(np.arange(nr)[:, None], knots[None, :])
    best = terms(fk, knots).max(axis=1)
    bound = np.maximum(fk[:, 1:] - (knots[:-1] + 1) / n, knots[1:] / n - fk[:, :-1])
    # Surviving blocks, each as its stride - 1 interior indices; a short last
    # block repeats the last knot, which ``best`` already holds.
    row, block = np.nonzero(bound + _KS_SLACK > best[:, None])
    j = np.minimum(knots[block, None] + np.arange(1, stride), n - 1)
    np.maximum.at(best, row, terms(cdf_at(row[:, None], j), j).max(axis=1))
    return best


def ks_stat(values, spec: DistributionSpec) -> float:
    """Exact two-sided KS distance between the sample and the family CDF."""
    v = np.sort(clean_sample(values))[None, :]
    return float(knot_ks(v, lambda r, j: cdf(spec, v[r, j]))[0])


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    bootstrap: int
    family: str
    fitted: DistributionSpec


def _fit_family(values: np.ndarray, family: str):
    """Moment fit; returns (spec for the KS CDF, transformed sample)."""
    if family == "genchi2":
        return fit_gen_chi2(values), values
    if family == "gaussian":
        # Standardize x / 2^e, e the binary exponent of max|x| (exact, and no
        # square overflows at any scale of x), against the unit Gaussian
        # (sigma = 1/sqrt(2) in the stable parameterization, variance 2*sigma^2).
        v = np.ldexp(values, -int(np.frexp(np.abs(values).max())[1]))
        m = float(np.mean(v))
        s = float(np.std(v, ddof=1))
        if s <= 0:
            raise DataError("degenerate sample: zero variance")
        return AlphaStable(alpha=2.0, sigma=1.0 / np.sqrt(2.0)), (v - m) / s
    raise ConfigError(f"family must be 'genchi2' or 'gaussian', got {family!r}")


def gauss_ks(values) -> float:
    """KS distance between the sample, standardized by its mean and ddof=1
    std, and the unit Gaussian. Raises DataError on zero std."""
    spec, z = _fit_family(clean_sample(values), "gaussian")
    return ks_stat(z, spec)


def ks_pvalue_mc(
    values,
    family: str = "genchi2",
    bootstrap: int = 200,
    seed: int = 0,
) -> KsResult:
    """Parametric-bootstrap KS p-value with refitting inside every replicate:
    p = (1 + #{KS* >= KS}) / (bootstrap + 1)."""
    v = clean_sample(values)
    b = int(bootstrap)
    if b < 1:
        raise ConfigError(f"bootstrap count must be >= 1, got {bootstrap}")
    fitted, transformed = _fit_family(v, family)
    stat = ks_stat(transformed, fitted)
    n = len(v)
    rng = stream(seed)
    exceed = 0
    for _ in range(b):
        if family == "gaussian":
            sim = rng.standard_normal(n)
        else:
            sim = draw(fitted, n, rng)
        spec_b, trans_b = _fit_family(sim, family)
        if ks_stat(trans_b, spec_b) >= stat:
            exceed += 1
    return KsResult(
        statistic=stat,
        p_value=(1 + exceed) / (b + 1),
        bootstrap=b,
        family=family,
        fitted=fitted,
    )
