"""Finite- vs infinite-variance verdicts and the four-way categorization.

Decision layers, from raw signal to category:

1. Slope evidence (reported in every verdict, and the statistic behind the
   ordering studies): normalize -> ECFM -> jump detection -> last long
   segment -> OLS slope, per time-domain signal and per spectrogram bin.
   One kernel runs the whole chain as a single array pass over all the
   band's bins (the time-domain signal is a one-column matrix), for the
   profile, both calibrations and the TD slope alike. Its order statistics
   come from sorted rows, not from numpy's partition-based quantile and
   median: one sort of each row's values gives the normalization both its
   median and the 10-90% band of its conditional std, and one sort of the
   increments gives both the median of the positive ones and the quartiles
   behind the jump threshold. Masked sums multiply by their mask where that
   is exact, and only near-constant rows read their band's extremes (ecfm).
   Thresholds for these statistics are calibrated as high quantiles of a
   Gaussian null simulated at the same length and configuration.

2. Tail identification (the decider for the TD/TFD booleans) lives in
   ``tailfit.py``: a Gaussian gate, symmetric-Pareto and t likelihood
   fits, and a peaks-over-threshold shape check, read as tail indices.

3. Spectrogram-law check (chi2): per-bin KS of binned power against a
   moment-fitted generalized chi-squared, calibrated against a Monte-Carlo
   null pushed through the same spectrogram pipeline (overlapping frames
   correlate the bins, which invalidates the iid bootstrap here), plus
   Stephens' closed-form Gaussian KS gate on the time-domain signal. Both
   must pass. The per-bin KS is exact (``gof.knot_ks``). Under white
   Gaussian input the band's complex-valued bins are exchangeable, so the
   null pools their KS distances over ceil(bootstrap / m) draws (m such
   bins). The real-valued DC and Nyquist bins follow another law and get no
   p-value; they count in neither the median nor the fraction below 0.05.

The Monte-Carlo nulls (both slope thresholds and the chi2 pipeline null)
live in one table, each keyed on its tag and its builder's arguments, which
are every value that sets it and never ``workers``. Replicate i of a null
draws from ``distributions.stream(seed, id, i)``, with one stream id per
null, so verdicts are byte-identical across runs and worker counts and no
two draws share a bitstream.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import CHI2_NULL, TD_CALIBRATION, TFD_CALIBRATION, stream
from .ecfm import masked_deviations, normalize_rows
from .errors import ComputeError, ConfigError, DataError
from .gof import clean_sample, gauss_ks, knot_ks
from .quantiles import iqr, median, quantile, sorted_quantile
from .segmentation import SegmentationConfig
from .tailfit import TailEvidence, tail_evidence
from .tfr import Spectrogram, SpectrogramConfig, bin_freqs, spectrogram

# Decision constants, frozen by measurement against the nine reference
# scenarios (see the acceptance tests for the rates they achieve).
CHI2_MEDIAN_P_MIN = 0.05      # median per-bin p must exceed this
TD_GAUSSIAN_KS_MAX = 1.035    # Stephens' published 1% point of td_gaussian_stat

# Per-bin slope status codes.
STATUS_OK = 0
STATUS_FALLBACK = 1  # no segment long enough; fallback segment used
STATUS_SKIPPED = 2   # degenerate sub-signal; no slope

_MIN_FRAMES = 12  # >= 10 increments for jump detection plus fit headroom


# --------------------------------------------------------------------------
# Slope profiles and calibrated thresholds

@dataclass(frozen=True)
class SlopeProfile:
    """Per-bin last-segment ECFM slopes over a frequency band.

    ``median_abs`` and ``iqr_abs`` are computed from the current slopes on
    every access, never stored, so they cannot go stale.
    """

    freqs_hz: np.ndarray
    slopes: np.ndarray
    status: np.ndarray
    band: tuple[float, float]

    @property
    def _valid(self) -> np.ndarray:
        return self.status != STATUS_SKIPPED

    @property
    def n_skipped(self) -> int:
        return int(np.sum(self.status == STATUS_SKIPPED))

    @property
    def n_fallback(self) -> int:
        return int(np.sum(self.status == STATUS_FALLBACK))

    @property
    def median_abs(self) -> float:
        return float(median(np.abs(self.slopes[self._valid])))

    @property
    def iqr_abs(self) -> float:
        return iqr(np.abs(self.slopes[self._valid]))


def band_bin_indices(freqs: np.ndarray, band: tuple[float, float] | None) -> np.ndarray:
    """Indices of the bin center frequencies ``freqs`` that fall in
    [lo, hi]; None selects the upper half of the frequency axis. At least
    8 bins required."""
    if band is None:
        idx = np.arange(len(freqs) // 2, len(freqs))
    else:
        lo, hi = float(band[0]), float(band[1])
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
            raise ConfigError(f"band must satisfy lo < hi, got ({band[0]}, {band[1]})")
        idx = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    if len(idx) < 8:
        raise ConfigError(
            f"band intersects the frequency axis in {len(idx)} bins; need >= 8"
        )
    return idx


@np.errstate(over="ignore", invalid="ignore")  # a spike's inf and NaN are read below
def _last_segment_slopes(
    columns: np.ndarray, seg_cfg: SegmentationConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize -> ECFM -> jumps -> last long segment -> OLS slope for
    every column of an (n, m) matrix, as one array pass over all columns.

    Each step matches its public counterpart (``normalize``, ``ecfm``,
    ``detect_jumps``, ``segments_between_jumps``, ``last_long_segment``,
    ``fit_slope``) column by column. Returns (slopes, status); columns too
    short for jump detection (n < 11), with zero conditional std, a chosen
    segment shorter than 3 or a slope not finite get STATUS_SKIPPED, NaN.
    """
    # One row per series: every reduction then runs along contiguous memory
    # and rounds exactly as the 1-D functions do, so traces and jump
    # decisions agree bit for bit; only the slope fit rounds differently.
    v = np.ascontiguousarray(np.asarray(columns, dtype=float).T)
    m, n = v.shape
    slopes = np.full(m, np.nan)
    status = np.full(m, STATUS_SKIPPED, dtype=np.int8)
    if n < 11:
        return slopes, status
    z, scale = normalize_rows(v)
    if np.any(np.isinf(scale)):
        raise ComputeError("conditional std is not finite (the squares overflow)")
    kept = np.flatnonzero(scale > 0)
    if len(kept) == 0:
        return slopes, status

    z -= z.mean(axis=1, keepdims=True)  # in place: normalize_rows' own array
    z *= z
    z *= z
    trace = np.cumsum(z, axis=1, out=z)
    positions = np.arange(1, n + 1)
    trace /= positions.astype(float)
    d = np.diff(trace, axis=1)

    # Jump threshold per row: median of the positive increments (the last
    # n_pos of the sorted row; +inf without one) plus jump_factor robust
    # sigmas, every order statistic read off one sort. (A NaN sorts last and
    # shifts the positives, but it makes the quartiles and threshold NaN.)
    ranked = np.sort(d, axis=1)
    n_pos = np.count_nonzero(d > 0, axis=1)
    top = n - 1 - n_pos + n_pos // 2  # the upper middle positive
    upper = np.take_along_axis(ranked, np.minimum(top, n - 2)[:, None], 1)[:, 0]
    lower = np.take_along_axis(ranked, (top - 1 + n_pos % 2)[:, None], 1)[:, 0]
    median_pos = np.where(n_pos % 2 == 1, upper, (lower + upper) / 2)
    median_pos[n_pos == 0] = np.inf
    q25, q75 = sorted_quantile(ranked, [0.25, 0.75])
    threshold = median_pos + seg_cfg.jump_factor * (q75 - q25) / 1.349

    # Segment starts: position 1, and position k for a jump at increment k
    # (rows without a positive increment have an infinite threshold). Listed
    # row by row in position order, each segment ends at the next start in
    # its row, or at n + 1 after the row's last one.
    is_start = np.zeros(z.shape, dtype=bool)
    is_start[:, :-1] = d > threshold[:, None]
    is_start[:, 0] = True
    row, col = np.divmod(np.flatnonzero(is_start), n)
    seg_start = col + 1
    row_change = row[1:] != row[:-1]
    seg_end = np.where(np.append(row_change, True), n + 1, np.roll(seg_start, -1))
    seg_len = seg_end - seg_start
    first_of_row = np.flatnonzero(np.append(True, row_change))
    index = np.arange(len(row))

    def latest(mask: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(np.where(mask, index, -1), first_of_row)

    latest_long = latest(seg_len >= seg_cfg.min_segment_frac * n)
    longest = np.maximum.reduceat(seg_len, first_of_row)
    found = latest_long >= 0
    chosen = np.where(found, latest_long, latest(seg_len == longest[row]))
    start, end = seg_start[chosen], seg_end[chosen]
    if seg_cfg.fallback == "whole_trace":
        start = np.where(found, start, 1)
        end = np.where(found, end, n + 1)

    # Centred OLS over [start, end): sum (k - kbar)^2 = L (L^2 - 1) / 12.
    fit = slice(None) if np.all(end - start >= 3) else np.flatnonzero(end - start >= 3)
    start, end, trace = start[fit], end[fit], trace[fit]
    length = (end - start).astype(float)
    k_centred = positions - (start + end - 1)[:, None] / 2.0
    # start <= k < end, exactly: both sides are integers or half-integers
    in_seg = np.abs(k_centred) <= ((length - 1.0) / 2.0)[:, None]
    # |k (C(k) - mean)| <= n^2 C(n): C is the running mean of a rising sum
    exact = trace[:, -1].max(initial=0.0) * n * n < 1e300
    _, terms = masked_deviations(trace, in_seg, length, exact)
    terms *= k_centred
    slope = terms.sum(axis=1) / (length * (length * length - 1.0) / 12.0)
    good = np.isfinite(slope)  # not so where an input or C(k) is infinite
    done = kept[fit][good]
    slopes[done] = slope[good]
    status[done] = np.where(found[fit][good], STATUS_OK, STATUS_FALLBACK)
    return slopes, status


def _td_slope(x: np.ndarray, seg_cfg: SegmentationConfig) -> tuple[float, bool]:
    """Last-segment slope of one time-domain signal and whether the
    fallback segment was used; raises DataError on degenerate input."""
    slopes, status = _last_segment_slopes(x[:, None], seg_cfg)
    if status[0] == STATUS_SKIPPED:
        raise DataError("signal too degenerate for a last-segment slope")
    return float(slopes[0]), bool(status[0] == STATUS_FALLBACK)


def slope_profile(
    spec: Spectrogram,
    band: tuple[float, float] | None = None,
    seg_cfg: SegmentationConfig = SegmentationConfig(),
) -> SlopeProfile:
    """Last-segment ECFM slope for every bin in the band. Degenerate bins
    (constant power, too-short segments) are skipped and flagged."""
    if spec.n_frames < _MIN_FRAMES:
        raise DataError(
            f"{spec.n_frames} frames is too few for segmentation (need >= {_MIN_FRAMES})"
        )
    idx = band_bin_indices(spec.freqs_hz, band)
    band_bins = slice(idx[0], idx[-1] + 1)  # ascending bins: one run, a view
    slopes, status = _last_segment_slopes(spec.values[:, band_bins], seg_cfg)
    if np.all(status == STATUS_SKIPPED):
        raise DataError("all bins in the band are degenerate")
    freqs = spec.freqs_hz[band_bins]
    resolved = (float(freqs[0]), float(freqs[-1]))
    return SlopeProfile(freqs_hz=freqs, slopes=slopes, status=status, band=resolved)


def _gaussian_stats(stat, n: int, count: int, seed: int, stream_id: int,
                    workers: int) -> np.ndarray:
    """``stat`` of ``count`` white Gaussian draws of length n, stacked in
    order; draw i comes from stream (seed, stream_id, i), for any workers."""

    def one(i: int):
        return stat(stream(seed, stream_id, i).standard_normal(n))

    if workers <= 1:
        return np.asarray([one(i) for i in range(count)])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.asarray(list(pool.map(one, range(count))))


# The memoized Monte-Carlo nulls, keyed (tag, *args): the table's tag
# ("tfd", "td", "chi2"), then its builder's positional arguments.
_NULLS: dict = {}


def _memo(tag: str, build, *args, workers: int):
    """``build(*args, workers=workers)``, built on first use of (tag, *args)."""
    key = (tag, *args)
    if key not in _NULLS:
        _NULLS[key] = build(*args, workers=workers)
    return _NULLS[key]


def clear_caches() -> None:
    """Drop all memoized Monte-Carlo tables (calibration thresholds and
    null KS distributions). Only needed to force a cold recompute, e.g.
    when checking that results are reproducible from scratch."""
    _NULLS.clear()


NULL_QUANTILE = 0.99  # the slope thresholds' quantile of their Gaussian null


def _null_quantile(stat, n: int, replicates: int, seed: int, stream_id: int,
                   workers: int) -> float:
    """``NULL_QUANTILE`` of ``stat`` over ``replicates`` Gaussian draws."""
    if replicates < 20:
        raise ConfigError(f"calibration needs >= 20 replicates, got {replicates}")
    stats = _gaussian_stats(stat, n, replicates, seed, stream_id, workers)
    return float(quantile(stats, NULL_QUANTILE))


def calibrate_threshold(
    n_samples: int,
    spect_cfg: SpectrogramConfig,
    band: tuple[float, float] | None = None,
    seg_cfg: SegmentationConfig = SegmentationConfig(),
    replicates: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Gaussian-null threshold for the band median |slope|: simulate white
    Gaussian signals of the given length, take each replicate's median
    absolute bin slope, and return their ``NULL_QUANTILE``."""
    return _null_quantile(
        lambda z: slope_profile(spectrogram(z, spect_cfg), band, seg_cfg).median_abs,
        n_samples, replicates, seed, TFD_CALIBRATION, workers,
    )


def calibrate_td_threshold(
    n_samples: int,
    seg_cfg: SegmentationConfig = SegmentationConfig(),
    replicates: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Gaussian-null threshold for the time-domain last-segment |slope|."""
    return _null_quantile(
        lambda z: abs(_td_slope(z, seg_cfg)[0]),
        n_samples, replicates, seed, TD_CALIBRATION, workers,
    )


# --------------------------------------------------------------------------
# Analysis settings

@dataclass(frozen=True)
class AnalysisConfig:
    """Every setting of one verdict: the spectrogram, the band (None: upper
    half), the segmentation, the seed of the Monte-Carlo nulls, their sizes,
    and the threads that build them."""

    spect: SpectrogramConfig = SpectrogramConfig()
    band: tuple[float, float] | None = None
    seg: SegmentationConfig = SegmentationConfig()
    seed: int = 0
    bootstrap: int = 200
    calibration_replicates: int = 100
    workers: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.bootstrap < 1:
            raise ConfigError(f"bootstrap must be >= 1, got {self.bootstrap}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    @property
    def min_samples(self) -> int:
        """Shortest signal whose spectrogram has the ``_MIN_FRAMES`` frames
        that ``slope_profile`` needs: the window plus that many hops less one."""
        return self.spect.window_length + (_MIN_FRAMES - 1) * self.spect.hop


# --------------------------------------------------------------------------
# Time-domain verdict

@dataclass(frozen=True)
class TdVerdict:
    """Boolean-valued TD verdict carrying its evidence: truthiness is the
    finite-variance call."""

    finite: bool
    slope: float
    threshold: float
    slope_fallback: bool
    evidence: TailEvidence

    def __bool__(self) -> bool:
        return self.finite


def td_verdict(values, cfg: AnalysisConfig = AnalysisConfig()) -> TdVerdict:
    """Finite/infinite call for the time-domain signal's background noise.

    The decision comes from the tail-identification tree; the last-segment
    ECFM slope and its Gaussian-null threshold are computed alongside as
    reportable evidence.
    """
    x = clean_sample(values)
    if len(x) < 20:
        raise DataError(f"need a 1-D signal of length >= 20, got shape {x.shape}")
    slope, used_fallback = _td_slope(x, cfg.seg)
    threshold = _memo("td", calibrate_td_threshold, len(x), cfg.seg,
                      cfg.calibration_replicates, cfg.seed, workers=cfg.workers)
    evidence = tail_evidence(x)
    return TdVerdict(
        finite=evidence.td_finite,
        slope=slope,
        threshold=threshold,
        slope_fallback=used_fallback,
        evidence=evidence,
    )


# --------------------------------------------------------------------------
# Spectrogram-law (chi2) check

@dataclass(frozen=True)
class Chi2Evidence:
    bin_p_values: np.ndarray
    median_bin_p: float
    frac_bins_below_05: float
    td_gaussian_stat: float
    td_gaussian_bound: float  # the TD gate passes at or below this
    passed: bool


def _bin_ks_stats(power: np.ndarray) -> np.ndarray:
    """KS distance per column between binned power and its moment-fitted
    generalized chi-squared law (``gof.knot_ks``). Degenerate columns, and
    every column of a one-frame matrix, give NaN."""
    nt, nb = power.shape
    m = power.mean(axis=0)
    v = power.var(axis=0, ddof=1) if nt > 1 else np.zeros(nb)  # one frame: no variance
    valid = (m > 0) & (v > 0)
    ks = np.full(nb, np.nan)
    if not np.any(valid):
        return ks
    a = 2.0 * m[valid] ** 2 / v[valid] / 2.0  # theta / 2, rounded as theta is
    x = np.sort(power[:, valid].T, axis=1) / (v[valid] / m[valid])[:, None]  # over 2 beta
    ks[valid] = knot_ks(x, lambda r, j: special.gammainc(a[r], x[r, j]))
    return ks


def _complex_bins(idx: np.ndarray, nfft: int) -> np.ndarray:
    """Mask of the bin indices whose coefficients are complex-valued: all
    but DC (0) and, for even nfft, Nyquist (nfft/2)."""
    return (idx > 0) & (2 * idx != nfft)


def _pipeline_null_ks(
    n_samples: int,
    spect_cfg: SpectrogramConfig,
    band: tuple[float, float] | None,
    bootstrap: int,
    seed: int,
    workers: int,
) -> np.ndarray:
    """Pooled null KS distances, sorted: Gaussian signals pushed through the
    same spectrogram configuration, refitted per bin.

    Under white Gaussian input the band's complex-valued bins are
    exchangeable, so one pool serves them all; it holds the finite KS
    distances of every such bin of ceil(bootstrap / m) draws, m being the
    number of complex-valued band bins, so at least ``bootstrap`` values.
    The real-valued DC and Nyquist bins follow another law and are not
    pooled (``chi2_evidence`` gives them no p-value).
    """
    idx = band_bin_indices(bin_freqs(spect_cfg), band)
    idx = idx[_complex_bins(idx, spect_cfg.nfft)]

    def one(z: np.ndarray) -> np.ndarray:
        return _bin_ks_stats(spectrogram(z, spect_cfg).values[:, idx])

    draws = -(-bootstrap // len(idx))
    ks = _gaussian_stats(one, n_samples, draws, seed, CHI2_NULL, workers)
    return np.sort(ks[np.isfinite(ks)])


def td_gaussian_stat(values) -> float:
    """Stephens' (1974) modified KS for the normal law, mean and variance estimated."""
    root_n = np.sqrt(len(values))
    return float(gauss_ks(values) * (root_n - 0.01 + 0.85 / root_n))


def chi2_evidence(
    values: np.ndarray, spec: Spectrogram, cfg: AnalysisConfig = AnalysisConfig()
) -> Chi2Evidence:
    """Two-part Gaussian-spectrogram check: per-bin KS p-values against the
    pooled pipeline-matched null, and ``td_gaussian_stat`` at most
    ``TD_GAUSSIAN_KS_MAX``. Real-valued (DC, Nyquist) and degenerate bins get
    p = NaN and do not count in the median or the fraction. The null is
    built for ``spec.config``, the configuration that made ``spec``."""
    idx = band_bin_indices(spec.freqs_hz, cfg.band)
    ks = _bin_ks_stats(spec.values[:, idx])
    valid = np.isfinite(ks) & _complex_bins(idx, spec.config.nfft)
    if not np.any(valid):
        raise DataError("all complex-valued bins in the band are degenerate")
    null = _memo("chi2", _pipeline_null_ks, len(values), spec.config, cfg.band,
                 cfg.bootstrap, cfg.seed, workers=cfg.workers)
    p = np.full(len(idx), np.nan)
    exceed = len(null) - np.searchsorted(null, ks[valid], side="left")
    p[valid] = (1.0 + exceed) / (len(null) + 1.0)
    median_p = float(median(p[valid]))
    frac_low = float(np.mean(p[valid] < 0.05))
    td_stat = td_gaussian_stat(values)
    passed = median_p > CHI2_MEDIAN_P_MIN and td_stat <= TD_GAUSSIAN_KS_MAX
    return Chi2Evidence(
        bin_p_values=p,
        median_bin_p=median_p,
        frac_bins_below_05=frac_low,
        td_gaussian_stat=td_stat,
        td_gaussian_bound=TD_GAUSSIAN_KS_MAX,
        passed=passed,
    )


# --------------------------------------------------------------------------
# Categorization

def classify(
    td_finite: bool, tfd_finite: bool, chi2_pass: bool
) -> tuple[int, tuple[str, ...]]:
    """Four-way category from the three booleans:
    1 = finite everywhere and Gaussian-consistent, 2 = finite everywhere but
    not Gaussian, 3 = TD finite with infinite spectrogram variance,
    4 = TD infinite. TD-infinite with TFD-finite is contradictory evidence
    and maps to 4 with a warning."""
    if td_finite and tfd_finite:
        return (1, ()) if chi2_pass else (2, ())
    if td_finite:
        return 3, ()
    if tfd_finite:
        return 4, (
            "time-domain variance judged infinite while spectrogram variance "
            "judged finite; contradictory evidence, reporting category 4",
        )
    return 4, ()


@dataclass(frozen=True)
class VarianceVerdict:
    """Full verdict: the three booleans, the category, and the evidence
    behind each layer."""

    td_finite: bool
    tfd_finite: bool
    chi2_pass: bool
    category: int
    warnings: tuple[str, ...]
    td: TdVerdict
    profile: SlopeProfile
    tfd_threshold: float
    chi2: Chi2Evidence


def assess(values, cfg: AnalysisConfig = AnalysisConfig()) -> VarianceVerdict:
    """End-to-end verdict for one signal: spectrogram, band slope profile
    with its calibrated threshold, TD verdict, chi2 check, category."""
    x = clean_sample(values)
    spec = spectrogram(x, cfg.spect)
    profile = slope_profile(spec, cfg.band, cfg.seg)
    tfd_threshold = _memo("tfd", calibrate_threshold, len(x), cfg.spect, cfg.band,
                          cfg.seg, cfg.calibration_replicates, cfg.seed,
                          workers=cfg.workers)
    td = td_verdict(x, cfg)
    chi2 = chi2_evidence(x, spec, cfg)
    category, warnings = classify(td.finite, td.evidence.tfd_finite, chi2.passed)
    return VarianceVerdict(
        td_finite=td.finite,
        tfd_finite=td.evidence.tfd_finite,
        chi2_pass=chi2.passed,
        category=category,
        warnings=warnings,
        td=td,
        profile=profile,
        tfd_threshold=tfd_threshold,
        chi2=chi2,
    )
