"""Verdict pipeline tests: band selection, slope profiles, calibrated
thresholds, tail-shape evidence, the per-bin squared-magnitude law check,
and the four-way classification."""

import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from tailprobe import (
    AlphaStable,
    AnalysisConfig,
    ComputeError,
    ConfigError,
    DataError,
    SegmentationConfig,
    SlopeProfile,
    Spectrogram,
    SpectrogramConfig,
    SymPareto,
    TLocScale,
    assess,
    calibrate_td_threshold,
    calibrate_threshold,
    chi2_evidence,
    clear_caches,
    default_scenarios,
    ks_pvalue_mc,
    pdf,
    sample,
    slope_profile,
    spectrogram,
    td_verdict,
)
from tailprobe import verdict
from tailprobe.tailfit import _fit_sym_pareto, _fit_t, _gpd_shape, _lomax_profile
from tailprobe.verdict import (
    STATUS_FALLBACK,
    STATUS_OK,
    STATUS_SKIPPED,
    TD_GAUSSIAN_KS_MAX,
    _bin_ks_stats,
    _td_slope,
    band_bin_indices,
    classify,
    tail_evidence,
    td_gaussian_stat,
)

CFG = SpectrogramConfig()
# shared small-scale settings so the memoized Monte Carlo tables are reused
N, BOOT, CAL, SEED = 6000, 120, 20, 7
SMALL = AnalysisConfig(spect=CFG, seed=SEED, bootstrap=BOOT, calibration_replicates=CAL)


# ------------------------------------------------------------ band selection

def test_band_default_is_upper_half():
    spec = spectrogram(np.random.default_rng(0).standard_normal(3000), CFG)
    idx = band_bin_indices(spec.freqs_hz, None)
    npt.assert_array_equal(idx, np.arange(128, 257))


def test_band_explicit_bounds_are_inclusive():
    spec = spectrogram(np.random.default_rng(0).standard_normal(3000), CFG)
    lo, hi = float(spec.freqs_hz[10]), float(spec.freqs_hz[20])
    idx = band_bin_indices(spec.freqs_hz, (lo, hi))
    npt.assert_array_equal(idx, np.arange(10, 21))


def test_band_validation():
    spec = spectrogram(np.random.default_rng(0).standard_normal(3000), CFG)
    with pytest.raises(ConfigError):
        band_bin_indices(spec.freqs_hz, (5000.0, 4000.0))
    with pytest.raises(ConfigError):
        band_bin_indices(spec.freqs_hz, (5000.0, 5100.0))  # only 2-3 bins wide


# ------------------------------------------------------------ slope profiles

def _synthetic_spectrogram(n_frames=60, n_bins=20, seed=1):
    cfg = SpectrogramConfig(window_length=10, kaiser_beta=5.0, overlap=5,
                            nfft=38, sample_rate_hz=100.0)
    rng = np.random.default_rng(seed)
    values = rng.gamma(2.0, scale=1.0, size=(n_frames, n_bins))
    freqs = np.arange(n_bins) * (100.0 / 38.0)
    times = np.arange(n_frames) * 0.05
    return Spectrogram(values=values, freqs_hz=freqs, times_s=times, config=cfg)


def test_profile_summaries_recompute_on_access():
    prof = SlopeProfile(
        freqs_hz=np.array([1.0, 2.0, 3.0]),
        slopes=np.array([1.0, -2.0, 3.0]),
        status=np.zeros(3, dtype=np.int8),
        band=(1.0, 3.0),
    )
    assert prof.median_abs == 2.0
    prof.slopes[0] = 10.0
    assert prof.median_abs == 3.0  # summaries are live views of the slopes


def test_profile_skips_degenerate_bins():
    spec = _synthetic_spectrogram()
    spec.values[:, 12] = 4.0  # constant power in one bin
    prof = slope_profile(spec)
    assert prof.n_skipped == 1
    assert prof.status[12 - 10] == STATUS_SKIPPED
    assert np.isnan(prof.slopes[12 - 10])
    assert np.isfinite(prof.median_abs)


def test_profile_errors_when_every_bin_is_degenerate():
    spec = _synthetic_spectrogram()
    spec.values[:, 10:] = 2.0
    with pytest.raises(DataError):
        slope_profile(spec)


def test_profile_needs_enough_frames():
    spec = _synthetic_spectrogram(n_frames=11)
    with pytest.raises(DataError):
        slope_profile(spec)


def test_profile_on_gaussian_signal():
    spec = spectrogram(np.random.default_rng(4).standard_normal(N), CFG)
    prof = slope_profile(spec)
    assert len(prof.slopes) == 129
    assert prof.n_skipped == 0
    assert prof.band == (float(spec.freqs_hz[128]), float(spec.freqs_hz[256]))
    assert prof.median_abs < 1.0  # plateau slopes are near zero


# ----------------------------------------------------- threshold calibration

def test_calibrate_requires_enough_replicates():
    with pytest.raises(ConfigError):
        calibrate_threshold(N, CFG, replicates=19, seed=SEED)


def test_calibrate_is_deterministic_and_worker_invariant():
    clear_caches()
    a = calibrate_threshold(4000, CFG, replicates=20, seed=9)
    b = calibrate_threshold(4000, CFG, replicates=20, seed=9)
    clear_caches()
    c = calibrate_threshold(4000, CFG, replicates=20, seed=9, workers=4)
    assert a == b == c
    assert calibrate_threshold(4000, CFG, replicates=20, seed=10) != a


def test_td_thresholds_differ_between_neighbouring_seeds():
    thresholds = [calibrate_td_threshold(2000, replicates=20, seed=s) for s in range(4)]
    assert len(set(thresholds)) == 4


def test_calibrate_threshold_stable_under_doubling():
    clear_caches()
    t50 = calibrate_threshold(4000, CFG, replicates=50, seed=9)
    t100 = calibrate_threshold(4000, CFG, replicates=100, seed=9)
    assert abs(t100 - t50) / t50 < 0.25


def test_td_threshold_calibration():
    thr = calibrate_td_threshold(N, replicates=CAL, seed=SEED)
    assert 0.0 < thr < 1.0
    # Gaussian slopes fall at or below the calibrated level most of the time
    x = np.random.default_rng(21).standard_normal(N)
    v = td_verdict(x, SMALL)
    assert v.finite and bool(v)


# ------------------------------------------------------------- tail evidence

def test_tail_evidence_known_families():
    cases = [
        ("gaussian", AlphaStable(2.0, 1.0), 11, "gaussian", True, True),
        ("pareto6", SymPareto(6.0, 1.0), 12, "pareto", True, True),
        ("pareto3", SymPareto(3.0, 1.0), 13, "pareto", True, False),
        ("t3", TLocScale(3.0, 1.0), 14, "t", True, False),
        ("t15", TLocScale(1.5, 1.0), 15, "t", False, False),
        ("stable15", AlphaStable(1.5, 1.0), 16, "none", False, False),
        ("t6", TLocScale(6.0, 1.0), 17, "t", True, True),
        ("pareto15", SymPareto(1.5, 1.0), 18, "pareto", False, False),
    ]
    for name, spec, seed, family, td, tfd in cases:
        ev = tail_evidence(sample(spec, 10_000, np.random.default_rng(seed)))
        assert ev.accepted_family == family, f"{name}: {ev.accepted_family}"
        assert ev.td_finite == td, f"{name}: td={ev.td_finite}"
        assert ev.tfd_finite == tfd, f"{name}: tfd={ev.tfd_finite}"


def test_tail_evidence_gaussian_gate_shortcircuits_fits():
    ev = tail_evidence(sample(AlphaStable(2.0, 1.0), 10_000, np.random.default_rng(11)))
    assert ev.alpha_cf >= 1.955
    fits = ("pareto_gamma", "pareto_lam", "pareto_ks", "t_nu", "t_delta", "t_ks")
    assert all(np.isnan(getattr(ev, name)) for name in fits)


def test_tail_evidence_index_estimates_are_close():
    ev = tail_evidence(sample(SymPareto(6.0, 1.0), 10_000, np.random.default_rng(12)))
    assert 4.0 < ev.pareto_gamma < 9.0
    ev = tail_evidence(sample(TLocScale(3.0, 1.0), 10_000, np.random.default_rng(14)))
    assert 2.2 < ev.t_nu < 4.2


def _loglik(spec, y):
    return float(np.sum(np.log(pdf(spec, y))))


@pytest.mark.parametrize("k", range(len(default_scenarios())))
def test_tail_fits_are_likelihood_maxima(k):
    # Moving any fitted parameter by 1e-4 relative, within its search
    # bracket, lowers the likelihood.
    scen = default_scenarios()[k]
    x = sample(scen.spec, 10_000, np.random.default_rng(k))
    y = x - np.median(x)
    t = _fit_t(y)
    p = _fit_sym_pareto(y)
    med = float(np.median(np.abs(y)))
    best_t, best_p = _loglik(t, y), _loglik(p, y)
    for e in (1e-4, -1e-4):
        assert best_t >= _loglik(TLocScale(t.nu, t.delta * (1 + e)), y), scen.name
        if 0.6 <= t.nu * (1 + e) <= 60.0:
            assert best_t >= _loglik(TLocScale(t.nu * (1 + e), t.delta), y), scen.name
        assert best_p >= _loglik(SymPareto(p.gamma * (1 + e), p.lam), y), scen.name
        if med / 30.0 <= p.lam * (1 + e) <= med * 30.0:
            assert best_p >= _loglik(SymPareto(p.gamma, p.lam * (1 + e)), y), scen.name
    # delta^2 solves the scale equation of the t likelihood at the fitted nu
    s, y2 = t.delta**2, y * y
    residual = s - (t.nu + 1.0) * np.mean(y2 * s / (t.nu * s + y2))
    assert abs(residual) <= 1e-10 * s, scen.name


def test_lomax_profile_is_the_symmetric_pareto_likelihood():
    # The profile of |y| at tau is the log-likelihood of y under the
    # symmetric Pareto law of shape 1/xi and scale 1/tau, whose density
    # halves the Lomax density of |y|.
    x = sample(SymPareto(3.0, 1.0), 10_000, np.random.default_rng(3))
    y = x - np.median(x)
    prof = _lomax_profile(np.abs(y))
    for tau in (0.05, 0.3, 1.0, 4.0, 50.0):
        ll, xi = prof(np.log(tau))
        expected = _loglik(SymPareto(1.0 / xi, 1.0 / tau), y) + len(y) * np.log(2.0)
        assert ll == pytest.approx(expected, rel=1e-10), tau


@pytest.mark.parametrize("k", range(len(default_scenarios())))
def test_gpd_shape_matches_scipy_fit(k):
    # Exceedances of the top 5% of |x - median| over the next value down.
    scen = default_scenarios()[k]
    x = sample(scen.spec, 10_000, np.random.default_rng(k))
    a = np.sort(np.abs(x - np.median(x)))
    y = a[-500:] - a[-501]
    xi_ref = stats.genpareto.fit(y, floc=0)[0]
    if scen.name == "stable:2:1":  # a light tail: the shape clamps at 0
        assert xi_ref < 0
        assert _gpd_shape(y) == 0.0
    else:
        assert _gpd_shape(y) == pytest.approx(xi_ref, abs=1e-4), scen.name


def test_overflowing_gaussian_is_a_compute_error():
    x = 1e154 * np.random.default_rng(5).standard_normal(N)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ComputeError):
            tail_evidence(x)
        with pytest.raises(ComputeError):
            _td_slope(x, SegmentationConfig())
        with pytest.raises(ComputeError):
            td_verdict(x, SMALL)
        with pytest.raises(ComputeError):
            ks_pvalue_mc(x, family="gaussian", bootstrap=20)
        with pytest.raises(ComputeError):
            _fit_t(x - np.median(x))


def test_tail_evidence_rejects_a_constant_signal():
    with pytest.raises(DataError):
        tail_evidence(np.full(100, 3.0))


def test_td_verdict_heavy_tail():
    x = sample(AlphaStable(1.5, 1.0), 10_000, np.random.default_rng(30))
    v = td_verdict(x, SMALL)
    assert not v.finite and not bool(v)


def test_td_verdict_needs_data():
    with pytest.raises(DataError):
        td_verdict(np.ones(10), SMALL)


# ----------------------------------------------------- squared-magnitude law

def test_chi2_evidence_gaussian_passes():
    x = np.random.default_rng(101).standard_normal(N)
    spec = spectrogram(x, CFG)
    ev = chi2_evidence(x, spec, SMALL)
    assert ev.passed
    assert ev.median_bin_p > 0.05
    assert ev.frac_bins_below_05 <= 0.10
    assert len(ev.bin_p_values) == 129


def test_chi2_evidence_finite_heavy_signal_fails_td_gate():
    # bin-level power fades for finite-variance heavy tails, but the raw
    # signal itself is visibly non-Gaussian
    x = sample(SymPareto(6.0, 1.0), N, np.random.default_rng(202))
    spec = spectrogram(x, CFG)
    ev = chi2_evidence(x, spec, SMALL)
    assert ev.td_gaussian_stat > TD_GAUSSIAN_KS_MAX
    assert not ev.passed


@pytest.mark.parametrize("bootstrap", [10, 98, 200])
def test_td_gate_rejects_a_non_gaussian_sample_at_any_bootstrap(bootstrap):
    # A null of b Monte-Carlo draws gives p >= 1 / (b + 1), which cannot
    # reach 0.01 below b = 99; the closed-form bound does not read b.
    x = sample(SymPareto(6.0, 1.0), N, np.random.default_rng(202))
    ev = chi2_evidence(x, spectrogram(x, CFG), replace(SMALL, bootstrap=bootstrap))
    assert ev.td_gaussian_bound == TD_GAUSSIAN_KS_MAX
    assert ev.td_gaussian_stat > TD_GAUSSIAN_KS_MAX
    assert not ev.passed


def test_td_gate_size_is_near_one_percent():
    # Stephens' 1% point sits a little below the simulated 99% point of
    # the modified statistic (about 1.05-1.065), so the gate rejects a
    # Gaussian sample slightly more often than 1 in 100.
    rng = np.random.default_rng(2000)
    draws = 4000
    rejected = sum(
        td_gaussian_stat(rng.standard_normal(2000)) > TD_GAUSSIAN_KS_MAX
        for _ in range(draws)
    )
    assert 0.005 <= rejected / draws <= 0.02


def test_chi2_evidence_infinite_variance_rejects_bins():
    x = sample(AlphaStable(1.5, 1.0), N, np.random.default_rng(303))
    spec = spectrogram(x, CFG)
    ev = chi2_evidence(x, spec, SMALL)
    assert ev.frac_bins_below_05 > 0.5
    assert not ev.passed


def _chi2_null(n, band, bootstrap, seed=SEED):
    """The memoized pooled chi2 null of a chi2_evidence call with these
    settings and the default spectrogram configuration."""
    return verdict._NULLS[("chi2", n, CFG, band, bootstrap, seed)]


def test_chi2_p_values_match_a_naive_count_against_the_pool():
    x = sample(TLocScale(6.0, 1.0), N, np.random.default_rng(505))
    spec = spectrogram(x, CFG)
    ev = chi2_evidence(x, spec, SMALL)
    pool = _chi2_null(N, None, BOOT)
    ks = _bin_ks_stats(spec.values[:, band_bin_indices(spec.freqs_hz, None)])
    tested = np.flatnonzero(np.isfinite(ev.bin_p_values))
    assert len(tested) == 128
    for j in tested:
        want = (1 + sum(1 for d in pool if d >= ks[j])) / (len(pool) + 1)
        assert ev.bin_p_values[j] == want


def test_bin_ks_stats_of_one_frame_is_nan_without_a_warning():
    # One frame has no sample variance: every column is degenerate.
    power = np.random.default_rng(1).gamma(2.0, size=(1, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ks = _bin_ks_stats(power)
    assert ks.shape == (6,) and np.isnan(ks).all()


def test_chi2_real_valued_bins_get_no_p_value():
    x = np.random.default_rng(606).standard_normal(N)
    spec = spectrogram(x, CFG)
    low_band = (0.0, float(spec.freqs_hz[40]))
    for band, real in ((None, -1), (low_band, 0)):  # Nyquist, then DC
        ev = chi2_evidence(x, spec, replace(SMALL, band=band))
        p = ev.bin_p_values
        assert np.isnan(p[real])
        assert np.count_nonzero(np.isnan(p)) == 1
        assert ev.median_bin_p == np.median(p[np.isfinite(p)])
        assert ev.frac_bins_below_05 == np.mean(p[np.isfinite(p)] < 0.05)


@pytest.mark.parametrize("bootstrap", [1, 128, 129, 200])
def test_chi2_null_draws_ceil_bootstrap_over_m_spectrograms(monkeypatch, bootstrap):
    # The default band (bins 128..256) has m = 128 complex-valued bins.
    x = np.random.default_rng(707).standard_normal(N)
    spec = spectrogram(x, CFG)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return spectrogram(*args, **kwargs)

    monkeypatch.setattr(verdict, "spectrogram", counted)
    clear_caches()
    chi2_evidence(x, spec, replace(SMALL, bootstrap=bootstrap))
    assert len(calls) == -(-bootstrap // 128)
    pool = _chi2_null(N, None, bootstrap)
    assert len(pool) >= bootstrap
    assert np.all(np.isfinite(pool)) and np.all(np.diff(pool) >= 0)


def test_chi2_evidence_rejects_degenerate_spectrogram(null_builds):
    clear_caches()
    spec = _synthetic_spectrogram()
    spec.values[:, 10:] = 3.0
    x = np.random.default_rng(1).standard_normal(400)
    with pytest.raises(DataError, match="degenerate"):
        chi2_evidence(x, spec, AnalysisConfig(bootstrap=10, seed=0))
    assert null_builds == {name: [] for name in null_builds}  # raised before any null


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [tail_evidence, td_verdict, assess])
def test_non_finite_sample_is_a_data_error(null_builds, entry, bad):
    clear_caches()
    x = np.random.default_rng(3).standard_normal(4000)
    x[1234] = bad
    with pytest.raises(DataError, match="NaN or Inf"):
        entry(x)
    assert null_builds == {name: [] for name in null_builds}  # raised before any null


# -------------------------------------------------------------- classification

def test_classify_truth_table():
    assert classify(True, True, True) == (1, ())
    assert classify(True, True, False) == (2, ())
    assert classify(True, False, True)[0] == 3
    assert classify(True, False, False)[0] == 3
    assert classify(False, False, False)[0] == 4
    assert classify(False, False, True)[0] == 4


def test_classify_warns_on_contradictory_verdicts():
    cat, warnings = classify(False, True, False)
    assert cat == 4
    assert len(warnings) == 1 and "finite" in warnings[0]


# ------------------------------------------------------------- full pipeline

def test_assess_gaussian_end_to_end():
    x = np.random.default_rng(101).standard_normal(N)
    v = assess(x, SMALL)
    assert v.category == 1
    assert v.td_finite and v.tfd_finite and v.chi2_pass
    assert v.warnings == ()
    assert v.td.evidence.accepted_family == "gaussian"


def test_assess_heavy_stable_end_to_end():
    x = sample(AlphaStable(1.5, 1.0), N, np.random.default_rng(303))
    v = assess(x, SMALL)
    assert v.category == 4
    assert not v.td_finite


def test_assess_intermediate_pareto_end_to_end():
    x = sample(SymPareto(3.0, 1.0), N, np.random.default_rng(404))
    v = assess(x, SMALL)
    assert v.category == 3
    assert v.td_finite and not v.tfd_finite


# Twelve frames is the shortest input with a verdict: n = 786 at the
# default 500-sample window and 26-sample hop.
EDGE = replace(SMALL, bootstrap=20, calibration_replicates=20)


def test_assess_refuses_eleven_frames():
    x = np.random.default_rng(785).standard_normal(785)
    assert spectrogram(x, CFG).n_frames == 11
    with pytest.raises(DataError, match="11 frames is too few"):
        assess(x, EDGE)


@pytest.mark.parametrize("n, frames", [(786, 12), (811, 12), (812, 13)])
def test_assess_gives_a_verdict_from_twelve_frames(n, frames):
    # n = 811 leaves a trailing partial frame of 25 samples, which is dropped.
    x = np.random.default_rng(n).standard_normal(n)
    assert spectrogram(x, CFG).n_frames == frames
    v = assess(x, EDGE)
    assert v.category in (1, 2, 3, 4)
    assert len(v.profile.slopes) == 129


def test_assess_is_deterministic():
    x = sample(SymPareto(6.0, 1.0), N, np.random.default_rng(202))
    a = assess(x, SMALL)
    b = assess(x, SMALL)
    assert a.category == b.category == 2
    assert a.td.slope == b.td.slope
    npt.assert_array_equal(a.chi2.bin_p_values, b.chi2.bin_p_values)
    npt.assert_array_equal(a.profile.slopes, b.profile.slopes)


def test_assess_worker_invariance():
    x = np.random.default_rng(101).standard_normal(N)
    a = assess(x, replace(SMALL, workers=1))
    clear_caches()
    b = assess(x, replace(SMALL, workers=4))
    assert a.category == b.category
    assert a.tfd_threshold == b.tfd_threshold
    npt.assert_array_equal(a.chi2.bin_p_values, b.chi2.bin_p_values)


def test_assess_builds_each_null_once_for_any_worker_count(null_builds):
    clear_caches()
    rng = np.random.default_rng(102)
    assess(rng.standard_normal(N), replace(SMALL, workers=1))
    assess(rng.standard_normal(N), replace(SMALL, workers=3))
    assert null_builds == {name: [1] for name in null_builds}
    clear_caches()
    assess(rng.standard_normal(N), replace(SMALL, workers=3))
    assert null_builds == {name: [1, 3] for name in null_builds}


def test_null_keys_are_the_tag_and_the_builders_arguments():
    clear_caches()
    rng = np.random.default_rng(103)
    assess(rng.standard_normal(N), SMALL)
    seg = SMALL.seg
    first = {
        ("tfd", N, CFG, None, seg, CAL, SEED),
        ("td", N, seg, CAL, SEED),
        ("chi2", N, CFG, None, BOOT, SEED),
    }
    assert set(verdict._NULLS) == first
    assess(rng.standard_normal(N), replace(SMALL, bootstrap=BOOT + 1))
    assert set(verdict._NULLS) == first | {("chi2", N, CFG, None, BOOT + 1, SEED)}
