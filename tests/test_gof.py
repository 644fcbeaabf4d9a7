"""Goodness-of-fit tests: exact KS statistics on constructed samples, the
knot-pruned KS kernel against the dense formula, Monte Carlo p-value
calibration with refitting, and power against heavy tails."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailprobe import (
    ConfigError,
    DataError,
    GenChi2,
    SpectrogramConfig,
    SymPareto,
    TLocScale,
    ecdf,
    empirical_tail,
    ks_pvalue_mc,
    ks_stat,
    sample,
    spectrogram,
    sub_signal,
)
from tailprobe.distributions import cdf, fit_gen_chi2
from tailprobe.gof import _fit_family
from tailprobe.study import default_scenarios
from tailprobe.tailfit import _fit_sym_pareto, _fit_t


# ------------------------------------------------------------ empirical laws

def test_ecdf_small():
    xs, f = ecdf(np.array([3.0, 1.0, 2.0]))
    npt.assert_array_equal(xs, [1.0, 2.0, 3.0])
    npt.assert_allclose(f, [1.0 / 3.0, 2.0 / 3.0, 1.0])


def test_empirical_tail_plotting_positions():
    xs, t = empirical_tail(np.array([4.0, 2.0, 8.0, 6.0]))
    npt.assert_array_equal(xs, [2.0, 4.0, 6.0, 8.0])
    # 1 - (i - 0.5)/n keeps every point strictly inside (0, 1)
    npt.assert_allclose(t, [0.875, 0.625, 0.375, 0.125])
    assert np.all(t > 0.0) and np.all(t < 1.0)
    assert np.all(np.diff(t) < 0.0)


# ------------------------------------------------------------- KS statistic

def test_ks_single_point_against_median_zero_family():
    assert ks_stat(np.array([0.0]), TLocScale(3.0, 1.0)) == 0.5


def test_ks_on_exact_quantile_grid():
    # quantiles at (i - 0.5)/n make both one-sided gaps equal 0.5/n
    n = 50
    u = (np.arange(1, n + 1) - 0.5) / n
    x = -2.0 * np.log(1.0 - u)  # inverse CDF of the gamma form with theta=2, beta=1
    npt.assert_allclose(ks_stat(x, GenChi2(2.0, 1.0)), 0.5 / n, rtol=1e-9)


def test_ks_detects_wrong_scale():
    x = sample(GenChi2(2.0, 1.0), 2000, 1)
    d_true = ks_stat(x, GenChi2(2.0, 1.0))
    d_off = ks_stat(x, GenChi2(2.0, 3.0))
    assert d_off > 5.0 * d_true


def test_ks_input_validation():
    with pytest.raises(DataError):
        ks_stat(np.array([]), GenChi2(2.0, 1.0))
    with pytest.raises(DataError):
        ks_stat(np.array([1.0, np.nan]), GenChi2(2.0, 1.0))


# ------------------------------------------ the knot-pruned KS kernel

def dense_ks(values, spec):
    """The KS distance with the CDF evaluated at every order statistic."""
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    f = np.asarray(cdf(spec, v))
    i = np.arange(1, n + 1)
    return float(max((f - (i - 1) / n).max(), (i / n - f).max()))


def fitted_laws(y):
    """(sample, law) pairs: y against its fitted Pareto and t laws, y
    standardized against the unit Gaussian, and y^2 against its GenChi2."""
    gauss, z = _fit_family(y, "gaussian")
    return [(y, _fit_sym_pareto(y)), (y, _fit_t(y)), (z, gauss),
            (y * y, fit_gen_chi2(y * y))]


def assert_ks_matches_dense(y):
    for values, spec in fitted_laws(y):
        assert ks_stat(values, spec) == dense_ks(values, spec), spec


@pytest.mark.parametrize("scenario", default_scenarios(), ids=lambda s: s.name)
def test_ks_matches_dense_on_scenario_fits(scenario):
    x = sample(scenario.spec, 10_000, np.random.default_rng(7))
    assert_ks_matches_dense(x - np.median(x))


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 10_000])
def test_ks_matches_dense_at_every_length(n):
    y = sample(TLocScale(3.0, 1.0), n, np.random.default_rng(n))
    for spec in (TLocScale(3.0, 1.0), SymPareto(2.0, 0.5), GenChi2(2.0, 1.0)):
        assert ks_stat(y, spec) == dense_ks(y, spec)
    if n > 2:
        assert_ks_matches_dense(y - np.median(y))


@pytest.mark.parametrize("n", [17, 400, 10_000])
def test_ks_matches_dense_on_heavy_ties(n):
    y = np.random.default_rng(n).integers(-2, 3, size=n).astype(float)
    for spec in (TLocScale(3.0, 1.0), SymPareto(2.0, 0.5), GenChi2(2.0, 1.0)):
        assert ks_stat(y, spec) == dense_ks(y, spec)
    assert_ks_matches_dense(y)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3000),
    law=st.sampled_from([TLocScale(1.5, 1.0), TLocScale(6.0, 2.0),
                         SymPareto(1.2, 1.0), GenChi2(3.0, 0.5)]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    ties=st.booleans(),
)
def test_ks_matches_dense_on_drawn_samples(n, law, seed, scale, ties):
    y = scale * sample(law, n, np.random.default_rng(seed))
    if ties:
        y = np.round(y / scale)
    for spec in (law, TLocScale(3.0, scale), SymPareto(2.0, scale)):
        assert ks_stat(y, spec) == dense_ks(y, spec)


# ------------------------------------------------- Monte Carlo calibration

def test_mc_pvalue_basics():
    x = sample(GenChi2(2.0, 1.0), 300, 5)
    r = ks_pvalue_mc(x, family="genchi2", bootstrap=99, seed=3)
    assert r.bootstrap == 99
    assert r.family == "genchi2"
    assert isinstance(r.fitted, GenChi2)
    # p = (1 + exceedances) / (B + 1) lives on a lattice with a positive floor
    assert r.p_value >= 1.0 / 100.0
    k = round(r.p_value * 100.0 - 1.0)
    npt.assert_allclose(r.p_value, (1.0 + k) / 100.0, rtol=1e-12)


def test_mc_pvalue_deterministic_in_seed():
    x = sample(GenChi2(2.0, 1.0), 300, 6)
    a = ks_pvalue_mc(x, bootstrap=60, seed=9)
    b = ks_pvalue_mc(x, bootstrap=60, seed=9)
    c = ks_pvalue_mc(x, bootstrap=60, seed=10)
    assert a.p_value == b.p_value and a.statistic == b.statistic
    assert a.p_value != c.p_value or a.statistic == c.statistic


def test_mc_pvalue_size_under_the_null():
    # with refitting inside every replicate the p-values stay calibrated:
    # the rejection rate at 5% must not exceed 10% over 100 trials
    rng = np.random.default_rng(0)
    ps = []
    for i in range(100):
        x = rng.gamma(1.25, scale=2.0, size=300)
        ps.append(ks_pvalue_mc(x, family="genchi2", bootstrap=99,
                               seed=1000 + i).p_value)
    ps = np.asarray(ps)
    assert float(np.mean(ps < 0.05)) <= 0.10
    assert 0.25 <= float(np.median(ps)) <= 0.75


def test_skipping_the_refit_miscalibrates_pvalues():
    # fitting shrinks the observed KS distance, so replicates that are NOT
    # refitted produce a null distribution that is too wide; the resulting
    # p-values pile up near 1 and overstate the quality of the fit. This
    # guards the refit-inside-every-replicate behavior.
    def p_without_refit(x, bootstrap, seed):
        fitted = fit_gen_chi2(x)
        d_obs = ks_stat(x, fitted)
        rng = np.random.default_rng(seed)
        exceed = 0
        for _ in range(bootstrap):
            xb = sample(fitted, len(x), rng)
            if ks_stat(xb, fitted) >= d_obs:  # no refit on the replicate
                exceed += 1
        return (1.0 + exceed) / (bootstrap + 1.0)

    rng = np.random.default_rng(1)
    p_refit, p_plain = [], []
    for i in range(60):
        x = rng.gamma(1.25, scale=2.0, size=300)
        p_refit.append(ks_pvalue_mc(x, bootstrap=99, seed=4000 + i).p_value)
        p_plain.append(p_without_refit(x, 99, 5000 + i))
    p_refit, p_plain = np.asarray(p_refit), np.asarray(p_plain)
    assert 0.35 <= float(np.median(p_refit)) <= 0.70
    assert float(np.median(p_plain)) > 0.70
    assert float(np.mean(p_plain - p_refit)) > 0.10


def test_gaussian_family_is_location_scale_invariant():
    # shifted and scaled normal data keep calibrated p-values
    ps = []
    for i in range(60):
        x = 5.0 + 3.0 * np.random.default_rng(500 + i).standard_normal(400)
        ps.append(ks_pvalue_mc(x, family="gaussian", bootstrap=99,
                               seed=2000 + i).p_value)
    ps = np.asarray(ps)
    assert float(np.mean(ps < 0.05)) <= 0.10


def test_gaussian_family_rejects_heavy_tails():
    x = sample(TLocScale(1.5, 1.0), 2000, 77)
    r = ks_pvalue_mc(x, family="gaussian", bootstrap=99, seed=8)
    assert r.p_value < 0.05


def test_power_against_heavy_tailed_sub_signals():
    # spectrogram bins of infinite-variance noise are far from the gamma form
    cfg = SpectrogramConfig()
    for seed in (1, 2, 3):
        x = sample(SymPareto(1.5, 1.0), 4000, np.random.default_rng(seed))
        sub, _ = sub_signal(spectrogram(x, cfg), 10_000.0)
        r = ks_pvalue_mc(sub, family="genchi2", bootstrap=200, seed=50 + seed)
        assert r.p_value < 0.05, f"seed {seed}: p={r.p_value}"


def test_mc_pvalue_validation():
    x = sample(GenChi2(2.0, 1.0), 100, 2)
    with pytest.raises(ConfigError):
        ks_pvalue_mc(x, family="weibull")
    with pytest.raises(ConfigError):
        ks_pvalue_mc(x, bootstrap=0)
    with pytest.raises(DataError):
        ks_pvalue_mc(np.full(50, 1.0), family="genchi2")


def test_fit_family_gaussian_standardizes():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0] * 10)
    spec, z = _fit_family(x, "gaussian")
    npt.assert_allclose(np.mean(z), 0.0, atol=1e-12)
    npt.assert_allclose(np.std(z, ddof=1), 1.0, rtol=1e-12)
    # the reference law is a unit-variance Gaussian
    assert spec.variance_is_finite and abs(spec.variance() - 1.0) < 1e-12
