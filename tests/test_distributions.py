"""Distribution family tests: spot values against independent oracles,
analytic invariants, sampler correctness, and moment fitting."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, special, stats

from tailprobe import (
    AlphaStable,
    ConfigError,
    DataError,
    GaussianTfrParams,
    GenChi2,
    SymPareto,
    TLocScale,
    cdf,
    fit_gen_chi2,
    gen_chi2_from_gaussian,
    ks_stat,
    pdf,
    sample,
    tail,
)


# ---------------------------------------------------------------- parameters

def test_parameter_validation():
    for bad in (lambda: AlphaStable(0.0, 1.0), lambda: AlphaStable(2.1, 1.0),
                lambda: AlphaStable(-0.5, 1.0), lambda: AlphaStable(1.5, 0.0),
                lambda: SymPareto(0.0, 1.0), lambda: SymPareto(2.0, -1.0),
                lambda: TLocScale(0.0, 1.0), lambda: TLocScale(3.0, 0.0),
                lambda: GenChi2(0.0, 1.0), lambda: GenChi2(2.0, 0.0)):
        with pytest.raises(ConfigError):
            bad()


def test_variance_finiteness_boundaries():
    assert AlphaStable(2.0, 1.0).variance_is_finite
    assert not AlphaStable(1.999, 1.0).variance_is_finite
    assert SymPareto(2.001, 1.0).variance_is_finite
    assert not SymPareto(2.0, 1.0).variance_is_finite
    assert TLocScale(2.001, 1.0).variance_is_finite
    assert not TLocScale(2.0, 1.0).variance_is_finite
    assert GenChi2(0.5, 1.0).variance_is_finite


def test_variance_values():
    npt.assert_allclose(AlphaStable(2.0, 1.5).variance(), 2.0 * 1.5**2)
    npt.assert_allclose(SymPareto(6.0, 1.0).variance(), 2.0 / (5.0 * 4.0))
    npt.assert_allclose(TLocScale(6.0, 1.0).variance(), 6.0 / 4.0)
    npt.assert_allclose(GenChi2(2.0, 1.0).variance(), 4.0)
    npt.assert_allclose(GenChi2(2.0, 1.0).mean(), 2.0)
    assert np.isinf(AlphaStable(1.5, 1.0).variance())
    assert np.isinf(SymPareto(1.5, 1.0).variance())
    assert np.isinf(TLocScale(2.0, 1.0).variance())


# ----------------------------------------------------------------- densities

def test_pdf_spot_values():
    # Gaussian case: alpha=2, sigma=1 has sd sqrt(2)
    npt.assert_allclose(pdf(AlphaStable(2.0, 1.0), np.array([0.0]))[0],
                        1.0 / (2.0 * np.sqrt(np.pi)), rtol=1e-12)
    # Cauchy case
    npt.assert_allclose(pdf(AlphaStable(1.0, 1.0), np.array([0.0]))[0],
                        1.0 / np.pi, rtol=1e-12)
    # double-sided Pareto at the scale point
    npt.assert_allclose(pdf(SymPareto(2.0, 1.0), np.array([1.0]))[0],
                        0.125, rtol=1e-12)
    # Student t with scale 1 equals scipy's t
    npt.assert_allclose(pdf(TLocScale(6.0, 1.0), np.array([0.0]))[0],
                        stats.t(6).pdf(0.0), rtol=1e-12)
    # gamma-form squared-magnitude law
    npt.assert_allclose(pdf(GenChi2(2.0, 1.0), np.array([0.5]))[0],
                        0.5 * np.exp(-0.25), rtol=1e-12)
    npt.assert_array_equal(pdf(GenChi2(2.0, 1.0), np.array([-1.0, 0.0])),
                           [0.0, 0.0])


def test_pdf_matches_scipy_on_grids():
    x = np.linspace(-8.0, 8.0, 41)
    npt.assert_allclose(pdf(AlphaStable(2.0, 1.3), x),
                        stats.norm(0, 1.3 * np.sqrt(2)).pdf(x), rtol=1e-10)
    npt.assert_allclose(pdf(AlphaStable(1.0, 0.7), x),
                        stats.cauchy(0, 0.7).pdf(x), rtol=1e-10)
    npt.assert_allclose(pdf(TLocScale(3.5, 1.4), x),
                        stats.t(3.5, scale=1.4).pdf(x), rtol=1e-10)
    xp = np.linspace(0.01, 20.0, 30)
    npt.assert_allclose(pdf(GenChi2(1.7, 2.2), xp),
                        stats.gamma(1.7 / 2.0, scale=2.0 * 2.2).pdf(xp),
                        rtol=1e-10)


def test_pdf_unavailable_for_general_stable():
    with pytest.raises(ConfigError):
        pdf(AlphaStable(1.5, 1.0), np.array([0.0]))


def test_pdf_integrates_to_one():
    specs = [AlphaStable(2.0, 1.3), AlphaStable(1.0, 0.7),
             SymPareto(2.5, 1.2), TLocScale(4.0, 0.9)]
    for spec in specs:
        T = 2000.0
        body, _ = integrate.quad(lambda u: pdf(spec, np.array([u]))[0],
                                 -T, T, limit=400)
        total = body + 2.0 * tail(spec, T).value
        npt.assert_allclose(total, 1.0, rtol=1e-4)
    gc = GenChi2(1.7, 2.2)
    body, _ = integrate.quad(lambda u: pdf(gc, np.array([u]))[0],
                             0.0, 5000.0, limit=400)
    npt.assert_allclose(body + tail(gc, 5000.0).value, 1.0, rtol=1e-4)


# ----------------------------------------------------------- cdf and tails

def test_cdf_spot_values():
    npt.assert_allclose(cdf(SymPareto(2.0, 1.0), np.array([0.0]))[0], 0.5)
    npt.assert_allclose(cdf(AlphaStable(2.0, 1.0), np.array([0.0]))[0], 0.5)
    npt.assert_allclose(cdf(TLocScale(3.0, 2.0), np.array([2.0]))[0],
                        stats.t(3).cdf(1.0), rtol=1e-12)
    npt.assert_allclose(cdf(GenChi2(2.0, 1.0), np.array([2.0]))[0],
                        1.0 - np.exp(-1.0), rtol=1e-12)
    npt.assert_array_equal(cdf(GenChi2(2.0, 1.0), np.array([-3.0, 0.0])),
                           [0.0, 0.0])


def test_tail_spot_values():
    r = tail(SymPareto(2.0, 1.0), 1.0)
    assert not r.asymptotic
    npt.assert_allclose(r.value, 0.125, rtol=1e-12)
    npt.assert_allclose(tail(AlphaStable(2.0, 1.0), 3.0).value,
                        stats.norm(0, np.sqrt(2)).sf(3.0), rtol=1e-12)
    npt.assert_allclose(tail(TLocScale(3.0, 1.0), 10.0).value,
                        stats.t(3).sf(10.0), rtol=1e-12)
    npt.assert_allclose(tail(GenChi2(2.0, 1.0), 2.0).value,
                        np.exp(-1.0), rtol=1e-12)


def test_tail_asymptotic_branch_for_general_stable():
    # power-law constant Gamma(alpha) sin(pi alpha / 2) / pi
    r = tail(AlphaStable(1.5, 1.0), 50.0)
    assert r.asymptotic
    c = special.gamma(1.5) * np.sin(0.75 * np.pi) / np.pi
    npt.assert_allclose(r.value, c * 50.0**-1.5, rtol=1e-12)
    # scale enters through sigma^alpha
    r2 = tail(AlphaStable(1.5, 2.0), 50.0)
    npt.assert_allclose(r2.value, r.value * 2.0**1.5, rtol=1e-12)
    with pytest.raises(ConfigError):
        tail(AlphaStable(1.5, 1.0), 0.0)
    with pytest.raises(ConfigError):
        tail(AlphaStable(1.5, 1.0), -2.0)


def test_tail_plus_cdf_is_one_for_exact_families():
    xs = np.array([0.1, 0.5, 1.0, 3.0, 10.0])
    for spec in (AlphaStable(2.0, 1.0), AlphaStable(1.0, 1.0),
                 SymPareto(3.0, 1.5), TLocScale(4.0, 0.8), GenChi2(2.5, 1.1)):
        for x in xs:
            r = tail(spec, float(x))
            assert not r.asymptotic
            npt.assert_allclose(r.value + cdf(spec, np.array([x]))[0], 1.0,
                                rtol=0, atol=1e-8)
    # the symmetric laws' tail is their CDF at -x, bit for bit
    grid = np.concatenate([np.linspace(-60.0, 60.0, 2001),
                           [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf]])
    for spec in (AlphaStable(2.0, 1.0), AlphaStable(1.0, 2.5),
                 SymPareto(3.0, 1.5), TLocScale(4.0, 0.8)):
        npt.assert_array_equal(tail(spec, grid).value, cdf(spec, -grid))
        assert tail(spec, -0.0).value == cdf(spec, 0.0)


def test_tail_is_nonincreasing():
    xs = np.linspace(0.2, 40.0, 60)
    for spec in (AlphaStable(1.5, 1.0), SymPareto(2.0, 1.0),
                 TLocScale(3.0, 1.0), GenChi2(2.0, 1.0)):
        vals = np.array([tail(spec, float(x)).value for x in xs])
        assert np.all(np.diff(vals) <= 1e-15)


def test_tail_heaviness_ordering_within_families():
    # at x=50 with unit scales, a smaller tail index means a heavier tail
    assert (tail(AlphaStable(1.5, 1.0), 50.0).value
            > tail(AlphaStable(1.9, 1.0), 50.0).value
            > tail(AlphaStable(2.0, 1.0), 50.0).value)
    assert (tail(SymPareto(1.5, 1.0), 50.0).value
            > tail(SymPareto(3.0, 1.0), 50.0).value
            > tail(SymPareto(6.0, 1.0), 50.0).value)
    assert (tail(TLocScale(1.5, 1.0), 50.0).value
            > tail(TLocScale(3.0, 1.0), 50.0).value
            > tail(TLocScale(6.0, 1.0), 50.0).value)


def test_tail_ordering_among_index_15_families_at_50():
    # with unit scale and common tail index 1.5, the double-sided Pareto
    # dominates the t, which dominates the stable asymptote at x=50
    s = tail(AlphaStable(1.5, 1.0), 50.0).value
    p = tail(SymPareto(1.5, 1.0), 50.0).value
    t = tail(TLocScale(1.5, 1.0), 50.0).value
    assert p > t > s


# ------------------------------------------------------------------ sampling

def test_sample_seed_forms_agree():
    spec = SymPareto(3.0, 1.0)
    a = sample(spec, 50, 42)
    b = sample(spec, 50, np.random.default_rng(42))
    npt.assert_array_equal(a, b)
    c = sample(spec, 50, 43)
    assert not np.array_equal(a, c)


def test_gaussian_stable_sample_moments():
    x = sample(AlphaStable(2.0, 1.0), 100_000, 3)
    assert abs(float(np.mean(x))) <= 0.02
    assert abs(float(np.var(x)) - 2.0) <= 0.05


def test_sampler_matches_law_across_families():
    # sqrt(n) D < 1.63 is the 1% point of the Kolmogorov law
    specs = [AlphaStable(2.0, 1.0), AlphaStable(1.0, 1.0),
             SymPareto(3.0, 1.0), TLocScale(3.0, 1.0), GenChi2(2.0, 1.0)]
    n = 2000
    for spec in specs:
        npass = 0
        for seed in range(20):
            d = ks_stat(sample(spec, n, seed), spec)
            if np.sqrt(n) * d < 1.63:
                npass += 1
        assert npass >= 18, f"{spec} failed {20 - npass}/20 KS checks"


def test_heavy_stable_sample_has_heavy_tail():
    # empirical exceedance of |x| at 20 should be near the asymptote
    x = sample(AlphaStable(1.5, 1.0), 400_000, 11)
    emp = float(np.mean(np.abs(x) > 20.0))
    asym = 2.0 * tail(AlphaStable(1.5, 1.0), 20.0).value
    npt.assert_allclose(emp, asym, rtol=0.15)


def test_sample_count_validation():
    with pytest.raises(ConfigError):
        sample(SymPareto(3.0, 1.0), 0, 1)


# ------------------------------------------------------------ moment fitting

def test_fit_gen_chi2_recovers_parameters():
    true = GenChi2(2.5, 1.3)
    x = sample(true, 200_000, 7)
    est = fit_gen_chi2(x)
    npt.assert_allclose(est.theta, true.theta, rtol=0.05)
    npt.assert_allclose(est.beta, true.beta, rtol=0.05)


def test_fit_gen_chi2_moment_identities():
    # method of moments: fitted mean and variance equal the sample's
    x = sample(GenChi2(1.5, 2.0), 5000, 9)
    est = fit_gen_chi2(x)
    npt.assert_allclose(est.mean(), float(np.mean(x)), rtol=1e-10)
    npt.assert_allclose(est.variance(), float(np.var(x, ddof=1)), rtol=1e-10)


def test_fit_gen_chi2_analytic_inversion():
    # ten points at 2 +/- sqrt(3.6) have mean 2 and sample variance exactly 4,
    # which the moment formulas invert to theta=2, beta=1
    d = np.sqrt(3.6)
    x = np.array([2.0 - d] * 5 + [2.0 + d] * 5)
    est = fit_gen_chi2(x)
    npt.assert_allclose(est.theta, 2.0, rtol=1e-12)
    npt.assert_allclose(est.beta, 1.0, rtol=1e-12)


def test_fit_gen_chi2_rejects_bad_samples():
    with pytest.raises(DataError):
        fit_gen_chi2(np.array([1.0, 2.0, 3.0]))          # too short
    with pytest.raises(DataError):
        fit_gen_chi2(np.linspace(-1.0, 5.0, 50))         # negative values
    with pytest.raises(DataError):
        fit_gen_chi2(np.full(50, 2.0))                   # zero variance
    bad = np.linspace(0.1, 5.0, 50)
    bad[3] = np.nan
    with pytest.raises(DataError):
        fit_gen_chi2(bad)


def test_gen_chi2_from_gaussian_moments():
    # equal variances, no covariance: theta=2, beta=s
    est = gen_chi2_from_gaussian(GaussianTfrParams(3.0, 3.0, 0.0))
    npt.assert_allclose((est.theta, est.beta), (2.0, 3.0), rtol=1e-12)
    # full covariance collapses the effective dof
    est = gen_chi2_from_gaussian(GaussianTfrParams(1.0, 1.0, 1.0))
    npt.assert_allclose((est.theta, est.beta), (1.0, 1.0), rtol=1e-12)


def test_gaussian_tfr_params_validation():
    with pytest.raises(ConfigError):
        GaussianTfrParams(0.0, 1.0, 0.0)     # nonpositive variance
    with pytest.raises(ConfigError):
        GaussianTfrParams(1.0, -0.5, 0.0)    # negative variance
    with pytest.raises(ConfigError):
        GaussianTfrParams(2.0, 0.0, 0.1)     # violates |cov| <= sqrt(vr*vi)


def test_gen_chi2_from_gaussian_matches_simulation():
    # squared magnitude of a complex Gaussian with equal independent parts,
    # the regime the closed-form parameter map is built for
    rng = np.random.default_rng(5)
    s = 1.5
    z = (np.sqrt(s) * rng.standard_normal(200_000))**2 \
        + (np.sqrt(s) * rng.standard_normal(200_000))**2
    law = gen_chi2_from_gaussian(GaussianTfrParams(s, s, 0.0))
    npt.assert_allclose(float(np.mean(z)), law.mean(), rtol=0.02)
    npt.assert_allclose(float(np.var(z)), law.variance(), rtol=0.03)
