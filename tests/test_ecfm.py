"""Cumulative fourth-moment trace tests: hand-computed examples, the robust
scale estimator, Gaussian plateau behavior, and heavy-tail jump behavior."""

import numpy as np
import numpy.testing as npt
import pytest

from tailprobe import (
    AlphaStable,
    ConfigError,
    DataError,
    SymPareto,
    TLocScale,
    cond_std,
    ecfm,
    normalize,
    sample,
)


# ------------------------------------------------------------ robust scale

def test_cond_std_uniform_grid_oracle():
    # for 1000 evenly spaced points on [0, 1] the 10-90 band keeps the
    # points i/999 for i = 100..899; their sample std has a closed form
    v = np.linspace(0.0, 1.0, 1000)
    ints = np.arange(100, 900, dtype=float)
    want = float(np.std(ints, ddof=1)) / 999.0
    npt.assert_allclose(cond_std(v), want, rtol=1e-12)
    npt.assert_allclose(cond_std(v), 0.2311, rtol=0, atol=5e-4)


def test_cond_std_small_example():
    # 1..10: the 10% and 90% points sit at 1.5 and 9.5, keeping 2..9
    v = np.arange(1.0, 11.0)
    npt.assert_allclose(cond_std(v), np.std(np.arange(2.0, 10.0), ddof=1),
                        rtol=1e-12)


def test_cond_std_band_is_inclusive():
    # quantile values that land exactly on sample points stay in the band
    v = np.arange(1.0, 11.0)
    npt.assert_allclose(cond_std(v, 0.15, 0.85),
                        np.std(np.arange(2.0, 10.0), ddof=1), rtol=1e-12)


def test_cond_std_is_outlier_resistant():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5000)
    y = x.copy()
    y[:10] = 1e6
    assert abs(cond_std(y) - cond_std(x)) < 0.05 * cond_std(x)


def test_cond_std_of_equal_band_values_is_exactly_zero():
    # the mean of equal values can round off them (0.1 * 60 here); the
    # band's std must still be 0, so normalize rejects the series
    for v in (0.1, 0.3, 2.7):
        assert cond_std(np.full(60, v)) == 0.0
        with pytest.raises(DataError):
            normalize(np.full(60, v))
    spiked = np.full(60, 0.3)
    spiked[7] = 9.0  # the 10-90% band holds only the 0.3s
    assert cond_std(spiked) == 0.0
    # distinct values on both sides of a band that holds only the 0.1s
    flanked = np.concatenate([np.linspace(0.01, 0.05, 4), np.full(52, 0.1),
                              np.linspace(1.0, 2.0, 4)])
    assert cond_std(flanked) == 0.0


def test_cond_std_validation():
    with pytest.raises(ConfigError):
        cond_std(np.arange(10.0), 0.9, 0.1)
    with pytest.raises(DataError):
        cond_std(np.array([1.0]))


def test_normalize_median_center():
    v = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    z = normalize(v)
    med = np.median(v)
    npt.assert_allclose(z, (v - med) / cond_std(v), rtol=1e-12)


def test_normalize_mean_center_and_errors():
    with pytest.raises(DataError):
        normalize(np.full(100, 3.0))


# ----------------------------------------------------------- the trace

def test_ecfm_alternating_unit_values():
    tr = ecfm(np.array([1.0, -1.0, 1.0, -1.0]))
    npt.assert_array_equal(tr.values, np.ones(4))
    npt.assert_array_equal(tr.increments, np.zeros(3))


def test_ecfm_hand_computed():
    # x = [0,0,0,2]: mean 0.5, fourth powers of deviations [.0625]*3 + [5.0625]
    tr = ecfm(np.array([0.0, 0.0, 0.0, 2.0]))
    npt.assert_allclose(tr.values, [0.0625, 0.0625, 0.0625, 1.3125], rtol=1e-12)
    npt.assert_allclose(tr.increments, [0.0, 0.0, 1.25], rtol=1e-12)


def test_ecfm_uses_full_sample_mean():
    # the running statistic centers on the full-sample mean, so the final
    # value is invariant under permutation
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500)
    a = ecfm(x).values[-1]
    b = ecfm(rng.permutation(x)).values[-1]
    npt.assert_allclose(a, b, rtol=1e-12)


def test_ecfm_validation():
    with pytest.raises(DataError):
        ecfm(np.array([1.0]))
    with pytest.raises(DataError):
        ecfm(np.ones((4, 2)))


def test_gaussian_trace_settles_near_three():
    # unit-variance input: the fourth central moment of a Gaussian is 3
    x = np.random.default_rng(3).standard_normal(100_000)
    c_final = ecfm(x).values[-1]
    assert abs(c_final - 3.0) <= 0.1


# ----------------------------------------- plateau vs jump discrimination

def _max_last_half_rel_dev(x):
    tr = ecfm(x)
    half = tr.values[len(x) // 2:]
    return float(np.max(np.abs(half - tr.values[-1])) / tr.values[-1])


def test_gaussian_trace_plateaus():
    # the last half of the trace stays within 20% of its final value
    devs = [_max_last_half_rel_dev(
        np.random.default_rng(7000 + i).standard_normal(10_000))
        for i in range(40)]
    assert np.mean(np.array(devs) < 0.2) >= 0.95


def test_finite_fourth_moment_traces_settle_heavy_tails_jump():
    # the fourth-power series has slowly decaying fluctuations even for
    # finite-variance laws, so compare median stability levels: the
    # finite-fourth-moment trio stays well below the infinite-variance case
    n, seeds = 10_000, range(40)
    med = {}
    fams = {
        "gauss": lambda r: r.standard_normal(n),
        "pareto6": lambda r: sample(SymPareto(6.0, 1.0), n, r),
        "t6": lambda r: sample(TLocScale(6.0, 1.0), n, r),
        "stable15": lambda r: sample(AlphaStable(1.5, 1.0), n, r),
    }
    for name, draw in fams.items():
        devs = [_max_last_half_rel_dev(draw(np.random.default_rng(7000 + i)))
                for i in seeds]
        med[name] = float(np.median(devs))
    assert med["gauss"] < 0.35
    assert med["pareto6"] < 0.35
    assert med["t6"] < 0.35
    assert med["stable15"] > 0.6


def test_infinite_variance_trace_has_dominant_jumps():
    # one increment dwarfs the median increment for stable noise
    hits = 0
    for i in range(40):
        x = sample(AlphaStable(1.5, 1.0), 10_000, np.random.default_rng(8000 + i))
        d = ecfm(x).increments
        if np.max(d) > 10.0 * np.median(np.abs(d)):
            hits += 1
    assert hits >= 38
