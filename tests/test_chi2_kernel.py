"""The pruned per-bin KS kernel against the dense formula.

The reference sorts each column, evaluates the moment-fitted CDF at every
order statistic and takes the larger of the two KS terms' maxima. The
kernel evaluates the CDF only where the maximum can lie, so it must return
the same array bit for bit, NaNs of degenerate columns included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from tailprobe import SpectrogramConfig, default_scenarios, sample, spectrogram
from tailprobe.verdict import _bin_ks_stats, band_bin_indices


def dense_ks(power):
    """KS per column with the CDF evaluated at every order statistic."""
    nt, nb = power.shape
    m = power.mean(axis=0)
    v = power.var(axis=0, ddof=1)
    valid = (m > 0) & (v > 0)
    ks = np.full(nb, np.nan)
    if not np.any(valid):
        return ks
    theta = 2.0 * m[valid] ** 2 / v[valid]
    scale = v[valid] / m[valid]
    xs = np.sort(power[:, valid], axis=0)
    f = special.gammainc(theta[None, :] / 2.0, xs / scale[None, :])
    i = np.arange(1, nt + 1)[:, None]
    ks[valid] = np.maximum((f - (i - 1) / nt).max(axis=0), (i / nt - f).max(axis=0))
    return ks


def assert_matches_dense(power):
    got = _bin_ks_stats(power)
    want = dense_ks(power)
    assert np.array_equal(got, want, equal_nan=True), np.flatnonzero(got != want)


def band_power(x):
    spec = spectrogram(x, SpectrogramConfig())
    return spec.values[:, band_bin_indices(spec.freqs_hz, None)]


# ------------------------------------------------ pipeline inputs

@pytest.mark.parametrize("n", [10_000, 6_000])
def test_kernel_matches_dense_on_gaussian_null_spectrograms(n):
    for b in range(40):
        z = np.random.default_rng((n, b)).standard_normal(n)
        assert_matches_dense(band_power(z))


@pytest.mark.parametrize("scenario", default_scenarios(), ids=lambda s: s.name)
def test_kernel_matches_dense_on_scenario_spectrograms(scenario):
    assert_matches_dense(band_power(sample(scenario.spec, 10_000, np.random.default_rng(3))))


# ------------------------------------------------------- edge cases

@pytest.mark.parametrize("nt", [1, 2, 3, 4, 5, 8, 9])
def test_kernel_short_columns(nt):
    assert_matches_dense(np.random.default_rng(nt).gamma(2.0, size=(nt, 6)))


def test_kernel_edge_columns():
    rng = np.random.default_rng(8)
    nt = 61
    spike = rng.gamma(1.0, size=nt)
    spike[17] *= 1e12
    ties = rng.integers(0, 3, size=nt).astype(float)
    power = np.column_stack([
        rng.gamma(2.0, size=nt),
        np.full(nt, 3.0),   # constant: NaN
        np.zeros(nt),       # zeros: NaN
        ties,               # heavy ties, zeros at the front
        np.repeat([1.0, 5.0], [60, 1]),
        spike,
        rng.gamma(1.0, size=nt) * 1e160,  # moments overflow: NaN
        rng.standard_normal(nt),          # negative values: NaN CDF at the front
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_dense(power)
        ks = _bin_ks_stats(power)
    assert np.isnan(ks[1]) and np.isnan(ks[2])
    assert np.isfinite(ks[[0, 3, 4, 5]]).all()


# ----------------------------------------------------- drawn matrices

COLUMN_KINDS = ["gamma", "exponential", "pareto", "ties", "constant", "zeros",
                "spike", "normal"]


@st.composite
def matrices(draw):
    nt = draw(st.integers(1, 70))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-6, 6))
    columns = []
    for kind in kinds:
        if kind == "gamma":
            col = rng.gamma(draw(st.sampled_from([0.3, 1.0, 2.0, 20.0])), size=nt)
        elif kind == "exponential":
            col = rng.exponential(size=nt)
        elif kind == "pareto":
            col = rng.pareto(1.2, size=nt)
        elif kind == "ties":
            col = rng.integers(0, draw(st.integers(1, 4)), size=nt).astype(float)
        elif kind == "constant":
            col = np.full(nt, draw(st.floats(1e-3, 1e3)))
        elif kind == "zeros":
            col = np.zeros(nt)
        elif kind == "spike":
            col = rng.gamma(1.0, size=nt)
            col[rng.integers(nt)] *= 1e9
        else:
            col = rng.standard_normal(nt)
        columns.append(col * scale)
    return np.column_stack(columns)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(power=matrices())
def test_kernel_matches_dense_on_drawn_matrices(power):
    assert_matches_dense(power)
