"""Spectrogram machinery tests: Kaiser window against scipy, short-time
transform against a direct windowed-DFT oracle, frame geometry, and
sub-signal extraction."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import signal as sps
from scipy import special

from tailprobe import (
    ConfigError,
    DataError,
    SpectrogramConfig,
    kaiser_window,
    spectrogram,
    stft,
    sub_signal,
)


# ------------------------------------------------------------------- window

def test_kaiser_beta_zero_is_rectangular():
    npt.assert_array_equal(kaiser_window(5, 0.0), np.ones(5))
    npt.assert_array_equal(kaiser_window(8, 0.0), np.ones(8))


def test_kaiser_length_one():
    npt.assert_array_equal(kaiser_window(1, 5.0), np.array([1.0]))


def test_kaiser_symmetry_is_bit_exact():
    for length in (9, 10, 500, 501):
        w = kaiser_window(length, 5.0)
        npt.assert_array_equal(w, w[::-1])


def test_kaiser_center_and_endpoints():
    w = kaiser_window(9, 5.0)
    assert w[4] == 1.0  # odd length peaks at exactly 1
    npt.assert_allclose(w[0], 1.0 / special.i0(5.0), rtol=1e-12)
    npt.assert_allclose(w[-1], 1.0 / special.i0(5.0), rtol=1e-12)
    assert np.all(w > 0.0) and np.all(w <= 1.0)


def test_kaiser_matches_scipy():
    for length, beta in ((64, 5.0), (65, 8.6), (500, 5.0), (7, 2.0)):
        npt.assert_allclose(kaiser_window(length, beta),
                            sps.windows.kaiser(length, beta, sym=True),
                            rtol=1e-12, atol=1e-15)


def test_kaiser_validation():
    with pytest.raises(ConfigError):
        kaiser_window(0, 5.0)
    with pytest.raises(ConfigError):
        kaiser_window(5, -1.0)


# ------------------------------------------------------------------- config

def test_spectrogram_config_validation():
    with pytest.raises(ConfigError):
        SpectrogramConfig(window_length=0)
    with pytest.raises(ConfigError):
        SpectrogramConfig(window_length=10, overlap=10, nfft=16)
    with pytest.raises(ConfigError):
        SpectrogramConfig(window_length=10, overlap=-1, nfft=16)
    with pytest.raises(ConfigError):
        SpectrogramConfig(window_length=32, overlap=0, nfft=16)
    with pytest.raises(ConfigError):
        SpectrogramConfig(sample_rate_hz=0.0)
    with pytest.raises(ConfigError):
        SpectrogramConfig(kaiser_beta=-0.5)


def test_hop():
    assert SpectrogramConfig().hop == 26
    assert SpectrogramConfig(window_length=10, overlap=0, nfft=16).hop == 10


# ----------------------------------------------------------------- the stft

def brute_stft(x, cfg):
    """Direct evaluation of the framed windowed DFT definition."""
    w = kaiser_window(cfg.window_length, cfg.kaiser_beta)
    hop = cfg.window_length - cfg.overlap
    n_frames = (len(x) - cfg.window_length) // hop + 1
    n_bins = cfg.nfft // 2 + 1
    out = np.zeros((n_frames, n_bins), dtype=complex)
    for i in range(n_frames):
        for k in range(n_bins):
            acc = 0.0 + 0.0j
            for m in range(cfg.window_length):
                acc += (x[i * hop + m] * w[m]
                        * np.exp(-2j * np.pi * k * m / cfg.nfft))
            out[i, k] = acc
    return out


def test_stft_matches_direct_dft():
    rng = np.random.default_rng(5)
    for L, ov, nfft, beta in ((16, 9, 16, 5.0), (8, 0, 8, 0.0), (12, 6, 16, 3.0)):
        cfg = SpectrogramConfig(window_length=L, kaiser_beta=beta,
                                overlap=ov, nfft=nfft, sample_rate_hz=64.0)
        x = rng.standard_normal(64)
        got = stft(x, cfg)
        want = brute_stft(x, cfg)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) / scale < 1e-10


def test_stft_linearity():
    cfg = SpectrogramConfig(window_length=16, kaiser_beta=5.0, overlap=8,
                            nfft=16, sample_rate_hz=64.0)
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal(64), rng.standard_normal(64)
    lhs = stft(2.0 * x - 3.0 * y, cfg)
    rhs = 2.0 * stft(x, cfg) - 3.0 * stft(y, cfg)
    npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_stft_impulse_and_constant():
    cfg = SpectrogramConfig(window_length=4, kaiser_beta=0.0, overlap=0,
                            nfft=4, sample_rate_hz=8.0)
    imp = np.zeros(4)
    imp[0] = 1.0
    # an impulse at the frame start has unit response in every bin
    npt.assert_allclose(stft(imp, cfg), np.ones((1, 3), dtype=complex),
                        rtol=0, atol=1e-12)
    # a constant concentrates all energy in bin zero
    spec = spectrogram(np.ones(4), cfg)
    npt.assert_allclose(spec.values, [[16.0, 0.0, 0.0]], rtol=0, atol=1e-12)


def test_stft_rejects_short_or_multidim_input():
    cfg = SpectrogramConfig()
    with pytest.raises(DataError):
        stft(np.ones(499), cfg)
    with pytest.raises(DataError):
        stft(np.ones((100, 2)), cfg)


# ----------------------------------------------------------- frame geometry

def test_default_frame_geometry():
    x = np.random.default_rng(0).standard_normal(10_000)
    spec = spectrogram(x, SpectrogramConfig())
    assert spec.values.shape == (366, 257)
    assert spec.n_frames == 366
    npt.assert_allclose(spec.freqs_hz, np.arange(257) * 25_000.0 / 512.0)
    # frame times are window centers
    npt.assert_allclose(spec.times_s,
                        (np.arange(366) * 26 + (500 - 1) / 2.0) / 25_000.0)


def test_trailing_partial_frame_is_dropped():
    cfg = SpectrogramConfig(window_length=10, overlap=5, nfft=16,
                            sample_rate_hz=100.0)
    # frames start at 0, 5, 10, ...; the last one needs 10 full samples
    assert spectrogram(np.ones(24), cfg).n_frames == 3
    assert spectrogram(np.ones(25), cfg).n_frames == 4


def test_spectrogram_is_squared_magnitude():
    cfg = SpectrogramConfig(window_length=16, kaiser_beta=5.0, overlap=8,
                            nfft=16, sample_rate_hz=64.0)
    x = np.random.default_rng(1).standard_normal(64)
    spec = spectrogram(x, cfg)
    npt.assert_allclose(spec.values, np.abs(stft(x, cfg))**2, rtol=1e-12)
    assert np.all(spec.values >= 0.0)


# ------------------------------------------------------------- sub-signals

def test_sub_signal_exact_and_nearest():
    cfg = SpectrogramConfig()
    x = np.random.default_rng(6).standard_normal(3000)
    spec = spectrogram(x, cfg)
    col, fc = sub_signal(spec, float(spec.freqs_hz[10]))
    assert fc == spec.freqs_hz[10]
    npt.assert_array_equal(col, spec.values[:, 10])
    # slightly above bin 10 still snaps to the nearest center
    col2, fc2 = sub_signal(spec, float(spec.freqs_hz[10]) + 1.0)
    assert fc2 == spec.freqs_hz[10]
    npt.assert_array_equal(col2, col)


def test_sub_signal_tie_prefers_lower_bin():
    cfg = SpectrogramConfig()
    spec = spectrogram(np.random.default_rng(6).standard_normal(3000), cfg)
    midpoint = 0.5 * (spec.freqs_hz[10] + spec.freqs_hz[11])
    _, fc = sub_signal(spec, float(midpoint))
    assert fc == spec.freqs_hz[10]


def test_sub_signal_out_of_range():
    cfg = SpectrogramConfig()
    spec = spectrogram(np.random.default_rng(6).standard_normal(3000), cfg)
    with pytest.raises(ConfigError):
        sub_signal(spec, -1.0)
    with pytest.raises(ConfigError):
        sub_signal(spec, 13_000.0)  # above Nyquist 12.5 kHz
