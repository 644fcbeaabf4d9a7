"""Spectrogram computation: Kaiser window, frame-based STFT, power, bins.

Frames start at i*hop with hop = window_length - overlap and cover
[i*hop, i*hop + window_length); a trailing partial frame is dropped. Each
frame is windowed, zero-padded to nfft, and transformed; only the one-sided
bins k = 0..nfft/2 at frequencies k*fs/nfft are kept. Power is the squared
magnitude of the coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigError, DataError

DEFAULT_SAMPLE_RATE_HZ = 25000.0


@functools.lru_cache(maxsize=16)
def kaiser_window(length: int, beta: float) -> np.ndarray:
    """Kaiser window of the given length; beta=0 gives a rectangular window.

    The second half mirrors the first exactly, so reversal is bit-identical.
    Memoized: every call with the same arguments returns one shared,
    read-only array.
    """
    length = int(length)
    if length < 1:
        raise ConfigError(f"window length must be >= 1, got {length}")
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0:
        raise ConfigError(f"kaiser beta must be >= 0, got {beta!r}")
    if length == 1:
        w = np.ones(1)
    else:
        half = (length + 1) // 2
        m = np.arange(half)
        r = 2.0 * m / (length - 1) - 1.0
        w_half = special.i0(beta * np.sqrt(1.0 - r * r)) / special.i0(beta)
        w = np.empty(length)
        w[:half] = w_half
        w[length - half:] = w_half[::-1]
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class SpectrogramConfig:
    """Windowing and transform parameters; requires
    0 <= overlap < window_length <= nfft."""

    window_length: int = 500
    kaiser_beta: float = 5.0
    overlap: int = 474
    nfft: int = 512
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self):
        L, ov, nfft = int(self.window_length), int(self.overlap), int(self.nfft)
        fs = float(self.sample_rate_hz)
        if L < 1:
            raise ConfigError(f"window_length must be >= 1, got {L}")
        if not 0 <= ov < L:
            raise ConfigError(
                f"overlap must satisfy 0 <= overlap < window_length, got {ov} vs {L}"
            )
        if nfft < L:
            raise ConfigError(f"nfft must be >= window_length, got {nfft} < {L}")
        if not np.isfinite(fs) or fs <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {fs!r}")
        beta = float(self.kaiser_beta)
        if not np.isfinite(beta) or beta < 0:
            raise ConfigError(f"kaiser_beta must be >= 0, got {beta!r}")
        object.__setattr__(self, "window_length", L)
        object.__setattr__(self, "overlap", ov)
        object.__setattr__(self, "nfft", nfft)
        object.__setattr__(self, "sample_rate_hz", fs)
        object.__setattr__(self, "kaiser_beta", beta)

    @property
    def hop(self) -> int:
        return self.window_length - self.overlap


def _frames(x: np.ndarray, cfg: SpectrogramConfig) -> np.ndarray:
    L, hop = cfg.window_length, cfg.hop
    if len(x) < L:
        raise DataError(
            f"signal of length {len(x)} is shorter than one window ({L})"
        )
    view = np.lib.stride_tricks.sliding_window_view(x, L)[::hop]
    return view


def stft(values, cfg: SpectrogramConfig) -> np.ndarray:
    """Complex STFT coefficients, shape (n_frames, nfft//2 + 1)."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise DataError(f"expected a 1-D signal, got shape {x.shape}")
    w = kaiser_window(cfg.window_length, cfg.kaiser_beta)
    return np.fft.rfft(_frames(x, cfg) * w, n=cfg.nfft, axis=1)


@dataclass(frozen=True)
class Spectrogram:
    """Power spectrogram: values[frame, bin], bin frequencies in Hz, and
    frame-center times in seconds."""

    values: np.ndarray
    freqs_hz: np.ndarray
    times_s: np.ndarray
    config: SpectrogramConfig

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def bin_freqs(cfg: SpectrogramConfig) -> np.ndarray:
    """Center frequencies in Hz of the one-sided bins k = 0..nfft/2."""
    return np.arange(cfg.nfft // 2 + 1) * (cfg.sample_rate_hz / cfg.nfft)


def spectrogram(values, cfg: SpectrogramConfig) -> Spectrogram:
    """Squared-magnitude STFT with one-sided frequency axis."""
    coeffs = stft(values, cfg)
    power = np.abs(coeffs) ** 2
    freqs = bin_freqs(cfg)
    n_frames = power.shape[0]
    centers = (np.arange(n_frames) * cfg.hop + (cfg.window_length - 1) / 2.0)
    times = centers / cfg.sample_rate_hz
    return Spectrogram(values=power, freqs_hz=freqs, times_s=times, config=cfg)


def sub_signal(spec: Spectrogram, freq_hz: float) -> tuple[np.ndarray, float]:
    """Power time series of the bin nearest freq_hz, plus that bin's exact
    center frequency. Ties between neighbors resolve to the lower bin."""
    f = float(freq_hz)
    freqs = spec.freqs_hz
    if not np.isfinite(f) or f < 0 or f > freqs[-1]:
        raise ConfigError(
            f"frequency {f!r} Hz outside the axis [0, {freqs[-1]}] Hz"
        )
    idx = int(np.argmin(np.abs(freqs - f)))
    return spec.values[:, idx], float(freqs[idx])
