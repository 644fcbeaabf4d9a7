"""Signal loading: CSV (one value per line) and WAV (PCM int or float).

Loaded signals are validated immediately: NaN or Inf anywhere is a data
error reported with the offending line (CSV) or sample index (WAV). WAV
integer samples are scaled to [-1, 1); multi-channel files use the first
channel. CSV files carry no sample rate, so one must be supplied (the
package default is 25 kHz).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, DataError
from .tfr import DEFAULT_SAMPLE_RATE_HZ


@dataclass(frozen=True)
class Signal:
    """A finite 1-D signal with its sample rate."""

    values: np.ndarray
    sample_rate_hz: float
    source: str | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise DataError(f"signal must be a nonempty 1-D array, got shape {v.shape}")
        bad = np.flatnonzero(~np.isfinite(v))
        if len(bad):
            where = f"{self.source}:" if self.source else "signal contains"
            raise DataError(
                f"{where} NaN/Inf at sample index {int(bad[0])} "
                f"({len(bad)} bad values total)"
            )
        fs = float(self.sample_rate_hz)
        if not np.isfinite(fs) or fs <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {fs!r}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "sample_rate_hz", fs)


def _load_csv(path: str, sample_rate_hz: float | None) -> Signal:
    # One pass at C level over the same lines the loop in _parse_lines reads.
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = np.fromiter(map(float, filter(str.strip, fh)), dtype=float)
        except ValueError:
            values = None
    if values is None or not np.isfinite(values).all():
        values = _parse_lines(path)  # names the first bad line
    if not len(values):
        raise DataError(f"{path}: no samples found")
    fs = DEFAULT_SAMPLE_RATE_HZ if sample_rate_hz is None else float(sample_rate_hz)
    return Signal(values=values, sample_rate_hz=fs, source=path)


def _parse_lines(path: str) -> np.ndarray:
    """One value per nonblank line; a DataError names the first line that
    is not a finite number."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                x = float(text)
            except ValueError as exc:
                raise DataError(
                    f"{path}: line {lineno}: not a number: {text!r}"
                ) from exc
            if not math.isfinite(x):
                raise DataError(f"{path}: line {lineno}: NaN/Inf value {text!r}")
            values.append(x)
    return np.asarray(values)


_INT_SCALE = {np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}


def _load_wav(path: str, sample_rate_hz: float | None) -> Signal:
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:  # struct: a header cut short
        raise DataError(f"{path}: unreadable WAV file: {exc}") from exc
    if sample_rate_hz is not None and float(sample_rate_hz) != float(rate):
        raise ConfigError(
            f"{path}: header sample rate {rate} Hz conflicts with requested "
            f"{sample_rate_hz} Hz"
        )
    if data.ndim == 2:
        data = data[:, 0]  # first channel
    if data.dtype in _INT_SCALE:
        values = data.astype(np.float64) / _INT_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        values = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        values = data.astype(np.float64)
    else:
        raise DataError(f"{path}: unsupported WAV sample format {data.dtype}")
    return Signal(values=values, sample_rate_hz=float(rate), source=path)


def load_signal(path: str, sample_rate_hz: float | None = None) -> Signal:
    """Load a signal from .csv/.txt (one value per line) or .wav."""
    lower = path.lower()
    try:
        if lower.endswith((".csv", ".txt")):
            return _load_csv(path, sample_rate_hz)
        if lower.endswith(".wav"):
            return _load_wav(path, sample_rate_hz)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    raise ConfigError(f"unsupported input format: {path} (use .csv, .txt, or .wav)")
