"""Signal loading tests: CSV parsing with line-accurate errors, WAV formats
including a hand-built 24-bit file, and validation of the Signal container."""

import struct

import numpy as np
import numpy.testing as npt
import pytest
from scipy.io import wavfile

from tailprobe import ConfigError, DataError, Signal, load_signal


# ---------------------------------------------------------------- container

def test_signal_validation():
    with pytest.raises(DataError):
        Signal(values=np.array([]), sample_rate_hz=100.0)
    with pytest.raises(DataError):
        Signal(values=np.ones((5, 2)), sample_rate_hz=100.0)
    with pytest.raises(ConfigError):
        Signal(values=np.ones(5), sample_rate_hz=0.0)
    bad = np.ones(10)
    bad[3] = np.nan
    with pytest.raises(DataError, match="index 3"):
        Signal(values=bad, sample_rate_hz=100.0)


# --------------------------------------------------------------------- CSV

def test_csv_roundtrip(tmp_path):
    p = tmp_path / "sig.csv"
    vals = [1.5, -2.25, 0.0, 3e-4]
    p.write_text("".join(f"{v}\n" for v in vals))
    sig = load_signal(str(p))
    npt.assert_array_equal(sig.values, vals)
    assert sig.sample_rate_hz == 25_000.0  # default rate
    assert sig.source == str(p)


def test_csv_explicit_rate_and_blank_lines(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text("1.0\n\n2.0\n   \n3.0\n")
    sig = load_signal(str(p), sample_rate_hz=8000.0)
    npt.assert_array_equal(sig.values, [1.0, 2.0, 3.0])
    assert sig.sample_rate_hz == 8000.0


def test_csv_bad_line_is_reported_with_number(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("1.0\n2.0\nbogus\n4.0\n")
    with pytest.raises(DataError, match="line 3"):
        load_signal(str(p))


def test_csv_nan_line_rejected(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("1.0\nnan\n")
    with pytest.raises(DataError, match="line 2"):
        load_signal(str(p))


def test_csv_empty_rejected(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("\n\n")
    with pytest.raises(DataError, match="no samples"):
        load_signal(str(p))


def _line_loop(path):
    """The reference reader: float() on each stripped line of the file."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                x = float(text)
            except ValueError:
                return f"{path}: line {lineno}: not a number: {text!r}"
            if not np.isfinite(x):
                return f"{path}: line {lineno}: NaN/Inf value {text!r}"
            values.append(x)
    return values or f"{path}: no samples found"


@pytest.mark.parametrize(
    "content",
    [
        "1.0\r\n-2.5\r\n3e-4\r\n",      # CRLF
        "1.0\r-2.5\r",                  # lone CR
        "1\n\n2\n\n\n",                 # blank lines, in the middle and at the end
        "1\n \t\n2\n  \n",              # blank lines of spaces and tabs
        " 1.5\t\n\t-2 \n  7\n",         # values padded with spaces and tabs
        "1_000\n2\n",                   # float() accepts underscores
        "1\n\x0c\n2\n",                 # a form feed alone is a blank line
        "1.0\nnan\n3\n",                # NaN on line 2
        "1.0\n\n-inf\n",                # -inf on line 3
        # Separators inside a line, where str.splitlines would split the
        # line in two and accept both halves: line 2 is not a number.
        "1.0\n2.0\x0c3.0\n",            # form feed
        "1.0\n2.0\u20283.0\n",          # U+2028 line separator
        "1.0\n2.0\x853.0\n",            # U+0085 next line
        "1.0\n2.0 3.0\n",               # two values on one line
        "1.0\n\nbogus\n",               # a word on line 3
        "\r\n\r\n",                     # no samples
        "",
    ],
)
def test_csv_fast_path_matches_the_line_loop(tmp_path, content):
    p = tmp_path / "sig.csv"
    p.write_bytes(content.encode("utf-8"))
    expected = _line_loop(str(p))
    if isinstance(expected, str):
        with pytest.raises(DataError) as err:
            load_signal(str(p))
        assert str(err.value) == expected
    else:
        npt.assert_array_equal(load_signal(str(p)).values, expected)


# --------------------------------------------------------------------- WAV

def test_wav_int16(tmp_path):
    p = tmp_path / "s16.wav"
    data = np.array([0, 16384, -32768, 32767], dtype=np.int16)
    wavfile.write(str(p), 8000, data)
    sig = load_signal(str(p))
    assert sig.sample_rate_hz == 8000.0
    npt.assert_allclose(sig.values,
                        [0.0, 0.5, -1.0, 32767.0 / 32768.0], rtol=1e-12)


def test_wav_int32(tmp_path):
    p = tmp_path / "s32.wav"
    data = np.array([0, 2**30, -(2**31)], dtype=np.int32)
    wavfile.write(str(p), 16000, data)
    sig = load_signal(str(p))
    npt.assert_allclose(sig.values, [0.0, 0.5, -1.0], rtol=1e-12)


def test_wav_uint8(tmp_path):
    p = tmp_path / "u8.wav"
    data = np.array([128, 255, 0, 192], dtype=np.uint8)
    wavfile.write(str(p), 8000, data)
    sig = load_signal(str(p))
    npt.assert_allclose(sig.values, [0.0, 127.0 / 128.0, -1.0, 0.5], rtol=1e-12)


def test_wav_float32_passthrough(tmp_path):
    p = tmp_path / "f32.wav"
    data = np.array([0.25, -0.75, 1.5], dtype=np.float32)
    wavfile.write(str(p), 44100, data)
    sig = load_signal(str(p))
    npt.assert_allclose(sig.values, data.astype(np.float64), rtol=1e-7)


def test_wav_stereo_takes_first_channel(tmp_path):
    p = tmp_path / "st.wav"
    left = np.array([100, 200, 300], dtype=np.int16)
    right = np.array([-1, -2, -3], dtype=np.int16)
    wavfile.write(str(p), 8000, np.column_stack([left, right]))
    sig = load_signal(str(p))
    npt.assert_allclose(sig.values, left / 32768.0, rtol=1e-12)


def _write_wav_24bit(path, rate, samples):
    """Minimal single-channel 24-bit PCM RIFF writer."""
    frames = b"".join(
        struct.pack("<i", int(s) << 8)[1:] for s in samples  # low 3 bytes LE
    )
    # packing s<<8 as int32 little-endian and dropping the first byte keeps
    # the sign bits of the 24-bit two's-complement value
    data_size = len(frames)
    hdr = b"RIFF" + struct.pack("<I", 36 + data_size) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24)
    hdr += b"data" + struct.pack("<I", data_size)
    with open(path, "wb") as fh:
        fh.write(hdr + frames)


def test_wav_24bit(tmp_path):
    p = tmp_path / "s24.wav"
    samples = [0, 2**23 - 1, -(2**23), 2**22]
    _write_wav_24bit(str(p), 8000, samples)
    sig = load_signal(str(p))
    # 24-bit values arrive left-justified in 32-bit words
    npt.assert_allclose(sig.values,
                        [0.0, (2**23 - 1) / 2.0**23, -1.0, 0.5], rtol=1e-12)


def test_wav_nan_rejected(tmp_path):
    p = tmp_path / "bad.wav"
    data = np.array([0.5, np.nan, 0.25], dtype=np.float32)
    wavfile.write(str(p), 8000, data)
    with pytest.raises(DataError, match="NaN/Inf"):
        load_signal(str(p))


def test_wav_rate_conflict(tmp_path):
    p = tmp_path / "s.wav"
    wavfile.write(str(p), 8000, np.zeros(10, dtype=np.int16) + 1)
    with pytest.raises(ConfigError, match="conflicts"):
        load_signal(str(p), sample_rate_hz=16_000.0)
    # matching explicit rate is fine
    assert load_signal(str(p), sample_rate_hz=8000.0).sample_rate_hz == 8000.0


def test_wav_garbage_rejected(tmp_path):
    p = tmp_path / "junk.wav"
    p.write_bytes(b"this is not a wav file at all")
    with pytest.raises(DataError):
        load_signal(str(p))


def test_wav_nan_error_names_the_file(tmp_path):
    p = tmp_path / "bad.wav"
    wavfile.write(str(p), 8000, np.array([0.5, 0.25, np.inf], dtype=np.float32))
    with pytest.raises(DataError, match=r"bad\.wav: NaN/Inf at sample index 2"):
        load_signal(str(p))


@pytest.mark.parametrize("cut", [6, 30])  # inside the RIFF header, the fmt chunk
def test_wav_cut_off_in_its_header_rejected(tmp_path, cut):
    whole, p = tmp_path / "whole.wav", tmp_path / "cut.wav"
    wavfile.write(str(whole), 8000, np.zeros(100, dtype=np.int16))
    p.write_bytes(whole.read_bytes()[:cut])
    with pytest.raises(DataError, match="unreadable WAV file"):
        load_signal(str(p))


def test_csv_not_utf8_rejected(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_bytes(b"1.0\n2.0\n\xff\n")
    with pytest.raises(DataError, match="cannot read"):
        load_signal(str(p))


# ------------------------------------------------------------------ routing

def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_signal(str(tmp_path / "absent.csv"))


def test_unsupported_suffix(tmp_path):
    p = tmp_path / "sig.dat"
    p.write_text("1.0\n")
    with pytest.raises(ConfigError, match="unsupported input format"):
        load_signal(str(p))
