"""The batched slope kernel against the per-column reference chain.

The reference is the public 1-D chain run one column at a time:
normalize -> ecfm -> detect_jumps -> segments_between_jumps ->
last_long_segment -> fit_slope, with DataError/ConfigError read as a
skipped column. Status codes must be identical. Slopes must agree to
rtol 1e-12; for slopes near zero the floor is 1e-12 of the slope that
moves the column's trace by its largest value over the whole column,
because the kernel's centred OLS and polyfit round differently.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailprobe import (
    ComputeError,
    ConfigError,
    DataError,
    SegmentationConfig,
    SpectrogramConfig,
    cond_std,
    default_scenarios,
    detect_jumps,
    ecfm,
    fit_slope,
    last_long_segment,
    normalize,
    sample,
    segments_between_jumps,
    slope_profile,
    spectrogram,
)
from tailprobe.verdict import (
    STATUS_FALLBACK,
    STATUS_OK,
    STATUS_SKIPPED,
    _last_segment_slopes,
    band_bin_indices,
)

RTOL = 1e-12


def reference(column, cfg):
    """(slope, status, max |trace|) of one column via the public chain."""
    try:
        trace = ecfm(normalize(column))
        n = len(trace.values)
        jumps = detect_jumps(trace.increments, cfg)
        segment, used_fallback = last_long_segment(
            segments_between_jumps(n, jumps), n, cfg
        )
        slope = fit_slope(trace.values, segment)
    except (DataError, ConfigError):
        return np.nan, STATUS_SKIPPED, 0.0
    status = STATUS_FALLBACK if used_fallback else STATUS_OK
    return slope, status, float(np.max(np.abs(trace.values)))


def assert_matches_reference(columns, cfg):
    slopes, status = _last_segment_slopes(columns, cfg)
    n, m = columns.shape
    assert slopes.shape == status.shape == (m,)
    for j in range(m):
        want, want_status, magnitude = reference(columns[:, j], cfg)
        assert status[j] == want_status, f"column {j}"
        if want_status == STATUS_SKIPPED:
            assert np.isnan(slopes[j]), f"column {j}"
        else:
            tol = RTOL * max(abs(want), magnitude / n)
            assert abs(slopes[j] - want) <= tol, f"column {j}: {slopes[j]!r} vs {want!r}"
    return status


# ------------------------------------------------ reference scenarios

@pytest.mark.parametrize("scenario", default_scenarios(), ids=lambda s: s.name)
def test_kernel_matches_reference_on_scenario_signals(scenario):
    x = sample(scenario.spec, 10_000, np.random.default_rng(3))
    spec = spectrogram(x, SpectrogramConfig())
    columns = spec.values[:, band_bin_indices(spec.freqs_hz, None)]
    cfg = SegmentationConfig()
    assert_matches_reference(columns, cfg)
    assert_matches_reference(x[:, None], cfg)  # the time-domain path
    prof = slope_profile(spec, None, cfg)
    slopes, status = _last_segment_slopes(columns, cfg)
    np.testing.assert_array_equal(prof.slopes, slopes)
    np.testing.assert_array_equal(prof.status, status)


# ------------------------------------------------------- edge cases

def _no_rise(v):
    """Reorder so |v - mean| never grows: the ECFM trace never increases."""
    return v[np.argsort(-np.abs(v - v.mean()), kind="stable")]


def _rise_at_end(v, k):
    """Reorder like ``_no_rise``, but end on the k largest |v - mean| in
    increasing order: the ECFM trace rises exactly k times, at its end."""
    order = np.argsort(-np.abs(v - v.mean()), kind="stable")
    return v[np.concatenate([order[k:], order[k - 1::-1]])]


def test_kernel_edge_columns():
    rng = np.random.default_rng(8)
    n = 60
    gamma = rng.gamma(2.0, size=n)
    spike = gamma.copy()
    spike[25] *= 1e6
    flat_start = _rise_at_end(rng.standard_normal(n), 2)
    flat_start[1:4] = flat_start[0]  # the trace starts flat: tied zero increments
    columns = np.column_stack([
        gamma,
        np.full(n, 0.1),  # equal values whose mean rounds off them
        np.full(n, 4.0),
        spike,
        np.where(np.arange(n) == 30, 7.0, 0.3),  # equal band values, one spike
        _no_rise(rng.standard_normal(n)),
        _rise_at_end(rng.standard_normal(n), 1),
        _rise_at_end(rng.standard_normal(n), 2),
        flat_start,
    ])
    status = assert_matches_reference(columns, SegmentationConfig())
    assert list(status) == [STATUS_OK, STATUS_SKIPPED, STATUS_SKIPPED, STATUS_OK,
                            STATUS_SKIPPED] + [STATUS_OK] * 4
    # the median of the positive increments is +inf, then 1 and 2 of them;
    # in the last column zeros sort next to the positives
    increments = [ecfm(normalize(columns[:, j])).increments for j in range(5, 9)]
    assert [np.count_nonzero(d > 0) for d in increments] == [0, 1, 2, 2]
    assert np.count_nonzero(increments[-1] == 0) >= 2


@pytest.mark.parametrize("n", [1, 2, 10, 11])
def test_kernel_short_columns(n):
    columns = np.random.default_rng(n).gamma(2.0, size=(n, 3))
    status = assert_matches_reference(columns, SegmentationConfig())
    assert np.all(status == STATUS_SKIPPED) == (n < 11)


@pytest.mark.parametrize("fallback", ["longest_segment", "whole_trace"])
def test_kernel_fallback_modes(fallback):
    # every jump-free stretch is shorter than the whole trace, so the
    # fallback decides the segment in every column
    rng = np.random.default_rng(11)
    columns = rng.pareto(0.8, size=(60, 12))
    cfg = SegmentationConfig(jump_factor=0.5, min_segment_frac=1.0, fallback=fallback)
    status = assert_matches_reference(columns, cfg)
    assert np.all(status == STATUS_FALLBACK)


# ----------------------------------------------------- drawn matrices

COLUMN_KINDS = ["gamma", "normal", "pareto", "discrete", "constant", "spike",
                "constant_spike", "no_rise"]


@st.composite
def matrices(draw):
    n = draw(st.integers(12, 80))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 3))
    columns = []
    for kind in kinds:
        if kind == "gamma":
            col = rng.gamma(draw(st.sampled_from([0.5, 1.0, 2.0])), size=n)
        elif kind == "normal":
            col = rng.standard_normal(n)
        elif kind == "pareto":
            col = rng.pareto(1.5, size=n)
        elif kind == "discrete":
            col = rng.integers(0, 4, size=n).astype(float)
        elif kind == "constant":
            col = np.full(n, draw(st.floats(1e-3, 1e3)))
        elif kind == "spike":
            col = rng.gamma(1.0, size=n)
            col[rng.integers(n)] *= 1e6
        elif kind == "constant_spike":
            col = np.full(n, draw(st.floats(1e-3, 1e3)))
            col[rng.integers(n)] *= 1e6
        else:
            col = _no_rise(rng.standard_normal(n))
        columns.append(col * scale)
    return np.column_stack(columns)


seg_configs = st.builds(
    SegmentationConfig,
    jump_factor=st.floats(0.1, 30.0),
    min_segment_frac=st.floats(0.01, 1.0),
    fallback=st.sampled_from(["longest_segment", "whole_trace"]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(columns=matrices(), cfg=seg_configs)
def test_kernel_matches_reference_on_drawn_matrices(columns, cfg):
    assert_matches_reference(columns, cfg)


# ------------------------------------------------- both mask forms
#
# The kernel's masked sums multiply by the mask where every term is finite
# and take np.where otherwise; both must give the same bits.

def _band_matrix(scenario):
    x = sample(scenario.spec, 10_000, np.random.default_rng(3))
    spec = spectrogram(x, SpectrogramConfig())
    return spec.values[:, band_bin_indices(spec.freqs_hz, None)]


def _assert_same_bits(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("scenario", default_scenarios(), ids=lambda s: s.name)
def test_kernel_columns_alone_match_the_matrix(scenario):
    columns = _band_matrix(scenario)
    cfg = SegmentationConfig()
    slopes, status = _last_segment_slopes(columns, cfg)
    for j in range(columns.shape[1]):
        alone = _last_segment_slopes(columns[:, [j]], cfg)
        _assert_same_bits(alone[0], slopes[j:j + 1])
        _assert_same_bits(alone[1], status[j:j + 1])


@pytest.mark.parametrize("scenario", default_scenarios()[::4], ids=lambda s: s.name)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_column_leaves_the_others_bit_identical(scenario, bad):
    columns = _band_matrix(scenario)
    cfg = SegmentationConfig()
    slopes, status = _last_segment_slopes(columns, cfg)
    extra = columns[:, :1].copy()
    extra[len(extra) // 2] = bad
    with np.errstate(all="ignore"):
        both = _last_segment_slopes(np.hstack([columns, extra]), cfg)
    _assert_same_bits(both[0][:-1], slopes)
    _assert_same_bits(both[1][:-1], status)
    assert both[1][-1] == STATUS_SKIPPED and np.isnan(both[0][-1])
    if not np.isnan(bad):  # one infinity lies outside the 10-90% band
        assert np.isfinite(cond_std(extra[:, 0]))


def test_values_near_overflow_take_the_where_form():
    # Finite values whose band sum overflows: the std is infinite, not NaN.
    columns = _band_matrix(default_scenarios()[0])
    huge = columns.copy()
    huge[:, 6] = 1e307 * (1.0 + 1e-3 * columns[:, 6])
    with np.errstate(all="ignore"), pytest.raises(ComputeError, match="overflow"):
        _last_segment_slopes(huge, SegmentationConfig())
    # A finite trace whose masked OLS terms k (C(k) - mean) would overflow:
    # an early spike raises the trace before the chosen segment.
    x = np.random.default_rng(0).standard_normal(558)
    x[33], x[413] = 6e76, -6e76
    with np.errstate(all="ignore"):
        status = assert_matches_reference(x[:, None], SegmentationConfig())
    assert status[0] == STATUS_OK


def test_power_whose_squares_overflow_raises():
    columns = _band_matrix(default_scenarios()[0])
    with np.errstate(all="ignore"), pytest.raises(ComputeError, match="squares overflow"):
        _last_segment_slopes(columns * 1e155, SegmentationConfig())


def test_an_infinite_power_gives_a_skipped_bin_not_a_nan_slope():
    spec = spectrogram(np.random.default_rng(1).standard_normal(10_000),
                       SpectrogramConfig())
    values = spec.values.copy()
    values[100, 200] = np.inf
    with np.errstate(all="ignore"):
        prof = slope_profile(replace(spec, values=values))
        want = reference(values[:, 200], SegmentationConfig())
    j = int(np.flatnonzero(prof.freqs_hz == spec.freqs_hz[200])[0])
    assert prof.status[j] == want[1] == STATUS_SKIPPED
    assert np.isnan(prof.slopes[j])
    assert prof.n_skipped == 1
    assert np.isfinite(prof.median_abs)
