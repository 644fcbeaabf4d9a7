"""Quantile convention tests against a hand-rolled plotting-position oracle
and, value for value, against numpy's Hazen quantile and median."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailprobe import iqr, quantile
from tailprobe.quantiles import median


def hazen_oracle(values, q):
    # plotting positions (i - 0.5)/n, linear interpolation, clamped ends
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    pos = q * n + 0.5  # 1-based fractional rank
    if pos <= 1.0:
        return float(xs[0])
    if pos >= n:
        return float(xs[-1])
    lo = int(np.floor(pos))
    frac = pos - lo
    return float(xs[lo - 1] * (1.0 - frac) + xs[lo] * frac)


def test_matches_oracle_on_random_samples():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        x = rng.standard_normal(n) * 10.0
        q = float(rng.uniform(0.0, 1.0))
        npt.assert_allclose(quantile(x, q), hazen_oracle(x, q), rtol=0, atol=1e-12)


def test_median():
    assert quantile([1.0, 3.0, 2.0], 0.5) == 2.0
    assert quantile([1.0, 2.0], 0.5) == 1.5


def test_quartiles_of_four():
    # n=4: rank(q) = 4q + 0.5, so q25 -> 1.5 and q75 -> 3.5
    x = [4.0, 1.0, 3.0, 2.0]
    assert quantile(x, 0.25) == 1.5
    assert quantile(x, 0.75) == 3.5


def test_extremes_clamp_to_order_statistics():
    x = [5.0, 7.0, 9.0]
    assert quantile(x, 0.0) == 5.0
    assert quantile(x, 1.0) == 9.0
    assert quantile(x, 0.01) == 5.0


def test_iqr():
    assert iqr([4.0, 1.0, 3.0, 2.0]) == 2.0
    npt.assert_allclose(iqr(np.arange(101.0)), 50.5, rtol=0, atol=1e-12)


# ------------------------------------------------------ numpy as the oracle
SAMPLE_KINDS = ["normal", "ties", "signed_zeros", "subnormal", "huge"]


@st.composite
def samples(draw):
    """A (rows, n) matrix: n from 1 to 400, or 10 000."""
    rows = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(1, 400), st.just(10_000)))
    kind = draw(st.sampled_from(SAMPLE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, n))
    if kind == "ties":
        x = np.round(x * 2.0)  # a few distinct values, -0.0 among them
    elif kind == "signed_zeros":
        x = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(rows, n), p=[0.4, 0.4, 0.1, 0.1])
    elif kind == "subnormal":
        x = np.round(x * 50.0) * 5e-324
    elif kind == "huge":
        x = np.sign(x) * 1e300 * rng.uniform(0.5, 1.0, size=(rows, n))
    return x


GRID = np.linspace(0.0, 1.0, 101)  # dense enough to reach the lerp's rounding
levels = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
quantile_args = st.one_of(levels, st.lists(levels, min_size=1, max_size=4))


def assert_same(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(x=samples(), q=quantile_args, axis=st.sampled_from([None, 1]))
def test_quantile_and_median_equal_numpy(x, q, axis):
    with np.errstate(invalid="ignore", over="ignore"):
        for qs in (q, GRID):
            assert_same(quantile(x, qs, axis=axis), np.quantile(x, qs, axis=axis, method="hazen"))
        assert_same(median(x, axis=axis), np.median(x, axis=axis))


def test_a_slice_holding_nan_gives_nan():
    x = np.array([[1.0, np.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
    q = [0.0, 0.5, 1.0]
    for got, want in [
        (quantile(x, q, axis=1), np.quantile(x, q, axis=1, method="hazen")),
        (quantile(x[0], 0.25), np.nan),
        (median(x, axis=1), [np.nan, 2.5]),
        (median(x), np.nan),
    ]:
        assert_same(got, want)


@pytest.mark.parametrize("shape, axis", [((0,), None), ((3, 0), 1)])
def test_empty_input_raises_index_error(shape, axis):
    # as np.quantile does; np.median would return NaN with a warning
    x = np.zeros(shape)
    with pytest.raises(IndexError):
        np.quantile(x, 0.5, axis=axis, method="hazen")
    with pytest.raises(IndexError):
        quantile(x, 0.5, axis=axis)
    with pytest.raises(IndexError):
        median(x, axis=axis)
