"""Properties the verdict must have whatever the seed or the units: every
Monte-Carlo draw comes from its own stream, and the tail layer's calls do
not move under an affine map a*x + b (a > 0) of the signal."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailprobe import (
    AnalysisConfig,
    ComputeError,
    SpectrogramConfig,
    StudyConfig,
    TLocScale,
    assess,
    clear_caches,
    default_scenarios,
    parse_scenario,
    run_study,
    sample,
    td_verdict,
)
from tailprobe import distributions, study, verdict
from tailprobe.verdict import tail_evidence

N, BOOT, CAL, SEED = 6000, 120, 20, 7
SCENARIOS = default_scenarios()


# ------------------------------------------------------------------ streams

def test_every_stream_of_an_analysis_and_a_study_is_distinct(monkeypatch):
    keys = []
    real = distributions.stream

    def recording(seed, *key):
        keys.append((seed, *key))
        return real(seed, *key)

    monkeypatch.setattr(verdict, "stream", recording)
    monkeypatch.setattr(study, "stream", recording)
    clear_caches()
    assess(np.random.default_rng(1).standard_normal(N), AnalysisConfig(
        spect=SpectrogramConfig(), seed=SEED, bootstrap=BOOT, calibration_replicates=CAL,
    ))
    clear_caches()
    run_study(StudyConfig(
        scenarios=(parse_scenario("stable:2:1"), parse_scenario("t:3:1")),
        n_samples=4000, replicates=3, bootstrap=30, calibration_replicates=CAL,
        seed=SEED + 1,
    ))
    used = set(keys)
    assert {key[1] for key in used} == {
        distributions.TFD_CALIBRATION, distributions.TD_CALIBRATION,
        distributions.CHI2_NULL, distributions.STUDY,
    }
    # Per run: the two calibrations and the pooled chi2 null (ceil(bootstrap
    # / 128) draws: the default band has 128 complex-valued bins); the study
    # adds its 2 x 3 inputs.
    assert len(used) == len(keys) == (
        2 * CAL + math.ceil(BOOT / 128)
        + 2 * CAL + math.ceil(30 / 128) + 2 * 3
    )
    first = {real(*key).bit_generator.random_raw() for key in used}
    assert len(first) == len(used)


def test_unkeyed_stream_is_the_default_generator():
    for seed in (0, 7, 2**40):
        assert np.array_equal(distributions.stream(seed).standard_normal(8),
                              np.random.default_rng(seed).standard_normal(8))


# ------------------------------------------------------ affine invariance

@lru_cache(maxsize=None)
def _scenario_sample(k: int) -> np.ndarray:
    return sample(SCENARIOS[k].spec, 10_000, np.random.default_rng(k))


@lru_cache(maxsize=None)
def _calls(k: int) -> tuple:
    ev = tail_evidence(_scenario_sample(k))
    return ev.accepted_family, ev.td_finite, ev.tfd_finite


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, len(SCENARIOS) - 1), log_a=st.floats(-100, 100),
       shift=st.floats(-10, 10))
def test_tail_calls_survive_affine_maps(k, log_a, shift):
    # b is `shift` robust scales (median absolute deviations) of a*x.
    x = _scenario_sample(k)
    a = 10.0 ** log_a
    b = shift * a * float(np.median(np.abs(x - np.median(x))))
    ev = tail_evidence(a * x + b)
    assert (ev.accepted_family, ev.td_finite, ev.tfd_finite) == _calls(k), SCENARIOS[k].name


def test_tail_shape_is_finite_at_tiny_scales():
    x = sample(TLocScale(3.0, 1.0), 10_000, np.random.default_rng(14))
    ev = tail_evidence(1e-160 * x)
    assert np.isfinite(ev.gpd_xi)
    assert ev.gpd_xi == pytest.approx(tail_evidence(x).gpd_xi, rel=1e-4)
    assert ev.td_finite


def test_t_fit_is_scale_free_at_tiny_scales():
    # At 1e-160 the centred sample's squares are subnormal.
    x = sample(TLocScale(3.0, 1.0), 10_000, np.random.default_rng(14))
    a = 1e-160
    ev, ref = tail_evidence(a * x), tail_evidence(x)
    assert ev.t_nu == pytest.approx(ref.t_nu, rel=1e-6)
    assert ev.t_delta / a == pytest.approx(ref.t_delta, rel=1e-6)
    assert ev.t_ks == pytest.approx(ref.t_ks, rel=1e-6)


def test_td_verdict_overflow_is_a_compute_error():
    x = sample(TLocScale(3.0, 1.0), N, np.random.default_rng(14))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ComputeError):
        td_verdict(1e154 * x, AnalysisConfig(calibration_replicates=CAL, seed=SEED))
