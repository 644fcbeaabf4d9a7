"""The allocator settings made at ``import tailprobe``: on glibc, repeated
Monte-Carlo draws reuse mapped heap instead of faulting it back in."""

import platform
import types

import numpy as np
import pytest

from tailprobe import SpectrogramConfig, calibrate_threshold, slope_profile, spectrogram
from tailprobe._heap import M_MMAP_THRESHOLD, M_TOP_PAD, _keep_heap_mapped


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_calibration_draws_do_not_fault_the_heap_back_in():
    resource = pytest.importorskip("resource")
    z = np.random.default_rng(0).standard_normal(10_000)
    slope_profile(spectrogram(z, SpectrogramConfig()))  # one warm-up draw
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calibrate_threshold(10_000, SpectrogramConfig(), replicates=20)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # Without the settings glibc trims the heap after every draw: about
    # 800 faults per draw, so 16 000 or more for these 20.
    assert faults < 2_000


def test_libc_without_mallopt_is_left_alone():
    libc = types.SimpleNamespace()
    assert _keep_heap_mapped(libc) is False
    assert vars(libc) == {}


@pytest.mark.parametrize("ok, applied", [(0, 1), (1, 2)])
def test_settings_are_applied_in_order_until_one_is_refused(ok, applied):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return ok

    assert _keep_heap_mapped(types.SimpleNamespace(mallopt=mallopt)) is bool(ok)
    assert calls == [(M_MMAP_THRESHOLD, 32 << 20), (M_TOP_PAD, 64 << 20)][:applied]
