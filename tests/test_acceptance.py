"""Acceptance gate: seven pass/fail criteria for the whole pipeline.

Each test computes its verdict, records one ``CRITERION n: PASS/FAIL`` line
(echoed after the pytest status line by the conftest terminal-summary hook),
and then asserts. Criteria 3 and 4 share one module-scoped simulation study:
nine reference scenarios, 50 replicates each, n = 10^4 per replicate.
"""

import time

import numpy as np
import pytest
from scipy.special import i0 as scipy_i0, kolmogorov

from tailprobe import (
    AlphaStable,
    AnalysisConfig,
    SegmentationConfig,
    SpectrogramConfig,
    StudyConfig,
    SymPareto,
    TLocScale,
    analyze,
    chi2_evidence,
    clear_caches,
    ecfm,
    empirical_tail,
    ks_stat,
    load_signal,
    parse_scenario,
    run_study,
    sample,
    slope_profile,
    spectrogram,
    stft,
    write_report,
)

CRITERION_LINES = []

# Ordered finite -> intermediate -> infinite spectrogram variance within
# each family: both the median and the IQR of per-bin |slope| must rise.
FAMILY_CHAINS = {
    "stable": ("stable:2:1", "stable:1.9:1", "stable:1.5:1"),
    "pareto": ("pareto:6:1", "pareto:3:1", "pareto:1.5:1"),
    "t": ("t:6:1", "t:3:1", "t:1.5:1"),
}

# Category-accuracy floors per scenario: 0.90 for the clear-cut cases
# (Gaussian and the infinite-variance laws), 0.80 for the intermediate ones.
ACCURACY_FLOORS = {
    "stable:2:1": (1, 0.90),
    "stable:1.9:1": (4, 0.90),
    "stable:1.5:1": (4, 0.90),
    "pareto:1.5:1": (4, 0.90),
    "t:1.5:1": (4, 0.90),
    "pareto:6:1": (2, 0.80),
    "t:6:1": (2, 0.80),
    "pareto:3:1": (3, 0.80),
    "t:3:1": (3, 0.80),
}


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """The shared reference study; returns (result, wall seconds)."""
    out_dir = tmp_path_factory.mktemp("study")
    cfg = StudyConfig(
        n_samples=10_000,
        replicates=50,
        seed=0,
        bootstrap=200,
        calibration_replicates=100,
        workers=1,
    )
    t0 = time.perf_counter()
    result = run_study(cfg, out_dir=str(out_dir))
    return result, time.perf_counter() - t0


def _direct_stft(x: np.ndarray, cfg: SpectrogramConfig) -> np.ndarray:
    """Literal evaluation of the definitions: Kaiser window from the Bessel
    ratio (scipy's i0), frames at i*hop, and an explicit one-sided DFT sum."""
    L, nfft = cfg.window_length, cfg.nfft
    hop = L - cfg.overlap
    if L == 1:
        w = np.ones(1)
    else:
        m = np.arange(L, dtype=float)
        half = (L - 1) / 2.0
        arg = cfg.kaiser_beta * np.sqrt(1.0 - ((m - half) / half) ** 2)
        w = scipy_i0(arg) / scipy_i0(cfg.kaiser_beta)
    n_frames = 1 + (len(x) - L) // hop
    k = np.arange(nfft // 2 + 1)
    t = np.arange(L)
    basis = np.exp(-2j * np.pi * np.outer(k, t) / nfft)
    frames = np.stack([x[i * hop:i * hop + L] * w for i in range(n_frames)])
    return frames @ basis.T


def test_criterion_1_spectrogram_matches_direct_dft():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        window = int(rng.integers(2, 33))
        length = int(rng.integers(window, 65))
        overlap = int(rng.integers(0, window))
        nfft = int(rng.integers(window, 65))
        beta = float(rng.choice([0.0, 3.0, 5.0, 8.0]))
        cfg = SpectrogramConfig(
            window_length=window, kaiser_beta=beta, overlap=overlap,
            nfft=nfft, sample_rate_hz=1000.0,
        )
        x = rng.standard_normal(length)
        ref = _direct_stft(x, cfg)
        scale = max(np.max(np.abs(ref)), 1e-300)
        worst = max(worst, np.max(np.abs(stft(x, cfg) - ref)) / scale)
        ref_power = np.abs(ref) ** 2
        dev = np.max(np.abs(spectrogram(x, cfg).values - ref_power))
        worst = max(worst, dev / max(np.max(ref_power), 1e-300))
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"100 random signals, worst relative deviation {worst:.2e} "
        f"(limit 1e-10) in {elapsed:.2f} s (limit 5 s)",
    )


def test_criterion_2_gaussian_fourth_moment_plateau():
    t0 = time.perf_counter()
    n_ok = 0
    worst = 0.0
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(100_000)
        dev = abs(float(ecfm(x).values[-1]) - 3.0)
        worst = max(worst, dev)
        n_ok += dev <= 0.2
    elapsed = time.perf_counter() - t0
    _criterion(
        2,
        n_ok >= 99 and elapsed < 10.0,
        f"|C(n) - 3| <= 0.2 in {n_ok}/100 runs (need >= 99), worst deviation "
        f"{worst:.3f}, {elapsed:.1f} s (limit 10 s)",
    )


def _per_scenario_arrays(rows):
    med, iqr_ = {}, {}
    for row in rows:
        med.setdefault(row.scenario, []).append(row.median_abs_slope)
        iqr_.setdefault(row.scenario, []).append(row.iqr_abs_slope)
    return (
        {k: np.asarray(v) for k, v in med.items()},
        {k: np.asarray(v) for k, v in iqr_.items()},
    )


def _chains_hold(med, iqr_, idx=None) -> bool:
    for names in FAMILY_CHAINS.values():
        for stat in (med, iqr_):
            vals = [
                float(np.median(stat[n] if idx is None else stat[n][idx[n]]))
                for n in names
            ]
            if not vals[0] < vals[1] < vals[2]:
                return False
    return True


def test_criterion_3_slope_orderings(study):
    result, study_elapsed = study
    t0 = time.perf_counter()
    med, iqr_ = _per_scenario_arrays(result.rows)
    aggregate_ok = _chains_hold(med, iqr_)
    rng = np.random.default_rng(20240819)
    n_boot = 500
    n_hold = 0
    n_rep = len(next(iter(med.values())))
    for _ in range(n_boot):
        idx = {name: rng.integers(0, n_rep, n_rep) for name in med}
        n_hold += _chains_hold(med, iqr_, idx)
    frac = n_hold / n_boot
    elapsed = study_elapsed + (time.perf_counter() - t0)
    _criterion(
        3,
        aggregate_ok and frac >= 0.90 and elapsed < 600.0,
        f"median/IQR orderings: aggregate={'yes' if aggregate_ok else 'NO'}, "
        f"held in {frac:.1%} of {n_boot} bootstrap resamples (need >= 90%); "
        f"study+checks {elapsed:.0f} s (limit 600 s)",
    )


def test_criterion_4_category_accuracy(study):
    result, study_elapsed = study
    accuracies = {s["name"]: s["accuracy"] for s in result.summary["scenarios"]}
    expected = {s["name"]: s["expected_category"] for s in result.summary["scenarios"]}
    all_ok = True
    worst_clear, worst_mid = 1.0, 1.0
    for name, (category, floor) in ACCURACY_FLOORS.items():
        assert expected[name] == category
        acc = accuracies[name]
        all_ok = all_ok and acc >= floor
        if floor == 0.90:
            worst_clear = min(worst_clear, acc)
        else:
            worst_mid = min(worst_mid, acc)
    _criterion(
        4,
        all_ok and study_elapsed < 900.0,
        f"50 replicates per scenario: worst accuracy {worst_clear:.2f} in the "
        f">=0.90 group, {worst_mid:.2f} in the >=0.80 group; study "
        f"{study_elapsed:.0f} s (limit 900 s)",
    )


def test_criterion_5_chi2_size_and_power():
    t0 = time.perf_counter()
    cfg = SpectrogramConfig()
    null_cfg = AnalysisConfig(spect=cfg, bootstrap=200, seed=0)
    gauss = np.random.default_rng(0).standard_normal(10_000)
    size = chi2_evidence(gauss, spectrogram(gauss, cfg), null_cfg)
    heavy = sample(AlphaStable(1.5, 1.0), 10_000, 0)
    power = chi2_evidence(heavy, spectrogram(heavy, cfg), null_cfg)
    elapsed = time.perf_counter() - t0
    size_ok = size.median_bin_p > 0.05 and size.frac_bins_below_05 <= 0.10
    power_ok = power.frac_bins_below_05 >= 0.95
    _criterion(
        5,
        size_ok and power_ok and elapsed < 300.0,
        f"Gaussian input: median bin p {size.median_bin_p:.2f} (> 0.05), "
        f"{size.frac_bins_below_05:.1%} of bins below 0.05 (<= 10%); "
        f"heavy-tail input: {power.frac_bins_below_05:.1%} of bins below 0.05 "
        f"(>= 95%); {elapsed:.0f} s (limit 300 s)",
    )


def test_criterion_6_sampler_ks_and_tail_slope():
    t0 = time.perf_counter()
    n = 10_000
    counts = {}
    for law in (
        AlphaStable(2.0, 1.0),
        AlphaStable(1.0, 1.0),
        SymPareto(3.0, 1.0),
        TLocScale(3.0, 1.0),
    ):
        n_pass = 0
        for seed in range(100):
            d = ks_stat(sample(law, n, seed), law)
            n_pass += bool(kolmogorov(np.sqrt(n) * d) > 0.01)
        counts[repr(law)] = n_pass
    ks_ok = all(c >= 95 for c in counts.values())

    xs, tail_p = empirical_tail(np.abs(sample(AlphaStable(1.5, 1.0), 1_000_000, 42)))
    top = len(xs) // 100
    slope = float(np.polyfit(np.log(xs[-top:]), np.log(tail_p[-top:]), 1)[0])
    slope_ok = abs(slope - (-1.5)) <= 0.15
    elapsed = time.perf_counter() - t0
    _criterion(
        6,
        ks_ok and slope_ok,
        f"KS p > 0.01 for {sorted(counts.values())} of 100 seeds per family "
        f"(need >= 95); top-1% tail slope {slope:.3f} (need -1.5 +/- 0.15); "
        f"{elapsed:.0f} s",
    )


def _write_signal_csv(path, values) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in values:
            fh.write(repr(float(v)) + "\n")


def test_criterion_7_byte_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    values = np.random.default_rng(5).standard_normal(6000)

    analyze_outputs = []
    for workers, label in ((1, "a"), (4, "b")):
        workdir = tmp_path / label
        workdir.mkdir()
        _write_signal_csv(workdir / "sig.csv", values)
        monkeypatch.chdir(workdir)
        clear_caches()
        result = analyze(
            load_signal("sig.csv"),
            AnalysisConfig(bootstrap=120, calibration_replicates=20, seed=7,
                           workers=workers),
        )
        write_report(result, "rep.json")
        analyze_outputs.append(tuple(
            (workdir / name).read_bytes()
            for name in ("rep.json", "rep.slopes.csv", "rep.tail.csv")
        ))
    analyze_same = analyze_outputs[0] == analyze_outputs[1]

    study_outputs = []
    for workers, label in ((1, "sa"), (3, "sb")):
        out_dir = tmp_path / label
        out_dir.mkdir()
        clear_caches()
        cfg = StudyConfig(
            scenarios=(parse_scenario("stable:2:1"), parse_scenario("pareto:1.5:1")),
            n_samples=4000,
            replicates=3,
            seed=7,
            bootstrap=120,
            calibration_replicates=20,
            workers=workers,
        )
        result = run_study(cfg, out_dir=str(out_dir))
        study_outputs.append((
            open(result.slopes_csv_path, "rb").read(),
            open(result.summary_json_path, "rb").read(),
        ))
    study_same = study_outputs[0] == study_outputs[1]
    elapsed = time.perf_counter() - t0
    _criterion(
        7,
        analyze_same and study_same,
        f"byte-identical outputs: analyze (workers 1 vs 4) "
        f"{'yes' if analyze_same else 'NO'}, study (workers 1 vs 3) "
        f"{'yes' if study_same else 'NO'}; {elapsed:.0f} s",
    )


def test_slope_orderings_survive_jump_factor_changes():
    """Not one of the numbered criteria: the family ordering of median |slope|
    should not hinge on the jump-detection sensitivity."""
    cfg = SpectrogramConfig()
    laws = (SymPareto(6.0, 1.0), SymPareto(3.0, 1.0), SymPareto(1.5, 1.0))
    for jump_factor in (5.0, 20.0):
        seg = SegmentationConfig(jump_factor=jump_factor)
        meds = []
        for j, law in enumerate(laws):
            per_rep = [
                slope_profile(
                    spectrogram(sample(law, 4000, 4242 + 1000 * j + r), cfg),
                    None,
                    seg,
                ).median_abs
                for r in range(12)
            ]
            meds.append(float(np.median(per_rep)))
        assert meds[0] < meds[1] < meds[2], (jump_factor, meds)
