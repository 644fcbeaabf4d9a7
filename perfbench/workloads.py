"""The two workloads, and the study the cold traced run adds, each driving
tailprobe through its public API.

Every workload uses a 25 kHz sample rate, the default spectrogram and
segmentation settings, analysis seed 0, and signals drawn round-robin from
the nine ``default_scenarios()``. The benchmark seed picks the inputs only
(the file workloads start at scenario ``seed mod 9`` and draw sample j from
the stream ``(seed, j)``; the study shuffles its scenario order); tailprobe
never sees it.

Imported by run.py after the BLAS thread variables are set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import jsonschema
import numpy as np
from scipy.io import wavfile

import tailprobe as tp

from spans import Target

RATE_HZ = 25_000.0
N_SIGNAL = 10_000
N_STUDY = 6_000
STUDY_REPLICATES = 2
STUDY_WORKERS = 2
ANALYSIS = tp.AnalysisConfig(seed=0, workers=1)


def _frames(spec) -> dict:
    return {"frames": spec.n_frames}


# Each public name at the module attribute its caller looks it up through.
TARGETS = (
    Target("tfr.spectrogram", "tailprobe.verdict", "spectrogram", _frames),
    Target("verdict.slope_profile", "tailprobe.verdict", "slope_profile"),
    Target("verdict.calibrate_threshold", "tailprobe.verdict", "calibrate_threshold"),
    Target("verdict.calibrate_td_threshold", "tailprobe.verdict", "calibrate_td_threshold"),
    Target("verdict.chi2_evidence", "tailprobe.verdict", "chi2_evidence"),
    Target("verdict.tail_evidence", "tailprobe.verdict", "tail_evidence"),
    Target("verdict.td_verdict", "tailprobe.verdict", "td_verdict"),
    Target("verdict.assess", "tailprobe.analysis", "assess"),
    Target("verdict.assess", "tailprobe.study", "assess"),
    Target("signal_io.load_signal", "tailprobe", "load_signal"),
    Target("analysis.write_report", "tailprobe", "write_report"),
    Target("study.run_study", "tailprobe", "run_study"),
)

_VERDICT_LAYERS = frozenset({
    "tfr.spectrogram", "verdict.slope_profile", "verdict.calibrate_threshold",
    "verdict.calibrate_td_threshold", "verdict.chi2_evidence",
    "verdict.tail_evidence", "verdict.td_verdict", "verdict.assess",
})
_FILE_LAYERS = _VERDICT_LAYERS | {"signal_io.load_signal", "analysis.write_report"}


class CheckError(Exception):
    """An output failed validation."""


@dataclass(frozen=True)
class Outcome:
    """What one operation produced: output bytes keyed by file name, and
    (category, expected category) per analyzed signal."""

    files: dict
    categories: tuple


@dataclass(frozen=True)
class InputFile:
    path: str
    expected: int


def _signal(scenarios, seed: int, j: int):
    scen = scenarios[(seed + j) % len(scenarios)]
    values = tp.sample(scen.spec, N_SIGNAL, np.random.default_rng([seed, j]))
    return scen, values


def _write_input(path: str, values: np.ndarray) -> None:
    if path.endswith(".wav"):
        wavfile.write(path, int(RATE_HZ), values.astype(np.float32))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(repr, values.tolist())))
            fh.write("\n")


def _read_files(paths) -> dict:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


class _FileWorkload:
    """load_signal -> analyze -> write_report on generated input files."""

    layers = _FILE_LAYERS
    traces_study = False
    signals_per_op = 1
    setup_repeats = 3
    n_inputs = 9
    formats = (".csv",)

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.inputs: list[InputFile] = []

    def setup(self) -> None:
        tp.clear_caches()
        in_dir = os.path.join(self.work_dir, "inputs")
        os.makedirs(in_dir, exist_ok=True)
        scenarios = tp.default_scenarios()
        self.inputs = []
        for j in range(self.n_inputs):
            scen, values = _signal(scenarios, self.seed, j)
            path = os.path.join(in_dir, f"s{j:02d}{self.formats[j % len(self.formats)]}")
            _write_input(path, values)
            self.inputs.append(InputFile(path, tp.expected_category(scen.spec)))

    def run(self, i: int, out_dir: str):
        """The pipeline on input i, caches as they are."""
        item = self.inputs[i % len(self.inputs)]
        signal = tp.load_signal(item.path)
        result = tp.analyze(signal, ANALYSIS)
        paths = tp.write_report(result, os.path.join(out_dir, "report.json"))
        return item, signal, result, paths

    def op(self, i: int, out_dir: str):
        return self.run(i, out_dir)

    def inspect(self, raw) -> Outcome:
        """Validate what run() wrote; done outside the timed region."""
        item, signal, result, paths = raw
        files = _read_files(paths.values())
        _check_report(files, result, len(signal.values))
        return Outcome(files, ((result.verdict.category, item.expected),))


def _check_report(files: dict, result, n_samples: int) -> None:
    report = json.loads(files["report.json"])
    try:
        jsonschema.validate(report, tp.REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise CheckError(f"report fails REPORT_SCHEMA: {exc.message}") from exc
    if report["verdict"]["category"] != result.verdict.category:
        raise CheckError("report category differs from the returned verdict")
    n_bins = len(result.verdict.profile.freqs_hz)
    if files["report.slopes.csv"].count(b"\n") != n_bins + 1:
        raise CheckError("slopes CSV does not hold one row per band bin")
    if files["report.tail.csv"].count(b"\n") != n_samples + 1:
        raise CheckError("tail CSV does not hold one row per sample")


class ColdSingle(_FileWorkload):
    """``tailprobe analyze`` in a fresh process: clear_caches() stands in
    for the process start, so every operation builds the nulls."""

    name = "cold_single"
    # Its traced run also times the study (run.py, _probe_study).
    traces_study = True

    def op(self, i: int, out_dir: str):
        tp.clear_caches()
        return self.run(i, out_dir)


class WarmBatch(_FileWorkload):
    """Many recordings in one process: nulls built in set-up, inputs
    alternate CSV and WAV."""

    name = "warm_batch"
    n_inputs = 18
    formats = (".csv", ".wav")
    setup_repeats = 2  # each builds the nulls (~10 s); keeps a run near a minute

    def setup(self) -> None:
        super().setup()
        tp.analyze(tp.load_signal(self.inputs[0].path), ANALYSIS)


class Study:
    """One clear_caches() + run_study per operation: nine scenarios at
    n = 6 000, two replicates each, two worker threads. Not a workload of
    its own: its wall time swings too far on a shared two-core host for a
    gate, so cold_single's traced run measures it (see README.md)."""

    layers = _VERDICT_LAYERS | {"study.run_study"}
    signals_per_op = 9 * STUDY_REPLICATES

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.cfg = None
        self.expected: dict = {}

    def setup(self) -> None:
        tp.clear_caches()
        base = tp.default_scenarios()
        # The study draws replicate r of the scenario at position s with
        # sample seed s * 10**6 + r; shuffling the scenario order by the
        # benchmark seed varies the inputs while the analysis seed stays 0.
        order = np.random.default_rng(self.seed).permutation(len(base))
        scenarios = tuple(base[k] for k in order)
        self.cfg = tp.StudyConfig(
            scenarios=scenarios,
            n_samples=N_STUDY,
            replicates=STUDY_REPLICATES,
            seed=0,
            workers=STUDY_WORKERS,
        )
        self.expected = {s.name: tp.expected_category(s.spec) for s in scenarios}

    def run(self, i: int, out_dir: str, workers: int | None = None):
        cfg = self.cfg if workers is None else replace(self.cfg, workers=workers)
        return cfg, tp.run_study(cfg, out_dir)

    def op(self, i: int, out_dir: str, workers: int | None = None):
        tp.clear_caches()
        return self.run(i, out_dir, workers)

    def inspect(self, raw) -> Outcome:
        cfg, result = raw
        files = _read_files([result.slopes_csv_path, result.summary_json_path])
        if len(result.rows) != self.signals_per_op:
            raise CheckError(f"study returned {len(result.rows)} rows")
        if len(result.summary["scenarios"]) != len(cfg.scenarios):
            raise CheckError("study summary misses scenarios")
        if files["study_slopes.csv"].count(b"\n") != len(result.rows) + 1:
            raise CheckError("study CSV does not hold one row per replicate")
        cats = tuple((row.category, self.expected[row.scenario]) for row in result.rows)
        return Outcome(files, cats)


WORKLOADS = {w.name: w for w in (ColdSingle, WarmBatch)}
