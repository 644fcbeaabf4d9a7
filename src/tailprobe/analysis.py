"""Single-signal analysis and the versioned JSON report.

``analyze`` runs the full pipeline on one loaded signal; ``write_report``
emits a schema-validated JSON report plus two CSV side files (per-bin
slopes with their KS p-values, and tail-plot points), all byte-deterministic
for a fixed configuration and seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import jsonschema

from .errors import ConfigError
from .gof import empirical_tail
from .quantiles import median
from .signal_io import Signal
from .verdict import (
    STATUS_FALLBACK,
    STATUS_OK,
    STATUS_SKIPPED,
    AnalysisConfig,
    VarianceVerdict,
    assess,
)

SCHEMA_VERSION = "2"

_STATUS_NAMES = {STATUS_OK: "ok", STATUS_FALLBACK: "fallback", STATUS_SKIPPED: "skipped"}


@dataclass(frozen=True)
class AnalysisResult:
    signal: Signal
    config: AnalysisConfig
    verdict: VarianceVerdict


def analyze(signal: Signal, cfg: AnalysisConfig = AnalysisConfig()) -> AnalysisResult:
    """Spectrogram -> band slope profile -> TD verdict -> per-bin KS ->
    category, with the signal's own sample rate driving the frequency axis."""
    cfg = replace(cfg, spect=replace(cfg.spect, sample_rate_hz=signal.sample_rate_hz))
    verdict = assess(signal.values, cfg)
    return AnalysisResult(signal=signal, config=cfg, verdict=verdict)


def _num(x) -> float | None:
    """JSON-safe number: NaN/Inf become null."""
    x = float(x)
    return x if math.isfinite(x) else None


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version", "input", "config", "verdict",
        "slope_profile", "td", "tail_fit", "chi2", "artifacts",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "input": {
            "type": "object",
            "required": ["n_samples", "sample_rate_hz"],
            "properties": {
                "path": {"type": ["string", "null"]},
                "n_samples": {"type": "integer", "minimum": 1},
                "sample_rate_hz": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "config": {
            "type": "object",
            "required": [
                "window_length", "kaiser_beta", "overlap", "nfft",
                "band_hz", "jump_factor", "min_segment_frac", "fallback",
                "seed", "bootstrap", "calibration_replicates",
            ],
        },
        "verdict": {
            "type": "object",
            "required": [
                "category", "td_variance_finite", "tfd_variance_finite",
                "chi2_pass", "warnings",
            ],
            "properties": {
                "category": {"type": "integer", "minimum": 1, "maximum": 4},
                "td_variance_finite": {"type": "boolean"},
                "tfd_variance_finite": {"type": "boolean"},
                "chi2_pass": {"type": "boolean"},
                "warnings": {"type": "array", "items": {"type": "string"}},
            },
        },
        "slope_profile": {
            "type": "object",
            "required": [
                "median_abs", "iqr_abs", "threshold",
                "n_bins", "n_fallback", "n_skipped",
            ],
        },
        "td": {
            "type": "object",
            "required": ["slope", "threshold", "fallback"],
        },
        "tail_fit": {
            "type": "object",
            "required": ["alpha_cf", "gpd_xi", "accepted_family", "gauss_ks"],
        },
        "chi2": {
            "type": "object",
            "required": ["median_bin_p", "frac_bins_below_05",
                         "td_gaussian_stat", "td_gaussian_bound"],
        },
        "artifacts": {
            "type": "object",
            "required": ["slopes_csv", "tail_csv"],
        },
    },
}
_REPORT_VALIDATOR = jsonschema.Draft202012Validator(REPORT_SCHEMA)


def build_report(result: AnalysisResult, slopes_csv: str, tail_csv: str) -> dict:
    """Assemble the report dictionary (already JSON-safe)."""
    v = result.verdict
    e = v.td.evidence
    cfg = result.config
    spect = v.profile  # band already resolved to actual bin edges
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": {
            "path": result.signal.source,
            "n_samples": int(len(result.signal.values)),
            "sample_rate_hz": float(result.signal.sample_rate_hz),
        },
        "config": {
            "window_length": cfg.spect.window_length,
            "kaiser_beta": cfg.spect.kaiser_beta,
            "overlap": cfg.spect.overlap,
            "nfft": cfg.spect.nfft,
            "band_hz": [spect.band[0], spect.band[1]],
            "jump_factor": cfg.seg.jump_factor,
            "min_segment_frac": cfg.seg.min_segment_frac,
            "fallback": cfg.seg.fallback,
            "seed": cfg.seed,
            "bootstrap": cfg.bootstrap,
            "calibration_replicates": cfg.calibration_replicates,
        },
        "verdict": {
            "category": v.category,
            "td_variance_finite": v.td_finite,
            "tfd_variance_finite": v.tfd_finite,
            "chi2_pass": v.chi2_pass,
            "warnings": list(v.warnings),
        },
        "slope_profile": {
            "median_abs": _num(v.profile.median_abs),
            "iqr_abs": _num(v.profile.iqr_abs),
            "threshold": _num(v.tfd_threshold),
            "n_bins": int(len(v.profile.freqs_hz)),
            "n_fallback": v.profile.n_fallback,
            "n_skipped": v.profile.n_skipped,
        },
        "td": {
            "slope": _num(v.td.slope),
            "threshold": _num(v.td.threshold),
            "fallback": v.td.slope_fallback,
        },
        "tail_fit": {
            "alpha_cf": _num(e.alpha_cf),
            "gpd_xi": _num(e.gpd_xi),
            "accepted_family": e.accepted_family,
            "pareto_gamma": _num(e.pareto_gamma),
            "pareto_lam": _num(e.pareto_lam),
            "pareto_ks": _num(e.pareto_ks),
            "t_nu": _num(e.t_nu),
            "t_delta": _num(e.t_delta),
            "t_ks": _num(e.t_ks),
            "gauss_ks": _num(e.gauss_ks),
        },
        "chi2": {
            "median_bin_p": _num(v.chi2.median_bin_p),
            "frac_bins_below_05": _num(v.chi2.frac_bins_below_05),
            "td_gaussian_stat": _num(v.chi2.td_gaussian_stat),
            "td_gaussian_bound": _num(v.chi2.td_gaussian_bound),
        },
        "artifacts": {
            "slopes_csv": os.path.basename(slopes_csv),
            "tail_csv": os.path.basename(tail_csv),
        },
    }
    _REPORT_VALIDATOR.validate(report)
    return report


def write_report(result: AnalysisResult, out_path: str) -> dict:
    """Write the JSON report plus the slopes and tail CSVs next to it.

    Returns {"report": ..., "slopes_csv": ..., "tail_csv": ...} paths.
    """
    root, ext = os.path.splitext(out_path)
    if ext.lower() != ".json":
        raise ConfigError(f"report path must end in .json, got {out_path!r}")
    slopes_csv = root + ".slopes.csv"
    tail_csv = root + ".tail.csv"
    report = build_report(result, slopes_csv, tail_csv)
    out_dir = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(out_dir, exist_ok=True)

    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    v = result.verdict
    with open(slopes_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_hz,slope,status,ks_p\n")
        for f, s, st, p in zip(
            v.profile.freqs_hz, v.profile.slopes, v.profile.status,
            v.chi2.bin_p_values,
        ):
            fh.write(
                f"{float(f)!r},{float(s)!r},{_STATUS_NAMES[int(st)]},{float(p)!r}\n"
            )

    dev = np.abs(result.signal.values - median(result.signal.values))
    xs, tail_p = empirical_tail(dev)
    with open(tail_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("abs_deviation,tail_prob\n")
        fh.write("".join(f"{x!r},{p!r}\n" for x, p in zip(xs.tolist(), tail_p.tolist())))

    return {"report": out_path, "slopes_csv": slopes_csv, "tail_csv": tail_csv}
