"""Command-line interface: analyze, simulate, gof, spectrogram.

Option values resolve with precedence CLI flag > config file > default. The
config file is flat ``key = value`` text ('#' comments allowed) whose keys
are the long flag names without the leading dashes, e.g.::

    window = 500
    kaiser-beta = 5
    band = 4500:9000

Exit codes: 0 success, 2 configuration error, 3 data error, 4 compute error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import AnalysisConfig, analyze, write_report
from .errors import ComputeError, ConfigError, TailprobeError
from .gof import ks_pvalue_mc
from .segmentation import SegmentationConfig
from .signal_io import DEFAULT_SAMPLE_RATE_HZ, load_signal
from .study import StudyConfig, default_scenarios, parse_scenario, run_study
from .tfr import SpectrogramConfig, spectrogram


def _parse_band(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"band must look like LO:HI in Hz, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_scenarios(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


# Per-command option tables: key -> (converter from string, default).
_SPECT_OPTS = {
    "window": (int, 500),
    "kaiser-beta": (float, 5.0),
    "overlap": (int, 474),
    "nfft": (int, 512),
    "sample-rate": (float, None),
}
_SEG_OPTS = {
    "jump-factor": (float, 10.0),
    "min-segment-frac": (float, 0.10),
    "fallback": (str, "longest_segment"),
}
_COMMON_OPTS = {
    "seed": (int, 0),
    "workers": (int, 1),
}
_ANALYZE_OPTS = {
    "input": (str, None),
    "out": (str, None),
    "band": (_parse_band, None),
    "bootstrap": (int, 200),
    "calibration-replicates": (int, 100),
    **_SPECT_OPTS,
    **_SEG_OPTS,
    **_COMMON_OPTS,
}
_SIMULATE_OPTS = {
    "scenario": (_parse_scenarios, None),
    "n": (int, 10_000),
    "replicates": (int, 50),
    "out-dir": (str, "."),
    "band": (_parse_band, None),
    "bootstrap": (int, 200),
    "calibration-replicates": (int, 100),
    **_SPECT_OPTS,
    **_SEG_OPTS,
    **_COMMON_OPTS,
}
_GOF_OPTS = {
    "input": (str, None),
    "family": (str, "genchi2"),
    "bootstrap": (int, 200),
    "seed": (int, 0),
}
_SPECTROGRAM_OPTS = {
    "input": (str, None),
    "out": (str, None),
    **_SPECT_OPTS,
}


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(
                        f"{path}: line {lineno}: expected 'key = value', got {line!r}"
                    )
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _resolve(args: argparse.Namespace, opts: dict) -> dict:
    """Merge CLI values, config-file values, and defaults."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(opts)
    if unknown:
        raise ConfigError(
            f"unknown config keys for this command: {sorted(unknown)}"
        )
    vals = {}
    for key, (conv, default) in opts.items():
        dest = key.replace("-", "_")
        cli_val = getattr(args, dest, None)
        if cli_val is not None:
            vals[dest] = cli_val
        elif key in file_cfg:
            try:
                vals[dest] = conv(file_cfg[key])
            except ValueError as exc:
                raise ConfigError(
                    f"config key {key!r}: bad value {file_cfg[key]!r}: {exc}"
                ) from exc
        else:
            vals[dest] = default
    return vals


def _require_input(vals: dict) -> str:
    if not vals.get("input"):
        raise ConfigError("an input file is required (--input or config 'input')")
    return vals["input"]


def _spect_config(vals: dict, sample_rate_hz: float) -> SpectrogramConfig:
    return SpectrogramConfig(
        window_length=vals["window"],
        kaiser_beta=vals["kaiser_beta"],
        overlap=vals["overlap"],
        nfft=vals["nfft"],
        sample_rate_hz=sample_rate_hz,
    )


def _seg_config(vals: dict) -> SegmentationConfig:
    return SegmentationConfig(
        jump_factor=vals["jump_factor"],
        min_segment_frac=vals["min_segment_frac"],
        fallback=vals["fallback"],
    )


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def cmd_analyze(args: argparse.Namespace) -> int:
    vals = _resolve(args, _ANALYZE_OPTS)
    signal = load_signal(_require_input(vals), vals["sample_rate"])
    cfg = AnalysisConfig(
        spect=_spect_config(vals, signal.sample_rate_hz),
        band=vals["band"],
        seg=_seg_config(vals),
        seed=vals["seed"],
        bootstrap=vals["bootstrap"],
        calibration_replicates=vals["calibration_replicates"],
        workers=vals["workers"],
    )
    result = analyze(signal, cfg)
    v = result.verdict
    e = v.td.evidence
    print(f"category: {v.category}")
    print(f"td_variance_finite: {str(v.td_finite).lower()}")
    print(f"tfd_variance_finite: {str(v.tfd_finite).lower()}")
    print(f"chi2_pass: {str(v.chi2_pass).lower()}")
    print(
        f"band_median_abs_slope: {_fmt(v.profile.median_abs)} "
        f"(threshold {_fmt(v.tfd_threshold)}, iqr {_fmt(v.profile.iqr_abs)})"
    )
    print(f"td_slope: {_fmt(v.td.slope)} (threshold {_fmt(v.td.threshold)})")
    print(f"chi2_median_bin_p: {_fmt(v.chi2.median_bin_p)}")
    print(f"accepted_tail_family: {e.accepted_family}")
    for w in v.warnings:
        print(f"warning: {w}")
    if vals["out"]:
        paths = write_report(result, vals["out"])
        print(f"report: {paths['report']}")
        print(f"slopes_csv: {paths['slopes_csv']}")
        print(f"tail_csv: {paths['tail_csv']}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    vals = _resolve(args, _SIMULATE_OPTS)
    names = vals["scenario"]
    scenarios = (
        tuple(parse_scenario(n) for n in names) if names else default_scenarios()
    )
    fs = vals["sample_rate"] if vals["sample_rate"] else DEFAULT_SAMPLE_RATE_HZ
    cfg = StudyConfig(
        scenarios=scenarios,
        n_samples=vals["n"],
        replicates=vals["replicates"],
        seed=vals["seed"],
        spect=_spect_config(vals, fs),
        band=vals["band"],
        seg=_seg_config(vals),
        bootstrap=vals["bootstrap"],
        calibration_replicates=vals["calibration_replicates"],
        workers=vals["workers"],
    )
    result = run_study(cfg, out_dir=vals["out_dir"])
    for scen in result.summary["scenarios"]:
        counts = scen["category_counts"]
        print(
            f"{scen['name']}: accuracy={scen['accuracy']:.2f} "
            f"(expected {scen['expected_category']}; "
            f"counts 1/2/3/4 = {counts['1']}/{counts['2']}/{counts['3']}/{counts['4']})"
        )
    if result.summary["low_confidence"]:
        print("warning: low replicate count; summary statistics are low-confidence")
    print(f"slopes_csv: {result.slopes_csv_path}")
    print(f"summary_json: {result.summary_json_path}")
    return 0


def cmd_gof(args: argparse.Namespace) -> int:
    vals = _resolve(args, _GOF_OPTS)
    signal = load_signal(_require_input(vals))
    res = ks_pvalue_mc(
        signal.values,
        family=vals["family"],
        bootstrap=vals["bootstrap"],
        seed=vals["seed"],
    )
    print(f"family: {res.family}")
    print(f"n: {len(signal.values)}")
    print(f"ks_statistic: {_fmt(res.statistic)}")
    print(f"p_value: {_fmt(res.p_value)} (bootstrap {res.bootstrap})")
    print(f"fitted: {res.fitted}")
    return 0


def cmd_spectrogram(args: argparse.Namespace) -> int:
    vals = _resolve(args, _SPECTROGRAM_OPTS)
    signal = load_signal(_require_input(vals), vals["sample_rate"])
    if not vals["out"]:
        raise ConfigError("an output path is required (--out or config 'out')")
    spec = spectrogram(signal.values, _spect_config(vals, signal.sample_rate_hz))
    with open(vals["out"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s," + ",".join(repr(float(f)) for f in spec.freqs_hz) + "\n")
        for t, row in zip(spec.times_s, spec.values):
            fh.write(repr(float(t)) + "," + ",".join(repr(float(x)) for x in row) + "\n")
    print(f"wrote {vals['out']} ({spec.values.shape[0]} frames x "
          f"{spec.values.shape[1]} bins)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailprobe",
        description=(
            "Decide whether a vibration signal's background noise has finite "
            "or infinite variance in the time and time-frequency domains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)

    def add_spect(p: argparse.ArgumentParser) -> None:
        p.add_argument("--window", type=int, help="window length in samples")
        p.add_argument("--kaiser-beta", type=float)
        p.add_argument("--overlap", type=int, help="samples shared by frames")
        p.add_argument("--nfft", type=int)
        p.add_argument("--sample-rate", type=float, help="Hz (CSV inputs)")

    def add_seg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jump-factor", type=float)
        p.add_argument("--min-segment-frac", type=float)
        p.add_argument("--fallback", choices=["longest_segment", "whole_trace"])

    p_an = sub.add_parser("analyze", help="full verdict for one signal file")
    p_an.add_argument("--input", help=".wav or .csv signal")
    p_an.add_argument("--out", help="JSON report path (CSV side files follow)")
    p_an.add_argument("--band", type=_parse_band, help="LO:HI in Hz")
    p_an.add_argument("--bootstrap", type=int)
    p_an.add_argument("--calibration-replicates", type=int)
    add_spect(p_an)
    add_seg(p_an)
    add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="scenario study with verdicts")
    p_sim.add_argument(
        "--scenario",
        action="append",
        help="family:p1:p2 (repeatable); default runs the nine references",
    )
    p_sim.add_argument("--n", type=int, help="samples per replicate")
    p_sim.add_argument("--replicates", type=int)
    p_sim.add_argument("--out-dir")
    p_sim.add_argument("--band", type=_parse_band, help="LO:HI in Hz")
    p_sim.add_argument("--bootstrap", type=int)
    p_sim.add_argument("--calibration-replicates", type=int)
    add_spect(p_sim)
    add_seg(p_sim)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_gof = sub.add_parser("gof", help="KS goodness of fit for one sample file")
    p_gof.add_argument("--input", help="sample file, one value per line")
    p_gof.add_argument("--family", choices=["genchi2", "gaussian"])
    p_gof.add_argument("--bootstrap", type=int)
    p_gof.add_argument("--config", help="flat key = value config file")
    p_gof.add_argument("--seed", type=int)
    p_gof.set_defaults(func=cmd_gof)

    p_sp = sub.add_parser("spectrogram", help="write the power spectrogram CSV")
    p_sp.add_argument("--input", help=".wav or .csv signal")
    p_sp.add_argument("--out", help="output CSV path")
    p_sp.add_argument("--config", help="flat key = value config file")
    add_spect(p_sp)
    p_sp.set_defaults(func=cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TailprobeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return ComputeError.exit_code


if __name__ == "__main__":
    sys.exit(main())
