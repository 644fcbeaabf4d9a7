"""Command-line interface: analyze, simulate, gof, spectrogram.

Each command declares its options once, in a table that maps the long flag
to the call its value feeds and that call's keyword. Values resolve with
precedence CLI flag > config file; an option set in neither place is not
passed on, so the config class or library function it feeds applies its own
default. The config file is flat ``key = value`` text ('#' comments allowed)
whose keys are the long flag names without the leading dashes; a repeatable
flag takes a comma-separated list, e.g.::

    window = 500
    kaiser-beta = 5
    band = 4500:9000
    scenario = stable:2:1, t:3:1

Exit codes: 0 success, 2 configuration error (an unwritable output path
included), 3 data error (an unreadable input included), 4 compute error.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

import numpy as np

from .analysis import AnalysisConfig, analyze, write_report
from .errors import ComputeError, ConfigError, TailprobeError
from .gof import ks_pvalue_mc
from .segmentation import SegmentationConfig
from .signal_io import Signal, load_signal
from .study import StudyConfig, parse_scenario, run_study
from .tfr import SpectrogramConfig, spectrogram


def _parse_band(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"band must look like LO:HI in Hz, got {text!r}")
    return float(parts[0]), float(parts[1])


# Option tables: flag -> (target, keyword, add_argument keywords). The value
# is passed as `keyword` to the target: "spect" and "seg" build
# SpectrogramConfig and SegmentationConfig, "load" is load_signal, "main" is
# the command's own call (AnalysisConfig, StudyConfig or ks_pvalue_mc), and
# the command itself reads "cmd".
_SPECT = {
    "window": ("spect", "window_length", dict(type=int, help="window length in samples")),
    "kaiser-beta": ("spect", "kaiser_beta", dict(type=float)),
    "overlap": ("spect", "overlap", dict(type=int, help="samples shared by frames")),
    "nfft": ("spect", "nfft", dict(type=int)),
}
_SEG = {
    "jump-factor": ("seg", "jump_factor", dict(type=float)),
    "min-segment-frac": ("seg", "min_segment_frac", dict(type=float)),
    "fallback": ("seg", "fallback", dict(choices=["longest_segment", "whole_trace"])),
}
_ANALYSIS = {  # the AnalysisConfig fields, which StudyConfig inherits
    "band": ("main", "band", dict(type=_parse_band, help="LO:HI in Hz")),
    "bootstrap": ("main", "bootstrap", dict(type=int)),
    "calibration-replicates": ("main", "calibration_replicates", dict(type=int)),
    "seed": ("main", "seed", dict(type=int)),
    "workers": ("main", "workers", dict(
        type=int, help="threads that draw the Monte-Carlo nulls")),
}
_SIGNAL_FILE = {
    "input": ("cmd", "input", dict(help=".wav or .csv signal")),
    "sample-rate": ("load", "sample_rate_hz", dict(type=float, help="Hz (CSV inputs)")),
}

_ANALYZE = {
    **_SIGNAL_FILE,
    "out": ("cmd", "out", dict(help="JSON report path (CSV side files follow)")),
    **_ANALYSIS,
    **_SPECT,
    **_SEG,
}
_SIMULATE = {
    "scenario": ("main", "scenarios", dict(
        action="append",
        help="family:p1:p2 (repeatable); default runs the nine references",
    )),
    "n": ("main", "n_samples", dict(type=int, help="samples per replicate")),
    "replicates": ("main", "replicates", dict(type=int)),
    "out-dir": ("cmd", "out_dir", dict(help="output directory (default: current)")),
    **_ANALYSIS,
    **_SPECT,
    "sample-rate": ("spect", "sample_rate_hz", dict(type=float, help="Hz")),
    **_SEG,
}
_GOF = {
    "input": ("cmd", "input", dict(help="sample file, one value per line")),
    "family": ("main", "family", dict(choices=["genchi2", "gaussian"])),
    "bootstrap": _ANALYSIS["bootstrap"],
    "seed": _ANALYSIS["seed"],
}
_SPECTROGRAM = {
    **_SIGNAL_FILE,
    "out": ("cmd", "out", dict(help="output CSV path")),
    **_SPECT,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _from_file(key: str, text: str, spec: dict):
    conv = spec.get("type", str)
    try:
        if spec.get("action") == "append":  # an empty list counts as not given
            return [conv(s.strip()) for s in text.split(",") if s.strip()] or None
        return conv(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: bad value {text!r}: {exc}") from exc


def _resolve(args: argparse.Namespace) -> dict[str, dict]:
    """The options given as a flag or in the config file (the flag wins), as
    target -> {keyword: value}; options given nowhere are left out."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(args.table)
    if unknown:
        raise ConfigError(
            f"unknown config keys for this command: {sorted(unknown)}"
        )
    vals: dict[str, dict] = defaultdict(dict)
    for flag, (target, keyword, spec) in args.table.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is None and flag in file_cfg:
            value = _from_file(flag, file_cfg[flag], spec)
        if value is not None:
            vals[target][keyword] = value
    return vals


def _required(cmd: dict, flag: str, what: str) -> str:
    if not cmd.get(flag):
        raise ConfigError(f"{what} is required (--{flag} or config '{flag}')")
    return cmd[flag]


def _load(opts: dict[str, dict]) -> Signal:
    return load_signal(_required(opts["cmd"], "input", "an input file"), **opts["load"])


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def cmd_analyze(opts: dict[str, dict]) -> int:
    signal = _load(opts)
    cfg = AnalysisConfig(
        spect=SpectrogramConfig(**opts["spect"]),
        seg=SegmentationConfig(**opts["seg"]),
        **opts["main"],
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
    if opts["cmd"].get("out"):
        paths = write_report(result, opts["cmd"]["out"])
        print(f"report: {paths['report']}")
        print(f"slopes_csv: {paths['slopes_csv']}")
        print(f"tail_csv: {paths['tail_csv']}")
    return 0


def cmd_simulate(opts: dict[str, dict]) -> int:
    study = opts["main"]
    if "scenarios" in study:
        study["scenarios"] = tuple(map(parse_scenario, study["scenarios"]))
    cfg = StudyConfig(
        spect=SpectrogramConfig(**opts["spect"]),
        seg=SegmentationConfig(**opts["seg"]),
        **study,
    )
    result = run_study(cfg, out_dir=opts["cmd"].get("out_dir", "."))
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


def cmd_gof(opts: dict[str, dict]) -> int:
    signal = _load(opts)
    res = ks_pvalue_mc(signal.values, **opts["main"])
    print(f"family: {res.family}")
    print(f"n: {len(signal.values)}")
    print(f"ks_statistic: {_fmt(res.statistic)}")
    print(f"p_value: {_fmt(res.p_value)} (bootstrap {res.bootstrap})")
    print(f"fitted: {res.fitted}")
    return 0


def cmd_spectrogram(opts: dict[str, dict]) -> int:
    signal = _load(opts)
    out = _required(opts["cmd"], "out", "an output path")
    spec = spectrogram(
        signal.values,
        SpectrogramConfig(**opts["spect"], sample_rate_hz=signal.sample_rate_hz),
    )
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s," + ",".join(repr(float(f)) for f in spec.freqs_hz) + "\n")
        for t, row in zip(spec.times_s, spec.values):
            fh.write(repr(float(t)) + "," + ",".join(repr(float(x)) for x in row) + "\n")
    print(f"wrote {out} ({spec.values.shape[0]} frames x "
          f"{spec.values.shape[1]} bins)")
    return 0


_COMMANDS = {
    "analyze": ("full verdict for one signal file", _ANALYZE, cmd_analyze),
    "simulate": ("scenario study with verdicts", _SIMULATE, cmd_simulate),
    "gof": ("KS goodness of fit for one sample file", _GOF, cmd_gof),
    "spectrogram": ("write the power spectrogram CSV", _SPECTROGRAM, cmd_spectrogram),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailprobe",
        description=(
            "Decide whether a vibration signal's background noise has finite "
            "or infinite variance in the time and time-frequency domains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, table, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        for flag, (_, _, spec) in table.items():
            p.add_argument(f"--{flag}", **spec)
        p.set_defaults(func=func, table=table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args))
    except TailprobeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return ComputeError.exit_code
    except OSError as exc:  # an output path; input-side ones are DataErrors
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
