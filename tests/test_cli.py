"""End-to-end command-line tests.

Every case drives main(argv) in process and checks exit codes, printed
output, and written files. Analyze runs reuse the same signal, spectrogram
settings, and Monte-Carlo sizes as the report tests so the memoized
calibration tables are shared across the suite.
"""

import argparse
import ast
import json
import re

import numpy as np
import pytest
from scipy.io import wavfile

from tailprobe.cli import build_parser, main

N, BOOT, CAL, SEED = 6000, 120, 20, 7

ANALYZE_FLAGS = [
    "--bootstrap", str(BOOT),
    "--calibration-replicates", str(CAL),
    "--seed", str(SEED),
]


def _write_gaussian_csv(path, seed=5, n=N):
    values = np.random.default_rng(seed).standard_normal(n)
    path.write_text("".join(repr(float(v)) + "\n" for v in values))


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_analyze_writes_report_and_prints_verdict(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_gaussian_csv(tmp_path / "sig.csv")
    rc = main(["analyze", "--input", "sig.csv", "--out", "rep.json"] + ANALYZE_FLAGS)
    out = capsys.readouterr().out
    assert rc == 0
    assert "category: 1" in out
    assert "td_variance_finite: true" in out
    assert "tfd_variance_finite: true" in out
    assert "chi2_pass: true" in out
    assert "accepted_tail_family: gaussian" in out
    assert "report: rep.json" in out
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["verdict"]["category"] == 1
    assert report["config"]["bootstrap"] == BOOT
    assert (tmp_path / "rep.slopes.csv").exists()
    assert (tmp_path / "rep.tail.csv").exists()


def test_analyze_missing_input_exits_3(tmp_path, capsys):
    rc = main(["analyze", "--input", str(tmp_path / "nope.csv")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_analyze_of_a_signal_too_short_for_twelve_frames_exits_3(tmp_path, capsys):
    _write_gaussian_csv(tmp_path / "sig.csv", n=785)
    rc = main(["analyze", "--input", str(tmp_path / "sig.csv"),
               "--bootstrap", "20", "--calibration-replicates", "20"])
    assert rc == 3
    assert "11 frames is too few" in capsys.readouterr().err


def test_numerical_failure_exits_4(tmp_path, monkeypatch, capsys):
    def failing_analyze(signal, cfg):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("tailprobe.cli.analyze", failing_analyze)
    _write_gaussian_csv(tmp_path / "sig.csv", n=100)
    rc = main(["analyze", "--input", str(tmp_path / "sig.csv")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "SVD did not converge" in err


def test_analyze_without_input_exits_2(capsys):
    rc = main(["analyze"])
    assert rc == 2
    assert "input" in capsys.readouterr().err


def test_malformed_band_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--input", str(tmp_path / "x.csv"), "--band", "foo"])
    assert excinfo.value.code == 2


def test_reversed_band_exits_2(tmp_path, capsys):
    _write_gaussian_csv(tmp_path / "sig.csv")
    rc = main(
        ["analyze", "--input", str(tmp_path / "sig.csv"), "--band", "9000:4500"]
    )
    assert rc == 2
    assert "band" in capsys.readouterr().err


def test_gof_reports_pvalue(tmp_path, capsys):
    values = np.random.default_rng(3).standard_normal(800)
    path = tmp_path / "vals.txt"
    path.write_text("".join(repr(float(v)) + "\n" for v in values))
    rc = main(
        ["gof", "--input", str(path), "--family", "gaussian",
         "--bootstrap", "99", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "family: gaussian" in out
    assert "n: 800" in out
    match = re.search(r"p_value: ([0-9.]+) \(bootstrap 99\)", out)
    assert match is not None
    p = float(match.group(1))
    # Gaussian data fitted by the Gaussian family: should not reject.
    assert 0.05 < p <= 1.0


def test_gof_rejects_unknown_family(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["gof", "--input", str(tmp_path / "x.txt"), "--family", "pareto"])
    assert excinfo.value.code == 2


def test_spectrogram_csv_round_trips(tmp_path, capsys):
    from tailprobe import SpectrogramConfig, spectrogram

    values = np.random.default_rng(2).standard_normal(40)
    sig = tmp_path / "sig.csv"
    sig.write_text("".join(repr(float(v)) + "\n" for v in values))
    out_csv = tmp_path / "spec.csv"
    rc = main(
        ["spectrogram", "--input", str(sig), "--out", str(out_csv),
         "--window", "8", "--overlap", "4", "--nfft", "8",
         "--kaiser-beta", "3.0"]
    )
    assert rc == 0
    assert f"wrote {out_csv} (9 frames x 5 bins)" in capsys.readouterr().out

    lines = out_csv.read_text().splitlines()
    assert len(lines) == 10
    header = lines[0].split(",")
    assert header[0] == "time_s"
    expected = spectrogram(
        values,
        SpectrogramConfig(window_length=8, kaiser_beta=3.0, overlap=4, nfft=8,
                          sample_rate_hz=25_000.0),
    )
    np.testing.assert_array_equal(
        np.array([float(h) for h in header[1:]]), expected.freqs_hz
    )
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 0], expected.times_s)
    np.testing.assert_array_equal(parsed[:, 1:], expected.values)


def test_spectrogram_requires_out(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("1.0\n2.0\n3.0\n")
    rc = main(["spectrogram", "--input", str(sig)])
    assert rc == 2
    assert "output path" in capsys.readouterr().err


def test_simulate_tiny_run(tmp_path, capsys):
    rc = main(
        ["simulate", "--scenario", "stable:2:1", "--n", "4000",
         "--replicates", "2", "--bootstrap", str(BOOT),
         "--calibration-replicates", str(CAL), "--seed", str(SEED),
         "--out-dir", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "stable:2:1: accuracy=" in out
    assert "low-confidence" in out
    match = re.search(r"summary_json: (.+)", out)
    summary = json.loads(open(match.group(1).strip()).read())
    assert summary["replicates"] == 2
    assert summary["scenarios"][0]["name"] == "stable:2:1"
    match = re.search(r"slopes_csv: (.+)", out)
    csv_lines = open(match.group(1).strip()).read().splitlines()
    assert csv_lines[0] == "scenario,replicate,median_abs_slope,iqr_abs_slope,td_verdict,category"
    assert len(csv_lines) == 3


def test_simulate_rejects_malformed_scenario(tmp_path, capsys):
    rc = main(
        ["simulate", "--scenario", "stable:3:1", "--n", "4000",
         "--replicates", "2", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_too_short_for_twelve_frames_exits_2_before_any_work(tmp_path, capsys):
    # No overlap: twelve frames need 500 + 11 * 500 samples.
    rc = main(["simulate", "--scenario", "stable:2:1", "--n", "1000",
               "--overlap", "0", "--replicates", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "need >= 6000" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["simulate", "--workers", "0"],
    ["gof", "--seed", "-1"],
    ["simulate", "--sample-rate", "0"],
])
def test_bad_seed_or_worker_count_exits_2(tmp_path, capsys, argv):
    values = tmp_path / "vals.txt"
    values.write_text("".join(f"{k}\n" for k in range(1, 51)))
    extra = ["--input", str(values), "--bootstrap", "5"] if argv[0] == "gof" else [
        "--scenario", "stable:2:1", "--n", "4000", "--replicates", "1",
        "--out-dir", str(tmp_path)]
    assert main(argv + extra) == 2
    assert "error:" in capsys.readouterr().err


_SIM_FLAGS = ["--scenario", "stable:2:1", "--n", "4000", "--replicates", "2",
              "--bootstrap", str(BOOT), "--calibration-replicates", str(CAL),
              "--seed", str(SEED)]


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--input", "bad.csv"], 3),  # a byte that is not UTF-8
    (["analyze", "--input", "cut.wav"], 3),  # cut off inside the RIFF header
    (["analyze", "--input", "cut30.wav"], 3),  # cut off inside the fmt chunk
    (["analyze", "--input", "sig.csv", "--config", "bad.cfg"], 2),
    (["analyze", "--input", "sig.csv", "--out", "F/r.json"] + ANALYZE_FLAGS, 2),
    (["spectrogram", "--input", "sig.csv", "--out", "F/s.csv"], 2),
    (["simulate", "--out-dir", "F/d"] + _SIM_FLAGS, 2),
], ids=["csv-not-utf8", "wav-riff-cut", "wav-fmt-cut", "config-not-utf8",
        "analyze-out-under-file", "spectrogram-out-under-file",
        "simulate-out-dir-under-file"])
def test_unreadable_input_or_unwritable_output_exits_with_an_error_line(
        tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    _write_gaussian_csv(tmp_path / "sig.csv")
    (tmp_path / "bad.csv").write_bytes(b"1.0\n2.0\n\xff\n")
    (tmp_path / "bad.cfg").write_bytes(b"seed = 1\n\xff\n")
    (tmp_path / "cut.wav").write_bytes(b"RIFF\x00\x00")
    wavfile.write(str(tmp_path / "ok.wav"), 8000, np.zeros(100, dtype=np.int16))
    (tmp_path / "cut30.wav").write_bytes((tmp_path / "ok.wav").read_bytes()[:30])
    (tmp_path / "F").write_text("a file, not a directory\n")
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1  # one line, no traceback


def test_config_file_precedence(tmp_path, monkeypatch, capsys):
    """CLI flag beats config file beats built-in default."""
    monkeypatch.chdir(tmp_path)
    _write_gaussian_csv(tmp_path / "sig.csv")
    (tmp_path / "opts.cfg").write_text(
        "# analysis options\n"
        "\n"
        f"bootstrap = {BOOT}\n"
        f"calibration-replicates = {CAL}\n"
        "seed = 99\n"
    )
    rc = main(
        ["analyze", "--input", "sig.csv", "--out", "rep.json",
         "--config", "opts.cfg", "--seed", str(SEED)]
    )
    assert rc == 0
    capsys.readouterr()
    cfg = json.loads((tmp_path / "rep.json").read_text())["config"]
    assert cfg["seed"] == SEED          # CLI flag wins over file's 99
    assert cfg["bootstrap"] == BOOT     # file wins over the default 200
    assert cfg["window_length"] == 500  # untouched default


def test_simulate_reads_a_scenario_list_from_the_config_file(tmp_path, capsys):
    (tmp_path / "study.cfg").write_text("scenario = stable:2:1, t:3:1\n")
    rc = main(
        ["simulate", "--config", str(tmp_path / "study.cfg"), "--n", "4000",
         "--replicates", "1", "--bootstrap", str(BOOT),
         "--calibration-replicates", str(CAL), "--seed", str(SEED),
         "--out-dir", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "stable:2:1: accuracy=" in out and "t:3:1: accuracy=" in out
    summary = json.loads((tmp_path / "study_summary.json").read_text())
    assert [s["name"] for s in summary["scenarios"]] == ["stable:2:1", "t:3:1"]


def test_config_keys_are_exactly_the_flags(tmp_path, capsys):
    """Every command accepts each of its long flags, and nothing else, as a
    config-file key; the rejected keys are read from the error message."""
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {s[2:] for a in p._actions for s in a.option_strings
               if s.startswith("--")} - {"help", "config"}
        for name, p in subparsers.choices.items()
    }
    assert set(flags) == {"analyze", "simulate", "gof", "spectrogram"}
    keys = set().union(*flags.values()) | {"config", "bogus"}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = 1\n" for k in sorted(keys)))
    for name, own in flags.items():
        assert main([name, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        rejected = ast.literal_eval(err.split("for this command: ", 1)[1].strip())
        assert keys - set(rejected) == own, name


def test_unknown_config_key_exits_2(tmp_path, capsys):
    (tmp_path / "opts.cfg").write_text("bogus = 1\n")
    rc = main(
        ["analyze", "--input", str(tmp_path / "sig.csv"),
         "--config", str(tmp_path / "opts.cfg")]
    )
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    (tmp_path / "opts.cfg").write_text("bootstrap = abc\n")
    rc = main(
        ["analyze", "--input", str(tmp_path / "sig.csv"),
         "--config", str(tmp_path / "opts.cfg")]
    )
    assert rc == 2
    assert "bad value" in capsys.readouterr().err


def test_analyze_is_byte_deterministic_across_runs(tmp_path, monkeypatch, capsys):
    """Equal seeds and equal relative paths give byte-identical outputs."""
    outputs = {}
    for label in ("a", "b"):
        workdir = tmp_path / label
        workdir.mkdir()
        _write_gaussian_csv(workdir / "sig.csv")
        monkeypatch.chdir(workdir)
        rc = main(["analyze", "--input", "sig.csv", "--out", "rep.json"]
                  + ANALYZE_FLAGS)
        assert rc == 0
        outputs[label] = {
            "stdout": capsys.readouterr().out,
            "report": (workdir / "rep.json").read_bytes(),
            "slopes": (workdir / "rep.slopes.csv").read_bytes(),
            "tail": (workdir / "rep.tail.csv").read_bytes(),
        }
    assert outputs["a"] == outputs["b"]
