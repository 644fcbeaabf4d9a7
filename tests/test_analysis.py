"""Single-signal analysis and report tests, including a golden-file byte
comparison that locks the end-to-end output format."""

import hashlib
import json
import os

import jsonschema
import numpy as np
import pytest

from tailprobe import (
    AnalysisConfig,
    ConfigError,
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    Signal,
    analyze,
    build_report,
    empirical_tail,
    load_signal,
    write_report,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# frozen digests of the CSV side files produced for the golden input
GOLDEN_SLOPES_SHA256 = "943d8f47513913ca1f58ac086c6f62577ae1d83839e4a275618311d001da3179"
GOLDEN_TAIL_SHA256 = "319d96e221c5834e057d3b6e1ecb4ed18311ab542ce8a161f3ef6f0745ebd3e4"


def _write_golden_input(path):
    """Deterministic Gaussian input used by the golden-file tests."""
    values = np.random.default_rng(5).standard_normal(6000)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in values:
            fh.write(f"{float(v)!r}\n")


def _golden_config():
    return AnalysisConfig(bootstrap=120, calibration_replicates=20, seed=7)


# ------------------------------------------------------------- configuration

def test_analysis_config_validation():
    with pytest.raises(ConfigError):
        AnalysisConfig(seed=-1)
    with pytest.raises(ConfigError):
        AnalysisConfig(bootstrap=0)
    with pytest.raises(ConfigError):
        AnalysisConfig(workers=0)


# ------------------------------------------------------------------ analyze

def test_signal_rate_drives_the_frequency_axis(tmp_path):
    rng = np.random.default_rng(9)
    sig = Signal(values=rng.standard_normal(6000), sample_rate_hz=8000.0)
    cfg = AnalysisConfig(bootstrap=30, calibration_replicates=20, seed=7)
    res = analyze(sig, cfg)
    report = build_report(res, "s.csv", "t.csv")
    # upper-half band of an 8 kHz axis spans 2-4 kHz
    assert report["config"]["band_hz"] == [2000.0, 4000.0]
    assert report["input"]["sample_rate_hz"] == 8000.0


def test_report_is_schema_valid_and_json_safe(tmp_path):
    p = tmp_path / "in.csv"
    _write_golden_input(str(p))
    res = analyze(load_signal(str(p)), _golden_config())
    report = build_report(res, "a.slopes.csv", "a.tail.csv")
    jsonschema.validate(report, REPORT_SCHEMA)  # explicit, same as builder
    json.dumps(report)  # round-trips without numpy leakage
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["verdict"]["category"] == 1
    # the Gaussian gate leaves the heavy-tail fits unset, serialized as null
    assert report["tail_fit"]["accepted_family"] == "gaussian"
    assert report["tail_fit"]["pareto_gamma"] is None
    assert report["tail_fit"]["t_nu"] is None


def test_report_schema_is_a_valid_schema():
    # build_report validates against a validator built once, which does
    # not check the schema itself; this does.
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


def test_schema_rejects_corrupt_reports(tmp_path):
    p = tmp_path / "in.csv"
    _write_golden_input(str(p))
    res = analyze(load_signal(str(p)), _golden_config())
    report = build_report(res, "a.slopes.csv", "a.tail.csv")
    bad = json.loads(json.dumps(report))
    bad["verdict"]["category"] = 5
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, REPORT_SCHEMA)
    missing = json.loads(json.dumps(report))
    del missing["chi2"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(missing, REPORT_SCHEMA)


def test_write_report_requires_json_suffix(tmp_path):
    sig = Signal(values=np.random.default_rng(1).standard_normal(2000),
                 sample_rate_hz=25_000.0)
    res = analyze(sig, AnalysisConfig(bootstrap=10, calibration_replicates=20,
                                      seed=7))
    with pytest.raises(ConfigError):
        write_report(res, str(tmp_path / "report.txt"))


# -------------------------------------------------------------- golden files

def test_report_matches_golden_bytes(tmp_path, monkeypatch):
    # If an intentional pipeline change lands, regenerate the golden file by
    # copying the freshly written golden_report.json from this test's tmp dir
    # into tests/golden/ and updating the CSV digests above.
    monkeypatch.chdir(tmp_path)
    _write_golden_input("golden_input.csv")
    sig = load_signal("golden_input.csv")
    paths = write_report(analyze(sig, _golden_config()), "golden_report.json")

    got = open(paths["report"], "rb").read()
    want = open(os.path.join(GOLDEN_DIR, "report_golden.json"), "rb").read()
    assert got == want, "report JSON deviates from the golden copy"

    slopes_digest = hashlib.sha256(open(paths["slopes_csv"], "rb").read()).hexdigest()
    tail_digest = hashlib.sha256(open(paths["tail_csv"], "rb").read()).hexdigest()
    assert slopes_digest == GOLDEN_SLOPES_SHA256
    assert tail_digest == GOLDEN_TAIL_SHA256


def test_write_report_is_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_golden_input("golden_input.csv")
    sig = load_signal("golden_input.csv")
    p1 = write_report(analyze(sig, _golden_config()), "r1.json")
    p2 = write_report(analyze(sig, _golden_config()), "r2.json")
    for k in ("slopes_csv", "tail_csv"):
        assert open(p1[k], "rb").read() == open(p2[k], "rb").read()
    a = json.load(open(p1["report"]))
    b = json.load(open(p2["report"]))
    assert {k: v for k, v in a.items() if k != "artifacts"} \
        == {k: v for k, v in b.items() if k != "artifacts"}


def test_csv_side_files_have_expected_shape(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_golden_input("golden_input.csv")
    sig = load_signal("golden_input.csv")
    paths = write_report(analyze(sig, _golden_config()), "rep.json")
    slopes = open(paths["slopes_csv"], encoding="utf-8").read().splitlines()
    assert slopes[0] == "freq_hz,slope,status,ks_p"
    assert len(slopes) == 1 + 129  # upper-half band of a 512-point axis
    row = slopes[1].split(",")
    float(row[0]), float(row[1]), float(row[3])
    assert row[2] in ("ok", "fallback", "skipped")
    tail = open(paths["tail_csv"], encoding="utf-8").read().splitlines()
    assert tail[0] == "abs_deviation,tail_prob"
    assert len(tail) == 1 + 6000


def test_tail_csv_of_alternating_lengths_matches_the_uncached_join(tmp_path):
    # the probability cells are cached for one length at a time
    cfg = AnalysisConfig(bootstrap=30, calibration_replicates=20, seed=7)
    rng = np.random.default_rng(4)
    results = [analyze(Signal(values=rng.standard_t(3, size=n), sample_rate_hz=8000.0), cfg)
               for n in (2000, 1500)]
    for i, res in enumerate(results * 2):
        paths = write_report(res, str(tmp_path / f"rep{i}.json"))
        values = res.signal.values
        xs, tail_p = empirical_tail(np.abs(values - np.median(values)))
        rows = zip(map(repr, xs.tolist()), map(repr, tail_p.tolist()))
        want = "abs_deviation,tail_prob\n" + "\n".join(map(",".join, rows)) + "\n"
        with open(paths["tail_csv"], encoding="utf-8") as fh:
            assert fh.read() == want
