"""Simulation harness tests: scenario parsing, expected categories, the
study loop's outputs, and byte-level reproducibility."""

import json
import threading

import numpy as np
import pytest

from tailprobe import (
    AlphaStable,
    ConfigError,
    GenChi2,
    Scenario,
    Signal,
    StudyConfig,
    SymPareto,
    TLocScale,
    analyze,
    assess,
    clear_caches,
    default_scenarios,
    expected_category,
    parse_scenario,
    run_study,
    sample,
)
from tailprobe import analysis, study, verdict
from tailprobe.distributions import STUDY, stream

TINY = dict(n_samples=4000, replicates=3, bootstrap=120,
            calibration_replicates=20, seed=7)


def _tiny_config(**over):
    kw = dict(TINY)
    kw.update(over)
    return StudyConfig(
        scenarios=(parse_scenario("stable:2:1"), parse_scenario("pareto:1.5:1")),
        **kw,
    )


# ------------------------------------------------------------------ parsing

def test_parse_scenario_families():
    s = parse_scenario("stable:1.5:2")
    assert s.name == "stable:1.5:2"
    assert s.spec == AlphaStable(1.5, 2.0)
    assert parse_scenario("pareto:3:1").spec == SymPareto(3.0, 1.0)
    assert parse_scenario("t:6:0.5").spec == TLocScale(6.0, 0.5)
    assert parse_scenario("genchi2:2:1").spec == GenChi2(2.0, 1.0)


def test_parse_scenario_rejects_malformed():
    for bad in ("stable", "stable:1.5", "stable:1.5:1:9", "weibull:1:1",
                "stable:zero:1", "stable:3:1"):
        with pytest.raises(ConfigError):
            parse_scenario(bad)


def test_default_scenarios():
    names = [s.name for s in default_scenarios()]
    assert names == ["stable:2:1", "stable:1.9:1", "stable:1.5:1",
                     "pareto:6:1", "pareto:3:1", "pareto:1.5:1",
                     "t:6:1", "t:3:1", "t:1.5:1"]


def test_expected_categories():
    assert expected_category(AlphaStable(2.0, 1.0)) == 1
    assert expected_category(AlphaStable(1.9, 1.0)) == 4
    assert expected_category(AlphaStable(1.5, 1.0)) == 4
    assert expected_category(SymPareto(6.0, 1.0)) == 2
    assert expected_category(SymPareto(3.0, 1.0)) == 3
    assert expected_category(SymPareto(1.5, 1.0)) == 4
    assert expected_category(TLocScale(6.0, 1.0)) == 2
    assert expected_category(TLocScale(3.0, 1.0)) == 3
    assert expected_category(TLocScale(1.5, 1.0)) == 4
    assert expected_category(GenChi2(2.0, 1.0)) == 2


def test_study_config_validation():
    with pytest.raises(ConfigError):
        _tiny_config(replicates=0)
    with pytest.raises(ConfigError):
        _tiny_config(n_samples=600)  # shorter than two windows
    for bad in (dict(seed=-1), dict(bootstrap=0), dict(workers=0)):
        with pytest.raises(ConfigError):
            _tiny_config(**bad)
    # Twelve frames need the window (500) plus 11 hops (26 each).
    assert _tiny_config(n_samples=786).min_samples == 786
    with pytest.raises(ConfigError):
        _tiny_config(n_samples=785)


# ---------------------------------------------------------------- the study

def test_run_study_rows_and_summary(tmp_path):
    clear_caches()
    out = tmp_path / "study"
    res = run_study(_tiny_config(), out_dir=str(out))
    assert len(res.rows) == 6
    names = {row.scenario for row in res.rows}
    assert names == {"stable:2:1", "pareto:1.5:1"}
    assert all(row.category in (1, 2, 3, 4) for row in res.rows)

    summary = res.summary
    assert summary["replicates"] == 3
    assert summary["low_confidence"] is True  # fewer than 10 replicates
    by_name = {s["name"]: s for s in summary["scenarios"]}
    assert by_name["stable:2:1"]["expected_category"] == 1
    assert by_name["pareto:1.5:1"]["expected_category"] == 4
    counts = by_name["stable:2:1"]["category_counts"]
    assert sum(counts.values()) == 3

    # infinite-variance slopes dwarf the Gaussian ones even at this scale
    assert (by_name["pareto:1.5:1"]["median_of_median_abs_slope"]
            > 10.0 * by_name["stable:2:1"]["median_of_median_abs_slope"])


def test_run_study_writes_expected_files(tmp_path):
    out = tmp_path / "study"
    res = run_study(_tiny_config(), out_dir=str(out))
    assert res.slopes_csv_path and res.summary_json_path
    csv_lines = open(res.slopes_csv_path, encoding="utf-8").read().splitlines()
    assert csv_lines[0] == ("scenario,replicate,median_abs_slope,"
                            "iqr_abs_slope,td_verdict,category")
    assert len(csv_lines) == 1 + 6
    first = csv_lines[1].split(",")
    assert first[0] == "stable:2:1" and first[1] == "0"
    float(first[2]), float(first[3])  # numeric fields parse
    assert first[4] in ("true", "false")

    with open(res.summary_json_path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded == json.loads(json.dumps(res.summary))


def test_run_study_replicates_differ_within_scenario():
    res = run_study(_tiny_config())
    stable_rows = [r for r in res.rows if r.scenario == "stable:2:1"]
    slopes = {r.median_abs_slope for r in stable_rows}
    assert len(slopes) == 3  # distinct replicate seeds give distinct draws


def test_run_study_bytes_reproducible(tmp_path):
    cfg = _tiny_config()
    clear_caches()
    run_study(cfg, out_dir=str(tmp_path / "a"))
    clear_caches()
    run_study(cfg, out_dir=str(tmp_path / "b"))
    for name in ("study_slopes.csv", "study_summary.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_run_study_worker_invariant(tmp_path):
    clear_caches()
    run_study(_tiny_config(workers=1), out_dir=str(tmp_path / "w1"))
    clear_caches()
    run_study(_tiny_config(workers=3), out_dir=str(tmp_path / "w3"))
    for name in ("study_slopes.csv", "study_summary.json"):
        a = (tmp_path / "w1" / name).read_bytes()
        b = (tmp_path / "w3" / name).read_bytes()
        assert a == b, f"{name} differs across worker counts"


def test_run_study_runs_every_row_on_the_calling_thread(monkeypatch):
    threads = []

    def on_thread(*args, **kwargs):
        threads.append(threading.get_ident())
        return assess(*args, **kwargs)

    monkeypatch.setattr(study, "assess", on_thread)
    run_study(_tiny_config(workers=3))
    assert threads == [threading.get_ident()] * 6


def test_run_study_builds_each_null_once(null_builds):
    clear_caches()
    run_study(_tiny_config(workers=3))
    assert null_builds == {name: [3] for name in null_builds}


def test_run_study_accuracy_on_gaussian_scenario():
    cfg = StudyConfig(scenarios=(parse_scenario("stable:2:1"),),
                      n_samples=4000, replicates=10, bootstrap=120,
                      calibration_replicates=20, seed=7)
    res = run_study(cfg)
    acc = res.summary["scenarios"][0]["accuracy"]
    assert acc >= 0.9
    assert res.summary["low_confidence"] is False


def test_run_study_summarizes_a_repeated_scenario_by_position():
    s = parse_scenario("stable:2:1")
    cfg = StudyConfig(scenarios=(s, s), n_samples=2000, replicates=2,
                      calibration_replicates=20, bootstrap=20)
    res = run_study(cfg)
    for k, entry in enumerate(res.summary["scenarios"]):
        rows = res.rows[2 * k:2 * k + 2]
        assert sum(entry["category_counts"].values()) == 2
        assert entry["td_finite_rate"] == np.mean([row.td_finite for row in rows])
        assert entry["median_of_median_abs_slope"] == np.median(
            [row.median_abs_slope for row in rows])


def test_a_study_row_regenerates_on_its_own():
    cfg = _tiny_config()
    res = run_study(cfg)
    for k, row in enumerate(res.rows):
        s, r = divmod(k, cfg.replicates)
        assert (row.scenario, row.replicate) == (cfg.scenarios[s].name, r)
        x = sample(cfg.scenarios[s].spec, cfg.n_samples, stream(cfg.seed, STUDY, s, r))
        v = assess(x, cfg)
        assert row.category == v.category
        assert row.td_finite == v.td_finite
        assert row.median_abs_slope == v.profile.median_abs
        assert row.iqr_abs_slope == v.profile.iqr_abs


# Each layer at the module attribute its caller looks it up through, and the
# calls that one analyze and a one-row study make of it.
@pytest.mark.parametrize("module, name, from_analyze, from_study", [
    (analysis, "assess", 1, 0),
    (study, "assess", 0, 1),
    (verdict, "td_verdict", 1, 1),
    (verdict, "chi2_evidence", 1, 1),
])
def test_analyze_and_run_study_call_each_layer_through_its_module(
    monkeypatch, module, name, from_analyze, from_study
):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    cfg = StudyConfig(scenarios=(parse_scenario("t:3:1"),), **dict(TINY, replicates=1))
    x = sample(cfg.scenarios[0].spec, cfg.n_samples, np.random.default_rng(8))
    analyze(Signal(values=x, sample_rate_hz=cfg.spect.sample_rate_hz), cfg)
    assert len(calls) == from_analyze
    run_study(cfg)
    assert len(calls) == from_analyze + from_study
