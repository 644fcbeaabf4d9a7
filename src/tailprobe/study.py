"""Simulation studies: scenario sweeps with per-replicate verdicts.

Replicate r of scenario s draws its sample from the stream
``(seed, STUDY, s, r)`` of ``distributions.stream``, so any row can be
regenerated in isolation:
``assess(sample(spec, n_samples, stream(seed, STUDY, s, r)), cfg)``.
The verdict's Monte-Carlo nulls draw from their own streams of the same
seed, so they are computed once per configuration. Rows run in order on
the calling thread; ``workers`` sizes only the thread pool that draws the
nulls, on the first row. Outputs are a CSV of per-replicate slope
summaries and verdicts plus a JSON summary, both written deterministically
(same bytes for the same config, any worker count).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    STUDY,
    AlphaStable,
    DistributionSpec,
    GenChi2,
    SymPareto,
    TLocScale,
    sample,
    stream,
)
from .errors import ConfigError
from .quantiles import median, quantile
from .verdict import AnalysisConfig, assess

_LOW_CONFIDENCE_REPLICATES = 10  # fewer than this flags the summary


@dataclass(frozen=True)
class Scenario:
    """A named noise law to simulate."""

    name: str
    spec: DistributionSpec


_FAMILY_BUILDERS = {
    "stable": AlphaStable,
    "pareto": SymPareto,
    "t": TLocScale,
    "genchi2": GenChi2,
}


def parse_scenario(text: str) -> Scenario:
    """Parse 'family:param1:param2', e.g. 'stable:1.5:1' or 'pareto:6:1'."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"scenario must look like family:param1:param2, got {text!r}"
        )
    family = parts[0].strip().lower()
    if family not in _FAMILY_BUILDERS:
        raise ConfigError(
            f"unknown family {family!r}; choose from {sorted(_FAMILY_BUILDERS)}"
        )
    try:
        p1, p2 = float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise ConfigError(f"scenario parameters must be numbers: {text!r}") from exc
    spec = _FAMILY_BUILDERS[family](p1, p2)
    return Scenario(name=f"{family}:{parts[1].strip()}:{parts[2].strip()}", spec=spec)


def default_scenarios() -> tuple[Scenario, ...]:
    """The nine reference scenarios spanning all four categories."""
    names = (
        "stable:2:1",
        "stable:1.9:1",
        "stable:1.5:1",
        "pareto:6:1",
        "pareto:3:1",
        "pareto:1.5:1",
        "t:6:1",
        "t:3:1",
        "t:1.5:1",
    )
    return tuple(parse_scenario(n) for n in names)


def expected_category(spec: DistributionSpec) -> int:
    """Ground-truth category from the law's parameters: tail index > 2 keeps
    TD variance finite, > 4 keeps spectrogram variance finite, and only the
    exact Gaussian satisfies the spectrogram chi-squared law."""
    if isinstance(spec, AlphaStable):
        return 1 if spec.alpha == 2.0 else 4
    if isinstance(spec, SymPareto):
        index = spec.gamma
    elif isinstance(spec, TLocScale):
        index = spec.nu
    elif isinstance(spec, GenChi2):
        return 2
    else:
        raise ConfigError(f"unknown distribution spec: {spec!r}")
    if index > 4.0:
        return 2
    if index > 2.0:
        return 3
    return 4


@dataclass(frozen=True)
class StudyConfig(AnalysisConfig):
    """An ``AnalysisConfig`` plus what to simulate: scenarios, n, replicates."""

    scenarios: tuple[Scenario, ...] = field(default_factory=default_scenarios)
    n_samples: int = 10_000
    replicates: int = 50

    def __post_init__(self):
        super().__post_init__()
        if not self.scenarios:
            raise ConfigError("need at least one scenario")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.n_samples < self.min_samples:
            raise ConfigError(
                f"n_samples={self.n_samples} too short: the spectrogram "
                f"settings need >= {self.min_samples}"
            )


@dataclass(frozen=True)
class StudyRow:
    scenario: str
    replicate: int
    median_abs_slope: float
    iqr_abs_slope: float
    td_finite: bool
    category: int


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]
    summary: dict
    slopes_csv_path: str | None = None
    summary_json_path: str | None = None


def _one_row(cfg: StudyConfig, s: int, r: int) -> StudyRow:
    scen = cfg.scenarios[s]
    v = assess(sample(scen.spec, cfg.n_samples, stream(cfg.seed, STUDY, s, r)), cfg)
    return StudyRow(
        scenario=scen.name,
        replicate=r,
        median_abs_slope=v.profile.median_abs,
        iqr_abs_slope=v.profile.iqr_abs,
        td_finite=v.td_finite,
        category=v.category,
    )


def run_study(cfg: StudyConfig, out_dir: str | None = None) -> StudyResult:
    """Run every scenario x replicate, optionally writing study_slopes.csv
    and study_summary.json into out_dir."""
    rows = tuple(
        _one_row(cfg, s, r)
        for s in range(len(cfg.scenarios))
        for r in range(cfg.replicates)
    )

    scenarios_summary = []
    for s, scen in enumerate(cfg.scenarios):
        # Rows come out scenario-major; a name may be listed twice.
        sub = rows[s * cfg.replicates:(s + 1) * cfg.replicates]
        cats = np.array([row.category for row in sub])
        expected = expected_category(scen.spec)
        scenarios_summary.append(
            {
                "name": scen.name,
                "expected_category": expected,
                "category_counts": {
                    str(c): int(np.sum(cats == c)) for c in (1, 2, 3, 4)
                },
                "accuracy": float(np.mean(cats == expected)),
                "td_finite_rate": float(np.mean([row.td_finite for row in sub])),
                "median_of_median_abs_slope": float(
                    median([row.median_abs_slope for row in sub])
                ),
                "median_of_iqr_abs_slope": float(
                    median([row.iqr_abs_slope for row in sub])
                ),
                "q90_of_median_abs_slope": float(
                    quantile(np.array([row.median_abs_slope for row in sub]), 0.9)
                ),
            }
        )
    summary = {
        "schema_version": "1",
        "n_samples": cfg.n_samples,
        "replicates": cfg.replicates,
        "seed": cfg.seed,
        "low_confidence": cfg.replicates < _LOW_CONFIDENCE_REPLICATES,
        "scenarios": scenarios_summary,
    }

    slopes_path = summary_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        slopes_path = os.path.join(out_dir, "study_slopes.csv")
        with open(slopes_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(
                "scenario,replicate,median_abs_slope,iqr_abs_slope,td_verdict,category\n"
            )
            for row in rows:
                fh.write(
                    f"{row.scenario},{row.replicate},{row.median_abs_slope!r},"
                    f"{row.iqr_abs_slope!r},{'true' if row.td_finite else 'false'},"
                    f"{row.category}\n"
                )
        summary_path = os.path.join(out_dir, "study_summary.json")
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return StudyResult(
        rows=rows,
        summary=summary,
        slopes_csv_path=slopes_path,
        summary_json_path=summary_path,
    )
