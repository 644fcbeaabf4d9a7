"""tailprobe: finite- vs infinite-variance verdicts for vibration noise.

Given a raw signal, the package decides whether its background noise has
finite or infinite variance in the time domain and in the time-frequency
(spectrogram) domain, checks the Gaussian spectrogram law per frequency bin,
and assigns one of four categories. See README.md for the pipeline and the
CLI.
"""

from .analysis import (
    AnalysisConfig,
    AnalysisResult,
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    analyze,
    build_report,
    write_report,
)
from .distributions import (
    AlphaStable,
    DistributionSpec,
    GaussianTfrParams,
    GenChi2,
    SymPareto,
    TLocScale,
    TailResult,
    cdf,
    fit_gen_chi2,
    gen_chi2_from_gaussian,
    pdf,
    sample,
    tail,
)
from .ecfm import EcfmTrace, cond_std, ecfm, normalize
from .errors import ComputeError, ConfigError, DataError, TailprobeError
from .gof import KsResult, ecdf, empirical_tail, ks_pvalue_mc, ks_stat
from .quantiles import iqr, quantile
from .segmentation import (
    SegmentationConfig,
    detect_jumps,
    fit_slope,
    last_long_segment,
    segments_between_jumps,
)
from .signal_io import Signal, load_signal
from .study import (
    Scenario,
    StudyConfig,
    StudyResult,
    StudyRow,
    default_scenarios,
    expected_category,
    parse_scenario,
    run_study,
)
from .tfr import (
    Spectrogram,
    SpectrogramConfig,
    kaiser_window,
    spectrogram,
    stft,
    sub_signal,
)
from .verdict import (
    Chi2Evidence,
    SlopeProfile,
    TailEvidence,
    TdVerdict,
    VarianceVerdict,
    assess,
    calibrate_td_threshold,
    calibrate_threshold,
    chi2_evidence,
    classify,
    clear_caches,
    slope_profile,
    td_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaStable", "AnalysisConfig", "AnalysisResult", "Chi2Evidence",
    "ComputeError", "ConfigError", "DataError", "DistributionSpec",
    "EcfmTrace", "GaussianTfrParams", "GenChi2", "KsResult",
    "REPORT_SCHEMA", "SCHEMA_VERSION", "Scenario", "SegmentationConfig",
    "Signal", "SlopeProfile", "Spectrogram", "SpectrogramConfig",
    "StudyConfig", "StudyResult", "StudyRow", "SymPareto", "TLocScale",
    "TailEvidence", "TailResult", "TailprobeError", "TdVerdict",
    "VarianceVerdict", "analyze", "assess", "build_report",
    "calibrate_td_threshold", "calibrate_threshold", "cdf", "chi2_evidence",
    "classify", "clear_caches", "cond_std", "default_scenarios", "detect_jumps", "ecdf",
    "ecfm", "empirical_tail", "expected_category", "fit_gen_chi2",
    "fit_slope", "gen_chi2_from_gaussian", "iqr", "kaiser_window",
    "ks_pvalue_mc", "ks_stat", "last_long_segment", "load_signal",
    "normalize", "parse_scenario", "pdf", "quantile", "run_study", "sample",
    "segments_between_jumps", "slope_profile", "spectrogram", "stft",
    "sub_signal", "tail", "td_verdict", "write_report",
]
