"""Noise-family models: sampling, densities, tail probabilities, moment fits.

Four symmetric-or-positive families cover the noise regimes the analysis
distinguishes:

- ``AlphaStable(alpha, sigma)``: characteristic function exp(-sigma^alpha
  |t|^alpha). alpha=2 is Gaussian with variance 2*sigma^2, alpha=1 is Cauchy
  with scale sigma. Densities/CDFs exist in closed form only for those two.
- ``SymPareto(gamma, lam)``: symmetric Lomax, density
  gamma*lam^gamma / (2*(|x|+lam)^(gamma+1)); variance finite iff gamma > 2.
- ``TLocScale(nu, delta)``: scaled Student t; variance finite iff nu > 2.
- ``GenChi2(theta, beta)``: gamma(theta/2, scale 2*beta), the law of
  spectrogram power at one bin under Gaussian input; always finite variance.

Sampling is deterministic given a seed. The stable sampler uses the
Chambers-Mallows-Stuck transform, whose single formula reduces exactly to
tan(U) at alpha=1 and to 2*sin(U)*sqrt(W) at alpha=2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from scipy import special

from .errors import ConfigError, DataError


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class AlphaStable:
    """Symmetric alpha-stable law, 0 < alpha <= 2, scale sigma > 0."""

    alpha: float
    sigma: float

    def __post_init__(self):
        a = float(self.alpha)
        if not np.isfinite(a) or not 0 < a <= 2:
            raise ConfigError(f"alpha must lie in (0, 2], got {a!r}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "sigma", _check_positive("sigma", self.sigma))

    @property
    def variance_is_finite(self) -> bool:
        return self.alpha == 2.0

    def variance(self) -> float:
        return 2.0 * self.sigma**2 if self.alpha == 2.0 else float("inf")


@dataclass(frozen=True)
class SymPareto:
    """Symmetric Pareto (Lomax) law with shape gamma > 0 and scale lam > 0."""

    gamma: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _check_positive("gamma", self.gamma))
        object.__setattr__(self, "lam", _check_positive("lam", self.lam))

    @property
    def variance_is_finite(self) -> bool:
        return self.gamma > 2.0

    def variance(self) -> float:
        g, lam = self.gamma, self.lam
        if g <= 2.0:
            return float("inf")
        return 2.0 * lam**2 / ((g - 1.0) * (g - 2.0))


@dataclass(frozen=True)
class TLocScale:
    """Student t with nu > 0 degrees of freedom, scaled by delta > 0."""

    nu: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "nu", _check_positive("nu", self.nu))
        object.__setattr__(self, "delta", _check_positive("delta", self.delta))

    @property
    def variance_is_finite(self) -> bool:
        return self.nu > 2.0

    def variance(self) -> float:
        if self.nu <= 2.0:
            return float("inf")
        return self.delta**2 * self.nu / (self.nu - 2.0)


@dataclass(frozen=True)
class GenChi2:
    """Generalized chi-squared: gamma(theta/2, scale 2*beta), theta not
    necessarily an integer."""

    theta: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_positive("theta", self.theta))
        object.__setattr__(self, "beta", _check_positive("beta", self.beta))

    @property
    def variance_is_finite(self) -> bool:
        return True

    def variance(self) -> float:
        return 2.0 * self.theta * self.beta**2

    def mean(self) -> float:
        return self.theta * self.beta


DistributionSpec = Union[AlphaStable, SymPareto, TLocScale, GenChi2]


class TailResult(NamedTuple):
    """Tail probability P(X > x); ``asymptotic`` marks a large-x power-law
    approximation rather than an exact value."""

    value: float
    asymptotic: bool


# Stream ids: every Monte-Carlo use draws from stream(seed, id, ...), so no
# two uses, and no two indices within a use, share a bitstream (NEP 19).
TFD_CALIBRATION, TD_CALIBRATION, CHI2_NULL, STUDY = 0, 1, 2, 4  # id 3 is retired


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator of stream ``key`` under ``seed``; no key: default_rng(seed)."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample(spec: DistributionSpec, n: int, seed) -> np.ndarray:
    """Draw n values from the family. ``seed`` is an int or a Generator."""
    n = int(n)
    if n <= 0:
        raise ConfigError(f"sample size must be positive, got {n}")
    rng = _as_rng(seed)
    if isinstance(spec, AlphaStable):
        a = spec.alpha
        u = (rng.random(n) - 0.5) * np.pi
        w = rng.standard_exponential(n)
        # Chambers-Mallows-Stuck; the (1-a)/a exponent vanishes at a=1 so the
        # same expression yields tan(u) there, and 2*sin(u)*sqrt(w) at a=2.
        x = (
            np.sin(a * u)
            / np.cos(u) ** (1.0 / a)
            * (np.cos(u - a * u) / w) ** ((1.0 - a) / a)
        )
        return spec.sigma * x
    if isinstance(spec, SymPareto):
        u = 1.0 - rng.random(n)  # in (0, 1], keeps the inverse survival finite
        mag = spec.lam * (u ** (-1.0 / spec.gamma) - 1.0)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return sign * mag
    if isinstance(spec, TLocScale):
        return spec.delta * rng.standard_t(spec.nu, size=n)
    if isinstance(spec, GenChi2):
        return rng.gamma(spec.theta / 2.0, scale=2.0 * spec.beta, size=n)
    raise ConfigError(f"unknown distribution spec: {spec!r}")


def pdf(spec: DistributionSpec, x) -> np.ndarray | float:
    """Density of the family at x (vectorized).

    AlphaStable densities are available only for alpha in {1, 2}.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(spec, AlphaStable):
        s = spec.sigma
        if spec.alpha == 2.0:
            out = np.exp(-(x**2) / (4.0 * s**2)) / (2.0 * s * np.sqrt(np.pi))
        elif spec.alpha == 1.0:
            out = s / (np.pi * (x**2 + s**2))
        else:
            raise ConfigError(
                "stable density is available only for alpha in {1, 2}; "
                f"got alpha={spec.alpha}"
            )
    elif isinstance(spec, SymPareto):
        g, lam = spec.gamma, spec.lam
        out = 0.5 * g * lam**g / (np.abs(x) + lam) ** (g + 1.0)
    elif isinstance(spec, TLocScale):
        nu, d = spec.nu, spec.delta
        lognorm = (
            special.gammaln((nu + 1.0) / 2.0)
            - special.gammaln(nu / 2.0)
            - 0.5 * np.log(nu * np.pi)
            - np.log(d)
        )
        out = np.exp(
            lognorm - (nu + 1.0) / 2.0 * np.log1p((x / d) ** 2 / nu)
        )
    elif isinstance(spec, GenChi2):
        k, scale = spec.theta / 2.0, 2.0 * spec.beta
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (
                (k - 1.0) * np.log(x / scale)
                - x / scale
                - special.gammaln(k)
                - np.log(scale)
            )
            out = np.where(x > 0, np.exp(logpdf), 0.0)
    else:
        raise ConfigError(f"unknown distribution spec: {spec!r}")
    return out if out.ndim else float(out)


def cdf(spec: DistributionSpec, x) -> np.ndarray | float:
    """CDF of the family at x (vectorized); stable needs alpha in {1, 2}."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, AlphaStable):
        if spec.alpha == 2.0:
            out = special.ndtr(x / (spec.sigma * np.sqrt(2.0)))
        elif spec.alpha == 1.0:
            out = 0.5 + np.arctan(x / spec.sigma) / np.pi
        else:
            raise ConfigError(
                "stable CDF is available only for alpha in {1, 2}; "
                f"got alpha={spec.alpha}"
            )
    elif isinstance(spec, SymPareto):
        g, lam = spec.gamma, spec.lam
        out = np.where(
            x >= 0,
            1.0 - 0.5 * (lam / (np.abs(x) + lam)) ** g,
            0.5 * (lam / (np.abs(x) + lam)) ** g,
        )
    elif isinstance(spec, TLocScale):
        out = special.stdtr(spec.nu, x / spec.delta)
    elif isinstance(spec, GenChi2):
        z = np.maximum(x, 0.0) / (2.0 * spec.beta)
        out = np.where(x > 0, special.gammainc(spec.theta / 2.0, z), 0.0)
    else:
        raise ConfigError(f"unknown distribution spec: {spec!r}")
    return out if out.ndim else float(out)


def tail(spec: DistributionSpec, x) -> TailResult:
    """P(X > x). Exact for families with a CDF; for AlphaStable with
    alpha outside {1, 2} returns the large-x power-law approximation
    C_alpha * sigma^alpha * x^(-alpha) with the asymptotic flag set."""
    xs = np.asarray(x, dtype=float)
    if isinstance(spec, AlphaStable) and spec.alpha not in (1.0, 2.0):
        if np.any(xs <= 0):
            raise ConfigError(
                "asymptotic stable tail is defined for x > 0 only"
            )
        a = spec.alpha
        c_alpha = special.gamma(a) * np.sin(np.pi * a / 2.0) / np.pi
        out = c_alpha * spec.sigma**a * xs ** (-a)
        return TailResult(out if out.ndim else float(out), True)
    if not isinstance(spec, GenChi2):
        return TailResult(cdf(spec, -xs), False)  # symmetric: F(-x)
    z = np.maximum(xs, 0.0) / (2.0 * spec.beta)
    out = np.where(xs > 0, special.gammaincc(spec.theta / 2.0, z), 1.0)
    return TailResult(out if out.ndim else float(out), False)


def fit_gen_chi2(sample_values) -> GenChi2:
    """Moment-matched GenChi2 fit: beta = var/(2*mean), theta = 2*mean^2/var.

    Requires at least 10 nonnegative values with positive sample variance.
    """
    v = np.asarray(sample_values, dtype=float)
    if v.ndim != 1 or len(v) < 10:
        raise DataError(f"need a 1-D sample of length >= 10, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DataError("sample contains NaN or Inf")
    if np.any(v < 0):
        raise DataError("generalized chi-squared samples must be nonnegative")
    m = float(np.mean(v))
    var = float(np.var(v, ddof=1))
    if var <= 0:
        raise DataError("degenerate sample: zero variance")
    return GenChi2(theta=2.0 * m * m / var, beta=var / (2.0 * m))


@dataclass(frozen=True)
class GaussianTfrParams:
    """Second moments of one complex spectrogram coefficient under Gaussian
    input: variances of the real and imaginary parts and their covariance.

    var_imag may be 0 (purely real coefficient, e.g. the DC bin), in which
    case the covariance must also be 0 by Cauchy-Schwarz.
    """

    var_real: float
    var_imag: float
    cov: float

    def __post_init__(self):
        vr = float(self.var_real)
        vi = float(self.var_imag)
        c = float(self.cov)
        if not np.isfinite(vr) or vr <= 0:
            raise ConfigError(f"var_real must be positive and finite, got {vr!r}")
        if not np.isfinite(vi) or vi < 0:
            raise ConfigError(f"var_imag must be nonnegative and finite, got {vi!r}")
        if not np.isfinite(c) or abs(c) > np.sqrt(vr * vi):
            raise ConfigError(
                f"|cov| must not exceed sqrt(var_real*var_imag); got cov={c!r} "
                f"with bound {np.sqrt(vr * vi)!r}"
            )
        object.__setattr__(self, "var_real", vr)
        object.__setattr__(self, "var_imag", vi)
        object.__setattr__(self, "cov", c)


def gen_chi2_from_gaussian(params: GaussianTfrParams) -> GenChi2:
    """GenChi2 law of |coefficient|^2 given the coefficient's second moments:
    theta = (vr+vi)^2 / (vr^2 + vi^2 + 2*cov^2), beta = (vr+vi)/2."""
    vr, vi, c = params.var_real, params.var_imag, params.cov
    theta = (vr + vi) ** 2 / (vr**2 + vi**2 + 2.0 * c**2)
    beta = (vr + vi) / 2.0
    return GenChi2(theta=theta, beta=beta)
