"""Tail identification: the decider for the TD/TFD variance booleans.

Every estimator reads the sample centred once on its median. A
stability-index estimate from the empirical characteristic function gates
the Gaussian regime; otherwise symmetric-Pareto and t fits are accepted
only when their exact KS distance is small AND the implied tail index
agrees with a peaks-over-threshold shape estimate. Accepted fits make the
call via the tail-index boundaries (index > 2: TD variance finite;
index > 4: spectrogram variance finite); anything else reads as
stable-like, infinite in both domains. Slope thresholds alone cannot make
this call: heavy-but-finite families relax after fourth-moment jumps with
larger late-segment slopes than near-Gaussian infinite-variance inputs, so
their orderings invert exactly where the verdict matters (confirmed by
measurement; the estimators here are private).

Two likelihoods (Lomax, used twice; t) make the fits, each a one-parameter
profile, unimodal in the log of that parameter, maximized by one Brent root
search, ``_score_root``, on its closed-form derivative (its score). The
symmetric-Pareto law of |x| is a Lomax law, that is, a generalized Pareto
law over threshold 0 with shape xi = 1/gamma and tau = xi / scale = 1/lam,
so ``_lomax_profile`` and its score serve both the Pareto fit and the
peaks-over-threshold shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import SymPareto, TLocScale
from .errors import ComputeError, DataError
from .gof import clean_sample, gauss_ks, ks_stat
from .quantiles import median, quantile

# Decision constants, frozen by measurement against the nine reference
# scenarios (see the acceptance tests for the rates they achieve).
ALPHA_GAUSSIAN_GATE = 1.955   # CF stability index at/above this: Gaussian regime
KS_ACCEPT_COEFF = 1.6         # accept a family fit iff KS <= this / sqrt(n)
TAIL_CONSISTENCY_TOL = 0.18   # |1/fitted_index - gpd_xi| must not exceed this
XI_HEAVY_OVERRIDE = 0.55      # gpd shape at/above this forces TD-infinite
GPD_TAIL_FRACTION = 0.05      # top fraction of |x - median| used for gpd shape
TFD_FINITE_MIN_INDEX = 4.0    # spectrogram variance finite iff tail index > 4
TD_FINITE_MIN_INDEX = 2.0     # TD variance finite iff tail index > 2

_BRACKET_TOL = 1e-9  # the search stops once its bracket is narrower than this
_MAX_EVALS = 100  # a backstop: the real scores take 1-14 evaluations


def _score_root(score, lo: float, hi: float) -> float:
    """Maximizer on [lo, hi] of a unimodal profile, as the root of its
    decreasing ``score`` (its derivative up to a positive factor): Brent's
    root finder (Brent 1973, ch. 4), with inverse quadratic or secant steps
    and bisection when they leave the bracket, shrink it too slowly or meet
    an infinite score. An end whose score does not point inward is returned
    at once. NaN (no profile value) reads as +inf if the score at lo is NaN,
    else -inf, so the search leaves a NaN region at either end. Returns the
    bracket end of smaller |score|."""
    fa = float(score(lo))
    if fa <= 0:
        return lo
    fa, nan_reads = (np.inf, np.inf) if math.isnan(fa) else (fa, -np.inf)

    def read(u: float) -> float:
        f = float(score(u))
        return nan_reads if math.isnan(f) else f

    b, fb = hi, read(hi)
    if fb >= 0:
        return hi
    a, c, fc, d, e = lo, lo, fa, hi - lo, hi - lo
    tol = _BRACKET_TOL / 2.0  # the stop below leaves |c - b| <= 2 tol
    for evals in range(2, _MAX_EVALS + 1):
        if (fb > 0) == (fc > 0):  # keep the sign change between b and c
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):  # b is the best point
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        m = (c - b) / 2.0
        if abs(m) <= tol or fb == 0 or evals == _MAX_EVALS:
            break
        if abs(e) >= tol and abs(fa) > abs(fb) and math.isfinite(fa + fc):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0 else (-p, q)
            fits = 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q))
            e, d = (d, p / q) if fits else (m, m)
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0 else -tol)
        fb = read(b)
    return b


def _cf_alpha(x: np.ndarray) -> float:
    """Stability-index estimate: regress ln(-ln |phi(t)|) on ln t over a
    robustly scaled t-grid; 2.0 marks the Gaussian regime."""
    s0 = float(quantile(np.abs(x), 0.75))
    if s0 <= 0:
        return 2.0
    ts = np.array([0.2, 0.4, 0.7, 1.0, 1.5]) / s0
    phi = np.array([abs(float(np.mean(np.cos(t * x)))) for t in ts])
    ok = (phi > 0.05) & (phi < 0.99)
    if ok.sum() < 2:
        return 2.0
    slope = np.polyfit(np.log(ts[ok]), np.log(-np.log(phi[ok])), 1)[0]
    return float(min(max(slope, 0.3), 2.0))


def _lomax_profile(y: np.ndarray):
    """Profile log-likelihood of a Lomax sample y >= 0 as a function of
    u = log(tau), tau = xi / scale: returns (ll, xi) with the shape's closed
    form xi = mean(log1p(tau y)) and ll = k (u - log xi - xi - 1), or
    (-inf, xi) when xi <= 0."""
    k = len(y)

    def prof(u: float) -> tuple[float, float]:
        xi = float(np.log1p(np.exp(u) * y).sum()) / k
        if xi <= 0:
            return -np.inf, xi
        return k * (u - np.log(xi) - xi - 1.0), xi

    return prof


def _lomax_score(y: np.ndarray):
    """The u-derivative of ``_lomax_profile`` over k, as d xi / du = mean(w):
    1 - (1/xi + 1) mean(w), w = tau y / (1 + tau y); NaN unless xi > 0."""

    def score(u: float) -> float:
        ty = np.exp(u) * y
        xi = float(np.log1p(ty).sum()) / len(y)
        if not xi > 0:
            return np.nan
        return 1.0 - (1.0 / xi + 1.0) * (float((ty / (1.0 + ty)).sum()) / len(y))

    return score


def _gpd_shape(y: np.ndarray) -> float:
    """Profile-likelihood generalized-Pareto shape (xi) of exceedances y > 0:
    a grid scan over log(tau), refined by ``_score_root`` within a factor 3
    of the best grid point. It never returns a negative shape: 0.0 when the
    exponential (xi -> 0) fits better than every grid point."""
    y = np.asarray(y, dtype=float)
    y = y[y > 0]
    k = len(y)
    if k < 5:
        return 0.0
    ybar = float(y.mean())
    prof = _lomax_profile(y)
    us = np.linspace(np.log(1e-6 / ybar), np.log(1e3 / ybar), 60)
    lls = [prof(u)[0] for u in us]
    best = int(np.argmax(lls))
    if -k * (np.log(ybar) + 1.0) > lls[best]:  # exponential (xi -> 0) wins
        return 0.0
    log3 = np.log(3.0)
    return prof(_score_root(_lomax_score(y), us[best] - log3, us[best] + log3))[1]


def _tail_shape(x: np.ndarray, frac: float = GPD_TAIL_FRACTION) -> float:
    """GPD shape of the top-``frac`` absolute values."""
    a = np.abs(x)
    n = len(a)
    k = max(10, int(round(frac * n)))
    if k >= n:
        return 0.0
    s = np.sort(a)
    return _gpd_shape(s[n - k :] - s[n - k - 1])


def _fit_sym_pareto(x: np.ndarray) -> SymPareto:
    """Symmetric-Pareto ML fit of a centred sample: ``_score_root`` over
    log(tau) = -log(scale) of the Lomax profile of |x|, within a factor 30
    of the median |x|; the shape is 1/xi."""
    a = np.abs(np.asarray(x, dtype=float))
    med = float(median(a))
    if med <= 0:
        med = float(np.mean(a)) or 1.0
    log_tau = _score_root(_lomax_score(a), -np.log(30.0 * med), np.log(30.0 / med))
    xi = _lomax_profile(a)(log_tau)[1]
    if not (xi > 0 and np.isfinite(1.0 / xi)):
        raise DataError("sample too degenerate for a tail fit")
    return SymPareto(gamma=1.0 / xi, lam=float(np.exp(-log_tau)))


def _t_scale2(y2: np.ndarray, nu: float, s: float, s0: float) -> float:
    """Squared t scale at nu: the root of
    g(s) = s - (nu + 1) mean(y2 s / (nu s + y2)), by Newton steps from the
    given start s, or from s0 = mean(y2) when g(s) < 0 there (s below the
    root). Only the start is checked: near the root g may round negative."""
    n = len(y2)
    w = y2 / (nu * s + y2)
    if not (nu + 1.0) * (float(w.sum()) / n) <= 1.0:  # g(s) < 0, or NaN
        s, w = s0, y2 / (nu * s0 + y2)
    while True:
        # Newton's relative step g(s) / (s g'(s)).
        step = (1.0 - (nu + 1.0) * (float(w.sum()) / n)) / (
            1.0 - (nu + 1.0) * (float((w * w).sum()) / n)
        )
        s, last = s * (1.0 - step), s
        # Stop once converged, overflowed (NaN), or unable to move s
        # (subnormal squares round every small step away).
        if not (step > 1e-12 and s < last):
            return s
        w = y2 / (nu * s + y2)


def _fit_t(x: np.ndarray) -> TLocScale:
    """t ML fit of a centred sample y: ``_score_root`` over log(nu) in
    [log 0.6, log 60] on the profile likelihood's derivative over n, which
    the envelope theorem and (nu + 1) mean(w) = 1 at the scale's root give:
    nu/2 [psi((nu + 1)/2) - psi(nu/2) - mean(log1p(y^2 / (nu s)))].

    At each nu the squared scale s = delta^2 is the root of
    g(s) = s - (nu + 1) mean(y^2 s / (nu s + y^2)), found by Newton steps
    (``_t_scale2``) from the previous nu's root, or from s0 = mean(y^2)
    when g is negative there. g is convex with g(0) = 0 and g'(0) = -nu, so
    g >= 0 at any start at or above the root (Jensen gives g(s0) >= 0), and
    from there the steps descend monotonically onto the root. Raises
    ComputeError when the fitted scale is not finite (the squares overflow).

    y is first divided by 2^e, e the binary exponent of its RMS: exact, and
    it keeps the squares normal for samples whose squares would be
    subnormal. An overflowing RMS gives e = 0.
    """
    y = np.asarray(x, dtype=float)
    e = int(np.frexp(np.sqrt(np.mean(np.square(y))))[1])
    y2 = np.square(np.ldexp(y, -e))
    n, s0 = len(y2), float(np.mean(y2))
    start = s0

    def score(lognu: float) -> float:
        nonlocal start
        nu = float(np.exp(lognu))
        s = start = _t_scale2(y2, nu, start, s0)
        return nu / 2.0 * (
            special.psi((nu + 1.0) / 2.0)
            - special.psi(nu / 2.0)
            - float(np.log1p(y2 / (nu * s)).sum()) / n
        )

    nu = float(np.exp(_score_root(score, np.log(0.6), np.log(60.0))))
    d = np.ldexp(np.sqrt(_t_scale2(y2, nu, start, s0)), e)
    if not np.isfinite(d):
        raise ComputeError(f"t fit failed: scale {d} is not finite")
    return TLocScale(nu=nu, delta=float(d))


@dataclass(frozen=True)
class TailEvidence:
    """Everything the tail-identification layer saw and decided."""

    alpha_cf: float
    gpd_xi: float
    gauss_ks: float
    accepted_family: str  # "gaussian" | "pareto" | "t" | "none"
    td_finite: bool
    tfd_finite: bool
    # The family fits; NaN in the Gaussian regime, which skips them.
    pareto_gamma: float = np.nan
    pareto_lam: float = np.nan
    pareto_ks: float = np.nan
    t_nu: float = np.nan
    t_delta: float = np.nan
    t_ks: float = np.nan


def tail_evidence(values: np.ndarray) -> TailEvidence:
    """Tail identification for one time-domain sample (see the module
    docstring for the decision tree and its constants). Every estimator sees
    the sample centred on its median, so the call does not depend on
    location. Raises DataError on a constant or non-finite sample and
    ComputeError when its squares overflow."""
    x = clean_sample(values)
    x = x - median(x)
    n = len(x)
    alpha = _cf_alpha(x)
    xi = _tail_shape(x)
    gauss = gauss_ks(x)
    if alpha >= ALPHA_GAUSSIAN_GATE:
        return TailEvidence(alpha_cf=alpha, gpd_xi=xi, gauss_ks=gauss,
                            accepted_family="gaussian", td_finite=True, tfd_finite=True)
    pareto = _fit_sym_pareto(x)
    pareto_ks = ks_stat(x, pareto)
    t_fit = _fit_t(x)
    t_ks = ks_stat(x, t_fit)
    if pareto_ks <= t_ks:
        best_ks, index, family = pareto_ks, pareto.gamma, "pareto"
    else:
        best_ks, index, family = t_ks, t_fit.nu, "t"
    tau = KS_ACCEPT_COEFF / np.sqrt(n)
    accepted = best_ks <= tau and abs(1.0 / index - xi) <= TAIL_CONSISTENCY_TOL
    if accepted:
        td = index > TD_FINITE_MIN_INDEX and xi < XI_HEAVY_OVERRIDE
        tfd = index > TFD_FINITE_MIN_INDEX
    else:
        family = "none"
        td = tfd = False
    return TailEvidence(
        alpha_cf=alpha,
        gpd_xi=xi,
        gauss_ks=gauss,
        accepted_family=family,
        td_finite=td,
        tfd_finite=tfd,
        pareto_gamma=pareto.gamma,
        pareto_lam=pareto.lam,
        pareto_ks=pareto_ks,
        t_nu=t_fit.nu,
        t_delta=t_fit.delta,
        t_ks=t_ks,
    )
