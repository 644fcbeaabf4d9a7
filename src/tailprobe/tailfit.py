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

Two likelihoods (Lomax, used twice; t) make the fits, each a
one-parameter profile maximized by the same Brent search, ``_argmax``,
over the log of that parameter. The symmetric-Pareto law of |x| is a Lomax
law, that is, a generalized Pareto law over threshold 0 with shape
xi = 1/gamma and tau = xi / scale = 1/lam, so ``_lomax_profile`` serves
both the Pareto fit and the peaks-over-threshold shape.
"""

from __future__ import annotations

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

_CGOLD = (3.0 - 5.0**0.5) / 2.0  # golden-section step, as a bracket fraction
_BRACKET_TOL = 1e-9  # the search stops once its bracket is narrower than this
# A backstop: the real profiles take 10-30 evaluations, but an f that is NaN
# or -inf on part of the bracket gives the parabola nothing to fit.
_MAX_EVALS = 100


def _argmax(f, lo: float, hi: float) -> float:
    """Brent's bounded maximizer of a unimodal ``f`` on [lo, hi] (Brent
    1973, ch. 5): parabolic steps through the three best points, and a
    golden-section step when a parabola leaves the bracket or shrinks too
    slowly. NaN reads as -inf; returns the best point seen."""
    tol = _BRACKET_TOL / 4.0  # the stop below leaves hi - lo <= 4 tol
    x = w = v = lo + _CGOLD * (hi - lo)
    fx = fw = fv = max(-np.inf, float(f(x)))  # max(-inf, NaN) is -inf
    d = e = 0.0
    for _ in range(_MAX_EVALS - 1):
        mid = (lo + hi) / 2.0
        if abs(x - mid) <= 2.0 * tol - (hi - lo) / 2.0:
            break
        p = q = 0.0
        if abs(e) > tol:  # fit a parabola through x, w and v
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = (-p, q) if q > 0 else (p, -q)  # q >= 0, vertex at x + p / q
        if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
            e, d = d, p / q
            if min(x + d - lo, hi - x - d) < 2.0 * tol:
                d = tol if mid > x else -tol
        else:
            e = (lo if x >= mid else hi) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else (tol if d >= 0 else -tol))
        fu = max(-np.inf, float(f(u)))
        if fu >= fx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            lo, hi = (lo, u) if u >= x else (u, hi)
            if fu >= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x


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
        xi = float(np.mean(np.log1p(np.exp(u) * y)))
        if xi <= 0:
            return -np.inf, xi
        return k * (u - np.log(xi) - xi - 1.0), xi

    return prof


def _gpd_shape(y: np.ndarray) -> float:
    """Profile-likelihood generalized-Pareto shape (xi) of exceedances y > 0:
    a grid scan over log(tau), refined by ``_argmax`` within a factor 3 of
    the best grid point. It never returns a negative shape: 0.0 when the
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
    return prof(_argmax(lambda u: prof(u)[0], us[best] - log3, us[best] + log3))[1]


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
    """Symmetric-Pareto ML fit of a centred sample: ``_argmax`` over
    log(tau) = -log(scale) of the Lomax profile of |x|, within a factor 30
    of the median |x|; the shape is 1/xi."""
    a = np.abs(np.asarray(x, dtype=float))
    med = float(median(a))
    if med <= 0:
        med = float(np.mean(a)) or 1.0
    prof = _lomax_profile(a)
    log_tau = _argmax(lambda u: prof(u)[0], -np.log(30.0 * med), np.log(30.0 / med))
    xi = prof(log_tau)[1]
    if not (xi > 0 and np.isfinite(1.0 / xi)):
        raise DataError("sample too degenerate for a tail fit")
    return SymPareto(gamma=1.0 / xi, lam=float(np.exp(-log_tau)))


def _t_scale2(y2: np.ndarray, nu: float, s: float, s0: float) -> float:
    """Squared t scale at nu: the root of
    g(s) = s - (nu + 1) mean(y2 s / (nu s + y2)), by Newton steps from the
    given start s, or from s0 = mean(y2) when g(s) < 0 there (s below the
    root). Only the start is checked: near the root g may round negative."""
    w = y2 / (nu * s + y2)
    if not (nu + 1.0) * float(np.mean(w)) <= 1.0:  # g(s) < 0, or NaN
        s, w = s0, y2 / (nu * s0 + y2)
    while True:
        # Newton's relative step g(s) / (s g'(s)).
        step = (1.0 - (nu + 1.0) * float(np.mean(w))) / (
            1.0 - (nu + 1.0) * float(np.mean(w * w))
        )
        s, last = s * (1.0 - step), s
        # Stop once converged, overflowed (NaN), or unable to move s
        # (subnormal squares round every small step away).
        if not (step > 1e-12 and s < last):
            return s
        w = y2 / (nu * s + y2)


def _fit_t(x: np.ndarray) -> TLocScale:
    """t ML fit of a centred sample y: ``_argmax`` over log(nu) in
    [log 0.6, log 60] of the profile likelihood.

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

    def loglik(lognu: float) -> float:
        nonlocal start
        nu = float(np.exp(lognu))
        s = start = _t_scale2(y2, nu, start, s0)
        return n * (
            special.gammaln((nu + 1.0) / 2.0)
            - special.gammaln(nu / 2.0)
            - 0.5 * np.log(np.pi * nu * s)
        ) - (nu + 1.0) / 2.0 * float(np.sum(np.log1p(y2 / (nu * s))))

    nu = float(np.exp(_argmax(loglik, np.log(0.6), np.log(60.0))))
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
