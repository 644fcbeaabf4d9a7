"""Tail-layer search and solve tests: Brent's root search ``_score_root`` on
known maxima, at the bracket ends and on partly NaN/infinite scores, the
closed-form scores against their profiles, the search's evaluation count on
the real profiles, and the warm-started t-scale solve."""

import numpy as np
import pytest
from scipy import optimize, special

from tailprobe import sample, tailfit
from tailprobe.distributions import STUDY, SymPareto, TLocScale, stream
from tailprobe.quantiles import median
from tailprobe.study import default_scenarios
from tailprobe.tailfit import (
    _MAX_EVALS,
    _fit_sym_pareto,
    _fit_t,
    _lomax_profile,
    _lomax_score,
    _score_root,
    _t_scale2,
    _tail_shape,
    tail_evidence,
)


@pytest.mark.parametrize("c", [0.3, 0.0, 1.0, 0.999, -0.5, 1.7])
def test_argmax_finds_a_concave_quadratic_maximum(c):
    # The score of -(u - c)^2: a root inside the bracket, at either bound,
    # and beyond it (clamped).
    u = _score_root(lambda u: -2.0 * (u - c), 0.0, 1.0)
    assert abs(u - min(max(c, 0.0), 1.0)) <= 1e-8


def test_argmax_finds_an_asymmetric_maximum():
    # The score of log u - u falls steeply and then slowly; its root is u = 1.
    assert abs(_score_root(lambda u: 1.0 / u - 1.0, 0.01, 10.0) - 1.0) <= 1e-8


def test_argmax_finds_the_lomax_profile_maximum():
    x = sample(SymPareto(3.0, 1.0), 10_000, np.random.default_rng(3))
    y = np.abs(x - np.median(x))
    prof, score = _lomax_profile(y), _lomax_score(y)
    u = _score_root(score, -5.0, 5.0)
    ref = optimize.minimize_scalar(
        lambda u: -prof(u)[0], bounds=(-5.0, 5.0), method="bounded",
        options={"xatol": 1e-10},
    ).x
    assert abs(u - ref) <= 1e-6
    assert abs(u - optimize.brentq(score, -5.0, 5.0, xtol=1e-13)) <= 1e-9


@pytest.mark.parametrize("tau", [0.01, 0.3, 1.0, 4.0, 300.0])
def test_lomax_score_is_the_profile_derivative(tau):
    x = sample(SymPareto(3.0, 1.0), 10_000, np.random.default_rng(3))
    y = np.abs(x - np.median(x))
    prof, u, h = _lomax_profile(y), np.log(tau), 1e-5
    numeric = (prof(u + h)[0] - prof(u - h)[0]) / (2.0 * h) / len(y)
    assert _lomax_score(y)(u) == pytest.approx(numeric, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("k", [0, 3, 6, 8])
def test_t_fit_is_the_profile_likelihood_maximum(k):
    # The root of the closed-form score is the maximizer of the profile
    # likelihood, computed here from cold-started scale solves.
    x = sample(default_scenarios()[k].spec, 10_000, np.random.default_rng(k))
    y = x - np.median(x)
    y2 = np.square(y / np.sqrt(np.mean(y * y)))
    s0 = float(np.mean(y2))

    def neg_profile(lognu):
        nu = np.exp(lognu)
        s = _t_scale2(y2, nu, s0, s0)
        return -(
            len(y2) * (
                special.gammaln((nu + 1.0) / 2.0)
                - special.gammaln(nu / 2.0)
                - 0.5 * np.log(np.pi * nu * s)
            )
            - (nu + 1.0) / 2.0 * np.sum(np.log1p(y2 / (nu * s)))
        )

    lo, hi = np.log(0.6), np.log(60.0)
    ref = optimize.minimize_scalar(
        neg_profile, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}
    ).x
    assert abs(np.log(_fit_t(y).nu) - ref) <= 1e-6, default_scenarios()[k].name


@pytest.mark.parametrize(
    "f, best",
    [
        (lambda u: np.nan if u < 0.3 else 0.5 - u, 0.5),
        (lambda u: np.nan if u > 0.7 else 0.9 - u, 0.7),
        (lambda u: np.nan if u > 0.45 else 0.5 - u, 0.45),
        (lambda u: np.nan if 0.2 < u < 0.6 else 0.5 - u, None),
        (lambda u: -np.inf, None),
        (lambda u: np.nan, None),
    ],
)
def test_argmax_ends_and_keeps_a_finite_point_on_partly_infinite_f(f, best):
    seen = []

    def g(u):
        seen.append(f(u))
        return seen[-1]

    u = _score_root(g, 0.0, 1.0)
    assert len(seen) <= _MAX_EVALS
    assert 0.0 <= u <= 1.0
    if np.isfinite(seen).any():
        assert np.isfinite(f(u))
    if best is not None:
        assert abs(u - best) <= 1e-6


@pytest.mark.parametrize(
    "f, best",
    [
        (lambda u: np.inf if u < 0.3 else 0.5 - u, 0.5),
        (lambda u: -np.inf if u > 0.7 else 0.9 - u, 0.7),
        (lambda u: np.inf if u < 0.3 else np.nan if u > 0.7 else 0.9 - u, 0.7),
    ],
)
def test_root_search_steps_out_of_infinite_scores(f, best):
    seen = []

    def g(u):
        seen.append(f(u))
        return seen[-1]

    u = _score_root(g, 0.0, 1.0)
    assert len(seen) <= _MAX_EVALS
    assert np.isfinite(f(u)) and abs(u - best) <= 1e-6


def _count_evaluations(monkeypatch):
    counts = []

    def counting(score, lo, hi):
        calls = []
        u = _score_root(lambda v: calls.append(v) or score(v), lo, hi)
        counts.append(len(calls))
        return u

    monkeypatch.setattr(tailfit, "_score_root", counting)
    return counts


def test_root_search_needs_at_most_14_evaluations_per_profile(monkeypatch):
    # Golden section needs about 46 evaluations to shrink these brackets
    # below 1e-9, and Brent's maximizer on the profiles' values took 16-22.
    counts = _count_evaluations(monkeypatch)
    ev = tail_evidence(sample(TLocScale(3.0, 1.0), 10_000, np.random.default_rng(14)))
    assert ev.accepted_family == "t"
    assert len(counts) == 3  # the GPD shape, the Pareto fit, the t fit
    assert max(counts) <= 14, counts


def test_root_search_returns_an_end_when_the_score_keeps_its_sign(monkeypatch):
    # A Gaussian sample's t fit runs to nu = 60 and its Pareto fit to the
    # smallest tau (the largest scale): the search reads the score at lo,
    # then at hi, and stops at the first end where it does not point inward,
    # where a search on the profiles' values crawled to the end.
    counts = _count_evaluations(monkeypatch)
    x = np.random.default_rng(2).standard_normal(10_000)
    y = x - np.median(x)
    assert _fit_t(y).nu == pytest.approx(60.0, rel=1e-12)
    p = _fit_sym_pareto(y)
    assert p.lam == pytest.approx(30.0 * float(median(np.abs(y))), rel=1e-12)
    assert counts == [2, 1]


def test_gpd_shape_at_small_xi_is_the_score_root():
    # On this reference-study input xi is 0.0069: the Lomax profile's values
    # cancel to rounding noise near their maximum, its score does not.
    scen = default_scenarios()[6]
    assert scen.name == "t:6:1"
    x = sample(scen.spec, 10_000, stream(0, STUDY, 6, 14))
    x = x - median(x)
    a = np.sort(np.abs(x))
    y = (a[-500:] - a[-501]).astype(np.longdouble)
    y = y[y > 0]

    def score(u):
        ty = np.exp(u) * y
        return 1 - (1 / np.mean(np.log1p(ty)) + 1) * np.mean(ty / (1 + ty))

    mean = np.mean(y)
    lo, hi = np.log(np.longdouble(1e-6) / mean), np.log(np.longdouble(1e3) / mean)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if score(mid) > 0 else (lo, mid)
    ref = float(np.mean(np.log1p(np.exp(lo) * y)))
    assert ref < 0.01
    assert _tail_shape(x) == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("k", range(len(default_scenarios())))
def test_gpd_shape_root_is_the_profile_maximum(monkeypatch, k):
    # One root search over the whole bracket: its profile value is the
    # maximum of a dense scan of the bracket, so no second mode beats it.
    scen = default_scenarios()[k]
    x = sample(scen.spec, 10_000, np.random.default_rng(k))
    a = np.sort(np.abs(x - np.median(x)))
    y = a[-500:] - a[-501]
    calls = []

    def recording(score, lo, hi):
        calls.append((lo, hi, _score_root(score, lo, hi)))
        return calls[-1][2]

    monkeypatch.setattr(tailfit, "_score_root", recording)
    tailfit._gpd_shape(y)
    y = y[y > 0]
    assert [c[:2] for c in calls] == [
        (np.log(1e-6 / y.mean()), np.log(1e3 / y.mean()))
    ]
    prof = _lomax_profile(y)
    ll = prof(calls[0][2])[0]
    scan = max(prof(u)[0] for u in np.linspace(*calls[0][:2], 2000))
    assert ll >= scan - 1e-12 * abs(ll), scen.name


@pytest.mark.parametrize("k", [1, 4, 5, 7, 8])
def test_warm_started_t_scale_matches_a_cold_start(k):
    # From either neighbour's root on a nu grid, below or above its own
    # root, the solve lands where a solve from s0 = mean(y^2) lands.
    x = sample(default_scenarios()[k].spec, 10_000, np.random.default_rng(k))
    y = x - np.median(x)
    y2 = np.square(y / np.sqrt(np.mean(y * y)))
    s0 = float(np.mean(y2))
    nus = np.geomspace(0.6, 60.0, 41)
    roots = [_t_scale2(y2, nu, s0, s0) for nu in nus]
    for i, nu in enumerate(nus):
        for j in (i - 1, i + 1):
            if 0 <= j < len(nus):
                warm = _t_scale2(y2, nu, roots[j], s0)
                assert warm == pytest.approx(roots[i], rel=1e-10, abs=0.0), (i, j)


def test_t_fit_ends_on_a_sample_where_g_rounds_negative_near_the_root():
    # On this reference-study input g rounds negative next to a root, so a
    # solve that checked g's sign after every Newton step, not only at its
    # start, would restart from s0 forever. The verdict must not move.
    scen = default_scenarios()[5]
    assert scen.name == "pareto:1.5:1"
    ev = tail_evidence(sample(scen.spec, 10_000, stream(0, STUDY, 5, 22)))
    assert (ev.accepted_family, ev.td_finite, ev.tfd_finite) == ("pareto", False, False)
