"""Tail-layer search and solve tests: Brent's bounded ``_argmax`` on known
maxima, at the bracket ends and on partly -inf/NaN functions, its
evaluation count on the real profiles, and the warm-started t-scale solve."""

import numpy as np
import pytest
from scipy import optimize

from tailprobe import sample, tailfit
from tailprobe.distributions import STUDY, SymPareto, TLocScale, stream
from tailprobe.study import default_scenarios
from tailprobe.tailfit import (
    _MAX_EVALS,
    _argmax,
    _lomax_profile,
    _t_scale2,
    tail_evidence,
)


@pytest.mark.parametrize("c", [0.3, 0.0, 1.0, 0.999, -0.5, 1.7])
def test_argmax_finds_a_concave_quadratic_maximum(c):
    # Inside the bracket, at either bound, and beyond it (clamped).
    u = _argmax(lambda u: -((u - c) ** 2), 0.0, 1.0)
    assert abs(u - min(max(c, 0.0), 1.0)) <= 1e-8


def test_argmax_finds_an_asymmetric_maximum():
    # log u - u rises steeply and falls slowly; its maximum is at u = 1.
    assert abs(_argmax(lambda u: np.log(u) - u, 0.01, 10.0) - 1.0) <= 1e-8


def test_argmax_finds_the_lomax_profile_maximum():
    x = sample(SymPareto(3.0, 1.0), 10_000, np.random.default_rng(3))
    prof = _lomax_profile(np.abs(x - np.median(x)))
    u = _argmax(lambda u: prof(u)[0], -5.0, 5.0)
    ref = optimize.minimize_scalar(
        lambda u: -prof(u)[0], bounds=(-5.0, 5.0), method="bounded",
        options={"xatol": 1e-10},
    ).x
    assert abs(u - ref) <= 1e-6


@pytest.mark.parametrize(
    "f, best",
    [
        (lambda u: -np.inf if u < 0.3 else -((u - 0.5) ** 2), 0.5),
        (lambda u: -np.inf if u > 0.7 else -((u - 0.9) ** 2), 0.7),
        (lambda u: np.nan if u > 0.45 else -((u - 0.5) ** 2), 0.45),
        (lambda u: np.nan if 0.2 < u < 0.6 else -((u - 0.5) ** 2), None),
        (lambda u: -np.inf, None),
        (lambda u: np.nan, None),
    ],
)
def test_argmax_ends_and_keeps_a_finite_point_on_partly_infinite_f(f, best):
    seen = []

    def g(u):
        seen.append(f(u))
        return seen[-1]

    u = _argmax(g, 0.0, 1.0)
    assert len(seen) <= _MAX_EVALS
    assert 0.0 <= u <= 1.0
    if np.isfinite(seen).any():
        assert np.isfinite(f(u))
    if best is not None:
        assert abs(u - best) <= 1e-6


def test_argmax_needs_fewer_evaluations_than_golden_section(monkeypatch):
    # Golden section needs about 46 evaluations to shrink these brackets
    # below 1e-9; the three profiles of a t:3 sample need far fewer.
    counts = []

    def counting(f, lo, hi):
        calls = []
        u = _argmax(lambda v: calls.append(v) or f(v), lo, hi)
        counts.append(len(calls))
        return u

    monkeypatch.setattr(tailfit, "_argmax", counting)
    ev = tail_evidence(sample(TLocScale(3.0, 1.0), 10_000, np.random.default_rng(14)))
    assert ev.accepted_family == "t"
    assert len(counts) == 3  # the GPD refinement, the Pareto fit, the t fit
    assert max(counts) < 46, counts


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
