"""Tests for the benchmark's own arithmetic: span self time, percentiles and
their sample-count rule, the failed_frac base, and the tracer's wrapping.

    python3 -m pytest perfbench/tests -q
"""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
import summary  # noqa: E402
from spans import Span, Target, Tracer  # noqa: E402


def _span(name, span_id, parent_id, start, end, thread_id=1):
    return Span(name, span_id, parent_id, thread_id, start, end)


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span("root", 1, None, 0.0, 10.0),
        _span("child", 2, 1, 1.0, 4.0),
        _span("grandchild", 3, 2, 2.0, 3.0),
        _span("child", 4, 1, 5.0, 9.0),
    ]
    selfs = spans.self_times(trace)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)


def test_self_time_keeps_work_handed_to_other_threads():
    trace = [
        _span("calibrate", 1, None, 0.0, 6.0, thread_id=1),
        # Ran on a worker thread for the caller: the caller's thread waited.
        _span("slope", 2, 1, 0.5, 5.5, thread_id=2),
        _span("slope", 3, 1, 0.5, 5.0, thread_id=3),
        _span("slope", 4, 1, 5.5, 5.9, thread_id=1),
    ]
    selfs = spans.self_times(trace)
    assert selfs[1] == pytest.approx(6.0 - 0.4)
    totals = spans.layer_totals(trace)
    assert totals["slope"]["calls"] == 3
    assert totals["slope"]["self_s"] == pytest.approx(5.0 + 4.5 + 0.4)
    assert totals["calibrate"]["total_s"] == pytest.approx(6.0)


def test_layer_totals_sum_extra_counts():
    a = _span("spec", 1, None, 0.0, 1.0)
    a.counts["frames"] = 5
    b = _span("spec", 2, None, 1.0, 2.0)
    b.counts["frames"] = 7
    assert spans.layer_totals([a, b])["spec"] == {
        "calls": 2, "self_s": 2.0, "total_s": 2.0, "frames": 12,
    }


def test_nested_count_follows_ancestors():
    trace = [
        _span("chi2", 1, None, 0.0, 5.0),
        _span("null", 2, 1, 0.1, 4.0),
        _span("spec", 3, 2, 0.2, 0.3),  # chi2 -> null -> spec
        _span("spec", 4, 1, 4.1, 4.2),  # chi2 -> spec
        _span("spec", 5, None, 6.0, 6.1),  # top level
    ]
    assert spans.nested_count(trace, "spec", "chi2") == 2
    assert spans.nested_count(trace, "spec", "null") == 1


def test_nearest_rank_percentile():
    samples = list(range(1, 101))  # 1..100
    assert summary.nearest_rank(samples, 0.5) == 50
    assert summary.nearest_rank(samples, 0.9) == 90
    assert summary.nearest_rank(samples, 1.0) == 100
    assert summary.nearest_rank([3.0, 1.0, 2.0], 0.9) == 3.0  # few samples: the max
    with pytest.raises(ValueError):
        summary.nearest_rank([], 0.5)


def test_tail_needs_ten_samples_beyond():
    assert summary.samples_beyond(100, 0.9) == 10
    assert summary.tail_resolved(100, 0.9)
    assert summary.samples_beyond(99, 0.9) == 9
    assert not summary.tail_resolved(99, 0.9)
    assert summary.samples_beyond(2, 0.9) == 0
    lat = summary.latency_summary([0.3, 0.1, 0.2])
    assert lat["p50"] == 0.2 and lat["p90"] == 0.3
    assert lat["n"] == 3 and not lat["p90_resolved"]


def test_failed_frac_counts_against_every_attempt():
    # 9 timed operations plus the repeat check, one of them failed.
    assert summary.failed_frac(1, 10) == pytest.approx(0.1)
    assert summary.failed_frac(0, 1) == 0.0
    with pytest.raises(ValueError):
        summary.failed_frac(0, 0)
    with pytest.raises(ValueError):
        summary.failed_frac(3, 2)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x * 2

    def outer(x):
        return mod.inner(x) + 1  # looked up through the module, as tailprobe does

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_tracer_records_nesting_and_restores(fake_module):
    targets = [
        Target("layer.outer", fake_module.__name__, "outer"),
        Target("layer.inner", fake_module.__name__, "inner", lambda r: {"out": r}),
    ]
    original = fake_module.outer
    with Tracer(targets) as tracer:
        assert fake_module.outer(3) == 7  # wrapping does not change results
    assert fake_module.outer is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert inner.parent_id == outer.span_id and outer.parent_id is None
    assert inner.counts == {"out": 6}
    spans.require_called({s.name for s in tracer.spans}, ["layer.outer", "layer.inner"])


def test_tracer_spans_on_worker_threads_have_no_parent_there(fake_module):
    targets = [Target("layer.inner", fake_module.__name__, "inner")]
    with Tracer(targets) as tracer:
        workers = [threading.Thread(target=fake_module.inner, args=(i,)) for i in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in workers)
    assert len(tracer.spans) == 2
    assert all(s.parent_id is None for s in tracer.spans)
    assert len({s.thread_id for s in tracer.spans}) == 2


def test_tracer_fails_loudly_on_a_missing_name(fake_module):
    targets = [
        Target("layer.inner", fake_module.__name__, "inner"),
        Target("layer.gone", fake_module.__name__, "renamed_away"),
    ]
    original = fake_module.inner
    with pytest.raises(spans.TraceError, match="renamed_away"):
        with Tracer(targets):
            pass
    assert fake_module.inner is original  # partial install undone


def test_require_called_names_the_silent_layers():
    with pytest.raises(spans.TraceError, match="layer.b"):
        spans.require_called({"layer.a"}, ["layer.a", "layer.b"])
