#!/usr/bin/env python3
"""Benchmark for tailprobe: one workload per run, metrics on stdout.

    python3 perfbench/run.py --workload cold_single --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` next to
this directory. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics from spans recorded
around tailprobe's layers (see README.md in this directory). The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys
import time

_START = time.perf_counter()
# One BLAS thread per process: the study runs two worker threads on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import summary  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Import tailprobe from this checkout's src/ (and nowhere else), then
    the workloads that drive it. Exits non-zero when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import tailprobe
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tailprobe from {SRC}: {exc}")
    if not Path(tailprobe.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: tailprobe was imported from outside {SRC}")
    import workloads

    return workloads


class Tally:
    """Attempted and failed operations, timings and categories."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; return (wall seconds, Outcome or None). Only
        ``fn`` is timed; validating its output is not."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = fn(*args, **kwargs)
        except Exception:  # an operation's failure is counted, not fatal
            seconds = time.perf_counter() - t0
            traceback.print_exc()
            self.failed += 1
            return seconds, None
        seconds = time.perf_counter() - t0
        try:
            return seconds, self.workload.inspect(raw)
        except Exception:  # a failed check is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return seconds, None

    def same(self, first, second, what: str) -> None:
        """Count ``second`` as failed when its outputs differ from ``first``'s
        (a None side already counted as failed)."""
        if first is None or second is None:
            return
        if first.files != second.files or first.categories != second.categories:
            print(f"perfbench: {what}: outputs differ", file=sys.stderr)
            self.failed += 1


def _stop(t_start: float, durations, seconds: float) -> bool:
    """Stop before an operation of typical length would overrun the run."""
    return time.perf_counter() - t_start + statistics.median(durations) > seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seconds: float, work: Path, import_s: float):
    setup_times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    tally = Tally(wl)
    durations, all_durations, categories = [], [], []
    first = None
    t_start = time.perf_counter()
    i = 0
    while True:
        d, out = tally.attempt(wl.op, i, str(work / "ops"))
        all_durations.append(d)
        if out is not None:
            durations.append(d)
            categories.extend(out.categories)
        if i == 0:
            first = out
        i += 1
        if _stop(t_start, all_durations, seconds):
            break
    _, again = tally.attempt(wl.run, 0, str(work / "repeat"))
    tally.same(first, again, "second pass over the first input")
    if not durations:
        raise SystemExit("perfbench: no operation succeeded")

    lat = summary.latency_summary(durations)
    signals = len(durations) * wl.signals_per_op
    metrics = {
        "setup_s": summary.metric(import_s + statistics.median(setup_times), "s"),
        "analyze_p50_s": summary.metric(lat["p50"], "s"),
        "analyze_p90_s": summary.metric(lat["p90"], "s"),
        "signals_per_s": summary.metric(signals / sum(durations), "1/s"),
        "peak_rss_mb": summary.metric(_peak_rss_mb(), "MiB"),
        "category_accuracy": summary.metric(
            sum(got == want for got, want in categories) / len(categories), "ratio"
        ),
    }
    notes = {
        "analyze_p50_s": f"n={lat['n']}",
        "analyze_p90_s": f"n={lat['n']}, {lat['p90_beyond']} beyond"
        + ("" if lat["p90_resolved"] else ", too few for a resolved tail"),
        "category_accuracy": f"{len(categories)} signals",
    }
    table = dict(metrics)
    table["failed_frac"] = summary.metric(
        summary.failed_frac(tally.failed, tally.attempted), "ratio"
    )
    notes["failed_frac"] = f"{tally.failed}/{tally.attempted}"
    return tally, metrics, table, notes


# Per traced operation. self_s excludes child spans on the same thread;
# total_s includes them.
LAYER_METRICS = (
    ("tfr.spectrogram", ("calls", "frames", "self_s")),
    ("verdict.slope_profile", ("calls", "self_s")),
    ("verdict.calibrate_threshold", ("calls", "self_s", "total_s")),
    ("verdict.calibrate_td_threshold", ("calls", "self_s")),
    ("verdict.chi2_evidence", ("self_s", "total_s")),
    ("verdict.tail_evidence", ("calls", "self_s")),
    ("verdict.td_verdict", ("self_s",)),
    ("verdict.assess", ("self_s",)),
    ("signal_io.load_signal", ("self_s",)),
    ("analysis.write_report", ("self_s",)),
)
SETUP_LAYERS = (
    "verdict.calibrate_threshold", "verdict.calibrate_td_threshold",
    "verdict.chi2_evidence",
)
_UNITS = {"calls": "count", "frames": "count", "self_s": "s", "total_s": "s"}


def _add(total: dict, part: dict) -> None:
    for name, agg in part.items():
        into = total.setdefault(name, {})
        for key, value in agg.items():
            into[key] = into.get(key, 0) + value


def _probe_study(study, work: Path, targets, tally):
    """One cold study at two workers, traced, then untraced at two workers
    and at one. Returns run_study's self time in the traced study and the
    two untraced study times; the three must give the same outputs."""
    probe = Tally(study)
    study.setup()
    with spans.Tracer(targets) as tracer:
        _, out_t = probe.attempt(study.op, 0, str(work / "study_traced"))
    totals = spans.layer_totals(tracer.spans)
    spans.require_called(totals, study.layers)
    d2, out_2 = probe.attempt(study.op, 0, str(work / "study_w2"))
    d1, out_1 = probe.attempt(study.op, 0, str(work / "study_w1"), workers=1)
    probe.same(out_2, out_t, "traced study")
    probe.same(out_2, out_1, "study with one worker")
    tally.attempted += probe.attempted
    tally.failed += probe.failed
    return totals.get("study.run_study", {}).get("self_s", 0.0), d2, d1


def run_traced(wl, seconds: float, work: Path, workloads):
    targets = workloads.TARGETS
    seen = set()
    with spans.Tracer(targets) as tracer:
        wl.setup()
    setup_totals = spans.layer_totals(tracer.spans)
    seen.update(setup_totals)

    tally = Tally(wl)
    totals: dict = {}
    null_spectrograms = 0
    untraced, traced, pair_durations = [], [], []
    first = None
    t_start = time.perf_counter()
    i = 0
    while True:
        d_u, out_u = tally.attempt(wl.op, i, str(work / "untraced"))
        with spans.Tracer(targets) as tracer:
            d_t, out_t = tally.attempt(wl.op, i, str(work / "traced"))
        tally.same(out_u, out_t, f"traced operation {i}")
        untraced.append(d_u)
        traced.append(d_t)
        pair_durations.append(d_u + d_t)
        _add(totals, spans.layer_totals(tracer.spans))
        null_spectrograms += spans.nested_count(
            tracer.spans, "tfr.spectrogram", "verdict.chi2_evidence"
        )
        if i == 0:
            first = out_u
        i += 1
        if _stop(t_start, pair_durations, seconds):
            break
    seen.update(totals)
    _, again = tally.attempt(wl.run, 0, str(work / "repeat"))
    tally.same(first, again, "second pass over the first input")
    spans.require_called(seen, wl.layers)
    study_self, study_w2, study_w1 = 0.0, 0.0, 0.0
    if wl.traces_study:
        study_self, study_w2, study_w1 = _probe_study(
            workloads.Study(wl.seed, str(work)), work, targets, tally
        )

    ops = len(traced)
    metrics = {}
    for name, keys in LAYER_METRICS:
        agg = totals.get(name, {})
        for key in keys:
            metrics[f"{name}.{key}"] = summary.metric(agg.get(key, 0) / ops, _UNITS[key])
    metrics["verdict.chi2_evidence.null_spectrograms"] = summary.metric(
        null_spectrograms / ops, "count"
    )
    for name in SETUP_LAYERS:
        metrics[f"setup.{name.split('.', 1)[1]}.total_s"] = summary.metric(
            setup_totals.get(name, {}).get("total_s", 0.0), "s"
        )
    metrics["study.run_study.self_s"] = summary.metric(study_self, "s")
    metrics["study.parallel_speedup"] = summary.metric(
        study_w1 / study_w2 if study_w2 else 0.0, "ratio"
    )
    metrics["trace.overhead_frac"] = summary.metric(sum(traced) / sum(untraced) - 1.0, "ratio")
    notes = {"trace.overhead_frac": f"{ops} traced operations"}
    table = dict(metrics)
    if wl.traces_study:
        table["study_s"] = summary.metric(study_w2, "s")
        notes["study_s"] = f"untraced, workers=2; {study_w1:.4g} s with workers=1"
    return tally, metrics, table, notes


def _print_table(workload: str, seed: int, table: dict, notes: dict) -> None:
    print(f"# tailprobe benchmark: workload {workload}, seed {seed}")
    for name, m in table.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workloads = _import_program()
    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(work))
        if args.trace:
            tally, metrics, table, notes = run_traced(wl, args.seconds, work, workloads)
        else:
            tally, metrics, table, notes = run_untraced(wl, args.seconds, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    _print_table(args.workload, args.seed, table, notes)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
