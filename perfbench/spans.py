"""In-memory spans around calls into tailprobe's layers.

A ``Tracer`` replaces named module attributes with wrappers that record one
``Span`` per call: name, id, parent (the innermost open span on the same
thread), thread id, start and end. Spans stay in memory; the arithmetic on
them (self time, nesting counts) is plain functions over the span list, so
it can be tested without tailprobe.

Pure Python on purpose: importing this module loads no numerical library.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    thread_id: int
    start: float
    end: float = 0.0
    # Extra per-call counts taken from the call's result (e.g. frames).
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``module.attr`` reported as ``name``.

    ``measure`` maps the call's result to extra counts for the span.
    """

    name: str
    module: str
    attr: str
    measure: object = None


class TraceError(RuntimeError):
    """A wrapped layer is missing or was never reached."""


class Tracer:
    """Wraps ``targets`` while installed (use as a context manager)."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(
                name=target.name,
                span_id=next(self._ids),
                parent_id=stack[-1].span_id if stack else None,
                thread_id=threading.get_ident(),
                start=time.perf_counter(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if target.measure is not None:
                    span.counts.update(target.measure(result))
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)  # list.append is atomic under the GIL

        return wrapper

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module = importlib.import_module(target.module)
            fn = getattr(module, target.attr, None)
            if not callable(fn):
                self.__exit__(None, None, None)
                raise TraceError(
                    f"{target.module}.{target.attr} (traced as {target.name}) "
                    "no longer exists"
                )
            self._saved.append((module, target.attr, fn))
            setattr(module, target.attr, self._wrap(target, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def require_called(seen, expected) -> None:
    """Raise TraceError if a name in ``expected`` is not in ``seen`` (names
    that recorded spans): a layer that a refactor renamed or bypassed must
    not read as a silent zero."""
    missing = sorted(set(expected) - set(seen))
    if missing:
        raise TraceError(f"traced layers never called: {', '.join(missing)}")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children that
    ran on the same thread. Work a span hands to another thread is not
    subtracted: the span's thread waited for it."""
    child_time: dict[int, float] = {}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is not None and parent.thread_id == s.thread_id:
            child_time[parent.span_id] = child_time.get(parent.span_id, 0.0) + s.duration
    return {s.span_id: s.duration - child_time.get(s.span_id, 0.0) for s in spans}


def layer_totals(spans) -> dict[str, dict]:
    """Per name: call count, summed self time, summed span time (children
    included) and summed extra counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[s.span_id]
        agg["total_s"] += s.duration
        for key, value in s.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out


def nested_count(spans, name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    by_id = {s.span_id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent_id)
        count += parent is not None
    return count
