"""In-memory spans around named module attributes.

``tracing(targets, tracer)`` replaces each ``module.attr`` listed in
``targets`` by a wrapper that records one span per call into ``tracer``
(name, start, end, parent span, trial id, grid size P when an argument
carries one, and the return value of the names the tracer keeps) and
restores every original attribute on exit, even when the traced code
raises. Spans stay in memory; ``write_spans`` writes them out at the end of
a run. The wrappers add work to every call, so timed runs never install
them.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int
    p: int | None = None
    result: object = field(default=None, repr=False)
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder. A call to a span named in ``new_trial_on`` starts a
    new trial id, which it and every later span carry; spans named in
    ``keep_results`` hold on to their return value."""

    def __init__(self, new_trial_on=(), keep_results=()):
        self.spans: list[Span] = []
        self.trial = 0
        self._stack: list[int] = []
        self._new_trial_on = frozenset(new_trial_on)
        self._keep = frozenset(keep_results)

    def wrap(self, name: str, fn):
        keep = name in self._keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._new_trial_on:
                self.trial += 1
            span = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=self._stack[-1] if self._stack else None,
                trial=self.trial,
                p=next((a.P for a in args[:2] if isinstance(getattr(a, "P", None), int)), None),
            )
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                span.result = result
            return result

        return wrapper


@contextlib.contextmanager
def tracing(targets, tracer: Tracer):
    """Install ``tracer``'s span wrappers on ``targets`` ((module, attr,
    span name) triples) for the duration of the block."""
    originals = []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
    unrestored = [f"{m.__name__}.{a}" for m, a, fn in originals if getattr(m, a) is not fn]
    if unrestored:
        raise RuntimeError(f"attributes not restored after tracing: {unrestored}")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover. Children of one span run one after another, so the
    covered part is the sum of their durations clipped to the parent."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            covered[s.parent] += max(0.0, min(s.end, p.end) - max(s.start, p.start))
    return [max(0.0, s.duration - c) for s, c in zip(spans, covered)]


def write_spans(spans: list[Span], path) -> None:
    """Gzipped JSON lines, one span each, times in seconds from the first."""
    t0 = spans[0].start if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "id": s.id,
                        "name": s.name,
                        "start": s.start - t0,
                        "end": s.end - t0,
                        "parent": s.parent,
                        "trial": s.trial,
                        "P": s.p,
                        "failed": s.failed,
                    }
                )
                + "\n"
            )
