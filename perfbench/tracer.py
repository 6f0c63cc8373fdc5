"""Span recording from outside the library, for the traced benchmark run.

The tracer never touches the library's own telemetry: it wraps public
callables of each layer (module functions, methods and classmethods) for
the duration of the traced phase and restores them afterwards.  Each call
becomes a span ``(id, name, start, end, parent, thread, request)`` kept in
memory; :meth:`Tracer.write_chrome_trace` dumps them as Chrome
``trace_event`` JSON at exit.

A layer's *self time* is its span's duration minus the durations of its
direct child spans (children of one span run on the same thread and
never overlap, so the sum is exact).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    tid: int
    request: "int | None"
    phase: str


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.counters: dict[str, dict] = defaultdict(
            lambda: defaultdict(float)
        )
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: "int | None" = None) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[2]
        token = (next(self._ids), name, request, parent[0] if parent else None)
        stack.append(token)
        return token, time.perf_counter()

    def end(self, opened: tuple) -> float:
        token, start = opened
        stop = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, name, request, parent = token
        self.spans.append(
            Span(span_id, name, start, stop, parent, threading.get_ident(),
                 request, self.phase)
        )
        return stop - start

    def count(self, name: str, amount: float) -> None:
        """Add to a counter of the current phase (from any thread)."""
        with self._count_lock:
            self.counters[self.phase][name] += amount

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name, on_result=None, drain=None,
             on_item=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``.
        ``on_result(tracer, result, args, kwargs)`` runs after each call.
        ``drain`` names the span recorded around every ``next()`` of a
        returned iterator, so a generator is timed over its full drain
        rather than at creation (where it does no work); ``on_item(tracer,
        item)`` sees every item it yields.
        """
        had_own = inspect.isclass(owner) and attr in owner.__dict__
        raw = owner.__dict__[attr] if had_own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            func, rewrap = raw.__func__, classmethod
        else:
            func, rewrap = raw, (lambda f: f)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            opened = tracer.begin(label)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(opened)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            if drain is not None:
                return tracer._drained(result, drain, on_item)
            return result

        setattr(owner, attr, rewrap(wrapper))
        self._patches.append((owner, attr, had_own, raw))

    def _drained(self, iterator, name: str, on_item):
        iterator = iter(iterator)
        while True:
            opened = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.end(opened)
                return
            except BaseException:
                self.end(opened)
                raise
            self.end(opened)
            if on_item is not None:
                on_item(self, item)
            yield item

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own or not inspect.isclass(owner):
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def self_times(self, phases=None) -> dict[str, dict]:
        """Per span name: ``count``, ``total`` and ``self`` seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "total": 0.0, "self": 0.0}
        )
        for span in self.spans:
            if phases is not None and span.phase not in phases:
                continue
            row = table[span.name]
            duration = span.end - span.start
            row["count"] += 1
            row["total"] += duration
            row["self"] += duration - child_time[span.id]
        return dict(table)

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome ``trace_event`` complete event."""
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": pid,
                "tid": s.tid,
                "args": {
                    "id": s.id,
                    "parent": s.parent,
                    "request": s.request,
                    "phase": s.phase,
                },
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
