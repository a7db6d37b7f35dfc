"""In-memory spans around calls into the program's layers.

:class:`Recorder` wraps functions of the program from outside — the
program itself is not edited — and, while ``on``, records one span per
call: ``(span_id, name, start_ns, end_ns, parent_id, request_id,
size)``.  The parent is the innermost span open in the same thread or
asyncio task (a :mod:`contextvars` stack), and the request id is
inherited from :data:`REQUEST`, which the load generator (client) and
the server's per-request wrapper (server) set.  Spans stay in memory
and are written once, at exit.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import statistics
import time
from collections import defaultdict

#: The request the current thread or task is working on.
REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None)
_OPEN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_open_span", default=-1)


class Recorder:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple] = []
        self._ids = itertools.count()

    def wrap(self, owner, attr: str, name: str, size=None) -> bool:
        """Replace ``owner.attr`` by a recording wrapper.

        ``size(args)`` optionally gives the unit count a span covers
        (pairs, hosts).  Returns False when the attribute is missing,
        so a renamed function loses its span instead of the run.
        """
        raw = (inspect.getattr_static(owner, attr, None)
               if inspect.isclass(owner) else getattr(owner, attr, None))
        if raw is None:
            return False
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        wrapped = self._wrapper(function, name, size)
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
        return True

    def _wrapper(self, function, name: str, size):
        recorder = self
        clock = time.perf_counter_ns
        ids = self._ids
        spans = self.spans

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.on:
                return function(*args, **kwargs)
            span_id = next(ids)
            token = _OPEN.set(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                _OPEN.reset(token)
                spans.append((span_id, name, start, end, _OPEN.get(),
                              REQUEST.get(),
                              size(args) if size is not None else 1))
        return traced

    def record(self, name: str, start: int, end: int, request=None,
               size: int = 1) -> None:
        """A span timed by the caller (the client's round trip)."""
        if self.on:
            self.spans.append((next(self._ids), name, start, end,
                               _OPEN.get(), request, size))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


class Layers:
    """Per-name durations and self times over a span list."""

    def __init__(self, spans: list[tuple]):
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, _name, start, end, parent, _req, _size in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.total: dict[str, list[int]] = defaultdict(list)
        self.own: dict[str, list[int]] = defaultdict(list)
        self.size: dict[str, int] = defaultdict(int)
        self.starts: dict[str, list[int]] = defaultdict(list)
        self.ends: dict[str, list[int]] = defaultdict(list)
        for sid, name, start, end, _parent, _req, size in spans:
            self.total[name].append(end - start)
            self.own[name].append(end - start - child_ns.get(sid, 0))
            self.size[name] += size
            self.starts[name].append(start)
            self.ends[name].append(end)

    def count(self, name: str) -> int:
        return len(self.total.get(name, ()))

    def median_us(self, name: str, own: bool = False) -> float:
        values = (self.own if own else self.total).get(name)
        return statistics.median(values) / 1e3 if values else 0.0

    def mean_us(self, name: str) -> float:
        values = self.total.get(name)
        return statistics.fmean(values) / 1e3 if values else 0.0

    def ns_per_unit(self, name: str) -> float:
        units = self.size.get(name, 0)
        return sum(self.total[name]) / units if units else 0.0
