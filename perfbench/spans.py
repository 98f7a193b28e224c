"""Call-tree spans for the traced benchmark run.

A span records its name, its parent span, the start of its first call
and the end of its last one (perf_counter_ns), how many calls it stands
for and their summed busy time.  Calls with the same name under the same
parent merge into one span, so a million evaluator calls cost a counter
update each instead of a record each.  Spans stay in memory until the
run writes them out; a span's self time is its busy time minus the busy
time of its direct children.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    calls: int = 0
    busy_ns: int = 0
    items: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids: dict[tuple[int | None, str], int] = {}
        self._stack: list[int | None] = [None]

    def _enter(self, name: str) -> Span:
        key = (self._stack[-1], name)
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.spans)
            self.spans.append(Span(sid, name, key[0], perf_counter_ns()))
        self._stack.append(sid)
        return self.spans[sid]

    def _exit(self, span: Span, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        span.end_ns = end
        span.calls += 1
        span.busy_ns += end - start

    @contextmanager
    def span(self, name: str):
        span = self._enter(name)
        start = perf_counter_ns()
        try:
            yield span
        finally:
            self._exit(span, start)

    def wrap(self, name: str, fn, items=None):
        """fn traced as span `name`; items(args, result) counts work items."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span, start)
            if items is not None:
                span.items += items(args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        """Generator function fn traced step by step; each yield is an item."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                span = self._enter(name)
                start = perf_counter_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._exit(span, start)
                span.items += 1
                yield item

        return traced

    def child(self, parent: Span, name: str) -> Span | None:
        sid = self._ids.get((parent.id, name))
        return None if sid is None else self.spans[sid]

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_ns(self) -> list[int]:
        """Self time of every span, indexed by span id."""
        own = [span.busy_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.busy_ns
        return own

    def write(self, path) -> None:
        """One JSON object per span, self time included."""
        with open(path, "w", encoding="utf-8") as out:
            for span, own in zip(self.spans, self.self_ns()):
                out.write(json.dumps(asdict(span) | {"self_ns": own}) + "\n")
