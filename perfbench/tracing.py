"""In-memory span recording around the program's public calls.

A span is (name, start, end, parent, item): `parent` is the index of the
enclosing span in the same list (-1 for a root) and `item` is the id of the
benchmark item that was running. Spans are recorded by replacing the module
or class attribute each caller looks up (bounds calls `tp.prokhorov`, walks
calls its own imported `tv_kernel`), so the program itself is unchanged.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    item: str


class Tracer:
    """Records spans of the wrapped callables while installed.

    `clock` is the time source; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.item = "setup"
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._counters: dict[str, int] = defaultdict(int)

    def wrap(self, owner, attr: str, name: str,
             count: Callable[[object], dict[str, int]] | None = None) -> None:
        """Replace `owner.attr` by a recording wrapper. `count` maps the
        call's return value to counter increments."""
        original = getattr(owner, attr)
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self._counters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.item)
            if count is not None:
                for key, inc in count(result).items():
                    counters[key] += inc
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    @property
    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def write(self, path) -> None:
        """All spans as gzipped CSV: name,start,end,parent,item."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,start,end,parent,item\n")
            for s in self.finished_spans():
                out.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.item}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        t = totals[s.name]
        t[0] += 1
        t[1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}
