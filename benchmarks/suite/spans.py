"""In-memory span recorder for the traced run.

The harness opens a span around each public call into a layer
(``db.begin``, ``tx.execute`` + ``records()``, ``tx.commit``,
``GraphClient.execute`` ...).  Spans stay in per-thread lists until the run
ends and are then written as JSON lines.  A span's *self time* is its
duration minus the part of it its child spans cover, so the self times of
one operation add up to the duration of its root span.

With tracing off the workloads run the same code against :data:`NO_SPANS`,
whose ``span()`` hands back one shared do-nothing context manager.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, Iterable, List, Optional


class Span:
    """One timed interval; ``parent`` and ``op`` are span ids (``op`` = root)."""

    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs", "_owner")

    def __init__(self, owner: "ThreadSpans", span_id: int, name: str) -> None:
        self._owner = owner
        self.id = span_id
        self.name = name
        self.parent: Optional[int] = None
        self.op = span_id
        self.start = 0.0
        self.end = 0.0
        self.attrs: Optional[Dict[str, object]] = None

    def __enter__(self) -> "Span":
        stack = self._owner._stack
        if stack:
            self.parent = stack[-1].id
            self.op = stack[-1].op
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.end = perf_counter()
        self._owner._stack.pop()
        self._owner.spans.append(self)

    def set(self, key: str, value: object) -> None:
        """Attach one fact (transaction id, template name ...)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "id": self.id, "parent": self.parent, "op": self.op,
            "name": self.name, "start": self.start, "end": self.end,
        }
        if self.attrs:
            row["attrs"] = self.attrs
        return row


class ThreadSpans:
    """The spans of one client thread (single-threaded use, so no lock)."""

    def __init__(self, thread: int) -> None:
        self._next_id = thread << 40
        self._stack: List[Span] = []
        self.spans: List[Span] = []

    def span(self, name: str) -> Span:
        self._next_id += 1
        return Span(self, self._next_id, name)

    def add_child(self, parent: Span, name: str, start: float, end: float) -> None:
        """Attach an interval measured elsewhere (an engine phase mark)."""
        child = self.span(name)
        child.parent, child.op = parent.id, parent.op
        child.start, child.end = start, end
        self.spans.append(child)


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        return None


class _NoSpans:
    """Stand-in for :class:`ThreadSpans` when tracing is off."""

    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span


NO_SPANS = _NoSpans()


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus the interval its children cover."""
    children: Dict[int, List[Span]] = {}
    spans = list(spans)
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda item: item.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def write_jsonl(path: str, spans: Iterable[Span]) -> int:
    """Write spans (with their self time) one JSON object per line."""
    spans = list(spans)
    own = self_times(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            row = span.as_dict()
            row["self"] = own[span.id]
            handle.write(json.dumps(row, separators=(",", ":")))
            handle.write("\n")
    return len(spans)


def self_time_shares(path: str) -> Dict[str, Dict[str, float]]:
    """Per root-span name: each span name's share of the summed root time."""
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    root_name = {row["id"]: row["name"] for row in rows if row["parent"] is None}
    total: Dict[str, float] = {}
    own: Dict[str, Dict[str, float]] = {}
    for row in rows:
        root = root_name[row["op"]]
        if row["parent"] is None:
            total[root] = total.get(root, 0.0) + row["end"] - row["start"]
        by_name = own.setdefault(root, {})
        by_name[row["name"]] = by_name.get(row["name"], 0.0) + row["self"]
    return {
        root: {name: seconds / total[root] for name, seconds in sorted(by_name.items())}
        for root, by_name in sorted(own.items())
    }


if __name__ == "__main__":
    import sys

    for root, shares in self_time_shares(sys.argv[1]).items():
        print(root, "  ".join(f"{name}={share:.1%}" for name, share in shares.items()))
