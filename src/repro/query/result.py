"""Query results: lazily-pulled records plus execution statistics.

A :class:`QueryResult` wraps the executor's row generator.  Read-only queries
stay lazy — each record is pulled from the operator tree on demand, so a long
query iterated slowly still reads every row through the transaction it was
started in (one snapshot under snapshot isolation).  Write queries are
drained eagerly by :func:`repro.query.execute` before the result is handed
back, matching Cypher's eager-write semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence


@dataclass
class QueryStatistics:
    """Counters describing what a query changed."""

    nodes_created: int = 0
    nodes_deleted: int = 0
    relationships_created: int = 0
    relationships_deleted: int = 0
    properties_set: int = 0
    labels_added: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view of the counters."""
        return dict(vars(self))

    @property
    def contains_updates(self) -> bool:
        """Whether the query changed anything."""
        return any(self.as_dict().values())


class Record:
    """One result row: value access by column name or position."""

    __slots__ = ("_columns", "_values")

    def __init__(self, columns: Sequence[str], values: Sequence[object]) -> None:
        self._columns = columns
        self._values = values

    def __getitem__(self, key) -> object:
        if isinstance(key, int):
            return self._values[key]
        try:
            return self._values[self._columns.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def get(self, key: str, default: object = None) -> object:
        """Value of column ``key``, or ``default`` if the column is absent."""
        try:
            return self[key]
        except (KeyError, IndexError):
            return default

    def keys(self) -> List[str]:
        """The column names, in order."""
        return list(self._columns)

    def values(self) -> List[object]:
        """The column values, in order."""
        return list(self._values)

    def as_dict(self) -> Dict[str, object]:
        """The row as a column → value dict."""
        return dict(zip(self._columns, self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{key}={value!r}" for key, value in zip(self._columns, self._values)
        )
        return f"<Record {inner}>"


class QueryResult:
    """The outcome of one query execution.

    Iterable (lazily, unless the query wrote or the caller consumed it), with
    the result ``columns``, mutation ``stats`` and — for ``EXPLAIN`` — the
    ``plan`` tree with estimated vs. actual rows per operator.

    The rows arrive a batch at a time, as non-empty lists of value
    sequences.  A row is handed to the caller when it becomes a
    :class:`Record`; until then it stays in the batch list it came in, which
    is how the statement's observer (``repro.query._observed_rows``) counts
    only the rows a dropped result had handed over.
    """

    def __init__(
        self,
        columns: Sequence[str],
        batches: Iterator[List[Sequence[object]]],
        stats: QueryStatistics,
        plan=None,
    ) -> None:
        self.columns = list(columns)
        self.stats = stats
        #: The :class:`repro.query.planner.Plan` when EXPLAIN was requested.
        self.plan = plan
        self._batches = batches
        #: Records handed over so far (shared by every iterator over this
        #: result, so a partial iteration followed by ``records()`` loses
        #: nothing).
        self._collected: List[Record] = []
        #: The rows of the last batch not handed over yet, last row first.
        self._pending: List[Sequence[object]] = []
        self._exhausted = False

    def __iter__(self) -> Iterator[Record]:
        index = 0
        collected = self._collected
        while True:
            while index < len(collected):
                yield collected[index]
                index += 1
            if self._pending:
                collected.append(Record(self.columns, self._pending.pop()))
                continue
            if self._exhausted:
                return
            batch = next(self._batches, None)
            if batch is None:
                self._exhausted = True
                return
            batch.reverse()
            self._pending = batch

    def consume(self) -> "QueryResult":
        """Drain the remaining rows into memory; returns ``self``."""
        columns = self.columns
        collected = self._collected
        pending = self._pending
        if pending:
            collected.extend([Record(columns, values) for values in reversed(pending)])
            pending.clear()
        if not self._exhausted:
            for batch in self._batches:
                collected.extend([Record(columns, values) for values in batch])
            self._exhausted = True
        return self

    def records(self) -> List[Record]:
        """All rows, materialising the result if needed."""
        self.consume()
        return list(self._collected)

    def rows(self) -> List[List[object]]:
        """All rows as plain value lists."""
        return [record.values() for record in self.records()]

    def single(self) -> Record:
        """The only record; raises if there are zero or several."""
        records = self.records()
        if len(records) != 1:
            raise ValueError(f"expected exactly one record, got {len(records)}")
        return records[0]

    def value(self, column: int = 0) -> object:
        """Column ``column`` of the single record."""
        return self.single()[column]

    def values(self, column: int = 0) -> List[object]:
        """Column ``column`` of every record."""
        return [record[column] for record in self.records()]

    def render_plan(self) -> str:
        """The EXPLAIN plan as indented text ('' when not an EXPLAIN run)."""
        return self.plan.render() if self.plan is not None else ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialised" if self._exhausted else "lazy"
        return f"<QueryResult columns={self.columns} ({state})>"
