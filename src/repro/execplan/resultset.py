"""Query results and side-effect statistics (RedisGraph's ResultSet).

Since the vectorized-engine refactor, read results arrive as columnar
batches: :meth:`ResultSet.from_columns` keeps the column arrays and
materializes row tuples lazily on first ``rows`` access, so columnar
consumers (``column()``, ``scalar()``) never pay the transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["QueryStatistics", "ResultSet", "QueryResult"]


@dataclass
class QueryStatistics:
    nodes_created: int = 0
    nodes_deleted: int = 0
    relationships_created: int = 0
    relationships_deleted: int = 0
    properties_set: int = 0
    labels_added: int = 0
    indices_created: int = 0
    indices_deleted: int = 0
    execution_time_ms: float = 0.0
    cached_execution: bool = False

    def summary(self) -> List[str]:
        """Human-readable non-zero counters, RedisGraph reply style."""
        parts = []
        for attr, label in [
            ("labels_added", "Labels added"),
            ("nodes_created", "Nodes created"),
            ("properties_set", "Properties set"),
            ("relationships_created", "Relationships created"),
            ("nodes_deleted", "Nodes deleted"),
            ("relationships_deleted", "Relationships deleted"),
            ("indices_created", "Indices created"),
            ("indices_deleted", "Indices deleted"),
        ]:
            value = getattr(self, attr)
            if value:
                parts.append(f"{label}: {value}")
        # always reported, like RedisGraph: 1 = the plan came from the cache
        parts.append(f"Cached execution: {1 if self.cached_execution else 0}")
        parts.append(f"Query internal execution time: {self.execution_time_ms:.6f} milliseconds")
        return parts


class ResultSet:
    """Column names + row tuples + statistics."""

    def __init__(self, columns: Sequence[str], rows: List[Tuple[Any, ...]], stats: QueryStatistics) -> None:
        self.columns = list(columns)
        self._rows = rows
        self._column_data: Optional[List[List[Any]]] = None
        self.stats = stats

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[str],
        column_data: List[List[Any]],
        stats: QueryStatistics,
    ) -> "ResultSet":
        """Build from column-major data (one list per column, equal
        lengths); row tuples materialize lazily on first access."""
        rs = cls(columns, None, stats)  # type: ignore[arg-type]
        rs._column_data = column_data
        return rs

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        if self._rows is None:
            data = self._column_data or []
            if data:
                self._rows = list(zip(*data))
            else:
                self._rows = []
        return self._rows

    def __len__(self) -> int:
        if self._rows is None and self._column_data is not None:
            return len(self._column_data[0]) if self._column_data else 0
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self):
        """The single value of a 1x1 result (e.g. RETURN count(*))."""
        if self._rows is None and self._column_data is not None:
            assert len(self._column_data) == 1 and len(self._column_data[0]) == 1, "result is not 1x1"
            return self._column_data[0][0]
        assert len(self.rows) == 1 and len(self.rows[0]) == 1, "result is not 1x1"
        return self.rows[0][0]

    def column(self, name: str) -> List[Any]:
        idx = self.columns.index(name)
        if self._rows is None and self._column_data is not None:
            return list(self._column_data[idx])
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"<ResultSet {self.columns} rows={len(self.rows)}>"


class QueryResult(ResultSet):
    """The unified result of ``query`` / ``ro_query`` / ``profile``.

    One shape for every entry point: ``.rows``, ``.columns``, ``.stats``,
    plus ``.plan`` (the EXPLAIN tree of the compiled artifact that ran)
    and ``.profile`` (the per-operation PROFILE report, None unless the
    run profiled).  It *is* a :class:`ResultSet` — iteration, ``len``,
    ``scalar()``, ``column()`` and ``to_dicts()`` all keep working — so
    pre-redesign callers continue unchanged (the deprecation shim).
    """

    @classmethod
    def wrap(
        cls,
        result: ResultSet,
        *,
        compiled=None,
        profile_report: Optional[str] = None,
    ) -> "QueryResult":
        qr = cls.__new__(cls)
        qr.columns = result.columns
        qr._rows = result._rows
        qr._column_data = result._column_data
        qr.stats = result.stats
        qr._compiled = compiled
        qr._profile_report = profile_report
        return qr

    @property
    def plan(self) -> Optional[str]:
        """The executed plan as an indented EXPLAIN tree (lazy)."""
        return self._compiled.explain() if self._compiled is not None else None

    @property
    def profile(self) -> Optional[str]:
        """The per-operation PROFILE report; None outside profile runs."""
        return self._profile_report

    def __repr__(self) -> str:
        return f"<QueryResult {self.columns} rows={len(self.rows)}>"
