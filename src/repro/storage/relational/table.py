"""Tables: schema-validated row storage with secondary indices."""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator

from ...errors import SchemaError, StorageError
from ..schema import TableSchema
from .index import HashIndex, SortedIndex


class Table:
    """An in-memory relation.

    Rows are dicts keyed by column name, stored under stable integer row
    ids; deletions leave holes so indices stay valid without renumbering.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_row_id = 0
        self._indices: dict[str, HashIndex | SortedIndex] = {}
        self._lock = threading.RLock()
        primary = schema.primary_key()
        if primary is not None:
            self.create_index(primary.name, kind="hash")

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: dict[str, Any]) -> int:
        """Validate and insert *row*; returns its row id."""
        validated = self.schema.validate_row(row)
        with self._lock:
            primary = self.schema.primary_key()
            if primary is not None:
                index = self._indices[primary.name]
                if index.lookup(validated[primary.name]):
                    raise StorageError(
                        f"duplicate primary key {validated[primary.name]!r} "
                        f"in table {self.name!r}"
                    )
            row_id = self._next_row_id
            self._next_row_id += 1
            self._rows[row_id] = validated
            for column, index in self._indices.items():
                index.insert(validated[column], row_id)
            return row_id

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> list[int]:
        return [self.insert(row) for row in rows]

    def update(
        self, predicate: Callable[[dict[str, Any]], bool], changes: dict[str, Any]
    ) -> int:
        """Apply *changes* to rows matching *predicate*; returns count."""
        self._check_columns(changes)
        return self.update_rows(lambda row: changes if predicate(row) else None)

    def update_rows(
        self, changes_for: Callable[[dict[str, Any]], dict[str, Any] | None]
    ) -> int:
        """Update every row at most once; returns the number updated.

        *changes_for* sees each row of one snapshot and returns that row's
        changes (None leaves it alone).  All new rows are validated before
        any is stored, then applied by row id in one pass, so a changed row
        is never evaluated again and a bad value changes nothing.
        """
        with self._lock:
            pending = []
            for row_id, row in self._rows.items():
                changes = changes_for(row)
                if changes is not None:
                    self._check_columns(changes)
                    pending.append((row_id, self.schema.validate_row({**row, **changes})))
            for row_id, new_row in pending:
                row = self._rows[row_id]
                for column, index in self._indices.items():
                    if row[column] != new_row[column]:
                        index.remove(row[column], row_id)
                        index.insert(new_row[column], row_id)
                self._rows[row_id] = new_row
        return len(pending)

    def _check_columns(self, changes: dict[str, Any]) -> None:
        unknown = set(changes) - set(self.schema.column_names())
        if unknown:
            raise SchemaError(f"unknown columns in update: {sorted(unknown)}")

    def delete(self, predicate: Callable[[dict[str, Any]], bool]) -> int:
        """Delete rows matching *predicate*; returns count."""
        with self._lock:
            doomed = [rid for rid, row in self._rows.items() if predicate(row)]
            for row_id in doomed:
                row = self._rows.pop(row_id)
                for column, index in self._indices.items():
                    index.remove(row[column], row_id)
        return len(doomed)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def snapshot(self, row_ids: Iterable[int] | None = None) -> list[dict[str, Any]]:
        """All rows, or those with *row_ids*, in insertion order, uncopied.

        The dicts are the table's own and are shared read-only: writes
        replace a row's dict rather than mutating it, so the list stays a
        consistent snapshot.  Copy a row before handing it out.
        """
        with self._lock:
            if row_ids is None:
                return list(self._rows.values())
            return [self._rows[rid] for rid in sorted(row_ids) if rid in self._rows]

    def scan(self) -> Iterator[dict[str, Any]]:
        """Iterate over copies of all rows in insertion order."""
        for row in self.snapshot():
            yield dict(row)

    def rows(self) -> list[dict[str, Any]]:
        return list(self.scan())

    def get_by_row_ids(self, row_ids: Iterable[int]) -> list[dict[str, Any]]:
        return [dict(row) for row in self.snapshot(row_ids)]

    # ------------------------------------------------------------------
    # Indices
    # ------------------------------------------------------------------
    def create_index(self, column: str, kind: str = "hash") -> None:
        """Build a secondary index over *column* (kinds: hash, sorted)."""
        if not self.schema.has_column(column):
            raise SchemaError(f"no column {column!r} in table {self.name!r}")
        with self._lock:
            if column in self._indices:
                return
            if kind == "hash":
                index: HashIndex | SortedIndex = HashIndex(column)
            elif kind == "sorted":
                index = SortedIndex(column)
            else:
                raise StorageError(f"unknown index kind: {kind!r}")
            for row_id, row in self._rows.items():
                index.insert(row[column], row_id)
            self._indices[column] = index

    def index_on(self, column: str) -> HashIndex | SortedIndex | None:
        with self._lock:
            return self._indices.get(column)

    def indexed_columns(self) -> dict[str, str]:
        """Mapping of indexed column -> index kind (registry metadata)."""
        with self._lock:
            return {column: index.kind for column, index in self._indices.items()}

    def lookup(self, column: str, value: Any) -> list[dict[str, Any]]:
        """Indexed equality lookup; falls back to a scan when unindexed."""
        index = self.index_on(column)
        if index is not None:
            return self.get_by_row_ids(index.lookup(value))
        return [row for row in self.scan() if row[column] == value]
