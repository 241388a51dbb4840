"""Document store: named collections of schemaless JSON-like documents."""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from ...errors import QueryError, StorageError
from ...ids import IdGenerator
from .query import get_path, matches, project, _MISSING


class Collection:
    """A collection of documents with Mongo-style find/update/delete."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._documents: dict[str, dict[str, Any]] = {}
        self._ids = IdGenerator()
        self._lock = threading.RLock()
        self._field_indices: dict[str, dict[Any, set[str]]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, document: Mapping[str, Any], doc_id: str | None = None) -> str:
        """Insert a copy of *document*; returns its id (stored as ``_id``)."""
        with self._lock:
            if doc_id is None:
                doc_id = self._ids.next("doc")
            if doc_id in self._documents:
                raise StorageError(f"duplicate document id: {doc_id!r}")
            stored = dict(document)
            stored["_id"] = doc_id
            self._documents[doc_id] = stored
            for field, index in self._field_indices.items():
                self._index_insert(index, stored, field, doc_id)
            return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> list[str]:
        return [self.insert(document) for document in documents]

    def update(self, filter_spec: Mapping[str, Any], changes: Mapping[str, Any]) -> int:
        """Shallow-merge *changes* into matching documents; returns count."""
        if "_id" in changes:
            raise StorageError("cannot change _id")
        count = 0
        with self._lock:
            for doc_id, document in self._documents.items():
                if not matches(document, filter_spec):
                    continue
                for field, index in self._field_indices.items():
                    self._index_remove(index, document, field, doc_id)
                document.update(dict(changes))
                for field, index in self._field_indices.items():
                    self._index_insert(index, document, field, doc_id)
                count += 1
        return count

    def delete(self, filter_spec: Mapping[str, Any]) -> int:
        with self._lock:
            doomed = [
                doc_id
                for doc_id, document in self._documents.items()
                if matches(document, filter_spec)
            ]
            for doc_id in doomed:
                document = self._documents.pop(doc_id)
                for field, index in self._field_indices.items():
                    self._index_remove(index, document, field, doc_id)
        return len(doomed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(
        self,
        filter_spec: Mapping[str, Any] | None = None,
        fields: Sequence[str] | None = None,
        sort: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Documents matching *filter_spec* (all when None)."""
        results, _ = self._find_examined(filter_spec, sort, descending, limit)
        if fields is not None:
            results = [project(document, fields) for document in results]
        return results

    def _find_examined(
        self,
        filter_spec: Mapping[str, Any] | None = None,
        sort: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> tuple[list[dict[str, Any]], int]:
        """Copies of the matching documents, sorted and limited, plus how
        many documents the filter ran on.

        Without *sort*, a *limit* stops the scan at its limit-th match and
        only the returned documents are copied.
        """
        filter_spec = filter_spec or {}
        candidates = self._candidates(filter_spec)
        if sort is None and limit is not None and limit >= 0:
            results: list[dict[str, Any]] = []
            examined = 0
            for document in candidates:
                if len(results) == limit:
                    break
                examined += 1
                if matches(document, filter_spec):
                    results.append(dict(document))
            return results, examined
        results = [
            dict(document) for document in candidates if matches(document, filter_spec)
        ]
        if sort is not None:
            results.sort(
                key=lambda d: _sortable(get_path(d, sort)), reverse=descending
            )
        if limit is not None:
            results = results[:limit]
        return results, len(candidates)

    def find_one(self, filter_spec: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        found = self.find(filter_spec, limit=1)
        return found[0] if found else None

    def get(self, doc_id: str) -> dict[str, Any]:
        with self._lock:
            document = self._documents.get(doc_id)
        if document is None:
            raise QueryError(f"no document with id {doc_id!r} in {self.name!r}")
        return dict(document)

    def count(self, filter_spec: Mapping[str, Any] | None = None) -> int:
        return len(self.find(filter_spec))

    def distinct(self, field: str) -> list[Any]:
        values = []
        seen: set[Any] = set()
        for document in self.find():
            value = get_path(document, field)
            if value is _MISSING:
                continue
            key = repr(value) if isinstance(value, (list, dict)) else value
            if key not in seen:
                seen.add(key)
                values.append(value)
        return values

    # ------------------------------------------------------------------
    # Field indices
    # ------------------------------------------------------------------
    def create_index(self, field: str) -> None:
        """Equality index over a top-level or dotted field."""
        with self._lock:
            if field in self._field_indices:
                return
            index: dict[Any, set[str]] = {}
            for doc_id, document in self._documents.items():
                self._index_insert(index, document, field, doc_id)
            self._field_indices[field] = index

    def indexed_fields(self) -> list[str]:
        with self._lock:
            return sorted(self._field_indices)

    def _candidates(self, filter_spec: Mapping[str, Any]) -> list[dict[str, Any]]:
        with self._lock:
            for field, condition in filter_spec.items():
                if field.startswith("$") or field not in self._field_indices:
                    continue
                if isinstance(condition, Mapping):
                    if "$eq" in condition:
                        condition = condition["$eq"]
                    elif "$in" in condition:
                        index = self._field_indices[field]
                        ids: set[str] = set()
                        for value in condition["$in"]:
                            ids |= index.get(_index_key(value), set())
                        return [self._documents[i] for i in sorted(ids)]
                    else:
                        continue
                index = self._field_indices[field]
                ids = index.get(_index_key(condition), set())
                return [self._documents[i] for i in sorted(ids)]
            return list(self._documents.values())

    @staticmethod
    def _index_insert(
        index: dict[Any, set[str]], document: Mapping[str, Any], field: str, doc_id: str
    ) -> None:
        value = get_path(document, field)
        if value is _MISSING:
            return
        index.setdefault(_index_key(value), set()).add(doc_id)

    @staticmethod
    def _index_remove(
        index: dict[Any, set[str]], document: Mapping[str, Any], field: str, doc_id: str
    ) -> None:
        value = get_path(document, field)
        if value is _MISSING:
            return
        bucket = index.get(_index_key(value))
        if bucket is not None:
            bucket.discard(doc_id)


def _index_key(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def _sortable(value: Any) -> Any:
    if value is _MISSING or value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


class DocumentStore:
    """A named set of collections (the enterprise's document database)."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._collections: dict[str, Collection] = {}
        self._lock = threading.RLock()

    def create_collection(self, name: str, description: str = "") -> Collection:
        with self._lock:
            if name in self._collections:
                raise StorageError(f"collection already exists: {name!r}")
            collection = Collection(name, description)
            self._collections[name] = collection
            return collection

    def collection(self, name: str) -> Collection:
        with self._lock:
            collection = self._collections.get(name)
        if collection is None:
            raise StorageError(f"unknown collection: {name!r} in store {self.name!r}")
        return collection

    def has_collection(self, name: str) -> bool:
        with self._lock:
            return name in self._collections

    def collection_names(self) -> list[str]:
        with self._lock:
            return sorted(self._collections)

    def describe(self) -> dict[str, Any]:
        return {
            "store": self.name,
            "description": self.description,
            "collections": [
                {
                    "name": collection.name,
                    "description": collection.description,
                    "documents": len(collection),
                    "indexed_fields": collection.indexed_fields(),
                }
                for collection in (self.collection(n) for n in self.collection_names())
            ],
        }
