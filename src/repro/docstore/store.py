"""An embedded document store (MongoDB substitute).

MDM persists its system metadata — data sources, wrapper registrations,
releases, query logs — in MongoDB (paper §2.5).  :class:`DocumentStore`
provides the same document/collection model with Mongo-style filters
(:mod:`repro.docstore.matching`), update operators, and JSON-lines
persistence so a store survives process restarts.

Documents are plain dicts.  Every inserted document gets a string ``_id``
(caller-provided or auto-minted, unique per collection).

Collections are thread-safe: the multi-client service records a query
document per ``execute()`` and concurrent inserts would otherwise race
on the id counter and the backing dict.  Reads return deep copies, so a
caller never holds a reference a concurrent writer could mutate.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

from ..chaos.failpoints import fire as _failpoint
from .matching import FilterError, matches, resolve_path

__all__ = ["Collection", "DocumentStore", "DuplicateKeyError"]


class DuplicateKeyError(ValueError):
    """Raised when inserting a document whose ``_id`` already exists."""


class Collection:
    """An ordered set of documents with unique ``_id`` values."""

    def __init__(self, name: str):
        self.name = name
        self._documents: Dict[str, Dict[str, Any]] = {}
        self._counter = 0
        self._lock = threading.RLock()

    def _mint_id(self) -> str:
        while True:
            self._counter += 1
            candidate = f"{self.name}-{self._counter:06d}"
            if candidate not in self._documents:
                return candidate

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def insert_one(self, document: Mapping[str, Any]) -> str:
        """Insert a copy of ``document``; returns its ``_id``."""
        doc = _failpoint("docstore.write", payload=copy.deepcopy(dict(document)),
                         key=self.name)
        with self._lock:
            doc_id = doc.get("_id")
            if doc_id is None:
                doc_id = self._mint_id()
                doc["_id"] = doc_id
            elif not isinstance(doc_id, str):
                raise TypeError("_id must be a string")
            if doc_id in self._documents:
                raise DuplicateKeyError(
                    f"duplicate _id {doc_id!r} in {self.name!r}"
                )
            self._documents[doc_id] = doc
            return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> List[str]:
        """Insert several documents; returns their ids."""
        return [self.insert_one(d) for d in documents]

    def replace_one(self, query: Mapping[str, Any], document: Mapping[str, Any]) -> int:
        """Replace the first match wholesale (keeping its ``_id``)."""
        _failpoint("docstore.write", key=self.name)
        with self._lock:
            for doc_id, existing in self._documents.items():
                if matches(existing, query):
                    replacement = copy.deepcopy(dict(document))
                    replacement["_id"] = doc_id
                    self._documents[doc_id] = replacement
                    return 1
            return 0

    def update_one(self, query: Mapping[str, Any], update: Mapping[str, Any]) -> int:
        """Apply ``$set``/``$unset``/``$push``/``$inc`` to the first match."""
        with self._lock:
            for document in self._documents.values():
                if matches(document, query):
                    self._apply_update(document, update)
                    return 1
            return 0

    def update_many(self, query: Mapping[str, Any], update: Mapping[str, Any]) -> int:
        """Apply an update to every match; returns the count."""
        with self._lock:
            count = 0
            for document in self._documents.values():
                if matches(document, query):
                    self._apply_update(document, update)
                    count += 1
            return count

    @staticmethod
    def _apply_update(document: Dict[str, Any], update: Mapping[str, Any]) -> None:
        recognised = {"$set", "$unset", "$push", "$inc"}
        unknown = set(update) - recognised
        if unknown:
            raise FilterError(f"unknown update operators {sorted(unknown)}")
        for path, value in update.get("$set", {}).items():
            _set_path(document, path, copy.deepcopy(value))
        for path in update.get("$unset", {}):
            _unset_path(document, path)
        for path, value in update.get("$push", {}).items():
            target = _get_path_container(document, path, create=True)
            key = path.split(".")[-1]
            existing = target.get(key)
            if existing is None:
                target[key] = [copy.deepcopy(value)]
            elif isinstance(existing, list):
                existing.append(copy.deepcopy(value))
            else:
                raise FilterError(f"$push target {path!r} is not a list")
        for path, amount in update.get("$inc", {}).items():
            target = _get_path_container(document, path, create=True)
            key = path.split(".")[-1]
            target[key] = target.get(key, 0) + amount

    def delete_one(self, query: Mapping[str, Any]) -> int:
        """Delete the first match; returns 0 or 1."""
        with self._lock:
            for doc_id, document in self._documents.items():
                if matches(document, query):
                    del self._documents[doc_id]
                    return 1
            return 0

    def delete_many(self, query: Mapping[str, Any]) -> int:
        """Delete every match; returns the count."""
        with self._lock:
            victims = [
                doc_id
                for doc_id, document in self._documents.items()
                if matches(document, query)
            ]
            for doc_id in victims:
                del self._documents[doc_id]
            return len(victims)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def find(
        self,
        query: Optional[Mapping[str, Any]] = None,
        sort: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Copies of all matching documents (insertion order by default).

        ``sort`` is a dot path; documents missing it sort first.
        """
        query = query or {}
        with self._lock:
            results = [
                copy.deepcopy(document)
                for document in self._documents.values()
                if matches(document, query)
            ]
        if sort is not None:
            def sort_key(document: Dict[str, Any]):
                values = resolve_path(document, sort)
                if not values:
                    return (0, "")
                value = values[0]
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    return (1, float(value))
                return (2, str(value))

            results.sort(key=sort_key, reverse=descending)
        if limit is not None:
            results = results[:limit]
        return results

    def find_one(self, query: Optional[Mapping[str, Any]] = None) -> Optional[Dict[str, Any]]:
        """The first matching document (copy) or None."""
        found = self.find(query, limit=1)
        return found[0] if found else None

    def get(self, doc_id: str) -> Optional[Dict[str, Any]]:
        """Fetch by ``_id`` (copy) or None."""
        with self._lock:
            document = self._documents.get(doc_id)
            return copy.deepcopy(document) if document is not None else None

    def count(self, query: Optional[Mapping[str, Any]] = None) -> int:
        """Number of matching documents."""
        with self._lock:
            if not query:
                return len(self._documents)
            return sum(
                1 for d in self._documents.values() if matches(d, query)
            )

    def distinct(self, path: str, query: Optional[Mapping[str, Any]] = None) -> List[Any]:
        """Distinct values at ``path`` across matching documents."""
        seen: List[Any] = []
        for document in self.find(query):
            for value in resolve_path(document, path):
                candidates = value if isinstance(value, list) else [value]
                for candidate in candidates:
                    if candidate not in seen:
                        seen.append(candidate)
        return seen

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.find())


def _set_path(document: Dict[str, Any], path: str, value: Any) -> None:
    container = _get_path_container(document, path, create=True)
    container[path.split(".")[-1]] = value


def _unset_path(document: Dict[str, Any], path: str) -> None:
    container = _get_path_container(document, path, create=False)
    if container is not None:
        container.pop(path.split(".")[-1], None)


def _get_path_container(
    document: Dict[str, Any], path: str, create: bool
) -> Optional[Dict[str, Any]]:
    segments = path.split(".")
    current: Any = document
    for segment in segments[:-1]:
        if not isinstance(current, dict):
            return None
        if segment not in current:
            if not create:
                return None
            current[segment] = {}
        current = current[segment]
    return current if isinstance(current, dict) else None


class DocumentStore:
    """A set of named collections with optional JSONL persistence."""

    def __init__(self, path: Optional[os.PathLike] = None):
        self._collections: Dict[str, Collection] = {}
        self._lock = threading.Lock()
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            self._load()

    def collection(self, name: str) -> Collection:
        """Get or create the collection called ``name``."""
        with self._lock:
            existing = self._collections.get(name)
            if existing is None:
                existing = Collection(name)
                self._collections[name] = existing
            return existing

    def drop_collection(self, name: str) -> bool:
        """Delete a collection entirely; True if it existed."""
        return self._collections.pop(name, None) is not None

    def collection_names(self) -> List[str]:
        """Sorted names of existing collections."""
        return sorted(self._collections)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, path: Optional[os.PathLike] = None) -> Path:
        """Write all collections as JSON lines; atomic via temp + rename."""
        _failpoint("docstore.save")
        target = Path(path) if path is not None else self._path
        if target is None:
            raise ValueError("no persistence path configured")
        lines = []
        for name in self.collection_names():
            for document in self._collections[name].find():
                lines.append(json.dumps({"collection": name, "document": document},
                                        sort_keys=True))
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(dir=str(target.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write("\n".join(lines) + ("\n" if lines else ""))
            os.replace(temp_name, target)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        return target

    def _load(self) -> None:
        assert self._path is not None
        with open(self._path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                self.collection(record["collection"]).insert_one(record["document"])

    def __repr__(self) -> str:
        sizes = {n: len(c) for n, c in sorted(self._collections.items())}
        return f"<DocumentStore {sizes}>"
