"""An embedded document store (MongoDB substitute).

MDM keeps its integration metadata — sources, wrappers, attributes — in
the RDF graphs; only *system* metadata goes to MongoDB (paper §2.5):
here the release log, the saved queries and the query log.  A
:class:`Collection` answers what MDM asks of those collections: inserts,
equality lookups on top-level fields, one atomic replace-or-insert,
deletes and an optional sort, over documents kept in insertion order.
:class:`DocumentStore` persists its collections as JSON lines so a store
survives process restarts.

Documents are plain dicts.  Every inserted document gets a string ``_id``
(caller-provided or auto-minted, unique per collection).

A query maps top-level fields to values; a document matches when it
holds every field with an equal value, and an empty query matches every
document.  A ``$`` field or a mapping value is rejected with
:class:`ValueError`, so a query written for MongoDB's filter language
fails loudly instead of matching nothing.

Collections are thread-safe: the multi-client service records a query
document per ``execute()`` and concurrent writes would otherwise race
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
from typing import Any, Dict, List, Mapping, Optional

from ..chaos.failpoints import fire as _failpoint

__all__ = ["Collection", "DocumentStore", "DuplicateKeyError"]

Query = Optional[Mapping[str, Any]]


class DuplicateKeyError(ValueError):
    """Raised when inserting a document whose ``_id`` already exists."""


def _checked(query: Query) -> Dict[str, Any]:
    """``query`` as a dict of top-level fields to values, or ValueError."""
    fields = dict(query or {})
    for field, value in fields.items():
        if field.startswith("$") or isinstance(value, Mapping):
            raise ValueError(
                f"unsupported query {{{field!r}: {value!r}}}: a query maps "
                "top-level fields to values"
            )
    return fields


def _matches(document: Mapping[str, Any], fields: Mapping[str, Any]) -> bool:
    return all(
        field in document and document[field] == value
        for field, value in fields.items()
    )


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

    def _put(self, doc: Dict[str, Any]) -> str:
        """Store ``doc`` under its own or a minted ``_id``; lock held."""
        doc_id = doc.get("_id")
        if doc_id is None:
            doc_id = self._mint_id()
            doc["_id"] = doc_id
        elif not isinstance(doc_id, str):
            raise TypeError("_id must be a string")
        if doc_id in self._documents:
            raise DuplicateKeyError(f"duplicate _id {doc_id!r} in {self.name!r}")
        self._documents[doc_id] = doc
        return doc_id

    def _first(self, fields: Mapping[str, Any]) -> Optional[str]:
        """The ``_id`` of the first match in insertion order; lock held."""
        return next(
            (doc_id for doc_id, document in self._documents.items()
             if _matches(document, fields)),
            None,
        )

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def insert_one(self, document: Mapping[str, Any]) -> str:
        """Insert a copy of ``document``; returns its ``_id``."""
        doc = _failpoint("docstore.write", payload=copy.deepcopy(dict(document)),
                         key=self.name)
        with self._lock:
            return self._put(doc)

    def replace_one(self, query: Query, document: Mapping[str, Any]) -> int:
        """Replace the first match wholesale, keeping its ``_id``, or insert
        ``document`` when nothing matches (MongoDB's ``upsert=True``).

        The lookup and the write hold the lock together, so two callers
        replacing one key never both insert.  Returns 1 if it replaced and
        0 if it inserted.
        """
        fields = _checked(query)
        doc = _failpoint("docstore.write", payload=copy.deepcopy(dict(document)),
                         key=self.name)
        with self._lock:
            doc_id = self._first(fields)
            if doc_id is None:
                self._put(doc)
                return 0
            doc["_id"] = doc_id
            self._documents[doc_id] = doc
            return 1

    def delete_one(self, query: Query) -> int:
        """Delete the first match; returns 0 or 1."""
        fields = _checked(query)
        _failpoint("docstore.write", key=self.name)
        with self._lock:
            doc_id = self._first(fields)
            if doc_id is None:
                return 0
            del self._documents[doc_id]
            return 1

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def find(self, query: Query = None, sort: Optional[str] = None) -> List[Dict[str, Any]]:
        """Copies of all matching documents, in insertion order or by the
        top-level field ``sort``, which every match must hold."""
        fields = _checked(query)
        with self._lock:
            results = [
                copy.deepcopy(document)
                for document in self._documents.values()
                if _matches(document, fields)
            ]
        if sort is not None:
            results.sort(key=lambda document: document[sort])
        return results

    def find_one(self, query: Query) -> Optional[Dict[str, Any]]:
        """The first matching document (copy) or None."""
        fields = _checked(query)
        with self._lock:
            doc_id = self._first(fields)
            return None if doc_id is None else copy.deepcopy(self._documents[doc_id])

    def count(self) -> int:
        """Number of documents."""
        return len(self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)


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
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + ("\n" if lines else ""))
            os.replace(temp_name, target)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        return target

    def _load(self) -> None:
        assert self._path is not None
        with open(self._path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                self.collection(record["collection"]).insert_one(record["document"])

    def __repr__(self) -> str:
        sizes = {n: len(c) for n, c in sorted(self._collections.items())}
        return f"<DocumentStore {sizes}>"
