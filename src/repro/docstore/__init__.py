"""Embedded document store (MongoDB substitute) for MDM system metadata."""

from .store import Collection, DocumentStore, DuplicateKeyError

__all__ = ["DocumentStore", "Collection", "DuplicateKeyError"]
