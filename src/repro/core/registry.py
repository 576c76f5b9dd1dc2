"""The saved-query registry: governed analytical processes.

"The maintenance of such data analysis processes is critical in scenarios
integrating tenths of sources and exploiting them in hundreds of
analytical processes, thus its automation is badly needed" (paper §1).

Analysts *save* their walks under a name; after every release the steward
runs :meth:`QueryRegistry.revalidate` to learn, per saved query, whether
it still rewrites (and optionally still executes).  Under MDM's LAV
design the expected report is all-green — which is precisely the claim
the governance demo makes — and any red entry pinpoints the concept whose
coverage a release broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from .errors import MdmError
from .walks import Walk

__all__ = ["SavedQuery", "RevalidationEntry", "QueryRegistry"]


@dataclass(frozen=True)
class SavedQuery:
    """One named analytical process."""

    name: str
    walk: Walk
    description: str = ""


@dataclass(frozen=True)
class RevalidationEntry:
    """The health of one saved query after a revalidation pass."""

    name: str
    ok: bool
    ucq_size: int = 0
    rows: Optional[int] = None
    error: str = ""


def _saved_query(document: Mapping[str, Any]) -> SavedQuery:
    return SavedQuery(
        name=document["name"],
        walk=Walk.from_json_dict(document["walk"]),
        description=document.get("description", ""),
    )


class QueryRegistry:
    """Persists saved queries in the metadata store and revalidates them."""

    COLLECTION = "saved_queries"

    def __init__(self, mdm):
        self._mdm = mdm

    @property
    def _collection(self):
        # Resolved lazily: persistence reloads may swap mdm.metadata.
        return self._mdm.metadata.collection(self.COLLECTION)

    # ------------------------------------------------------------------ #
    # CRUD
    # ------------------------------------------------------------------ #

    def save(self, name: str, walk: Walk, description: str = "") -> SavedQuery:
        """Save (or replace) a named query; the walk is validated first."""
        if not name:
            raise ValueError("saved query name must be non-empty")
        walk.validate(self._mdm.global_graph)
        document = {
            "name": name,
            "description": description,
            "walk": walk.to_json_dict(),
        }
        self._collection.replace_one({"name": name}, document)
        return SavedQuery(name=name, walk=walk, description=description)

    def get(self, name: str) -> SavedQuery:
        """Fetch one saved query; raises :class:`KeyError` if absent."""
        document = self._collection.find_one({"name": name})
        if document is None:
            raise KeyError(f"no saved query named {name!r}")
        return _saved_query(document)

    def delete(self, name: str) -> bool:
        """Remove a saved query; True if it existed."""
        return bool(self._collection.delete_one({"name": name}))

    def names(self) -> List[str]:
        """All saved query names, sorted."""
        return [d["name"] for d in self._collection.find(sort="name")]

    def all(self) -> List[SavedQuery]:
        """Every saved query, read in one pass, sorted by name."""
        return [_saved_query(d) for d in self._collection.find(sort="name")]

    def walks(self) -> Dict[str, Walk]:
        """Every saved walk, read once, by name in sorted order."""
        return {saved.name: saved.walk for saved in self.all()}

    def __len__(self) -> int:
        return len(self._collection)

    # ------------------------------------------------------------------ #
    # execution & governance
    # ------------------------------------------------------------------ #

    def run(self, name: str, on_wrapper_error: str = "raise"):
        """Execute a saved query through the normal OMQ pipeline."""
        saved = self.get(name)
        return self._mdm.execute(saved.walk, on_wrapper_error=on_wrapper_error)

    def revalidate(self, execute: bool = False) -> List[RevalidationEntry]:
        """Re-check every saved query against the current metadata.

        With ``execute=False`` (default) only the rewriting is attempted —
        cheap, and sufficient to detect coverage loss.  With
        ``execute=True`` the UCQ also runs against the live wrappers
        (failing fetches are skipped, so a half-migrated source does not
        mark the query red as long as one version still answers).  The
        pass holds the read lock, so it reports one generation, and the
        execution reuses the plan :meth:`MDM.replay` cached.
        """
        mdm = self._mdm
        report: List[RevalidationEntry] = []
        with mdm.metadata_lock.read_locked():
            walks = self.walks()
            for (name, walk), result in zip(walks.items(), mdm.replay(walks.values())):
                rows: Optional[int] = None
                if execute and not isinstance(result, MdmError):
                    try:
                        rows = len(mdm.execute(walk, on_wrapper_error="skip").relation)
                    except MdmError as exc:
                        result = exc
                if isinstance(result, MdmError):
                    report.append(RevalidationEntry(name=name, ok=False, error=str(result)))
                else:
                    report.append(
                        RevalidationEntry(name=name, ok=True, ucq_size=result.ucq_size, rows=rows)
                    )
        return report

    def health_summary(self, execute: bool = False) -> Dict[str, int]:
        """Counts of healthy vs broken saved queries."""
        report = self.revalidate(execute=execute)
        return {
            "total": len(report),
            "ok": sum(1 for e in report if e.ok),
            "broken": sum(1 for e in report if not e.ok),
        }
