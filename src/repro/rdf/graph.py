"""An indexed, in-memory RDF graph.

:class:`Graph` is the workhorse triple store of the substrate.  It keeps
three nested hash indexes — SPO, POS and OSP — so any triple pattern with
at least one concrete component is answered through a dictionary lookup
rather than a scan.  This is the same indexing strategy Jena's in-memory
model uses and is what keeps MDM's query-rewriting and SPARQL evaluation
interactive on graphs of 10^5 triples.

Patterns use ``None`` as a wildcard::

    graph.triples((None, RDF.type, G.Concept))   # all concepts
    graph.triples((player, None, None))          # everything about player

Set-like operations (union ``|``, intersection ``&``, difference ``-``,
containment, equality as triple sets) make graph manipulation read like
ordinary Python.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Union

from .namespaces import NamespaceManager, default_namespace_manager, next_stamp
from .terms import IRI, Term, TermPattern, Triple, validate_triple

__all__ = ["Graph"]

_Index = Dict[Term, Dict[Term, Set[Term]]]
TriplePattern = Tuple[TermPattern, TermPattern, TermPattern]


def _index_add(index: _Index, a: Term, b: Term, c: Term) -> bool:
    """Add ``(a, b, c)`` to a nested index; True if it was new."""
    level2 = index.setdefault(a, {})
    level3 = level2.setdefault(b, set())
    if c in level3:
        return False
    level3.add(c)
    return True


def _index_copy(index: _Index) -> _Index:
    """A copy of a nested index that shares no dict or set with it."""
    return {a: {b: c.copy() for b, c in level2.items()} for a, level2 in index.items()}


def _index_remove(index: _Index, a: Term, b: Term, c: Term) -> bool:
    """Remove ``(a, b, c)`` from a nested index; True if it was present."""
    level2 = index.get(a)
    if level2 is None:
        return False
    level3 = level2.get(b)
    if level3 is None or c not in level3:
        return False
    level3.discard(c)
    if not level3:
        del level2[b]
        if not level2:
            del index[a]
    return True


class Graph:
    """A mutable set of RDF triples with SPO/POS/OSP hash indexes.

    Parameters
    ----------
    identifier:
        Optional IRI naming this graph (used when the graph lives inside a
        :class:`repro.rdf.dataset.Dataset` as a named graph).
    namespaces:
        A :class:`NamespaceManager`; defaults to the standard vocabularies
        plus ``ex:``.
    """

    def __init__(
        self,
        identifier: Optional[IRI] = None,
        namespaces: Optional[NamespaceManager] = None,
    ):
        self.identifier = identifier
        self.namespaces = namespaces if namespaces is not None else default_namespace_manager()
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        self._stamp = next_stamp()

    @property
    def stamp(self) -> int:
        """A token for the triples this graph holds: equal stamps mean
        the same triples.

        A fresh graph takes a new stamp from one process-wide counter,
        and so does every ``add``, ``remove`` or ``clear`` that changes
        the triples.  :meth:`copy` keeps the stamp, since the copy holds
        the same triples; the first change to either graph draws a fresh
        stamp, which no other graph holds, and :meth:`restore` takes a
        copy's back with its triples.
        """
        return self._stamp

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add(self, triple: Union[Triple, Tuple[Term, Term, Term]]) -> bool:
        """Insert one triple; returns True if it was not already present."""
        s, p, o = triple
        validate_triple(s, p, o)
        if _index_add(self._spo, s, p, o):
            _index_add(self._pos, p, o, s)
            _index_add(self._osp, o, s, p)
            self._size += 1
            self._stamp = next_stamp()
            return True
        return False

    def add_all(self, triples: Iterable[Union[Triple, Tuple[Term, Term, Term]]]) -> int:
        """Insert many triples; returns the number actually added."""
        added = 0
        for triple in triples:
            if self.add(triple):
                added += 1
        return added

    def remove(self, triple: Union[Triple, Tuple[Term, Term, Term]]) -> bool:
        """Remove one concrete triple; returns True if it was present."""
        s, p, o = triple
        if _index_remove(self._spo, s, p, o):
            _index_remove(self._pos, p, o, s)
            _index_remove(self._osp, o, s, p)
            self._size -= 1
            self._stamp = next_stamp()
            return True
        return False

    def remove_pattern(self, pattern: TriplePattern) -> int:
        """Remove every triple matching ``pattern``; returns how many."""
        victims = list(self.triples(pattern))
        for triple in victims:
            self.remove(triple)
        return len(victims)

    def clear(self) -> None:
        """Remove every triple."""
        if not self._size:
            return
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._size = 0
        self._stamp = next_stamp()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, triple: Union[Triple, Tuple[Term, Term, Term]]) -> bool:
        s, p, o = triple
        return o in self._spo.get(s, {}).get(p, ())

    def __iter__(self) -> Iterator[Triple]:
        for s, level2 in self._spo.items():
            for p, objects in level2.items():
                for o in objects:
                    yield Triple(s, p, o)

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        """Iterate triples matching ``pattern`` (``None`` = wildcard).

        The most selective index available for the pattern shape is used;
        only the all-wildcard pattern scans everything.
        """
        s, p, o = pattern
        if s is not None:
            level2 = self._spo.get(s)
            if level2 is None:
                return
            if p is not None:
                objects = level2.get(p)
                if objects is None:
                    return
                if o is not None:
                    if o in objects:
                        yield Triple(s, p, o)
                    return
                for obj in objects:
                    yield Triple(s, p, obj)
                return
            for pred, objects in level2.items():
                if o is not None:
                    if o in objects:
                        yield Triple(s, pred, o)
                else:
                    for obj in objects:
                        yield Triple(s, pred, obj)
            return
        if p is not None:
            level2 = self._pos.get(p)
            if level2 is None:
                return
            if o is not None:
                for subj in level2.get(o, ()):
                    yield Triple(subj, p, o)
                return
            for obj, subjects in level2.items():
                for subj in subjects:
                    yield Triple(subj, p, obj)
            return
        if o is not None:
            level2 = self._osp.get(o)
            if level2 is None:
                return
            for subj, predicates in level2.items():
                for pred in predicates:
                    yield Triple(subj, pred, o)
            return
        yield from iter(self)

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        """The number of triples matching ``pattern``."""
        s, p, o = pattern
        if s is None and p is None and o is None:
            return self._size
        return sum(1 for _ in self.triples(pattern))

    def subjects(
        self, predicate: TermPattern = None, obj: TermPattern = None
    ) -> Iterator[Term]:
        """Distinct subjects of triples matching ``(?, predicate, obj)``.

        With both bound this is a snapshot of one index set, so the
        graph may change while the result is iterated.
        """
        if predicate is not None and obj is not None:
            return iter(tuple(self._pos.get(predicate, {}).get(obj, ())))
        return self._distinct(0, (None, predicate, obj))

    def predicates(
        self, subject: TermPattern = None, obj: TermPattern = None
    ) -> Iterator[Term]:
        """Distinct predicates of triples matching ``(subject, ?, obj)``.

        With both bound this is a snapshot of one index set (in that
        set's order, not the generic path's).
        """
        if subject is not None and obj is not None:
            return iter(tuple(self._osp.get(obj, {}).get(subject, ())))
        return self._distinct(1, (subject, None, obj))

    def objects(
        self, subject: TermPattern = None, predicate: TermPattern = None
    ) -> Iterator[Term]:
        """Distinct objects of triples matching ``(subject, predicate, ?)``.

        With both bound this is a snapshot of one index set, so the
        graph may change while the result is iterated.
        """
        if subject is not None and predicate is not None:
            return iter(tuple(self._spo.get(subject, {}).get(predicate, ())))
        return self._distinct(2, (subject, predicate, None))

    def _distinct(self, position: int, pattern: TriplePattern) -> Iterator[Term]:
        """The distinct terms at ``position`` of the triples matching
        ``pattern``, in match order."""
        seen: Set[Term] = set()
        for triple in self.triples(pattern):
            term = triple[position]
            if term not in seen:
                seen.add(term)
                yield term

    def value(
        self, subject: TermPattern = None, predicate: TermPattern = None
    ) -> Optional[Term]:
        """The single object of ``(subject, predicate, ?)`` or None.

        Raises :class:`ValueError` when the pattern matches more than one
        distinct object — use :meth:`objects` for multi-valued properties.
        """
        if subject is not None and predicate is not None:
            values = self._spo.get(subject, {}).get(predicate, ())
        else:
            values = tuple(self.objects(subject, predicate))
        if not values:
            return None
        if len(values) > 1:
            raise ValueError(
                f"value() is ambiguous: {len(values)} objects for "
                f"({subject}, {predicate})"
            )
        return next(iter(values))

    def estimate(self, pattern: TriplePattern) -> int:
        """Cheap upper-bound cardinality estimate for join ordering.

        Exact for fully concrete or single-wildcard patterns reachable
        through an index level; otherwise falls back to index bucket sizes.
        """
        s, p, o = pattern
        if s is not None and p is not None and o is not None:
            return 1 if (s, p, o) in self else 0
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if s is not None:
            return sum(len(objs) for objs in self._spo.get(s, {}).values())
        if p is not None:
            return sum(len(subjs) for subjs in self._pos.get(p, {}).values())
        if o is not None:
            return sum(len(preds) for preds in self._osp.get(o, {}).values())
        return self._size

    # ------------------------------------------------------------------ #
    # set algebra
    # ------------------------------------------------------------------ #

    def copy(self, namespaces: Optional[NamespaceManager] = None) -> "Graph":
        """A structural copy with this graph's stamp.

        The indexes are cloned as they are (the terms, already valid,
        are shared, not re-added).  The copy uses ``namespaces``, or a
        copy of this graph's bindings when none is given.  It holds the
        same triples, so it keeps the stamp until either graph changes
        (see :attr:`stamp`).
        """
        if namespaces is None:
            namespaces = self.namespaces.copy()
        clone = Graph(identifier=self.identifier, namespaces=namespaces)
        clone._spo = _index_copy(self._spo)
        clone._pos = _index_copy(self._pos)
        clone._osp = _index_copy(self._osp)
        clone._size = self._size
        clone._stamp = self._stamp
        return clone

    def restore(self, saved: "Graph") -> None:
        """Undo every change since ``saved = self.copy()``, stamp included.

        Inside a dataset, change none of its other graphs in between, or
        the dataset's stamp (the largest of its parts') would not move.
        """
        indexes = (saved._spo, saved._pos, saved._osp)
        self._spo, self._pos, self._osp = map(_index_copy, indexes)
        self._size, self._stamp = saved._size, saved._stamp

    def __or__(self, other: "Graph") -> "Graph":
        result = self.copy()
        result.add_all(iter(other))
        return result

    def __and__(self, other: "Graph") -> "Graph":
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        result = Graph(namespaces=self.namespaces.copy())
        result.add_all(t for t in small if t in large)
        return result

    def __sub__(self, other: "Graph") -> "Graph":
        result = Graph(namespaces=self.namespaces.copy())
        result.add_all(t for t in self if t not in other)
        return result

    def __ior__(self, other: "Graph") -> "Graph":
        self.add_all(iter(other))
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(t in other for t in self)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self):  # graphs are mutable
        raise TypeError("Graph is unhashable; compare with == or use id()")

    def issubgraph(self, other: "Graph") -> bool:
        """Whether every triple of this graph is in ``other``."""
        return all(t in other for t in self)

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #

    def diff(self, other: "Graph") -> Tuple["Graph", "Graph"]:
        """``(only_in_self, only_in_other)`` — a symmetric triple diff.

        Used by governance tooling to show a steward what changed between
        two versions of the global graph (or any metadata graph).
        """
        return self - other, other - self

    def terms(self) -> Set[Term]:
        """All distinct terms appearing in any position."""
        out: Set[Term] = set()
        for s, p, o in self:
            out.add(s)
            out.add(p)
            out.add(o)
        return out

    def nodes(self) -> Set[Term]:
        """All distinct subjects and objects (graph nodes)."""
        out: Set[Term] = set()
        for s, _, o in self:
            out.add(s)
            out.add(o)
        return out

    def qname(self, term: Term) -> str:
        """Human-friendly rendering of ``term`` using bound prefixes."""
        if isinstance(term, IRI):
            compact = self.namespaces.compact(term)
            return compact if compact is not None else term.n3()
        return term.n3()

    def __repr__(self) -> str:
        name = self.identifier.value if self.identifier else "default"
        return f"<Graph {name!r} with {self._size} triples>"
