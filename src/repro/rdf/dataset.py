"""RDF datasets: a default graph plus any number of named graphs.

Named graphs are the mechanism MDM uses to store LAV mappings: each
wrapper's mapping is a named graph whose IRI *is* the wrapper IRI and whose
triples are a subgraph of the global graph (paper §2.3).  The
:class:`Dataset` therefore exposes both a graph-level API (``graph(iri)``)
and a quad-level API (``quads`` / ``add_quad``) used by the TriG and
N-Quads codecs and by SPARQL ``GRAPH`` clauses.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from .graph import Graph
from .namespaces import NamespaceManager, default_namespace_manager, next_stamp
from .terms import IRI, Quad, Term, TermPattern, Triple

__all__ = ["Dataset"]

QuadPattern = Tuple[TermPattern, TermPattern, TermPattern, Optional[IRI]]


class Dataset:
    """A collection of one default graph and zero or more named graphs."""

    def __init__(self, namespaces: Optional[NamespaceManager] = None):
        self.namespaces = namespaces if namespaces is not None else default_namespace_manager()
        self._default = Graph(namespaces=self.namespaces)
        self._named: Dict[IRI, Graph] = {}
        #: Drawn when named graphs go, so that :attr:`stamp` moves.
        self._stamp = 0

    # ------------------------------------------------------------------ #
    # graph access
    # ------------------------------------------------------------------ #

    @property
    def default_graph(self) -> Graph:
        """The unnamed default graph."""
        return self._default

    def graph(self, identifier: Optional[IRI] = None, create: bool = True) -> Graph:
        """The graph named ``identifier`` (default graph when ``None``).

        With ``create=True`` (the default) a missing named graph is created
        empty; otherwise :class:`KeyError` is raised.
        """
        if identifier is None:
            return self._default
        if not isinstance(identifier, IRI):
            raise TypeError("named graph identifier must be an IRI")
        existing = self._named.get(identifier)
        if existing is not None:
            return existing
        if not create:
            raise KeyError(f"no named graph {identifier.value!r}")
        fresh = Graph(identifier=identifier, namespaces=self.namespaces)
        self._named[identifier] = fresh
        return fresh

    def has_graph(self, identifier: IRI) -> bool:
        """Whether a named graph with that IRI exists (even if empty)."""
        return identifier in self._named

    def remove_graph(self, identifier: IRI) -> bool:
        """Drop a named graph entirely; True if it existed."""
        if self._named.pop(identifier, None) is None:
            return False
        self._stamp = next_stamp()
        return True

    def graph_names(self) -> Iterator[IRI]:
        """Iterate the named-graph IRIs in sorted order."""
        return iter(sorted(self._named, key=lambda iri: iri.value))

    def graphs(self) -> Iterator[Graph]:
        """Iterate named graphs in sorted-IRI order (default graph excluded)."""
        for name in self.graph_names():
            yield self._named[name]

    @property
    def stamp(self) -> int:
        """A token for all this dataset holds, graphs and bindings alike:
        the largest stamp of its graphs, its namespace manager and its
        last graph removal.  Each change draws a larger one from their
        common counter; a :meth:`copy` keeps it.  It iterates the named
        graphs, so no other thread may add or remove one meanwhile.
        """
        named = [g.stamp for g in self._named.values()]
        return max(self._stamp, self.namespaces.stamp, self._default.stamp, *named)

    # ------------------------------------------------------------------ #
    # quad-level API
    # ------------------------------------------------------------------ #

    def add_quad(self, quad: Union[Quad, Tuple[Term, Term, Term, Optional[IRI]]]) -> bool:
        """Insert one quad; returns True if new."""
        s, p, o, g = quad
        return self.graph(g).add((s, p, o))

    def add_quads(self, quads: Iterable[Quad]) -> int:
        """Insert many quads; returns the number actually added."""
        return sum(1 for q in quads if self.add_quad(q))

    def remove_quad(self, quad: Union[Quad, Tuple[Term, Term, Term, Optional[IRI]]]) -> bool:
        """Remove one quad; True if it was present."""
        s, p, o, g = quad
        if g is not None and g not in self._named:
            return False
        return self.graph(g).remove((s, p, o))

    def quads(
        self, pattern: QuadPattern = (None, None, None, None)
    ) -> Iterator[Quad]:
        """Iterate quads matching ``pattern``.

        A ``None`` graph component is a wildcard over the default graph
        *and* every named graph, matching SPARQL dataset semantics for
        ``GRAPH ?g`` plus the default graph.
        """
        s, p, o, g = pattern
        if g is not None:
            if g in self._named:
                for t in self._named[g].triples((s, p, o)):
                    yield Quad(t.subject, t.predicate, t.object, g)
            return
        for t in self._default.triples((s, p, o)):
            yield Quad(t.subject, t.predicate, t.object, None)
        for name in self.graph_names():
            for t in self._named[name].triples((s, p, o)):
                yield Quad(t.subject, t.predicate, t.object, name)

    def graphs_containing(self, triple: Triple) -> Iterator[Optional[IRI]]:
        """Yield the graph names (None for default) that contain ``triple``."""
        if triple in self._default:
            yield None
        for name in self.graph_names():
            if triple in self._named[name]:
                yield name

    # ------------------------------------------------------------------ #
    # aggregate views
    # ------------------------------------------------------------------ #

    def union_graph(self) -> Graph:
        """A fresh graph holding the union of all graphs (default + named)."""
        union = Graph(namespaces=self.namespaces.copy())
        union.add_all(iter(self._default))
        for g in self.graphs():
            union.add_all(iter(g))
        return union

    def __len__(self) -> int:
        """Total number of quads across all graphs."""
        return len(self._default) + sum(len(g) for g in self._named.values())

    def __contains__(self, quad) -> bool:
        s, p, o, g = quad
        if g is None:
            return (s, p, o) in self._default
        target = self._named.get(g)
        return target is not None and (s, p, o) in target

    def copy(self) -> "Dataset":
        """A deep structural copy whose graphs share its one namespace
        manager, as this dataset's do; it keeps every stamp."""
        clone = Dataset(namespaces=self.namespaces.copy())
        clone._default = self._default.copy(clone.namespaces)
        clone._named = {
            name: g.copy(clone.namespaces) for name, g in self._named.items()
        }
        clone._stamp = self._stamp
        return clone

    def clear(self) -> None:
        """Remove every triple and every named graph."""
        self._default.clear()
        for name in list(self._named):
            self.remove_graph(name)

    def __repr__(self) -> str:
        return (
            f"<Dataset default={len(self._default)} triples, "
            f"{len(self._named)} named graphs, {len(self)} quads>"
        )
