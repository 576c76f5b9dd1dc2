"""Namespaces and prefix management for the RDF substrate.

A :class:`Namespace` is a convenience factory for IRIs sharing a common
prefix — ``SC.SportsTeam`` or ``SC["SportsTeam"]`` both yield
``IRI("http://schema.org/SportsTeam")``.  The :class:`NamespaceManager`
maps prefixes to namespaces and is used by the Turtle/TriG serializers and
the SPARQL parser to resolve and compact qualified names (QNames).

The module predeclares the vocabularies MDM uses: ``rdf:``, ``rdfs:``,
``owl:``, ``xsd:``, ``sc:`` (schema.org) and the example prefix ``ex:``
from the paper's motivational use case.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterator, Optional, Tuple

from .terms import IRI

__all__ = [
    "Namespace",
    "NamespaceManager",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
    "SC",
    "EX",
    "default_namespace_manager",
]


class Namespace:
    """A factory for IRIs under a common base, e.g. ``Namespace("http://schema.org/")``.

    Attribute access is interned: ``G.hasFeature`` mints its IRI once and
    stores it as an instance attribute, so every later access is a plain
    attribute lookup.  Only names written in source code take that path;
    ``ns[name]`` and :meth:`term` mint afresh, because they also carry
    data-derived names.
    """

    def __init__(self, base: str):
        if not base:
            raise ValueError("namespace base must be non-empty")
        self._base = base

    @property
    def base(self) -> str:
        """The namespace base IRI string."""
        return self._base

    def term(self, local: str) -> IRI:
        """Return the IRI for ``local`` under this namespace."""
        return IRI(self._base + local)

    def __getitem__(self, local: str) -> IRI:
        return self.term(local)

    def __getattr__(self, local: str) -> IRI:
        if local.startswith("_"):
            raise AttributeError(local)
        iri = self.__dict__[local] = self.term(local)
        return iri

    def __contains__(self, iri: object) -> bool:
        return isinstance(iri, IRI) and iri.value.startswith(self._base)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self) -> int:
        return hash(("Namespace", self._base))

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"

    def __str__(self) -> str:
        return self._base


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
#: schema.org, reused by the paper for e.g. ``sc:SportsTeam`` and ``sc:identifier``.
SC = Namespace("http://schema.org/")
#: The paper's custom example prefix for the football use case.
EX = Namespace("http://www.essi.upc.edu/example/")

#: The stamps of every graph, namespace manager and dataset come from one
#: process-wide sequence (``next`` on an ``itertools.count`` is atomic).
next_stamp = itertools.count().__next__

# The empty prefix is the default namespace of Turtle's and SPARQL's ``:``.
_PREFIX_RE = re.compile(r"^(?:[A-Za-z][A-Za-z0-9_-]*)?$")
# Local parts of QNames: permissive PN_LOCAL subset (no dots at the edges),
# the same shape the Turtle tokenizer reads back.
_LOCAL_RE = re.compile(r"^(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?$")


class NamespaceManager:
    """Bidirectional prefix <-> namespace registry.

    Supports QName expansion (``expand("sc:SportsTeam")``) and IRI
    compaction (``compact(IRI(...)) -> "sc:SportsTeam"``), choosing the
    *longest* matching namespace base on compaction so nested namespaces
    behave predictably.
    """

    def __init__(self, bind_defaults: bool = True):
        self._by_prefix: Dict[str, str] = {}
        self._stamp = next_stamp()
        if bind_defaults:
            self.bind("rdf", RDF)
            self.bind("rdfs", RDFS)
            self.bind("owl", OWL)
            self.bind("xsd", XSD)
            self.bind("sc", SC)

    def bind(self, prefix: str, namespace) -> None:
        """Associate ``prefix`` with ``namespace`` (a Namespace, IRI or str).

        Rebinding an existing prefix replaces it; binding the same pair
        twice is a no-op.
        """
        if not _PREFIX_RE.match(prefix):
            raise ValueError(f"invalid prefix: {prefix!r}")
        if isinstance(namespace, Namespace):
            base = namespace.base
        elif isinstance(namespace, IRI):
            base = namespace.value
        elif isinstance(namespace, str):
            base = namespace
        else:
            raise TypeError("namespace must be Namespace, IRI or str")
        if self._by_prefix.get(prefix) != base:
            self._by_prefix[prefix] = base
            self._stamp = next_stamp()

    @property
    def stamp(self) -> int:
        """A token for the bindings (in binding order, by which :meth:`compact`
        breaks ties), as :attr:`Graph.stamp <repro.rdf.graph.Graph.stamp>` is."""
        return self._stamp

    def namespace(self, prefix: str) -> Optional[Namespace]:
        """The Namespace bound to ``prefix``, or None."""
        base = self._by_prefix.get(prefix)
        return Namespace(base) if base is not None else None

    def prefixes(self) -> Iterator[Tuple[str, str]]:
        """Iterate ``(prefix, base)`` pairs in sorted prefix order."""
        return iter(sorted(self._by_prefix.items()))

    def expand(self, qname: str) -> IRI:
        """Expand a QName like ``"sc:SportsTeam"`` to an :class:`IRI`.

        Raises :class:`KeyError` for an unbound prefix and
        :class:`ValueError` for a string with no colon.
        """
        if ":" not in qname:
            raise ValueError(f"not a QName (missing colon): {qname!r}")
        prefix, local = qname.split(":", 1)
        if prefix not in self._by_prefix:
            raise KeyError(f"unbound prefix: {prefix!r}")
        return IRI(self._by_prefix[prefix] + local)

    def compact(self, iri: IRI) -> Optional[str]:
        """Compact ``iri`` to a QName using the longest matching base.

        Returns ``None`` when no bound namespace is a prefix of the IRI or
        the remainder is not a valid QName local part.
        """
        best: Optional[Tuple[str, str]] = None
        for prefix, base in self._by_prefix.items():
            if iri.value.startswith(base):
                if best is None or len(base) > len(best[1]):
                    best = (prefix, base)
        if best is None:
            return None
        prefix, base = best
        local = iri.value[len(base):]
        if not _LOCAL_RE.match(local) or "/" in local or "#" in local:
            return None
        return f"{prefix}:{local}"

    def copy(self) -> "NamespaceManager":
        """An independent copy of this manager, with its stamp."""
        clone = NamespaceManager(bind_defaults=False)
        clone._by_prefix = dict(self._by_prefix)
        clone._stamp = self._stamp
        return clone

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._by_prefix

    def __len__(self) -> int:
        return len(self._by_prefix)


def default_namespace_manager() -> NamespaceManager:
    """A manager with the standard vocabularies plus the paper's ``ex:`` prefix."""
    manager = NamespaceManager()
    manager.bind("ex", EX)
    return manager
