"""The source graph: data sources, wrappers and attributes (paper §2.2).

"New wrappers are introduced either because we want to consider data from
a new data source, or because the schema of an existing source has
evolved. Nevertheless, in both cases the procedure ... is the same."

Registration takes a wrapper signature ``w(a1, ..., an)`` and produces the
RDF representation: ``S:DataSource --S:hasWrapper--> S:Wrapper
--S:hasAttribute--> S:Attribute``.  Attribute IRIs are **reused across
wrappers of the same source** when names match — "MDM will try to reuse
as many attributes as possible from the previous wrappers for that data
source. However, this is not possible among different data sources as the
semantics of attributes might differ."  The reuse report is surfaced so
the steward sees what was shared (the semi-automatic accommodation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..rdf.graph import Graph
from ..rdf.namespaces import RDF, RDFS
from ..rdf.terms import IRI, Literal
from .errors import SourceGraphError
from .vocabulary import M, S, mdm_namespace_manager, mint_local

__all__ = ["SourceGraph", "WrapperRegistration"]


@dataclass(frozen=True)
class WrapperRegistration:
    """Outcome of registering one wrapper: the minted/reused IRIs."""

    source: IRI
    wrapper: IRI
    wrapper_name: str
    attributes: Tuple[Tuple[str, IRI], ...]
    reused_attributes: Tuple[str, ...]

    def attribute_iri(self, name: str) -> IRI:
        """The attribute IRI for signature attribute ``name``."""
        for attr_name, iri in self.attributes:
            if attr_name == name:
                return iri
        raise KeyError(name)

    @property
    def signature(self) -> str:
        """The paper's notation ``w(a1, ..., an)``."""
        return f"{self.wrapper_name}({', '.join(n for n, _ in self.attributes)})"


class SourceGraph:
    """A validated wrapper around the RDF source graph."""

    def __init__(self, graph: Optional[Graph] = None):
        self.graph = graph if graph is not None else Graph(
            namespaces=mdm_namespace_manager()
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_data_source(self, name: str, label: Optional[str] = None) -> IRI:
        """Declare a data source (idempotent); returns its IRI.  Its one
        label is ``label``, else its name; no ``label`` keeps the old one."""
        if not name:
            raise SourceGraphError("data source name must be non-empty")
        source = mint_local(M, "dataSource", name)
        if label is None and (source, RDF.type, S.DataSource) in self.graph:
            return source
        label_term = Literal(label or name)
        for old in set(self.graph.objects(source, RDFS.label)) - {label_term}:
            self.graph.remove((source, RDFS.label, old))
        self.graph.add((source, RDF.type, S.DataSource))
        self.graph.add((source, RDFS.label, label_term))
        return source

    def register_wrapper(
        self,
        source: IRI,
        wrapper_name: str,
        attributes: Sequence[str],
    ) -> WrapperRegistration:
        """Register a wrapper release under ``source``.

        Extracts the RDF representation of the signature, reusing
        attribute IRIs from previous wrappers of the *same* source when
        the attribute name matches.
        """
        if (source, RDF.type, S.DataSource) not in self.graph:
            raise SourceGraphError(f"{source} is not a registered data source")
        if not attributes:
            raise SourceGraphError(
                f"wrapper {wrapper_name!r} needs at least one attribute"
            )
        if len(set(attributes)) != len(attributes):
            raise SourceGraphError(
                f"wrapper {wrapper_name!r} has duplicate attributes: {list(attributes)}"
            )
        wrapper = mint_local(M, "wrapper", wrapper_name)
        if (wrapper, RDF.type, S.Wrapper) in self.graph:
            raise SourceGraphError(f"wrapper {wrapper_name!r} already registered")
        existing = self._attributes_by_name(source)
        self.graph.add((wrapper, RDF.type, S.Wrapper))
        self.graph.add((wrapper, RDFS.label, Literal(wrapper_name)))
        self.graph.add((source, S.hasWrapper, wrapper))
        minted: List[Tuple[str, IRI]] = []
        reused: List[str] = []
        source_local = source.local_name()
        for attr_name in attributes:
            attr_iri = existing.get(attr_name)
            if attr_iri is not None:
                reused.append(attr_name)
            else:
                attr_iri = mint_local(M, "attribute", source_local, attr_name)
                self.graph.add((attr_iri, RDF.type, S.Attribute))
                self.graph.add((attr_iri, RDFS.label, Literal(attr_name)))
            self.graph.add((wrapper, S.hasAttribute, attr_iri))
            minted.append((attr_name, attr_iri))
        return WrapperRegistration(
            source=source,
            wrapper=wrapper,
            wrapper_name=wrapper_name,
            attributes=tuple(minted),
            reused_attributes=tuple(reused),
        )

    def _attributes_by_name(self, source: IRI) -> Dict[str, IRI]:
        """Attribute name → IRI over all wrappers of ``source``."""
        out: Dict[str, IRI] = {}
        for wrapper in self.wrappers_of(source):
            for attr in self.attributes_of(wrapper):
                label = self.attribute_name(attr)
                if label is not None:
                    out.setdefault(label, attr)
        return out

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def data_sources(self) -> List[IRI]:
        """All data sources, sorted by IRI."""
        return sorted(
            (s for s in self.graph.subjects(RDF.type, S.DataSource) if isinstance(s, IRI)),
            key=lambda i: i.value,
        )

    def wrappers(self) -> List[IRI]:
        """All wrappers, sorted by IRI."""
        return sorted(
            (s for s in self.graph.subjects(RDF.type, S.Wrapper) if isinstance(s, IRI)),
            key=lambda i: i.value,
        )

    def wrappers_of(self, source: IRI) -> List[IRI]:
        """The wrappers registered under ``source``, sorted."""
        return sorted(
            (o for o in self.graph.objects(source, S.hasWrapper) if isinstance(o, IRI)),
            key=lambda i: i.value,
        )

    def source_of(self, wrapper: IRI) -> Optional[IRI]:
        """The data source owning ``wrapper``."""
        for s in self.graph.subjects(S.hasWrapper, wrapper):
            if isinstance(s, IRI):
                return s
        return None

    def attributes_of(self, wrapper: IRI) -> List[IRI]:
        """The attributes of ``wrapper``, sorted."""
        return sorted(
            (o for o in self.graph.objects(wrapper, S.hasAttribute) if isinstance(o, IRI)),
            key=lambda i: i.value,
        )

    def attribute_name(self, attribute: IRI) -> Optional[str]:
        """The signature name of an attribute (its rdfs:label)."""
        label = self.graph.value(attribute, RDFS.label)
        return label.lexical if isinstance(label, Literal) else None

    def wrapper_name(self, wrapper: IRI) -> Optional[str]:
        """The registered name of a wrapper (its rdfs:label)."""
        label = self.graph.value(wrapper, RDFS.label)
        return label.lexical if isinstance(label, Literal) else None

    def wrapper_by_name(self, name: str) -> Optional[IRI]:
        """The wrapper IRI registered under ``name``."""
        candidate = mint_local(M, "wrapper", name)
        if (candidate, RDF.type, S.Wrapper) in self.graph:
            return candidate
        return None

    def signature_of(self, wrapper: IRI) -> str:
        """The ``w(a1, ..., an)`` rendering of a registered wrapper."""
        name = self.wrapper_name(wrapper) or wrapper.local_name()
        attrs = [self.attribute_name(a) or a.local_name() for a in self.attributes_of(wrapper)]
        return f"{name}({', '.join(sorted(attrs))})"

    def validate(self) -> List[str]:
        """Structural issues, empty when the graph is well-formed."""
        issues: List[str] = []
        for wrapper in self.wrappers():
            if self.source_of(wrapper) is None:
                issues.append(f"wrapper {wrapper} belongs to no data source")
            if not self.attributes_of(wrapper):
                issues.append(f"wrapper {wrapper} has no attributes")
        # Attribute IRIs must not be shared across different sources.
        owner: Dict[IRI, IRI] = {}
        for source in self.data_sources():
            for wrapper in self.wrappers_of(source):
                for attr in self.attributes_of(wrapper):
                    previous = owner.get(attr)
                    if previous is None:
                        owner[attr] = source
                    elif previous != source:
                        issues.append(
                            f"attribute {attr} is shared by sources "
                            f"{previous} and {source}"
                        )
        return issues

    def __len__(self) -> int:
        return len(self.graph)

    def __repr__(self) -> str:
        return (
            f"<SourceGraph {len(self.data_sources())} sources, "
            f"{len(self.wrappers())} wrappers, {len(self.graph)} triples>"
        )
