"""LAV mappings: named subgraphs plus attribute-to-feature links (paper §2.3).

A LAV mapping characterizes a *source* element (a wrapper) as a query over
the *global* schema — the opposite of GAV, and the reason MDM survives
schema evolution.  Concretely, per wrapper:

(a) an RDF **named graph**, identified by the wrapper IRI, whose triples
    are a subgraph of the global graph ("drawing a contour around the set
    of elements in the global graph that this wrapper is populating,
    including concept relations");
(b) a set of ``owl:sameAs`` links from the wrapper's source-graph
    attributes to global-graph features.

Validation enforced at definition time (the metamodel constraints that
make LAV resolution unambiguous):

- the named graph must be a subgraph of the global graph;
- it must be connected;
- every feature included must be populated — i.e. linked by ``sameAs``
  from exactly one attribute of this wrapper;
- every covered concept must include (and populate) an identifier
  feature, since "joins are only restricted to elements that inherit
  from sc:identifier".
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..obs import get_metrics
from ..rdf.dataset import Dataset
from ..rdf.graph import Graph
from ..rdf.namespaces import OWL, RDF, RDFS
from ..rdf.paths import connected_components
from ..rdf.terms import IRI, Triple
from .errors import MappingError
from .global_graph import GlobalGraph
from .source_graph import SourceGraph
from .vocabulary import G, S

__all__ = ["LavMapping", "MappingView", "LavMappingStore"]

#: The source-graph predicates a view reads, of its wrapper and of the
#: wrapper's attributes: the signature, the links and the names.
_VIEW_FACTS = (S.hasAttribute, OWL.sameAs, RDFS.label)


@dataclass(frozen=True)
class MappingView:
    """A resolved, query-ready view of one wrapper's LAV mapping.

    A view is compiled once per state of what it reads and shared by
    every reader, so it is read-only throughout.
    """

    wrapper: IRI
    wrapper_name: str
    #: Concepts covered by the named graph.
    concepts: FrozenSet[IRI]
    #: Feature → signature attribute name that populates it.
    feature_attributes: Mapping[IRI, str]
    #: Concept-relation edges included in the named graph.
    edges: FrozenSet[Triple]

    @property
    def features(self) -> FrozenSet[IRI]:
        """The features this wrapper populates."""
        return frozenset(self.feature_attributes)

    def provides(self, feature: IRI) -> bool:
        """Whether this wrapper populates ``feature``."""
        return feature in self.feature_attributes

    def covers_edge(self, edge: Triple) -> bool:
        """Whether the named graph includes the relation ``edge``."""
        return edge in self.edges


@dataclass(frozen=True)
class LavMapping:
    """The stored form of one mapping (named graph + sameAs function)."""

    wrapper: IRI
    subgraph: Tuple[Triple, ...]
    same_as: Tuple[Tuple[IRI, IRI], ...]  # (attribute, feature) pairs


class LavMappingStore:
    """Defines, validates and serves LAV mappings over the MDM dataset.

    The views are served under :attr:`Dataset.stamp
    <repro.rdf.dataset.Dataset.stamp>` (taken with the stamps of the
    global and source graphs, which are graphs of the dataset in MDM but
    need not be).  When it moves, each mapped wrapper's view is
    recompiled only if its key changed: the stamps of the wrapper's
    named graph and of the global graph, and the source-graph facts
    (:data:`_VIEW_FACTS`) about the wrapper and its attributes, which is
    all a compile reads.  A release or a retirement thus compiles at
    most the views of the wrappers it maps.  Each pass also computes the
    views' hashable value (:meth:`views_value`), which the rewrite
    cache keys on.

    ``seed`` starts the store from another store's views: the impact
    shadow's copied graphs keep the live stamps, so its keys match and
    it compiles only what its change touches.
    """

    def __init__(
        self,
        dataset: Dataset,
        global_graph: GlobalGraph,
        source_graph: SourceGraph,
        seed: Optional["LavMappingStore"] = None,
    ):
        self.dataset = dataset
        self.global_graph = global_graph
        self.source_graph = source_graph
        #: ``(stamp, {wrapper: (key, view)}, views value)``, replaced
        #: whole so concurrent readers never pair parts of two passes.
        self._compiled: Tuple[int, Dict[IRI, Tuple[tuple, MappingView]], tuple] = (
            -1,
            {} if seed is None else seed._compiled[1],
            (),
        )

    # ------------------------------------------------------------------ #
    # definition
    # ------------------------------------------------------------------ #

    def define(
        self,
        wrapper: IRI,
        subgraph: Iterable[Triple],
        same_as: Mapping[IRI, IRI],
    ) -> LavMapping:
        """Define (or replace) the LAV mapping for ``wrapper``.

        ``subgraph`` is the steward's contour over the global graph;
        ``same_as`` maps attribute IRIs of this wrapper to feature IRIs.
        The whole submission is validated at once: a single
        :class:`MappingError` reports *every* violated constraint, with
        the individual diagnostics attached as ``exc.findings`` (one
        :class:`repro.analysis.diagnostics.Finding` per violation).
        """
        triples = tuple(subgraph)
        findings = self.validate_mapping(wrapper, triples, same_as)
        if findings:
            raise MappingError(
                f"invalid LAV mapping for {wrapper} "
                f"({len(findings)} violation(s)): "
                + "; ".join(f.message for f in findings),
                findings=findings,
            )
        # Store: the named graph is identified by the wrapper IRI.
        if self.dataset.has_graph(wrapper):
            self.dataset.remove_graph(wrapper)
        named = self.dataset.graph(wrapper)
        named.add_all(triples)
        # sameAs links live in the source graph, next to the attributes
        # (shared-attribute conflicts were rejected by validate_mapping).
        for attribute, feature in sorted(same_as.items(), key=lambda kv: kv[0].value):
            self.source_graph.graph.add((attribute, OWL.sameAs, feature))
        return LavMapping(
            wrapper=wrapper,
            subgraph=triples,
            same_as=tuple(sorted(same_as.items(), key=lambda kv: kv[0].value)),
        )

    def validate_mapping(
        self,
        wrapper: IRI,
        triples: Tuple[Triple, ...],
        same_as: Mapping[IRI, IRI],
    ) -> List:
        """All diagnostics for a submitted mapping (empty when valid).

        Runs every well-formedness check and collects the findings —
        the steward sees the complete violation list in one round trip
        instead of fixing constraints one at a time.
        """
        findings: List = []
        findings.extend(self._check_shape(wrapper, triples))
        findings.extend(self._check_subgraph(wrapper, triples))
        findings.extend(self._check_same_as(wrapper, triples, same_as))
        findings.extend(self._check_identifiers(wrapper, triples, same_as))
        return findings

    @staticmethod
    def _rules():
        """The shared diagnostics catalog (imported lazily: analysis
        depends on core submodules, so the import must not run while
        :mod:`repro.core` itself is still initializing)."""
        from ..analysis.metadata_rules import MAPPING_RULES, METADATA_RULES

        return {**METADATA_RULES, **MAPPING_RULES}

    def _location(self, wrapper: IRI, detail: str = ""):
        from ..analysis.diagnostics import SourceLocation

        name = self.source_graph.wrapper_name(wrapper) or wrapper.local_name()
        return SourceLocation("mapping", name, detail)

    def _check_shape(self, wrapper: IRI, triples: Tuple[Triple, ...]) -> List:
        rules = self._rules()
        findings = []
        if not triples:
            findings.append(
                rules["MDM012"].finding(
                    f"mapping for {wrapper} has an empty named graph",
                    self._location(wrapper),
                )
            )
        if self.source_graph.source_of(wrapper) is None:
            findings.append(
                rules["MDM013"].finding(
                    f"{wrapper} is not a registered wrapper; register it on "
                    "the source graph before mapping it",
                    self._location(wrapper),
                )
            )
        return findings

    def _check_subgraph(self, wrapper: IRI, triples: Tuple[Triple, ...]) -> List:
        rules = self._rules()
        findings = []
        for triple in triples:
            if triple not in self.global_graph.graph:
                findings.append(
                    rules["MDM001"].finding(
                        f"mapping for {wrapper}: triple {triple.n3()} is not "
                        "part of the global graph (a LAV named graph must be "
                        "a subgraph of the global graph)",
                        self._location(wrapper, triple.n3()),
                    )
                )
        if triples:
            contour = Graph()
            contour.add_all(triples)
            components = connected_components(contour)
            if len(components) > 1:
                findings.append(
                    rules["MDM014"].finding(
                        f"mapping for {wrapper}: the named graph is "
                        f"disconnected ({len(components)} components); draw "
                        "one contour",
                        self._location(wrapper),
                    )
                )
        return findings

    def _check_same_as(
        self,
        wrapper: IRI,
        triples: Tuple[Triple, ...],
        same_as: Mapping[IRI, IRI],
    ) -> List:
        rules = self._rules()
        findings = []
        wrapper_attributes = set(self.source_graph.attributes_of(wrapper))
        mapped_features: Set[IRI] = set()
        for attribute, feature in sorted(
            same_as.items(), key=lambda kv: kv[0].value
        ):
            attr_detail = self.source_graph.attribute_name(attribute) or (
                attribute.local_name()
            )
            if attribute not in wrapper_attributes:
                findings.append(
                    rules["MDM015"].finding(
                        f"mapping for {wrapper}: {attribute} is not an "
                        "attribute of this wrapper",
                        self._location(wrapper, attr_detail),
                    )
                )
            if not self.global_graph.is_feature(feature):
                findings.append(
                    rules["MDM002"].finding(
                        f"mapping for {wrapper}: {feature} is not a feature "
                        "of the global graph",
                        self._location(wrapper, attr_detail),
                    )
                )
            if feature in mapped_features:
                findings.append(
                    rules["MDM008"].finding(
                        f"mapping for {wrapper}: feature {feature} is "
                        "populated by more than one attribute",
                        self._location(wrapper, feature.local_name()),
                    )
                )
            mapped_features.add(feature)
            # Attributes shared across wrappers of one source may already
            # carry a link; it must then point at the same feature.
            existing = [
                f
                for f in self.source_graph.graph.objects(attribute, OWL.sameAs)
                if f != feature
            ]
            if existing:
                findings.append(
                    rules["MDM017"].finding(
                        f"attribute {attribute} is already linked to "
                        f"{existing[0]}; a shared attribute cannot map to a "
                        f"different feature ({feature})",
                        self._location(wrapper, attr_detail),
                    )
                )
        included_features = {
            t.object
            for t in triples
            if t.predicate == G.hasFeature and isinstance(t.object, IRI)
        }
        unmapped = included_features - mapped_features
        if unmapped:
            findings.append(
                rules["MDM016"].finding(
                    f"mapping for {wrapper}: features in the named graph "
                    "without a sameAs attribute: "
                    f"{sorted(str(f) for f in unmapped)}",
                    self._location(wrapper),
                )
            )
        orphans = mapped_features - included_features
        if orphans:
            findings.append(
                rules["MDM002"].finding(
                    f"mapping for {wrapper}: sameAs targets outside the "
                    f"named graph: {sorted(str(f) for f in orphans)}",
                    self._location(wrapper),
                )
            )
        return findings

    def _check_identifiers(
        self,
        wrapper: IRI,
        triples: Tuple[Triple, ...],
        same_as: Mapping[IRI, IRI],
    ) -> List:
        from ..rdf.reasoner import superclass_closure

        rules = self._rules()
        findings = []
        mapped_features = set(same_as.values())
        for concept in self._concepts_in(triples):
            # A subclass concept is identified by its own identifier or by
            # an inherited one from any superclass (taxonomy support).
            identifiers: Set[IRI] = set()
            for ancestor in superclass_closure(self.global_graph.graph, concept):
                if isinstance(ancestor, IRI) and self.global_graph.is_concept(ancestor):
                    identifiers.update(self.global_graph.identifiers_of(ancestor))
            if not identifiers:
                findings.append(
                    rules["MDM004"].finding(
                        f"mapping for {wrapper}: covered concept {concept} "
                        "has no identifier feature in the global graph",
                        self._location(wrapper, concept.local_name()),
                    )
                )
            elif not (identifiers & mapped_features):
                findings.append(
                    rules["MDM018"].finding(
                        f"mapping for {wrapper}: covered concept {concept} "
                        "must include and populate an identifier feature "
                        "(joins are restricted to sc:identifier descendants)",
                        self._location(wrapper, concept.local_name()),
                    )
                )
        return findings

    def _concepts_in(self, triples: Iterable[Triple]) -> List[IRI]:
        concepts: Set[IRI] = set()
        for triple in triples:
            for term in (triple.subject, triple.object):
                if isinstance(term, IRI) and self.global_graph.is_concept(term):
                    concepts.add(term)
        return sorted(concepts, key=lambda i: i.value)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def mapped_wrappers(self) -> List[IRI]:
        """Wrappers that currently have a LAV mapping, sorted."""
        return [
            name
            for name in self.dataset.graph_names()
            if self.source_graph.source_of(name) is not None
        ]

    def named_graph(self, wrapper: IRI) -> Graph:
        """The stored named graph for ``wrapper``."""
        if not self.dataset.has_graph(wrapper):
            raise MappingError(f"no LAV mapping defined for {wrapper}")
        return self.dataset.graph(wrapper)

    def same_as_of(self, wrapper: IRI) -> Dict[IRI, IRI]:
        """Attribute → feature links for ``wrapper``'s attributes.

        Valid metadata has at most one link per attribute; with
        conflicting links (the MDM008 situation) the IRI-smallest
        feature wins so the view — and everything derived from it — is
        deterministic regardless of hash seed.
        """
        out: Dict[IRI, IRI] = {}
        for attribute in self.source_graph.attributes_of(wrapper):
            features = self.same_as_of_attribute(attribute)
            if features:
                out[attribute] = features[0]
        return out

    def same_as_of_attribute(self, attribute: IRI) -> List[IRI]:
        """The feature(s) an attribute IRI is linked to (usually 0 or 1)."""
        return sorted(
            (
                f
                for f in self.source_graph.graph.objects(attribute, OWL.sameAs)
                if isinstance(f, IRI)
            ),
            key=lambda i: i.value,
        )

    def view(self, wrapper: IRI) -> MappingView:
        """The query-ready :class:`MappingView` for ``wrapper``."""
        entry = self._current()[1].get(wrapper)
        if entry is None:
            raise MappingError(f"no LAV mapping defined for {wrapper}")
        return entry[1]

    def views(self) -> List[MappingView]:
        """Views for every mapped wrapper, sorted by wrapper IRI."""
        return [view for _, view in self._current()[1].values()]

    def views_value(self) -> tuple:
        """The views of :meth:`views`, in order, as one hashable value.

        Per view: the wrapper, its name, its concepts, the items of
        ``feature_attributes`` and its edges.  Equal values mean equal
        views, whatever graphs they were compiled from.
        """
        return self._current()[2]

    def _current(self) -> Tuple[int, Dict[IRI, Tuple[tuple, MappingView]], tuple]:
        """``(stamp, {wrapper: (key, view)}, views value)``, brought up
        to date first if the metadata changed."""
        graphs = (self.global_graph.graph, self.source_graph.graph)
        stamp = max(self.dataset.stamp, *(g.stamp for g in graphs))
        compiled = self._compiled
        if compiled[0] != stamp:
            known = compiled[1]
            keyed = {}
            for wrapper in self.mapped_wrappers():
                key = self._key(wrapper)
                entry = known.get(wrapper)
                keyed[wrapper] = (
                    entry if entry is not None and entry[0] == key
                    else (key, self._compile(wrapper))
                )
            value = tuple(
                (
                    view.wrapper,
                    view.wrapper_name,
                    view.concepts,
                    frozenset(view.feature_attributes.items()),
                    view.edges,
                )
                for _, view in keyed.values()
            )
            compiled = self._compiled = (stamp, keyed, value)
        return compiled

    def _key(self, wrapper: IRI) -> tuple:
        """Everything :meth:`_compile` reads for ``wrapper``: equal keys
        compile equal views."""
        graph = self.source_graph.graph
        facts = frozenset(
            (subject, predicate, obj)
            for subject in (wrapper, *graph.objects(wrapper, S.hasAttribute))
            for predicate in _VIEW_FACTS
            for obj in graph.objects(subject, predicate)
        )
        return (
            self.dataset.graph(wrapper).stamp,
            self.global_graph.graph.stamp,
            facts,
        )

    def _compile(self, wrapper: IRI) -> MappingView:
        get_metrics().counter("mdm_lav_view_compiles_total").inc()
        named = self.dataset.graph(wrapper)
        concepts = frozenset(self._concepts_in(named))
        included_features = {
            t.object
            for t in named.triples((None, G.hasFeature, None))
            if isinstance(t.object, IRI)
        }
        feature_attributes: Dict[IRI, str] = {}
        for attribute, feature in self.same_as_of(wrapper).items():
            if feature in included_features:
                name = self.source_graph.attribute_name(attribute)
                if name is not None:
                    feature_attributes[feature] = name
        edges = frozenset(
            t
            for t in named
            if isinstance(t.subject, IRI)
            and isinstance(t.object, IRI)
            and t.subject in concepts
            and t.object in concepts
            and t.predicate != G.hasFeature
            and t.predicate != RDF.type
        )
        return MappingView(
            wrapper=wrapper,
            wrapper_name=self.source_graph.wrapper_name(wrapper) or wrapper.local_name(),
            concepts=concepts,
            feature_attributes=MappingProxyType(feature_attributes),
            edges=edges,
        )
