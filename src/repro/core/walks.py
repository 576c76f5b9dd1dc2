"""Walks: graphically posed ontology-mediated queries (paper §2.4).

"The analyst can graphically select a set of nodes of the global graph
representing such pattern, we refer to it as a walk."  A
:class:`Walk` is that selection: concepts, features and concept-relation
edges of the global graph.  MDM translates walks to SPARQL automatically
(the right-hand side of Figure 8); the LAV rewriting in
:mod:`repro.core.rewriting` consumes walks directly.

``Walk.from_nodes`` reproduces the contour gesture: given the node set the
analyst circled, it pulls in each feature's concept, every ``hasFeature``
edge, and every relation between two selected concepts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple, Union

from ..rdf.terms import IRI, Triple
from .errors import DisconnectedWalkError, WalkError
from .global_graph import GlobalGraph

__all__ = ["Walk", "feature_column_names", "concept_variable_names"]

_SANITIZE_RE = re.compile(r"[^A-Za-z0-9_]")


def _sanitize(text: str) -> str:
    cleaned = _SANITIZE_RE.sub("_", text)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "n" + cleaned
    return cleaned


def _lower_first(text: str) -> str:
    return text[:1].lower() + text[1:] if text else text


def feature_column_names(
    global_graph: GlobalGraph, features: Iterable[IRI]
) -> Dict[IRI, str]:
    """Deterministic, collision-free column/variable names for features.

    A feature's local name is used when unique among the given features;
    otherwise it is prefixed with its concept's local name.  The same
    naming is shared by the SPARQL translation and the relational
    rewriting, so the algebra's columns line up with the SPARQL variables.
    """
    features = sorted(set(features), key=lambda i: i.value)
    by_local: Dict[str, List[IRI]] = {}
    for feature in features:
        by_local.setdefault(_sanitize(feature.local_name()), []).append(feature)
    names: Dict[IRI, str] = {}
    for local, group in by_local.items():
        if len(group) == 1:
            names[group[0]] = local
            continue
        for feature in group:
            concept = global_graph.concept_of(feature)
            prefix = _sanitize(concept.local_name()) if concept is not None else "x"
            names[feature] = f"{_lower_first(prefix)}_{local}"
    return names


def concept_variable_names(concepts: Iterable[IRI]) -> Dict[IRI, str]:
    """Deterministic SPARQL variable names for concept instances."""
    names: Dict[IRI, str] = {}
    used: Set[str] = set()
    for concept in sorted(set(concepts), key=lambda i: i.value):
        base = _lower_first(_sanitize(concept.local_name()))
        candidate = base
        counter = 2
        while candidate in used:
            candidate = f"{base}{counter}"
            counter += 1
        used.add(candidate)
        names[concept] = candidate
    return names


_FILTER_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class FilterCondition:
    """A selection condition on one feature, e.g. ``height > 180``.

    Filters extend walks with the exploratory predicates the demo invites
    participants to pose; they translate to SPARQL ``FILTER`` clauses and
    are pushed into the rewritten UCQ as relational selections.
    """

    feature: IRI
    op: str
    value: Union[int, float, str, bool]

    def __post_init__(self):
        if self.op not in _FILTER_OPS:
            raise WalkError(
                f"unsupported filter operator {self.op!r}; "
                f"use one of {_FILTER_OPS}"
            )
        if not isinstance(self.value, (int, float, str, bool)):
            raise WalkError(
                f"filter value must be a scalar, got {type(self.value).__name__}"
            )

    def sparql_literal(self) -> str:
        """The SPARQL rendering of the comparison value."""
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, (int, float)):
            return repr(self.value)
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'

    def describe(self) -> str:
        """Human rendering, e.g. ``ex:height > 180``."""
        return f"{self.feature.local_name()} {self.op} {self.value!r}"


@dataclass(frozen=True)
class Walk:
    """An analyst's subgraph selection over the global graph."""

    concepts: FrozenSet[IRI]
    features: FrozenSet[IRI]
    edges: FrozenSet[Triple]
    filters: Tuple[FilterCondition, ...] = ()
    #: Features projected when available but not required for coverage
    #: (SPARQL OPTIONAL semantics; NULL where no wrapper provides them).
    optional_features: FrozenSet[IRI] = frozenset()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        concepts: Iterable[IRI] = (),
        features: Iterable[IRI] = (),
        edges: Iterable[Tuple[IRI, IRI, IRI]] = (),
        filters: Iterable[FilterCondition] = (),
        optional_features: Iterable[IRI] = (),
    ) -> "Walk":
        """Explicit constructor from plain collections."""
        return cls(
            concepts=frozenset(concepts),
            features=frozenset(features),
            edges=frozenset(Triple(s, p, o) for s, p, o in edges),
            filters=tuple(
                sorted(filters, key=lambda f: (f.feature.value, f.op, str(f.value)))
            ),
            optional_features=frozenset(optional_features),
        )

    def with_optional(self, *features: IRI) -> "Walk":
        """A copy of this walk with extra optional features."""
        return Walk.build(
            concepts=self.concepts,
            features=self.features,
            edges=[(e.subject, e.predicate, e.object) for e in self.edges],
            filters=self.filters,
            optional_features=set(self.optional_features) | set(features),
        )

    def with_filters(self, *conditions: FilterCondition) -> "Walk":
        """A copy of this walk with extra filter conditions."""
        return Walk.build(
            concepts=self.concepts,
            features=self.features,
            edges=[(e.subject, e.predicate, e.object) for e in self.edges],
            filters=list(self.filters) + list(conditions),
            optional_features=self.optional_features,
        )

    # ------------------------------------------------------------------ #
    # (de)serialization — saved analyst queries
    # ------------------------------------------------------------------ #

    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-serializable representation (for the query registry)."""
        return {
            "concepts": sorted(c.value for c in self.concepts),
            "features": sorted(f.value for f in self.features),
            "edges": sorted(
                [e.subject.value, e.predicate.value, e.object.value]  # type: ignore[union-attr]
                for e in self.edges
            ),
            "filters": [
                {
                    "feature": c.feature.value,
                    "op": c.op,
                    "value": c.value,
                }
                for c in self.filters
            ],
            "optional_features": sorted(
                f.value for f in self.optional_features
            ),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "Walk":
        """Rebuild a walk from :meth:`to_json_dict` output."""
        return cls.build(
            concepts=[IRI(c) for c in payload.get("concepts", [])],  # type: ignore[union-attr]
            features=[IRI(f) for f in payload.get("features", [])],  # type: ignore[union-attr]
            edges=[
                (IRI(s), IRI(p), IRI(o))
                for s, p, o in payload.get("edges", [])  # type: ignore[union-attr]
            ],
            filters=[
                FilterCondition(IRI(f["feature"]), f["op"], f["value"])  # type: ignore[index]
                for f in payload.get("filters", [])  # type: ignore[union-attr]
            ],
            optional_features=[
                IRI(f) for f in payload.get("optional_features", [])  # type: ignore[union-attr]
            ],
        )

    @classmethod
    def from_nodes(cls, global_graph: GlobalGraph, nodes: Iterable[IRI]) -> "Walk":
        """The contour gesture: complete a node selection into a walk.

        Features pull in their owning concept; all relations between two
        selected concepts are included.
        """
        node_set = set(nodes)
        concepts: Set[IRI] = set()
        features: Set[IRI] = set()
        for node in node_set:
            if global_graph.is_concept(node):
                concepts.add(node)
            elif global_graph.is_feature(node):
                features.add(node)
                owner = global_graph.concept_of(node)
                if owner is None:
                    raise WalkError(f"feature {node} belongs to no concept")
                concepts.add(owner)
            else:
                raise WalkError(
                    f"{node} is neither a concept nor a feature of the "
                    "global graph"
                )
        # Relations run between declared concepts only (a feature's owner
        # may lack its G:Concept type); self-loops are outside the walk
        # fragment (see validate).
        declared = [c for c in concepts if global_graph.is_concept(c)]
        edges = {
            Triple(subject, predicate, obj)
            for subject in declared
            for obj in declared
            if subject != obj
            for predicate in global_graph.relations_between(subject, obj)
        }
        return cls(
            concepts=frozenset(concepts),
            features=frozenset(features),
            edges=frozenset(edges),
        )

    # ------------------------------------------------------------------ #
    # validation & expansion
    # ------------------------------------------------------------------ #

    def validate(self, global_graph: GlobalGraph) -> None:
        """Raise :class:`WalkError` on any structural problem."""
        if not self.concepts:
            raise WalkError("a walk must include at least one concept")
        for concept in self.concepts:
            if not global_graph.is_concept(concept):
                raise WalkError(f"{concept} is not a concept of the global graph")
        for feature in self.features:
            if not global_graph.is_feature(feature):
                raise WalkError(f"{feature} is not a feature of the global graph")
            owner = global_graph.concept_of(feature)
            if owner not in self.concepts:
                raise WalkError(
                    f"feature {feature} belongs to {owner}, which is not in "
                    "the walk"
                )
        for edge in self.edges:
            if edge not in global_graph.graph:
                raise WalkError(f"edge {edge.n3()} is not in the global graph")
            if edge.subject not in self.concepts or edge.object not in self.concepts:
                raise WalkError(
                    f"edge {edge.n3()} touches concepts outside the walk"
                )
            if edge.subject == edge.object:
                raise WalkError(
                    f"self-referencing relation {edge.n3()} is outside the "
                    "walk fragment: the rewriting joins concepts on their "
                    "identifiers and cannot distinguish the two roles of a "
                    "self-join"
                )
        for condition in self.filters:
            if not global_graph.is_feature(condition.feature):
                raise WalkError(
                    f"filter on {condition.feature}, which is not a feature"
                )
            owner = global_graph.concept_of(condition.feature)
            if owner not in self.concepts:
                raise WalkError(
                    f"filter on {condition.feature} whose concept {owner} is "
                    "not in the walk"
                )
        for feature in self.optional_features:
            if not global_graph.is_feature(feature):
                raise WalkError(
                    f"optional feature {feature} is not a feature of the "
                    "global graph"
                )
            owner = global_graph.concept_of(feature)
            if owner not in self.concepts:
                raise WalkError(
                    f"optional feature {feature} belongs to {owner}, which "
                    "is not in the walk"
                )
            if feature in self.features:
                raise WalkError(
                    f"{feature} is selected both as required and optional"
                )
        self._check_connected()

    def _check_connected(self) -> None:
        if len(self.concepts) <= 1:
            return
        adjacency: Dict[IRI, Set[IRI]] = {c: set() for c in self.concepts}
        for edge in self.edges:
            adjacency[edge.subject].add(edge.object)  # type: ignore[index]
            adjacency[edge.object].add(edge.subject)  # type: ignore[index]
        start = next(iter(self.concepts))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if seen != set(self.concepts):
            missing = sorted(str(c) for c in set(self.concepts) - seen)
            raise DisconnectedWalkError(
                f"walk concepts not reachable from {start}: {missing}; "
                "select relations connecting them"
            )

    def expand(self, global_graph: GlobalGraph) -> "Walk":
        """Phase (a) of the rewriting: add implicit concept identifiers.

        "the walk is automatically expanded to include concept identifiers
        that have not been explicitly stated."  Features referenced only
        by filter conditions are pulled in too (they must be fetched to
        evaluate the predicate, even though they are not projected).
        """
        extra: Set[IRI] = set()
        for concept in self.concepts:
            identifiers = global_graph.identifiers_of(concept)
            if not (set(identifiers) & set(self.features)):
                extra.update(identifiers[:1])  # the canonical identifier
        for condition in self.filters:
            if condition.feature not in self.features:
                extra.add(condition.feature)
        return Walk(
            concepts=self.concepts,
            features=self.features | frozenset(extra),
            edges=self.edges,
            filters=self.filters,
            optional_features=self.optional_features - frozenset(extra),
        )

    # ------------------------------------------------------------------ #
    # derived info
    # ------------------------------------------------------------------ #

    def features_of(self, global_graph: GlobalGraph, concept: IRI) -> List[IRI]:
        """The walk's features belonging to ``concept``, sorted."""
        return sorted(
            (
                f
                for f in self.features
                if global_graph.concept_of(f) == concept
            ),
            key=lambda i: i.value,
        )

    def sorted_concepts(self) -> List[IRI]:
        """Concepts in deterministic order."""
        return sorted(self.concepts, key=lambda i: i.value)

    def sorted_features(self) -> List[IRI]:
        """Features in deterministic order."""
        return sorted(self.features, key=lambda i: i.value)

    def sorted_edges(self) -> List[Triple]:
        """Edges in deterministic order."""
        return sorted(
            self.edges, key=lambda t: (t.subject.value, t.predicate.value, t.object.value)  # type: ignore[union-attr]
        )

    # ------------------------------------------------------------------ #
    # SPARQL translation (Figure 8, right-hand side)
    # ------------------------------------------------------------------ #

    def to_sparql(self, global_graph: GlobalGraph) -> str:
        """The equivalent SPARQL SELECT over the domain vocabulary.

        One instance variable per concept, one value variable per feature;
        features become predicates from instance to value, relations
        become predicates between instances.
        """
        self.validate(global_graph)
        concept_vars = concept_variable_names(self.concepts)
        pattern_features = set(self.features) | {
            condition.feature for condition in self.filters
        }
        column_names = feature_column_names(
            global_graph, pattern_features | set(self.optional_features)
        )
        ns = global_graph.graph.namespaces

        def qname(iri: IRI) -> str:
            compact = ns.compact(iri)
            return compact if compact is not None else iri.n3()

        projected = sorted(
            set(self.features) | set(self.optional_features),
            key=lambda i: i.value,
        )
        projection = " ".join(f"?{column_names[f]}" for f in projected) or "*"
        patterns: List[str] = []
        for concept in self.sorted_concepts():
            var = concept_vars[concept]
            patterns.append(f"?{var} rdf:type {qname(concept)} .")
            for feature in sorted(pattern_features, key=lambda i: i.value):
                if global_graph.concept_of(feature) == concept:
                    patterns.append(
                        f"?{var} {qname(feature)} ?{column_names[feature]} ."
                    )
            for feature in sorted(self.optional_features, key=lambda i: i.value):
                if global_graph.concept_of(feature) == concept:
                    patterns.append(
                        f"OPTIONAL {{ ?{var} {qname(feature)} "
                        f"?{column_names[feature]} }}"
                    )
        for edge in self.sorted_edges():
            s_var = concept_vars[edge.subject]  # type: ignore[index]
            o_var = concept_vars[edge.object]  # type: ignore[index]
            patterns.append(f"?{s_var} {qname(edge.predicate)} ?{o_var} .")  # type: ignore[arg-type]
        for condition in self.filters:
            column = column_names[condition.feature]
            patterns.append(
                f"FILTER(?{column} {condition.op} {condition.sparql_literal()})"
            )
        prefixes = sorted(
            {qname(t).split(":", 1)[0] for t in self._qname_terms(ns)}
        )
        prefix_lines = []
        for prefix in prefixes + ["rdf"]:
            namespace = ns.namespace(prefix)
            if namespace is not None and prefix not in [
                line.split()[1].rstrip(":") for line in prefix_lines
            ]:
                prefix_lines.append(f"PREFIX {prefix}: <{namespace.base}>")
        body = "\n    ".join(patterns)
        return (
            "\n".join(sorted(set(prefix_lines)))
            + f"\nSELECT {projection} WHERE {{\n    {body}\n}}"
        )

    def _qname_terms(self, ns) -> List[IRI]:
        terms: List[IRI] = list(self.concepts) + list(self.features)
        for edge in self.edges:
            terms.append(edge.predicate)  # type: ignore[arg-type]
        return [t for t in terms if ns.compact(t) is not None]

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def to_dot(self, global_graph: GlobalGraph) -> str:
        """GraphViz DOT rendering (concepts as boxes, features as ellipses)."""
        ns = global_graph.graph.namespaces

        def label(iri: IRI) -> str:
            compact = ns.compact(iri)
            return compact if compact is not None else iri.local_name()

        lines = ["digraph walk {", "  rankdir=LR;"]
        for concept in self.sorted_concepts():
            lines.append(
                f'  "{label(concept)}" [shape=box, style=filled, fillcolor=lightblue];'
            )
        for feature in self.sorted_features():
            lines.append(
                f'  "{label(feature)}" [shape=ellipse, style=filled, fillcolor=lightyellow];'
            )
            owner = global_graph.concept_of(feature)
            if owner is not None and owner in self.concepts:
                lines.append(
                    f'  "{label(owner)}" -> "{label(feature)}" [label="hasFeature", style=dashed];'
                )
        for edge in self.sorted_edges():
            lines.append(
                f'  "{label(edge.subject)}" -> "{label(edge.object)}" '  # type: ignore[arg-type]
                f'[label="{label(edge.predicate)}"];'  # type: ignore[arg-type]
            )
        lines.append("}")
        return "\n".join(lines)

    def describe(self, global_graph: GlobalGraph) -> str:
        """One-line human description for logs and the demo narration."""
        ns = global_graph.graph.namespaces

        def label(iri: IRI) -> str:
            compact = ns.compact(iri)
            return compact if compact is not None else iri.local_name()

        concepts = ", ".join(label(c) for c in self.sorted_concepts())
        features = ", ".join(label(f) for f in self.sorted_features())
        text = f"walk over concepts [{concepts}] fetching [{features}]"
        if self.optional_features:
            optionals = ", ".join(
                label(f)
                for f in sorted(self.optional_features, key=lambda i: i.value)
            )
            text += f" optionally [{optionals}]"
        if self.filters:
            conditions = " ∧ ".join(c.describe() for c in self.filters)
            text += f" where {conditions}"
        return text
