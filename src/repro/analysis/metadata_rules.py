"""The metadata lint rule pack over the BDI ontology.

Each rule is a generator ``rule(mdm) -> Iterator[Finding]`` over a live
:class:`~repro.core.mdm.MDM` (duck-typed: anything exposing
``global_graph`` / ``source_graph`` / ``mappings`` / ``saved_queries`` /
``wrappers`` works).  :func:`run_metadata_rules` runs them all.

Two code ranges live here:

- ``MDM001``–``MDM011``, ``MDM019``–``MDM020`` — whole-system lint rules
  (:data:`METADATA_RULES`), run by ``repro-mdm lint`` / ``GET /lint``;
- ``MDM012``–``MDM018`` — per-mapping well-formedness rules
  (:data:`MAPPING_RULES`), the constraint set
  :meth:`~repro.core.lav.LavMappingStore.define` enforces; registering
  them here keeps one catalog for docs and renderers while
  ``core/lav.py`` stays free of rule bookkeeping.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Set,
    Tuple,
)

from ..rdf.paths import connected_components
from ..rdf.reasoner import superclass_closure
from ..rdf.terms import IRI
from .diagnostics import Finding, Severity, SourceLocation, register_rule_info

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mdm import MDM

__all__ = ["METADATA_RULES", "MAPPING_RULES", "run_metadata_rules"]


METADATA_RULES = {
    "MDM001": register_rule_info(
        "MDM001",
        "named-graph-not-subgraph",
        Severity.ERROR,
        "A wrapper's LAV named graph contains a triple that is not part "
        "of the global graph.",
    ),
    "MDM002": register_rule_info(
        "MDM002",
        "sameas-target-invalid",
        Severity.ERROR,
        "An owl:sameAs link lands outside the wrapper's named graph or "
        "on a term that is not a global-graph feature.",
    ),
    "MDM003": register_rule_info(
        "MDM003",
        "unmapped-attribute",
        Severity.WARNING,
        "A registered wrapper attribute populates no feature (no "
        "owl:sameAs link); its data is unreachable by any OMQ.",
    ),
    "MDM004": register_rule_info(
        "MDM004",
        "concept-missing-identifier",
        Severity.ERROR,
        "A concept has no identifier feature (own or inherited); joins "
        "are restricted to sc:identifier descendants, so queries "
        "touching it cannot be combined.",
    ),
    "MDM005": register_rule_info(
        "MDM005",
        "unreachable-concept",
        Severity.WARNING,
        "No LAV mapping covers the concept; queries over it rewrite to "
        "an empty union.",
    ),
    "MDM006": register_rule_info(
        "MDM006",
        "dangling-feature",
        Severity.ERROR,
        "A feature belongs to no concept (or to several), violating the "
        "one-concept-per-feature construction rule.",
    ),
    "MDM007": register_rule_info(
        "MDM007",
        "taxonomy-cycle",
        Severity.ERROR,
        "The concept taxonomy (rdfs:subClassOf) contains a cycle.",
    ),
    "MDM008": register_rule_info(
        "MDM008",
        "conflicting-mapping",
        Severity.ERROR,
        "An attribute is sameAs-linked to several features, or one "
        "feature is populated by several attributes of the same wrapper.",
    ),
    "MDM009": register_rule_info(
        "MDM009",
        "wrapper-unmapped",
        Severity.WARNING,
        "A registered wrapper has no LAV mapping; it contributes to no "
        "rewriting.",
    ),
    "MDM010": register_rule_info(
        "MDM010",
        "saved-query-broken",
        Severity.ERROR,
        "Replaying a saved OMQ against the current release set fails: "
        "its rewriting is empty or invalid (the paper's evolution-"
        "breakage case, caught statically).",
    ),
    "MDM011": register_rule_info(
        "MDM011",
        "wrapper-no-runtime",
        Severity.WARNING,
        "A mapped wrapper has no runtime object; executing a query that "
        "selects it will fail.",
    ),
    "MDM019": register_rule_info(
        "MDM019",
        "wrapper-orphaned",
        Severity.WARNING,
        "A mapped wrapper's named graph touches no concept; unreachable "
        "from every concept contour, no OMQ can ever select it.",
    ),
    "MDM020": register_rule_info(
        "MDM020",
        "saved-query-pinned",
        Severity.WARNING,
        "A saved query's rewriting selects a wrapper superseded by a "
        "later release of the same source (superset signature) while no "
        "superseding wrapper contributes; the query is pinned to the old "
        "release.",
    ),
}

MAPPING_RULES = {
    "MDM012": register_rule_info(
        "MDM012",
        "mapping-empty",
        Severity.ERROR,
        "A submitted LAV mapping has an empty named graph.",
    ),
    "MDM013": register_rule_info(
        "MDM013",
        "mapping-unregistered-wrapper",
        Severity.ERROR,
        "A LAV mapping was submitted for a wrapper that is not "
        "registered on the source graph.",
    ),
    "MDM014": register_rule_info(
        "MDM014",
        "mapping-disconnected",
        Severity.ERROR,
        "The named graph of a mapping is not connected (the steward must "
        "draw one contour).",
    ),
    "MDM015": register_rule_info(
        "MDM015",
        "mapping-foreign-attribute",
        Severity.ERROR,
        "A sameAs link uses an attribute that does not belong to the "
        "mapped wrapper.",
    ),
    "MDM016": register_rule_info(
        "MDM016",
        "mapping-unmapped-feature",
        Severity.ERROR,
        "A feature included in the named graph is populated by no "
        "attribute of the wrapper.",
    ),
    "MDM017": register_rule_info(
        "MDM017",
        "mapping-shared-attribute-conflict",
        Severity.ERROR,
        "An attribute shared across wrappers of one source is being "
        "linked to a different feature than before.",
    ),
    "MDM018": register_rule_info(
        "MDM018",
        "mapping-identifier-unpopulated",
        Severity.ERROR,
        "A concept covered by the mapping does not include and populate "
        "an identifier feature.",
    ),
}


def _local(iri: IRI) -> str:
    return iri.value


def _wrapper_display(mdm: "MDM", wrapper: IRI) -> str:
    return mdm.source_graph.wrapper_name(wrapper) or wrapper.local_name()


# --------------------------------------------------------------------- #
# MDM001 / MDM002 / MDM014 — mapping containment and connectivity
# --------------------------------------------------------------------- #


def rule_named_graph_subgraph(mdm: "MDM") -> Iterator[Finding]:
    """MDM001 + MDM014: each named graph ⊆ global graph and connected."""
    for wrapper in mdm.mappings.mapped_wrappers():
        name = _wrapper_display(mdm, wrapper)
        named = mdm.mappings.named_graph(wrapper)
        for triple in named:
            if triple not in mdm.global_graph.graph:
                yield METADATA_RULES["MDM001"].finding(
                    f"named graph of wrapper {name!r} contains "
                    f"{triple.n3()}, which is not in the global graph",
                    SourceLocation("mapping", name, triple.n3()),
                )
        components = connected_components(named)
        if len(components) > 1:
            yield MAPPING_RULES["MDM014"].finding(
                f"named graph of wrapper {name!r} is disconnected "
                f"({len(components)} components)",
                SourceLocation("mapping", name),
            )


def rule_sameas_targets(mdm: "MDM") -> Iterator[Finding]:
    """MDM002: every sameAs target is a feature inside the named graph."""
    from ..core.vocabulary import G

    for wrapper in mdm.mappings.mapped_wrappers():
        name = _wrapper_display(mdm, wrapper)
        named = mdm.mappings.named_graph(wrapper)
        included = {
            t.object
            for t in named.triples((None, G.hasFeature, None))
            if isinstance(t.object, IRI)
        }
        for attribute in mdm.source_graph.attributes_of(wrapper):
            attr_name = mdm.source_graph.attribute_name(attribute) or _local(
                attribute
            )
            # Every link of the attribute, not one-per-dict-slot: a
            # doubly-linked attribute must not hide a bad target.
            for feature in mdm.mappings.same_as_of_attribute(attribute):
                if not mdm.global_graph.is_feature(feature):
                    yield METADATA_RULES["MDM002"].finding(
                        f"attribute {attr_name!r} of wrapper {name!r} is "
                        f"sameAs-linked to {_local(feature)}, which is not a "
                        "feature of the global graph",
                        SourceLocation("mapping", name, attr_name),
                    )
                elif feature not in included:
                    yield METADATA_RULES["MDM002"].finding(
                        f"attribute {attr_name!r} of wrapper {name!r} is "
                        f"sameAs-linked to {_local(feature)}, which is "
                        "outside the wrapper's named graph",
                        SourceLocation("mapping", name, attr_name),
                    )


# --------------------------------------------------------------------- #
# MDM003 / MDM008 / MDM009 / MDM011 — wrapper and attribute hygiene
# --------------------------------------------------------------------- #


def rule_unmapped_attributes(mdm: "MDM") -> Iterator[Finding]:
    """MDM003: wrapper attributes that populate no feature."""
    for wrapper in mdm.mappings.mapped_wrappers():
        name = _wrapper_display(mdm, wrapper)
        for attribute in mdm.source_graph.attributes_of(wrapper):
            if not mdm.mappings.same_as_of_attribute(attribute):
                attr_name = mdm.source_graph.attribute_name(attribute) or (
                    _local(attribute)
                )
                yield METADATA_RULES["MDM003"].finding(
                    f"attribute {attr_name!r} of wrapper {name!r} populates "
                    "no feature; its data is unreachable",
                    SourceLocation("attribute", name, attr_name),
                )


def rule_conflicting_mappings(mdm: "MDM") -> Iterator[Finding]:
    """MDM008: attribute→several-features or feature←several-attributes."""
    seen_attributes: Set[IRI] = set()
    for wrapper in mdm.mappings.mapped_wrappers():
        name = _wrapper_display(mdm, wrapper)
        populated: Dict[IRI, List[str]] = {}
        for attribute in mdm.source_graph.attributes_of(wrapper):
            attr_name = mdm.source_graph.attribute_name(attribute) or _local(
                attribute
            )
            features = mdm.mappings.same_as_of_attribute(attribute)
            for feature in features:
                populated.setdefault(feature, []).append(attr_name)
            if len(features) > 1 and attribute not in seen_attributes:
                seen_attributes.add(attribute)
                yield METADATA_RULES["MDM008"].finding(
                    f"attribute {attr_name!r} is sameAs-linked to "
                    f"{len(features)} features: "
                    f"{sorted(_local(f) for f in features)}",
                    SourceLocation("attribute", name, attr_name),
                )
        for feature, attr_names in sorted(
            populated.items(), key=lambda kv: kv[0].value
        ):
            if len(attr_names) > 1:
                yield METADATA_RULES["MDM008"].finding(
                    f"feature {_local(feature)} is populated by several "
                    f"attributes of wrapper {name!r}: {sorted(attr_names)}",
                    SourceLocation("mapping", name, feature.local_name()),
                )


def rule_unmapped_wrappers(mdm: "MDM") -> Iterator[Finding]:
    """MDM009: registered wrappers with no LAV mapping."""
    mapped = set(mdm.mappings.mapped_wrappers())
    for wrapper in mdm.source_graph.wrappers():
        if wrapper not in mapped:
            name = _wrapper_display(mdm, wrapper)
            yield METADATA_RULES["MDM009"].finding(
                f"wrapper {name!r} is registered but has no LAV mapping",
                SourceLocation("wrapper", name),
            )


def rule_missing_runtimes(mdm: "MDM") -> Iterator[Finding]:
    """MDM011: mapped wrappers with no runtime object."""
    for wrapper in mdm.mappings.mapped_wrappers():
        name = _wrapper_display(mdm, wrapper)
        if name not in mdm.wrappers:
            yield METADATA_RULES["MDM011"].finding(
                f"mapped wrapper {name!r} has no runtime object; queries "
                "selecting it will fail to fetch",
                SourceLocation("wrapper", name),
            )


def rule_orphan_wrappers(mdm: "MDM") -> Iterator[Finding]:
    """MDM019: mapped wrappers whose named graph covers no concept."""
    for view in mdm.mappings.views():
        if not view.concepts:
            name = _wrapper_display(mdm, view.wrapper)
            yield METADATA_RULES["MDM019"].finding(
                f"wrapper {name!r} is mapped but its named graph touches "
                "no concept; it is unreachable from any OMQ",
                SourceLocation("wrapper", name),
            )


# --------------------------------------------------------------------- #
# MDM004 / MDM005 / MDM006 / MDM007 — global-graph well-formedness
# --------------------------------------------------------------------- #


def rule_concept_identifiers(mdm: "MDM") -> Iterator[Finding]:
    """MDM004: every concept has an identifier, own or inherited."""
    gg = mdm.global_graph
    for concept in gg.concepts():
        identifiers: Set[IRI] = set()
        for ancestor in superclass_closure(gg.graph, concept):
            if isinstance(ancestor, IRI) and gg.is_concept(ancestor):
                identifiers.update(gg.identifiers_of(ancestor))
        if not identifiers:
            yield METADATA_RULES["MDM004"].finding(
                f"concept {_local(concept)} has no identifier feature; "
                "queries touching it cannot be joined",
                SourceLocation("graph-node", _local(concept)),
            )


def rule_unreachable_concepts(mdm: "MDM") -> Iterator[Finding]:
    """MDM005: concepts covered by no mapping."""
    covered: Set[IRI] = set()
    for view in mdm.mappings.views():
        covered.update(view.concepts)
    for concept in mdm.global_graph.concepts():
        if concept not in covered:
            yield METADATA_RULES["MDM005"].finding(
                f"concept {_local(concept)} is covered by no LAV mapping; "
                "queries over it rewrite to an empty union",
                SourceLocation("graph-node", _local(concept)),
            )


def rule_dangling_features(mdm: "MDM") -> Iterator[Finding]:
    """MDM006: features owned by zero (or several) concepts."""
    from ..core.errors import GlobalGraphError
    from ..core.vocabulary import G

    gg = mdm.global_graph
    for feature in gg.features():
        try:
            owner = gg.concept_of(feature)
        except GlobalGraphError as exc:
            yield METADATA_RULES["MDM006"].finding(
                str(exc), SourceLocation("graph-node", _local(feature))
            )
            continue
        if owner is None:
            yield METADATA_RULES["MDM006"].finding(
                f"feature {_local(feature)} belongs to no concept",
                SourceLocation("graph-node", _local(feature)),
            )
    for subject, _, obj in gg.graph.triples((None, G.hasFeature, None)):
        if isinstance(obj, IRI) and not gg.is_feature(obj):
            yield METADATA_RULES["MDM006"].finding(
                f"hasFeature points at {_local(obj)}, which is not a "
                "declared feature",
                SourceLocation("graph-node", _local(obj)),
            )


def rule_taxonomy_cycles(mdm: "MDM") -> Iterator[Finding]:
    """MDM007: rdfs:subClassOf cycles among concepts."""
    gg = mdm.global_graph
    reported: Set[frozenset] = set()
    for concept in gg.concepts():
        cycle = frozenset(
            n
            for n in superclass_closure(gg.graph, concept)
            if n != concept
            and isinstance(n, IRI)
            and gg.is_concept(n)
            and concept in superclass_closure(gg.graph, n)
        )
        if cycle and (members := cycle | {concept}) not in reported:
            reported.add(members)
            rendered = " -> ".join(
                sorted(_local(m) for m in members if isinstance(m, IRI))
            )
            yield METADATA_RULES["MDM007"].finding(
                f"concept taxonomy cycle: {rendered}",
                SourceLocation("graph-node", _local(concept)),
            )


# --------------------------------------------------------------------- #
# MDM010 — governance: replay the saved analytical processes
# --------------------------------------------------------------------- #


def rule_saved_queries(mdm: "MDM") -> Iterator[Finding]:
    """MDM010: saved OMQs whose rewriting would now fail or be empty."""
    from ..core.errors import MdmError

    walks = mdm.saved_queries.walks()
    for name, result in zip(walks, mdm.replay(walks.values())):
        if isinstance(result, MdmError):
            yield METADATA_RULES["MDM010"].finding(
                f"saved query {name!r} no longer rewrites: {result}",
                SourceLocation("saved-query", name),
            )
        elif result.ucq_size == 0:
            yield METADATA_RULES["MDM010"].finding(
                f"saved query {name!r} rewrites to an empty union",
                SourceLocation("saved-query", name),
            )


def rule_pinned_saved_queries(mdm: "MDM") -> Iterator[Finding]:
    """MDM020: saved queries pinned to superseded releases.

    Release B *supersedes* release A when both wrap the same source,
    B came later, and B's signature contains A's — the evolution case
    where the new wrapper fully replaces the old one.  A query whose
    rewriting selects A but none of its superseders has not been
    re-validated since the release and silently ignores the newer cover.
    """
    from ..core.errors import MdmError

    releases: Dict[str, Tuple[int, str, FrozenSet[str]]] = {}
    for release in mdm.governance.history():
        releases[release.wrapper_name] = (
            release.sequence,
            release.source_name,
            frozenset(release.attributes),
        )
    superseders: Dict[str, List[str]] = {}
    for old, (old_seq, old_src, old_attrs) in releases.items():
        for new, (new_seq, new_src, new_attrs) in releases.items():
            if (
                new != old
                and new_src == old_src
                and new_seq > old_seq
                and old_attrs <= new_attrs
            ):
                superseders.setdefault(old, []).append(new)
    if not superseders:
        return
    walks = mdm.saved_queries.walks()
    for name, result in zip(walks, mdm.replay(walks.values())):
        if isinstance(result, MdmError):
            continue  # MDM010's territory
        used: Set[str] = set()
        for cq in result.queries:
            used.update(cq.wrapper_names)
        for old in sorted(used):
            successors = superseders.get(old, [])
            if successors and not any(s in used for s in successors):
                yield METADATA_RULES["MDM020"].finding(
                    f"saved query {name!r} selects wrapper {old!r}, "
                    f"superseded by {sorted(successors)} which contribute "
                    "nothing to its rewriting; the query is pinned to the "
                    "old release",
                    SourceLocation("saved-query", name, old),
                )


#: All whole-system rules in execution order.
ALL_RULES: Tuple[Callable[..., Iterable[Finding]], ...] = (
    rule_named_graph_subgraph,
    rule_sameas_targets,
    rule_unmapped_attributes,
    rule_conflicting_mappings,
    rule_unmapped_wrappers,
    rule_missing_runtimes,
    rule_orphan_wrappers,
    rule_concept_identifiers,
    rule_unreachable_concepts,
    rule_dangling_features,
    rule_taxonomy_cycles,
)


def run_metadata_rules(mdm: "MDM", replay_saved: bool = True) -> List[Finding]:
    """All metadata findings for ``mdm`` (MDM001–MDM011, MDM019–MDM020)."""
    findings: List[Finding] = []
    for rule in ALL_RULES:
        findings.extend(rule(mdm))
    if replay_saved:
        findings.extend(rule_saved_queries(mdm))
        findings.extend(rule_pinned_saved_queries(mdm))
    return findings
