"""Figure 7 — the LAV mappings for wrappers w1 and w2.

Paper artifact: two contours over the global graph — w1 (red) covering
Player and its features plus the hasTeam edge into ``sc:SportsTeam`` with
its identifier; w2 (green) covering SportsTeam and its features.  "Note
the intersection in the concept sc:SportsTeam and its identifier, this
will be later used when querying in order to enable joining such
concepts."  We regenerate both named graphs, print them, verify the
intersection, and benchmark mapping definition + validation.
"""

from benchmarks.conftest import emit
from repro.rdf.namespaces import EX
from repro.scenarios.football import PLAYER, TEAM


def render_mapping(mdm, wrapper_name: str) -> str:
    wrapper = mdm.wrapper_iri(wrapper_name)
    view = mdm.mappings.view(wrapper)
    ns = mdm.global_graph.graph.namespaces
    lines = [f"named graph <{wrapper_name}> covers:"]
    for concept in sorted(view.concepts, key=lambda c: c.value):
        features = [
            ns.compact(f) or f.value
            for f in sorted(view.features, key=lambda f: f.value)
            if mdm.global_graph.concept_of(f) == concept
        ]
        lines.append(f"  {ns.compact(concept)}: {', '.join(features)}")
    for edge in sorted(view.edges, key=lambda e: str(e)):
        lines.append(
            f"  edge {ns.compact(edge.subject)} --{ns.compact(edge.predicate)}--> "
            f"{ns.compact(edge.object)}"
        )
    for feature, attribute in sorted(
        view.feature_attributes.items(), key=lambda kv: kv[0].value
    ):
        lines.append(f"  sameAs: {wrapper_name}.{attribute} ≡ {ns.compact(feature)}")
    return "\n".join(lines)


def test_fig7_lav_mappings(benchmark, anchors_scenario):
    mdm = anchors_scenario.mdm
    emit(
        "Figure 7 — LAV mappings for w1 (red) and w2 (green)",
        render_mapping(mdm, "w1") + "\n\n" + render_mapping(mdm, "w2"),
    )
    view_w1 = mdm.mappings.view(mdm.wrapper_iri("w1"))
    view_w2 = mdm.mappings.view(mdm.wrapper_iri("w2"))
    # The Figure 7 intersection: sc:SportsTeam and its identifier.
    shared_concepts = view_w1.concepts & view_w2.concepts
    assert shared_concepts == frozenset({TEAM})
    shared_features = view_w1.features & view_w2.features
    assert shared_features == frozenset({EX.teamId})
    assert mdm.global_graph.is_identifier(EX.teamId)
    # w1 covers Player fully and carries the hasTeam edge.
    assert PLAYER in view_w1.concepts
    assert any(e.predicate == EX.hasTeam for e in view_w1.edges)
    # Benchmark: redefine w1's mapping (validation included).
    def redefine():
        return anchors_scenario.mdm.define_mapping(
            "w1",
            {
                "id": EX.playerId,
                "pName": EX.playerName,
                "height": EX.height,
                "weight": EX.weight,
                "score": EX.rating,
                "foot": EX.preferredFoot,
                "teamId": EX.teamId,
            },
            edges=[(PLAYER, EX.hasTeam, TEAM)],
        )

    view = benchmark(redefine)
    assert view.concepts == frozenset({PLAYER, TEAM})


def test_fig7_named_graphs_are_subgraphs(benchmark, anchors_scenario):
    mdm = anchors_scenario.mdm

    def check_all():
        results = []
        for wrapper in mdm.mappings.mapped_wrappers():
            named = mdm.mappings.named_graph(wrapper)
            results.append(named.issubgraph(mdm.global_graph.graph))
        return results

    results = benchmark(check_all)
    assert all(results) and len(results) == 6
