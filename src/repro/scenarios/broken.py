"""A deliberately mis-governed MDM instance for exercising ``mdm lint``.

:func:`broken_mdm` builds a small but *valid* deployment, then corrupts
it by mutating the graphs directly — the same damage an out-of-band
TDB edit, a partial migration, or a buggy import script would cause.
Every corruption is one lint rule's triggering fixture; the expected
codes are listed in :data:`EXPECTED_CODES` so tests and the CLI demo can
assert each rule demonstrably fires.

The registration-time guards in :mod:`repro.core` would reject all of
this — which is exactly the point: lint is the safety net for state
those guards never saw.
"""

from __future__ import annotations

from typing import FrozenSet

from ..core.mdm import MDM
from ..rdf.namespaces import EX, OWL, RDF, RDFS
from ..rdf.terms import Triple
from ..sources.wrappers import StaticWrapper

__all__ = ["broken_mdm", "EXPECTED_CODES"]

#: Rule codes the seeded-broken instance is guaranteed to trigger.
EXPECTED_CODES: FrozenSet[str] = frozenset(
    {
        "MDM001",  # foreign triple in a named graph
        "MDM002",  # sameAs target outside the named graph
        "MDM003",  # unmapped wrapper attribute
        "MDM004",  # concept without an identifier feature
        "MDM005",  # concept covered by no mapping
        "MDM006",  # feature belonging to no concept
        "MDM007",  # subClassOf cycle between concepts
        "MDM008",  # one attribute sameAs-linked to two features
        "MDM009",  # registered wrapper without a mapping
        "MDM010",  # saved query that no longer rewrites
        "MDM011",  # mapped wrapper without a runtime object
        "MDM014",  # disconnected named graph
        "MDM019",  # mapped wrapper whose named graph touches no concept
        "MDM020",  # saved query pinned to a superseded release
    }
)


def broken_mdm() -> MDM:
    """An MDM instance seeded with one violation per lint rule."""
    mdm = MDM()

    # -- a minimal healthy core: Person and Account, one wrapper each -- #
    person = EX.Person
    account = EX.Account
    mdm.add_concept(person, "Person")
    mdm.add_identifier(EX.personId, person, "personId")
    mdm.add_feature(EX.personName, person, "personName")
    mdm.add_concept(account, "Account")
    mdm.add_identifier(EX.accountId, account, "accountId")
    mdm.relate(person, EX.owns, account)

    mdm.register_source("people")
    # MDM003: "legacy" stays unmapped ("extra" gets a corrupt link below).
    people = StaticWrapper("wPeople", ["id", "name", "extra", "legacy"], [])
    mdm.register_wrapper("people", people)
    mdm.define_mapping(
        "wPeople", {"id": EX.personId, "name": EX.personName}
    )

    mdm.register_source("accounts")
    accounts = StaticWrapper("wAccounts", ["aid"], [])
    mdm.register_wrapper("accounts", accounts)
    mdm.define_mapping("wAccounts", {"aid": EX.accountId})

    # MDM009: registered, never mapped.
    mdm.register_wrapper("people", StaticWrapper("wOrphan", ["id"], []))

    # MDM011: mapped, but its runtime object goes missing.
    ledger = StaticWrapper("wLedger", ["aid"], [])
    mdm.register_wrapper("accounts", ledger)
    mdm.define_mapping("wLedger", {"aid": EX.accountId})
    del mdm.wrappers["wLedger"]

    # MDM010: a saved query over a concept whose coverage then vanishes.
    mdm.add_concept(EX.Orphaned, "Orphaned")
    mdm.add_identifier(EX.orphanId, EX.Orphaned, "orphanId")
    walk = mdm.walk_from_nodes([EX.Orphaned, EX.orphanId])
    mdm.saved_queries.save("orphan-report", walk, "breaks after corruption")

    # MDM020: a saved query over Person, pinned once wPeopleV2 ships.
    directory = mdm.walk_from_nodes([person, EX.personName])
    mdm.saved_queries.save("person-directory", directory, "pinned to wPeople")
    # wPeopleV2 supersedes wPeople (same source, later release, superset
    # signature) but is never mapped, so person-directory keeps rewriting
    # over wPeople alone.
    mdm.register_wrapper(
        "people",
        StaticWrapper("wPeopleV2", ["id", "name", "extra", "legacy", "email"], []),
    )

    # ---- corruption phase: direct graph surgery, bypassing the guards ---- #
    from ..core.vocabulary import G

    gg = mdm.global_graph.graph
    sg = mdm.source_graph.graph

    # MDM004 + MDM005: a concept with a feature but no identifier, and
    # (like EX.Orphaned) covered by no mapping.
    gg.add((EX.Ghost, RDF.type, G.Concept))
    gg.add((EX.ghostField, RDF.type, G.Feature))
    gg.add((EX.Ghost, G.hasFeature, EX.ghostField))

    # MDM006: a declared feature attached to no concept.
    gg.add((EX.lostField, RDF.type, G.Feature))

    # MDM007: a taxonomy cycle Alpha ⊑ Beta ⊑ Alpha.
    gg.add((EX.Alpha, RDF.type, G.Concept))
    gg.add((EX.Beta, RDF.type, G.Concept))
    gg.add((EX.Alpha, G.hasFeature, EX.alphaId))
    gg.add((EX.alphaId, RDF.type, G.Feature))
    gg.add((EX.Alpha, RDFS.subClassOf, EX.Beta))
    gg.add((EX.Beta, RDFS.subClassOf, EX.Alpha))

    # MDM001: smuggle a foreign triple into wPeople's named graph.
    w_people = mdm.wrapper_iri("wPeople")
    mdm.mappings.named_graph(w_people).add(
        Triple(EX.Person, EX.invented, EX.Nowhere)
    )

    # MDM014: disconnect wAccounts' named graph with a global-graph
    # triple that shares no node with the Account contour.
    w_accounts = mdm.wrapper_iri("wAccounts")
    mdm.mappings.named_graph(w_accounts).add(
        Triple(EX.Ghost, G.hasFeature, EX.ghostField)
    )

    # MDM008 (+ a second MDM002): wAccounts.aid now also claims to
    # populate personName.
    aid = mdm.source_graph.attributes_of(w_accounts)[0]
    sg.add((aid, OWL.sameAs, EX.personName))

    # MDM002: wPeople.extra gets a single link to a feature outside its
    # named graph.
    w_people_attrs = {
        mdm.source_graph.attribute_name(a): a
        for a in mdm.source_graph.attributes_of(w_people)
    }
    sg.add((w_people_attrs["extra"], OWL.sameAs, EX.ghostField))

    # MDM010 trigger: drop the only mapping that covered EX.Orphaned.
    # (It never had one — the saved query above rewrites to no cover.)

    # MDM019: wAdrift gets a hand-made named graph holding a lone feature
    # triple — subgraph of the global graph (no MDM001), connected (no
    # MDM014), but touching no concept.  define_mapping would reject it
    # (MDM016: unpopulated feature), hence the direct surgery.
    mdm.register_wrapper("people", StaticWrapper("wAdrift", ["x1"], []))
    w_adrift = mdm.wrapper_iri("wAdrift")
    mdm.dataset.graph(w_adrift).add((EX.lostField, RDF.type, G.Feature))
    return mdm
