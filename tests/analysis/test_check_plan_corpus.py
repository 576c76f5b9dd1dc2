"""Golden replay of the plan checker over a fixed corpus.

``golden/check_plan_corpus.json`` pins, for every case, each finding
``check_plan`` reports (code, severity, message, location, in order)
and the schema it returns.  The cases are the rewritten and
stage-B-optimized plans of the football walks (league × nationality,
player/team names) and of ``versioned_concept_mdm(3)``, checked against
the wrapper-signature catalog and the typed post-fetch catalog, each
also perturbed by dropping a relation, dropping an attribute or (typed
catalog only) retyping an attribute to BOOLEAN; plus hand-built plans
over the catalog of ``test_plan_checker.py`` (union incompatibility,
duplicate columns, pushed scans).

Plans and base catalogs are stored in the file, so the replay does not
depend on the rewriter or the optimizer.  Regenerate after an intended
checker change with::

    PYTHONPATH=src python -m tests.analysis.test_check_plan_corpus --update
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

from repro.analysis.plan_checker import check_plan
from repro.relational import algebra, expressions
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttrType

CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / "check_plan_corpus.json"

_NODE_TYPES = {
    cls.__name__: cls
    for module in (algebra, expressions)
    for cls in vars(module).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
}


def encode_plan(node):
    """JSON form of a plan or expression tree (dataclass → tagged dict)."""
    if dataclasses.is_dataclass(node):
        out = {"node": type(node).__name__}
        for f in dataclasses.fields(node):
            out[f.name] = encode_plan(getattr(node, f.name))
        return out
    if isinstance(node, tuple):
        return [encode_plan(item) for item in node]
    return node


def decode_plan(data):
    """Inverse of :func:`encode_plan` (every JSON list was a tuple)."""
    if isinstance(data, dict):
        fields = {k: decode_plan(v) for k, v in data.items() if k != "node"}
        return _NODE_TYPES[data["node"]](**fields)
    if isinstance(data, list):
        return tuple(decode_plan(item) for item in data)
    return data


def encode_catalog(catalog):
    return {
        name: [[a.name, a.type.value] for a in schema]
        for name, schema in sorted(catalog.items())
    }


def decode_catalog(data):
    return {
        name: RelationSchema(Attribute(n, AttrType(t)) for n, t in columns)
        for name, columns in data.items()
    }


def perturbations(catalog, typed):
    """Each one-step perturbation of ``catalog``, as JSON-able specs."""
    yield []
    for name in sorted(catalog):
        yield ["drop", name]
    for name in sorted(catalog):
        for attribute in catalog[name]:
            yield ["drop", name, attribute.name]
    if typed:
        for name in sorted(catalog):
            for attribute in catalog[name]:
                yield ["retype", name, attribute.name]


def perturb(catalog, spec):
    """``catalog`` with one perturbation ``spec`` applied (copy)."""
    out = dict(catalog)
    if not spec:
        return out
    op, name, *attribute = spec
    if op == "drop" and not attribute:
        del out[name]
        return out
    kept = []
    for a in out[name]:
        if a.name != attribute[0]:
            kept.append(a)
        elif op == "retype":
            kept.append(Attribute(a.name, AttrType.BOOLEAN))
    out[name] = RelationSchema(kept)
    return out


def outcome(plan, catalog):
    """The recorded shape of one ``check_plan`` call."""
    findings, schema = check_plan(plan, catalog)
    return {
        "findings": [f.to_dict() for f in findings],
        "schema": None
        if schema is None
        else [[a.name, a.type.value] for a in schema],
    }


def load_cases():
    """``(case id, plan, catalog, recorded outcome)`` for every case."""
    corpus = json.loads(CORPUS.read_text())
    plans = {key: decode_plan(data) for key, data in corpus["plans"].items()}
    catalogs = {
        key: decode_catalog(data) for key, data in corpus["catalogs"].items()
    }
    for case in corpus["cases"]:
        case_id = f"{case['plan']} @ {case['catalog']} {case['perturb']}"
        catalog = perturb(catalogs[case["catalog"]], case["perturb"])
        yield case_id, plans[case["plan"]], catalog, case


def scenario_cases():
    """The scenario-derived ``(case id, plan, catalog)`` triples only."""
    for case_id, plan, catalog, case in load_cases():
        if not case["plan"].startswith("hand/"):
            yield case_id, plan, catalog


def test_corpus_replays_identically():
    mismatches = []
    count = 0
    for case_id, plan, catalog, case in load_cases():
        count += 1
        got = outcome(plan, catalog)
        if got != {"findings": case["findings"], "schema": case["schema"]}:
            mismatches.append(case_id)
    assert count > 0
    assert mismatches == [], f"{len(mismatches)} of {count} cases differ: {mismatches[:5]}"


def test_corpus_covers_every_error_code():
    codes = {
        finding["code"]
        for _, _, _, case in load_cases()
        for finding in case["findings"]
    }
    assert codes == {"MDM101", "MDM102", "MDM103", "MDM104", "MDM105"}


# --------------------------------------------------------------------- #
# regeneration
# --------------------------------------------------------------------- #


def _hand_built_plans():
    """The plans ``test_plan_checker.py`` builds by hand."""
    from repro.relational.algebra import (
        EquiJoin,
        Extend,
        NaturalJoin,
        Project,
        Rename,
        Scan,
        Select,
        Union,
    )
    from repro.relational.expressions import Cmp, Col, Const

    return {
        "valid": Project(
            Select(Scan("people"), Cmp("=", Col("id"), Const(1))), ("id", "name")
        ),
        "unknown-relation": Scan("nope"),
        "projection-ghost": Project(Scan("people"), ("id", "ghost")),
        "predicate-ghost": Select(Scan("people"), Cmp("=", Col("ghost"), Const(1))),
        "rename-ghost": Rename.from_dict(Scan("people"), {"ghost": "spirit"}),
        "union-incompatible": Union(
            Project(Scan("people"), ("id", "name")),
            Project(Scan("accounts"), ("aid",)),
        ),
        "union-widens": Union(
            Project(Scan("people"), ("id",)),
            Rename.from_dict(Project(Scan("accounts"), ("aid",)), {"aid": "id"}),
        ),
        "extend-duplicate": Extend(Scan("people"), "name", None),
        "extend-fresh": Extend(Scan("people"), "note", None),
        "comparison-mismatch": Select(
            Scan("people"), Cmp("<", Col("active"), Col("id"))
        ),
        "equijoin-ghost": EquiJoin(Scan("people"), Scan("accounts"), (("id", "ghost"),)),
        "equijoin-mismatch": EquiJoin(
            Scan("people"), Scan("accounts"), (("active", "aid"),)
        ),
        "natural-join": NaturalJoin(
            Scan("people"), Rename.from_dict(Scan("accounts"), {"owner": "id"})
        ),
        "union-both-unknown": Union(Scan("nope1"), Scan("nope2")),
        "nested-path": Union(
            Project(Scan("people"), ("ghost",)), Project(Scan("people"), ("id",))
        ),
        "pushed-limit": Scan("people", limit=10),
        "pushed-limit-bad-filter": Scan("people", filters=(("ghost", "=", 1),), limit=5),
        "pushed-limit-bad-projection": Scan(
            "people", columns=("id", "ghost"), limit=5
        ),
        "pushed-boolean-ordering": Scan(
            "people", filters=(("active", "<", True),), limit=3
        ),
        "union-pushed-and-plain": Union(
            Project(Scan("people", filters=(("id", "=", 1),), limit=2), ("id",)),
            Project(Scan("people"), ("id",)),
        ),
        "union-pushed-bad-branch": Union(
            Scan("people", filters=(("ghost", "=", 1),), limit=2), Scan("people")
        ),
        "union-pushed-projection-incompatible": Union(
            Scan("people", columns=("id", "name"), limit=2), Scan("accounts")
        ),
    }


def _scenario_plans_and_catalogs():
    """Rewritten/optimized plans and signature/typed catalogs per scenario."""
    from repro.analysis.lint import wrapper_catalog
    from repro.scenarios.football import FootballScenario
    from repro.scenarios.synthetic import SYN, versioned_concept_mdm

    football = FootballScenario.build(anchors_only=True)
    versioned, concept = versioned_concept_mdm(3)
    walks = {
        "football-league-nationality": (
            football.mdm,
            football.walk_league_nationality(),
        ),
        "football-player-team-names": (
            football.mdm,
            football.walk_player_team_names(),
        ),
        "versioned-3": (
            versioned,
            versioned.walk_from_nodes([concept, SYN.entityId, SYN.entityVal]),
        ),
    }
    for key, (mdm, walk) in walks.items():
        pushed = mdm.execute(walk, use_cache=False)
        mdm.configure_execution(pushdown=False)
        try:
            full = mdm.execute(walk, use_cache=False)
        finally:
            mdm.configure_execution(pushdown=True)
        # The typed post-fetch catalog: full fetches plus pushed bindings.
        typed = {**full._executor.catalog, **pushed._executor.catalog}
        plans = {
            f"{key}/rewritten": mdm.rewriter.rewrite(walk).plan,
            f"{key}/optimized": pushed.executed_plan,
        }
        catalogs = {
            f"{key}/signature": (wrapper_catalog(mdm), False),
            f"{key}/typed": (typed, True),
        }
        yield plans, catalogs


def build_corpus():
    from tests.analysis.test_plan_checker import CATALOG

    corpus = {"plans": {}, "catalogs": {}, "cases": []}

    def add_cases(plans, catalogs, perturbed=True):
        for plan_key, plan in plans.items():
            corpus["plans"][plan_key] = encode_plan(plan)
            for catalog_key, (catalog, typed) in catalogs.items():
                corpus["catalogs"][catalog_key] = encode_catalog(catalog)
                specs = perturbations(catalog, typed) if perturbed else [[]]
                for spec in specs:
                    corpus["cases"].append(
                        {
                            "plan": plan_key,
                            "catalog": catalog_key,
                            "perturb": spec,
                            **outcome(plan, perturb(catalog, spec)),
                        }
                    )

    for plans, catalogs in _scenario_plans_and_catalogs():
        add_cases(plans, catalogs)
    hand = {f"hand/{k}": v for k, v in _hand_built_plans().items()}
    add_cases(hand, {"hand/catalog": (CATALOG, False)}, perturbed=False)
    return corpus


def write_corpus():
    corpus = build_corpus()
    lines = ["{"]
    for section in ("plans", "catalogs"):
        lines.append(f'"{section}": {{')
        items = sorted(corpus[section].items())
        for i, (key, value) in enumerate(items):
            comma = "," if i < len(items) - 1 else ""
            lines.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}{comma}")
        lines.append("},")
    lines.append('"cases": [')
    for i, case in enumerate(corpus["cases"]):
        comma = "," if i < len(corpus["cases"]) - 1 else ""
        lines.append(json.dumps(case, sort_keys=True) + comma)
    lines.append("]")
    lines.append("}")
    CORPUS.write_text("\n".join(lines) + "\n")
    return len(corpus["cases"])


if __name__ == "__main__":
    if "--update" not in sys.argv[1:]:
        sys.exit("usage: python -m tests.analysis.test_check_plan_corpus --update")
    print(f"wrote {write_corpus()} cases to {CORPUS}")
