"""Property-based tests for the LAV rewriting over randomized ontologies.

These tests generate random chain-shaped global graphs, sources with one
wrapper per concept-pair edge, and consistent synthetic data, then check
the rewriting's core invariants: every CQ joins only through identifier
columns, results match the relational ground truth, evolution (adding
a second wrapper version) never changes the answer set, and UCQ
minimization never changes the answer's bytes.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.impact import WrapperRelease, WrapperRetirement, apply_change
from repro.analysis.lint import wrapper_catalog
from repro.core.errors import MdmError
from repro.core.mdm import MDM
from repro.core.rewriting import Rewriter
from repro.core.walks import FilterCondition
from repro.rdf.namespaces import Namespace
from repro.relational.algebra import (
    Extend,
    NaturalJoin,
    Select,
    flatten_union,
    plan_key,
)
from repro.relational.executor import Executor
from repro.scenarios.football import FootballScenario
from repro.scenarios.supersede import SupersedeScenario
from repro.sources.wrappers import StaticWrapper

NS = Namespace("http://prop.test/")


def build_chain_mdm(n_concepts: int, rows_per_concept: int, seed: int):
    """An MDM over a chain C0 -r0-> C1 -r1-> ... with synthetic rows.

    Each concept Ci has idI + valI features; wrapper wi serves Ci's rows
    (and the link to C(i+1) when present).  Entity k of Ci links to entity
    (k * (i + 1)) % rows of C(i+1), deterministically from the seed.
    """
    import random

    rng = random.Random(seed)
    mdm = MDM()
    concepts = []
    for i in range(n_concepts):
        concept = NS[f"C{i}"]
        mdm.add_concept(concept)
        mdm.add_identifier(NS[f"id{i}"], concept)
        mdm.add_feature(NS[f"val{i}"], concept)
        concepts.append(concept)
    edges = []
    for i in range(n_concepts - 1):
        prop = NS[f"r{i}"]
        mdm.relate(concepts[i], prop, concepts[i + 1])
        edges.append((concepts[i], prop, concepts[i + 1]))
    links = {}
    for i in range(n_concepts - 1):
        links[i] = {
            k: rng.randrange(rows_per_concept) for k in range(rows_per_concept)
        }
    ground = {}
    for i in range(n_concepts):
        ground[i] = [
            {"id": k, "val": f"c{i}v{k}"} for k in range(rows_per_concept)
        ]
    for i in range(n_concepts):
        mdm.register_source(f"s{i}")
        rows = []
        for record in ground[i]:
            row = dict(record)
            if i < n_concepts - 1:
                row["next"] = links[i][record["id"]]
            rows.append(row)
        attributes = ["id", "val"] + (["next"] if i < n_concepts - 1 else [])
        wrapper = StaticWrapper(f"w{i}", attributes, rows)
        mdm.register_wrapper(f"s{i}", wrapper)
        mapping = {"id": NS[f"id{i}"], "val": NS[f"val{i}"]}
        mapping_edges = []
        if i < n_concepts - 1:
            mapping["next"] = NS[f"id{i+1}"]
            mapping_edges.append(edges[i])
        mdm.define_mapping(f"w{i}", mapping, edges=mapping_edges)
    return mdm, concepts, ground, links


def expected_chain_rows(ground, links, n_concepts):
    """Ground-truth (val0, ..., valN) tuples across the chain joins."""
    rows = []
    for record in ground[0]:
        chain = [record]
        ok = True
        for i in range(n_concepts - 1):
            nxt_id = links[i][chain[-1]["id"]]
            nxt = next(
                (r for r in ground[i + 1] if r["id"] == nxt_id), None
            )
            if nxt is None:
                ok = False
                break
            chain.append(nxt)
        if ok:
            rows.append(tuple(c["val"] for c in chain))
    return set(rows)


@given(
    n_concepts=st.integers(min_value=1, max_value=4),
    rows=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_chain_join_matches_ground_truth(n_concepts, rows, seed):
    mdm, concepts, ground, links = build_chain_mdm(n_concepts, rows, seed)
    nodes = list(concepts) + [NS[f"val{i}"] for i in range(n_concepts)]
    walk = mdm.walk_from_nodes(nodes)
    outcome = mdm.execute(walk)
    # Columns are sorted by feature IRI: val0, val1, ... (lexicographic).
    assert set(outcome.relation.rows) == expected_chain_rows(
        ground, links, n_concepts
    )


@given(
    n_concepts=st.integers(min_value=2, max_value=3),
    rows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_duplicate_wrapper_version_is_idempotent(n_concepts, rows, seed):
    """Registering a second identical wrapper (a 'new version' serving the
    same data) must leave the answer set unchanged — the set-semantics
    guarantee behind evolution governance."""
    mdm, concepts, ground, links = build_chain_mdm(n_concepts, rows, seed)
    nodes = list(concepts) + [NS[f"val{i}"] for i in range(n_concepts)]
    walk = mdm.walk_from_nodes(nodes)
    before = set(mdm.execute(walk).relation.rows)
    # Version 2 of source 0's wrapper: same rows, new wrapper identity.
    rows0 = mdm.wrappers["w0"].fetch()
    attributes = list(mdm.wrappers["w0"].attributes)
    mdm.register_wrapper("s0", StaticWrapper("w0v2", attributes, rows0))
    suggestion = mdm.suggest_mapping("w0v2")
    mapping_edges = []
    if n_concepts > 1:
        mapping_edges.append((concepts[0], NS["r0"], concepts[1]))
    mdm.apply_suggestion(suggestion, extra_edges=mapping_edges)
    outcome = mdm.execute(walk)
    assert outcome.rewrite.ucq_size >= 2
    assert set(outcome.relation.rows) == before


@given(
    rows=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_identifier_only_walk(rows, seed):
    """A walk selecting only the identifier returns exactly the id set."""
    mdm, concepts, ground, links = build_chain_mdm(1, max(rows, 1), seed)
    walk = mdm.walk_from_nodes([concepts[0], NS["id0"]])
    outcome = mdm.execute(walk)
    assert set(outcome.relation.rows) == {
        (record["id"],) for record in ground[0]
    }


@given(
    rows=st.integers(min_value=1, max_value=8),
    threshold=st.integers(min_value=-1, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_filtered_walk_matches_python_filter(rows, threshold, seed):
    """A walk filter on the identifier selects exactly the Python-filtered
    subset — filter push-down never changes semantics."""
    from repro.core.walks import FilterCondition

    mdm, concepts, ground, links = build_chain_mdm(1, rows, seed)
    walk = mdm.walk_from_nodes([concepts[0], NS["id0"], NS["val0"]]).with_filters(
        FilterCondition(NS["id0"], ">=", threshold)
    )
    outcome = mdm.execute(walk)
    expected = {
        (r["id"], r["val"]) for r in ground[0] if r["id"] >= threshold
    }
    assert set(outcome.relation.rows) == expected


@given(
    rows=st.integers(min_value=1, max_value=8),
    covered=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_optional_feature_partial_coverage(rows, covered, seed):
    """Optional features yield values exactly where a wrapper provides
    them and NULL elsewhere, with no duplicate subsumed rows."""
    from repro.sources.wrappers import StaticWrapper

    mdm, concepts, ground, links = build_chain_mdm(1, rows, seed)
    mdm.add_feature(NS["opt0"], concepts[0])
    covered_ids = [r["id"] for r in ground[0]][: min(covered, rows)]
    mdm.register_wrapper(
        "s0",
        StaticWrapper(
            "wOpt",
            ["id", "opt"],
            [{"id": i, "opt": f"o{i}"} for i in covered_ids],
        ),
    )
    mdm.define_mapping("wOpt", {"id": NS["id0"], "opt": NS["opt0"]})
    walk = mdm.walk_from_nodes([concepts[0], NS["val0"], NS["id0"]]).with_optional(
        NS["opt0"]
    )
    outcome = mdm.execute(walk)
    id_index = outcome.relation.schema.index_of("id0")
    opt_index = outcome.relation.schema.index_of("opt0")
    rows_by_id = {}
    for row in outcome.relation.rows:
        rows_by_id.setdefault(row[id_index], []).append(row)
    for record in ground[0]:
        variants = rows_by_id[record["id"]]
        assert len(variants) == 1  # subsumption removed NULL shadows
        expected = f"o{record['id']}" if record["id"] in covered_ids else None
        assert variants[0][opt_index] == expected


# --------------------------------------------------------------------- #
# rewrite-cache coherence under evolution
# --------------------------------------------------------------------- #


@given(
    n_concepts=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_cache_hit_equals_fresh_rewrite(n_concepts, rows, seed):
    """A cached plan must be indistinguishable from rewriting again."""
    mdm, concepts, ground, links = build_chain_mdm(n_concepts, rows, seed)
    nodes = list(concepts) + [NS[f"val{i}"] for i in range(n_concepts)]
    walk = mdm.walk_from_nodes(nodes)
    first = mdm.rewrite(walk)
    cached = mdm.rewrite(walk)
    assert cached is first  # served from the cache, not recomputed
    fresh = mdm.rewrite(walk, use_cache=False)
    assert fresh is not cached
    assert fresh.sparql == cached.sparql
    assert fresh.ucq_size == cached.ucq_size
    assert [q.wrapper_names for q in fresh.queries] == [
        q.wrapper_names for q in cached.queries
    ]
    # And the cached plan executes to the ground truth.
    outcome = mdm.execute(walk)
    assert set(outcome.relation.rows) == expected_chain_rows(
        ground, links, n_concepts
    )


@given(
    n_concepts=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_registering_a_wrapper_invalidates_the_cached_plan(
    n_concepts, rows, seed
):
    """rewrite → register wrapper → rewrite must not serve the stale UCQ:
    the generation counter makes the old entry unreachable."""
    mdm, concepts, ground, links = build_chain_mdm(n_concepts, rows, seed)
    nodes = list(concepts) + [NS[f"val{i}"] for i in range(n_concepts)]
    walk = mdm.walk_from_nodes(nodes)
    stale = mdm.rewrite(walk)
    generation_before = mdm.generation
    # Evolution: source 0 ships a second wrapper version (same data).
    rows0 = mdm.wrappers["w0"].fetch()
    attributes = list(mdm.wrappers["w0"].attributes)
    mdm.register_wrapper("s0", StaticWrapper("w0v2", attributes, rows0))
    assert mdm.generation > generation_before
    suggestion = mdm.suggest_mapping("w0v2")
    mapping_edges = []
    if n_concepts > 1:
        mapping_edges.append((concepts[0], NS["r0"], concepts[1]))
    mdm.apply_suggestion(suggestion, extra_edges=mapping_edges)
    fresh = mdm.rewrite(walk)
    assert fresh is not stale  # the stale plan was not served
    assert fresh.ucq_size > stale.ucq_size  # the union grew with the release
    assert "w0v2" in {
        name for q in fresh.queries for name in q.wrapper_names
    }
    # The grown plan is itself cached at the new generation.
    assert mdm.rewrite(walk) is fresh
    assert set(mdm.execute(walk).relation.rows) == expected_chain_rows(
        ground, links, n_concepts
    )


@given(
    rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_ontology_edits_also_invalidate(rows, seed):
    """Adding a feature to the global graph moves the generation too —
    any metadata mutation makes cached plans cold."""
    mdm, concepts, ground, links = build_chain_mdm(1, rows, seed)
    walk = mdm.walk_from_nodes([concepts[0], NS["val0"]])
    stale = mdm.rewrite(walk)
    before = mdm.generation
    mdm.add_feature(NS["extra0"], concepts[0])
    assert mdm.generation > before
    fresh = mdm.rewrite(walk)
    assert fresh is not stale
    assert fresh.sparql == stale.sparql  # unrelated edit: same plan, recomputed


def test_cache_capacity_is_bounded():
    """The LRU never holds more than its capacity, whatever the churn."""
    mdm, concepts, _, _ = build_chain_mdm(1, 2, seed=1)
    mdm.rewrite_cache.capacity = 2
    walks = [
        mdm.walk_from_nodes([concepts[0], NS["id0"]]),
        mdm.walk_from_nodes([concepts[0], NS["val0"]]),
        mdm.walk_from_nodes([concepts[0], NS["id0"], NS["val0"]]),
    ]
    for walk in walks:
        mdm.rewrite(walk)
    assert len(mdm.rewrite_cache) == 2
    assert mdm.rewrite_cache.stats()["evictions"] >= 1


def _chain_release(n_concepts, ground, links, i, name, keep_val=True):
    """A release of concept ``i``'s rows under a new wrapper of source
    ``s{i}``, mapped like ``build_chain_mdm``'s; without ``val`` when
    ``keep_val`` is False."""
    mapping = {"id": NS[f"id{i}"], "val": NS[f"val{i}"]}
    edges = ()
    if i < n_concepts - 1:
        mapping["next"] = NS[f"id{i + 1}"]
        edges = ((NS[f"C{i}"], NS[f"r{i}"], NS[f"C{i + 1}"]),)
    if not keep_val:
        del mapping["val"]
    rows = tuple(
        {
            key: value
            for key, value in (
                ("id", record["id"]),
                ("val", record["val"]),
                ("next", links.get(i, {}).get(record["id"])),
            )
            if key in mapping
        }
        for record in ground[i]
    )
    return WrapperRelease(
        source=f"s{i}",
        wrapper=name,
        attributes=tuple(mapping),
        rows=rows,
        map_attributes=mapping,
        edges=edges,
    )


def _rewrite_shape(mdm, walk, use_cache):
    """What ``mdm.rewrite`` says about ``walk``: the error it raised, or
    the UCQ's wrapper names, plan, projection, column names and SPARQL."""
    try:
        result = mdm.rewrite(walk, use_cache=use_cache)
    except MdmError as exc:
        return f"{type(exc).__name__}: {exc}"
    return (
        [q.wrapper_names for q in result.queries],
        result.plan,
        result.projection,
        dict(result.column_names),
        result.sparql,
    )


EVOLUTION_STEPS = (
    "release",
    "release_without_val",
    "retire",
    "add_feature",
    "add_identifier",
    "register_source",
    "bind",
    "bump",
    "analyse",
    "analyse_and_apply",
)


@given(
    n_concepts=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.lists(
        st.tuples(st.sampled_from(EVOLUTION_STEPS), st.integers(0, 11)),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_rewrites_from_the_inputs_map_equal_fresh_ones(n_concepts, rows, seed, steps):
    """However the metadata evolved, and whatever impact analysis stored
    in the shared inputs map on the way, a cached rewrite equals a fresh
    one and the chain still answers its ground truth.

    A namespace bind and a ``bump`` (a triple in the default graph,
    which nothing reads) are edits made straight on the dataset: no
    mutator sees them, and the generation moves all the same.
    """
    mdm, concepts, ground, links = build_chain_mdm(n_concepts, rows, seed)
    chain = mdm.walk_from_nodes(
        list(concepts) + [NS[f"val{i}"] for i in range(n_concepts)]
    )
    walks = [chain, mdm.walk_from_nodes([concepts[-1], NS[f"id{n_concepts - 1}"]])]
    expected = expected_chain_rows(ground, links, n_concepts)

    def change(kind, pick, serial):
        if kind == "retire" or (kind.startswith("analyse") and pick % 3 == 0):
            names = sorted(mdm.wrappers)
            return WrapperRetirement(names[pick % len(names)]) if names else None
        i = pick % n_concepts
        keep_val = kind != "release_without_val" and pick % 4 != 1
        return _chain_release(n_concepts, ground, links, i, f"w{i}r{serial}", keep_val)

    for serial, (kind, pick) in enumerate(steps):
        if kind == "add_feature":
            mdm.add_feature(NS[f"extra{serial}"], concepts[pick % n_concepts])
        elif kind == "add_identifier":  # no wrapper provides it: NoCoverError
            mdm.add_identifier(NS[f"extra{serial}"], concepts[pick % n_concepts])
        elif kind == "register_source":
            mdm.register_source(f"extra{serial}")
        elif kind == "bind":
            base = ("http://prop.test/", "http://prop.test/v")[pick // 2 % 2]
            mdm.dataset.namespaces.bind(("p", "q")[pick % 2], base)
        elif kind == "bump":
            mdm.dataset.default_graph.add((NS[f"note{serial}"], NS.says, NS.nothing))
        else:
            proposed = change(kind, pick, serial)
            if proposed is None:
                continue
            if kind.startswith("analyse"):
                mdm.analyze_impact(proposed)
            if kind != "analyse":
                apply_change(mdm, proposed)
        for walk in walks:
            assert _rewrite_shape(mdm, walk, True) == _rewrite_shape(
                mdm, walk, False
            )
        if isinstance(_rewrite_shape(mdm, chain, False), str):
            with pytest.raises(MdmError):
                mdm.execute(chain)
        else:
            assert set(mdm.execute(chain).relation.rows) == expected


# --------------------------------------------------------------------- #
# UCQ minimization never changes the answer
# --------------------------------------------------------------------- #


def build_lav_chain_mdm(n_concepts: int, rows: int, seed: int):
    """A chain C0 -r0-> C1 ... whose wrappers give alternative covers.

    Each concept Ci has idI + valI features and a wrapper wi.  Edge ri is
    carried by wi (column ``next``) or by w(i+1) (column ``prev``), and
    may also be carried by a link wrapper li on the same source holding
    just the two identifiers.  Wrappers that carry a neighbour's
    identifier can cover that neighbour too, so different cover
    assignments give equal or nested leaf bags.  About a fifth of all
    values, identifiers included, are NULL.  The link wrapper of one
    edge, when present, holds its neighbour identifier as a zero-padded
    STRING (``'03'``) that the lenient join equates with the INTEGER
    ``3`` of the other wrappers.
    """
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < 0.2 else value

    mdm = MDM()
    concepts = []
    for i in range(n_concepts):
        concept = NS[f"C{i}"]
        mdm.add_concept(concept)
        mdm.add_identifier(NS[f"id{i}"], concept)
        mdm.add_feature(NS[f"val{i}"], concept)
        mdm.register_source(f"s{i}")
        concepts.append(concept)
    edges = []
    for i in range(n_concepts - 1):
        mdm.relate(concepts[i], NS[f"r{i}"], concepts[i + 1])
        edges.append((concepts[i], NS[f"r{i}"], concepts[i + 1]))
    forward = [rng.random() < 0.5 for _ in edges]
    string_edge = rng.randrange(len(edges)) if edges else None
    for i in range(n_concepts):
        mapping = {"id": NS[f"id{i}"], "val": NS[f"val{i}"]}
        carried = []
        if i < len(edges) and forward[i]:
            mapping["next"] = NS[f"id{i + 1}"]
            carried.append(edges[i])
        if i > 0 and not forward[i - 1]:
            mapping["prev"] = NS[f"id{i - 1}"]
            carried.append(edges[i - 1])
        records = []
        for k in range(rows):
            record = {"id": maybe(k), "val": maybe(f"c{i}v{k}")}
            for column in mapping:
                if column not in record:
                    record[column] = maybe(rng.randrange(rows))
            records.append(record)
        mdm.register_wrapper(f"s{i}", StaticWrapper(f"w{i}", list(mapping), records))
        mdm.define_mapping(f"w{i}", mapping, edges=carried)
    for i, edge in enumerate(edges):
        if rng.random() < 0.4:
            continue  # no link wrapper for this edge
        own, other = (i, i + 1) if forward[i] else (i + 1, i)
        column = f"to{other}"
        records = []
        for k in range(rows):
            target = maybe(rng.randrange(rows))
            if i == string_edge and target is not None:
                target = f"{target:02d}"
            records.append({"id": maybe(k), column: target})
        mdm.register_wrapper(f"s{own}", StaticWrapper(f"l{i}", ["id", column], records))
        mdm.define_mapping(
            f"l{i}",
            {"id": NS[f"id{own}"], column: NS[f"id{other}"]},
            edges=[edge],
        )
    return mdm, concepts


def _random_walk(mdm, concepts, seed):
    """A walk over a random stretch of the chain: some features, and
    sometimes a filter on an identifier, all drawn from ``seed``."""
    rng = random.Random(seed + 1)
    first = rng.randrange(len(concepts))
    last = rng.randrange(first, len(concepts))
    nodes = list(concepts[first : last + 1])
    for i in range(first, last + 1):
        if rng.random() < 0.5:
            nodes.append(NS[f"val{i}"])
        if rng.random() < 0.3:
            nodes.append(NS[f"id{i}"])
    walk = mdm.walk_from_nodes(nodes)
    if rng.random() < 0.4:
        feature = NS[f"id{rng.randrange(first, last + 1)}"]
        op = rng.choice([">=", "=", "!="])
        walk = walk.with_filters(FilterCondition(feature, op, rng.randrange(3)))
    return walk


def _answer_bytes(mdm, result):
    """The UCQ's answer as (schema, sorted row reprs): byte-level."""
    executor = Executor()
    for name in {n for q in result.queries for n in q.wrapper_names}:
        executor.register(name, mdm.wrappers[name].fetch_relation())
    relation = executor.execute(result.plan)
    return relation.schema, sorted(tuple(repr(v) for v in row) for row in relation.rows)


def _join_shape(query):
    """(leaf-key multiset, columns, column -> key of its first provider,
    columns with several providers) of a CQ's join."""
    plan = query.plan
    while isinstance(plan, (Select, Extend)):
        plan = plan.child
    bag, first, shared = Counter(), {}, set()
    for leaf in flatten_union(plan, NaturalJoin):
        key = plan_key(leaf)
        bag[key] += 1
        for column in leaf.names:
            if column in first:
                shared.add(column)
            first.setdefault(column, key)
    return bag, set(first), first, shared


def _contained(inner, outer, read):
    """Whether ``outer`` answers everything ``inner`` does, byte for byte,
    by the leaf-bag containment rule."""
    bag_i, columns_i, first_i, shared_i = inner
    bag_o, columns_o, first_o, _ = outer
    return (
        all(bag_o[key] <= bag_i[key] for key in bag_o)
        and columns_o >= columns_i
        and all(first_o[c] == first_i[c] for c in shared_i & read)
    )


@given(
    n_concepts=st.integers(min_value=2, max_value=3),
    rows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=200, deadline=None)
def test_minimized_ucq_answers_byte_identically(n_concepts, rows, seed):
    """Dropping contained CQs changes neither the schema (types
    included) nor the raw bytes of any answer row, and leaves no kept
    CQ contained in another kept CQ."""
    mdm, concepts = build_lav_chain_mdm(n_concepts, rows, seed)
    walk = _random_walk(mdm, concepts, seed)
    minimized = Rewriter(mdm.global_graph, mdm.mappings).rewrite(walk)
    reference = Rewriter(mdm.global_graph, mdm.mappings, minimize=False).rewrite(walk)
    assert minimized.ucq_size <= reference.ucq_size
    assert _answer_bytes(mdm, minimized) == _answer_bytes(mdm, reference)
    read = set(minimized.projection)
    read.update(minimized.column_names[c.feature] for c in walk.filters)
    shapes = [_join_shape(q) for q in minimized.queries]
    for i, j in itertools.permutations(range(len(shapes)), 2):
        assert not _contained(shapes[i], shapes[j], read), (
            minimized.queries[i].describe(),
            minimized.queries[j].describe(),
        )


# --------------------------------------------------------------------- #
# the rewriter never joins disjoint schemas
# --------------------------------------------------------------------- #


def _joins(mdm, walk):
    """``(joins, disjoint)`` over every CQ of the minimized and the full
    rewriting: how many NaturalJoins there are, and a description of
    each whose children share no column under the wrapper catalog."""
    catalog = wrapper_catalog(mdm)
    joins, disjoint = 0, []
    for minimize in (True, False):
        rewriter = Rewriter(mdm.global_graph, mdm.mappings, minimize=minimize)
        for query in rewriter.rewrite(walk).queries:
            for node in query.plan.nodes():
                if not isinstance(node, NaturalJoin):
                    continue
                joins += 1
                left = set(node.left.output_schema(catalog).names)
                right = set(node.right.output_schema(catalog).names)
                if not left & right:
                    disjoint.append((minimize, query.describe(), left, right))
    return joins, disjoint


@given(
    n_concepts=st.integers(min_value=1, max_value=4),
    rows=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_rewritten_joins_share_a_column(n_concepts, rows, seed):
    """Every join the rewriter emits is on a shared column: the
    executed plan keeps the rewriter's join order, so a cross product
    here would run as one."""
    mdm, concepts = build_lav_chain_mdm(n_concepts, rows, seed)
    _, disjoint = _joins(mdm, _random_walk(mdm, concepts, seed))
    assert disjoint == []


def test_scenario_joins_share_a_column():
    """The same over the football walks, before and after the breaking
    Players API v2 release, and the SUPERSEDE walks."""
    checked = []
    for anchors_only in (True, False):
        football = FootballScenario.build(anchors_only=anchors_only)
        for released in (False, True):
            if released:
                football.release_players_v2()
            checked += [
                _joins(football.mdm, walk)
                for walk in (
                    football.walk_player_team_names(),
                    football.walk_league_nationality(),
                    football.walk_single_concept(),
                )
            ]
    supersede = SupersedeScenario.build()
    checked += [
        _joins(supersede.mdm, walk)
        for walk in (
            supersede.walk_feedback_by_product(),
            supersede.walk_metrics_by_product(),
            supersede.walk_reviews(),
        )
    ]
    assert [disjoint for _, disjoint in checked if disjoint] == []
    assert sum(joins for joins, _ in checked) > 0
