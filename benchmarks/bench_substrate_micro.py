"""Ablation D — substrate micro-benchmarks backing the system numbers.

The interactive behaviour of MDM rests on the substrates: triple-store
insert/match throughput, SPARQL BGP evaluation and the relational hash
join.  These micro-benchmarks characterize each at representative sizes.
"""

import pytest

from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX, RDF
from repro.rdf.terms import Literal
from repro.relational.algebra import EquiJoin, Scan
from repro.relational.executor import Executor
from repro.relational.relation import Relation
from repro.sparql.evaluator import evaluate_text


def build_player_graph(n: int) -> Graph:
    g = Graph()
    for i in range(n):
        player = EX[f"p{i}"]
        g.add((player, RDF.type, EX.Player))
        g.add((player, EX.name, Literal(f"player {i}")))
        g.add((player, EX.height, Literal(150.0 + i % 60)))
        g.add((player, EX.playsFor, EX[f"t{i % (n // 10 + 1)}"]))
    return g


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_triple_insert_throughput(benchmark, n):
    def build():
        return build_player_graph(n)

    g = benchmark(build)
    assert len(g) == 4 * n


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_indexed_pattern_match(benchmark, n):
    g = build_player_graph(n)

    def match():
        return sum(1 for _ in g.triples((None, RDF.type, EX.Player)))

    count = benchmark(match)
    assert count == n


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_sparql_bgp_join(benchmark, n):
    ds = Dataset()
    ds.namespaces.bind("ex", EX)
    graph = build_player_graph(n)
    ds.default_graph.add_all(iter(graph))
    query = (
        "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
        "SELECT ?name WHERE { ?p a ex:Player ; ex:name ?name ; "
        "ex:height ?h FILTER(?h > 190) }"
    )

    result = benchmark(lambda: evaluate_text(query, ds))
    assert len(result) > 0


@pytest.mark.parametrize("n", [1_000, 20_000])
def test_relational_hash_join(benchmark, n):
    left = Relation.from_dicts(
        [{"id": i, "v": f"l{i}"} for i in range(n)], name="l"
    )
    right = Relation.from_dicts(
        [{"ref": i % (n // 2), "w": f"r{i}"} for i in range(n)], name="r"
    )
    executor = Executor({"l": left, "r": right})
    plan = EquiJoin(Scan("l"), Scan("r"), (("id", "ref"),))

    result = benchmark(lambda: executor.execute(plan))
    assert len(result) == n


@pytest.mark.parametrize("n", [10_000])
def test_relational_aggregate(benchmark, n):
    from repro.relational.algebra import Aggregate

    rows = Relation.from_dicts(
        [{"team": f"t{i % 40}", "rating": i % 100} for i in range(n)],
        name="players",
    )
    executor = Executor({"players": rows})
    plan = Aggregate(
        Scan("players"),
        ("team",),
        (("count", "*", "n"), ("avg", "rating", "avgR")),
    )

    result = benchmark(lambda: executor.execute(plan))
    assert len(result) == 40


@pytest.mark.parametrize("n", [10_000])
def test_sparql_aggregation(benchmark, n):
    ds = Dataset()
    g = ds.default_graph
    for i in range(n):
        g.add((EX[f"p{i}"], EX.team, Literal(f"t{i % 40}")))
    query = (
        "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
        "SELECT ?team (COUNT(*) AS ?n) WHERE { ?p ex:team ?team } "
        "GROUP BY ?team"
    )

    result = benchmark(lambda: evaluate_text(query, ds))
    assert len(result) == 40


def test_trig_snapshot_roundtrip(benchmark, ):
    from repro.rdf.trig import parse_trig, serialize_trig
    from repro.scenarios.football import FootballScenario

    dataset = FootballScenario.build(anchors_only=True).mdm.dataset

    def roundtrip():
        return parse_trig(serialize_trig(dataset))

    restored = benchmark(roundtrip)
    assert len(restored) == len(dataset)
