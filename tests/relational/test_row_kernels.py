"""The row kernels against their straightforward reference versions.

``Executor._hash_join``, ``Executor._project`` and ``apply_pushdown``
build output rows with ``operator.itemgetter`` and join single-column
keys without wrapping them in a tuple, ``Executor._select`` and
``apply_pushdown`` show a predicate only the columns it references, and
a pushed REST fetch types tuples taken straight from the decoded
records.  The references below
are the versions those shortcuts replaced, kept verbatim; the
properties check that schemas, rows (by ``repr``, in order) and raised
errors are the same.
"""

from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import EquiJoin, NaturalJoin, Project, Scan, Select
from repro.relational.executor import Executor, apply_pushdown, pushdown_predicate
from repro.relational.expressions import And, Cmp, Col, Const, IsNull, NotExpr, Or
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttrType
from repro.sources.restapi import Endpoint, MockRestServer
from repro.sources.wrappers import RestWrapper, WrapperSchemaError

# --------------------------------------------------------------------- #
# references
# --------------------------------------------------------------------- #


def reference_apply_pushdown(relation: Relation, scan: Scan) -> Relation:
    from repro.chaos.failpoints import fire as _failpoint

    _failpoint("fetch.apply", key=relation.name)
    result = relation
    if scan.filters:
        predicate = pushdown_predicate(scan.filters)
        names = result.schema.names
        kept = [
            row for row in result if predicate.evaluate(dict(zip(names, row)))
        ]
        result = Relation(result.schema, kept)
    if scan.limit is not None:
        result = Relation(result.schema, list(result.rows)[: scan.limit])
    if scan.columns is not None:
        indices = [result.schema.index_of(n) for n in scan.columns]
        schema = result.schema.project(scan.columns)
        result = Relation(schema, [tuple(row[i] for i in indices) for row in result])
    return result


class ReferenceExecutor(Executor):
    """An executor running the reference selection, projection and hash join."""

    def _select(self, plan: Select) -> Relation:
        child = self.execute(plan.child)
        names = child.schema.names
        kept = [
            row
            for row in child
            if plan.predicate.evaluate(dict(zip(names, row)))
        ]
        return Relation(child.schema, kept)

    def _project(self, plan: Project) -> Relation:
        child = self.execute(plan.child)
        schema = plan.derive(child.schema)
        indices = [child.schema.index_of(n) for n in plan.names]
        rows = [tuple(row[i] for i in indices) for row in child]
        return Relation(schema, rows)

    def _hash_join(
        self,
        left: Relation,
        right: Relation,
        pairs: Tuple[Tuple[str, str], ...],
        schema: RelationSchema,
    ) -> Relation:
        left_indices = [left.schema.index_of(l) for l, _ in pairs]
        right_indices = [right.schema.index_of(r) for _, r in pairs]
        keep_right = [
            i
            for i, attr in enumerate(right.schema.attributes)
            if attr.name not in left.schema
        ]
        # Build on the smaller side.
        build_left = len(left) <= len(right)
        table: Dict[Tuple, List[Tuple]] = {}
        if build_left:
            for row in left:
                key = tuple(self._join_key(row[i]) for i in left_indices)
                if any(row[i] is None for i in left_indices):
                    continue
                table.setdefault(key, []).append(row)
            rows = []
            for row in right:
                if any(row[i] is None for i in right_indices):
                    continue
                key = tuple(self._join_key(row[i]) for i in right_indices)
                for match in table.get(key, ()):
                    rows.append(match + tuple(row[i] for i in keep_right))
        else:
            for row in right:
                if any(row[i] is None for i in right_indices):
                    continue
                key = tuple(self._join_key(row[i]) for i in right_indices)
                table.setdefault(key, []).append(row)
            rows = []
            for row in left:
                if any(row[i] is None for i in left_indices):
                    continue
                key = tuple(self._join_key(row[i]) for i in left_indices)
                for match in table.get(key, ()):
                    rows.append(row + tuple(match[i] for i in keep_right))
        return Relation(schema, rows)


def executed(executor_class, plan, **relations) -> Tuple[Any, ...]:
    """The ``outcome`` of running ``plan`` over ``relations``."""
    return outcome(executor_class(relations).execute, plan)


def outcome(call, *args) -> Tuple[Any, ...]:
    """What ``call(*args)`` produced: its schema and row reprs, or its error."""
    try:
        relation = call(*args)
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))
    return (
        [(a.name, a.type) for a in relation.schema.attributes],
        [repr(row) for row in relation.rows],
    )


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #

#: Key cells: NULLs, booleans, numbers and strings that do and do not
#: read as numbers, so ``_join_key`` normalization meets every branch.
key_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([0.0, 1.0, 2.5, -1.0, float("nan")]),
    st.sampled_from(["1", "1.0", " 2 ", "2.5", "nan", "", "x", "abc", "True"]),
)
payload_cells = st.one_of(key_cells, st.text(alphabet="ab", max_size=2))


@st.composite
def relations(draw, names, cells=key_cells, max_rows=7):
    """A relation over ``names`` whose rows repeat values often."""
    pool = draw(st.lists(cells, min_size=1, max_size=4))
    row = st.tuples(*[st.sampled_from(pool) for _ in names])
    rows = draw(st.lists(row, max_size=max_rows))
    schema = RelationSchema(Attribute(n, AttrType.ANY) for n in names)
    return Relation(schema, rows)


@st.composite
def join_inputs(draw):
    """Two relations sharing 1–3 key columns, each with its own extras."""
    keys = ["k0", "k1", "k2"][: draw(st.integers(1, 3))]
    left_extra = ["a", "b"][: draw(st.integers(0, 2))]
    right_extra = ["c", "d"][: draw(st.integers(0, 2))]
    left = draw(relations(keys + left_extra))
    right = draw(relations(right_extra + keys[::-1]))
    return left, right, keys


# --------------------------------------------------------------------- #
# hash join
# --------------------------------------------------------------------- #


@settings(max_examples=400, deadline=None)
@given(join_inputs())
def test_natural_join_matches_the_reference(inputs):
    left, right, _ = inputs
    plan = NaturalJoin(Scan("l"), Scan("r"))
    assert executed(Executor, plan, l=left, r=right) == executed(
        ReferenceExecutor, plan, l=left, r=right
    )


@settings(max_examples=400, deadline=None)
@given(join_inputs(), st.booleans())
def test_equi_join_matches_the_reference(inputs, rename_right):
    left, right, keys = inputs
    if rename_right:
        # Distinct right key names: the right key columns are kept too.
        right = Relation(
            RelationSchema(
                Attribute(f"r_{a.name}" if a.name in keys else a.name, a.type)
                for a in right.schema.attributes
            ),
            right.rows,
        )
        pairs = tuple((k, f"r_{k}") for k in keys)
    else:
        pairs = tuple((k, k) for k in keys)
    plan = EquiJoin(Scan("l"), Scan("r"), pairs)
    assert executed(Executor, plan, l=left, r=right) == executed(
        ReferenceExecutor, plan, l=left, r=right
    )


@settings(max_examples=300, deadline=None)
@given(join_inputs())
def test_hash_join_kernel_matches_the_reference_on_both_build_sides(inputs):
    left, right, keys = inputs
    pairs = tuple((k, k) for k in keys)
    # Swapped inputs of different sizes build on the other side.
    for first, second in ((left, right), (right, left)):
        _, schema = first.schema.join_split(second.schema)
        args = (first, second, pairs, schema)
        assert outcome(Executor()._hash_join, *args) == outcome(
            ReferenceExecutor()._hash_join, *args
        )


def test_join_inputs_cover_every_path():
    number = RelationSchema([Attribute("k0"), Attribute("a")])
    other = RelationSchema([Attribute("c"), Attribute("k0")])
    small = Relation(number, [(1, "x"), (None, "n"), ("1.0", "y")])
    large = Relation(other, [(10, 1.0), (11, " 1 "), (12, None), (13, "x")])
    plan = NaturalJoin(Scan("l"), Scan("r"))
    for left, right in ((small, large), (large, small)):
        got = executed(Executor, plan, l=left, r=right)
        assert got == executed(ReferenceExecutor, plan, l=left, r=right)
        assert len(got[1]) == 4  # 1 and "1.0" each meet 1.0 and " 1 "
    empty = Relation(number, [])
    assert executed(Executor, plan, l=empty, r=large)[1] == []


# --------------------------------------------------------------------- #
# projection and apply_pushdown
# --------------------------------------------------------------------- #

base_names = ("a", "b", "c")
projections = st.lists(st.sampled_from(base_names), unique=True, max_size=3).map(tuple)


@settings(max_examples=300, deadline=None)
@given(relations(base_names, payload_cells), projections)
def test_project_matches_the_reference(relation, names):
    plan = Project(Scan("w"), names)
    assert executed(Executor, plan, w=relation) == executed(
        ReferenceExecutor, plan, w=relation
    )


filters = st.lists(
    st.tuples(
        # "zz" is in no schema: it reads as NULL.
        st.sampled_from(base_names + ("zz",)),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        key_cells,
    ),
    max_size=2,
).map(tuple)
scans = st.builds(
    Scan,
    st.just("w"),
    filters,
    st.one_of(st.none(), projections),
    st.one_of(st.none(), st.integers(0, 4)),
)


@settings(max_examples=400, deadline=None)
@given(relations(base_names, payload_cells), scans)
def test_apply_pushdown_matches_the_reference(relation, scan):
    assert outcome(apply_pushdown, relation, scan) == outcome(
        reference_apply_pushdown, relation, scan
    )


# --------------------------------------------------------------------- #
# selection
# --------------------------------------------------------------------- #


def predicates(columns):
    """Predicates over ``columns``: comparisons and NULL tests, combined."""
    leaves = st.one_of(
        st.builds(
            Cmp,
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            st.sampled_from(columns).map(Col),
            st.one_of(key_cells.map(Const), st.sampled_from(columns).map(Col)),
        ),
        st.builds(IsNull, st.sampled_from(columns).map(Col), st.booleans()),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(NotExpr, inner),
        ),
        max_leaves=4,
    )


@st.composite
def selections(draw):
    """1–12 columns with NULL cells, and a predicate that may read a
    column the schema lacks."""
    names = [f"c{i}" for i in range(draw(st.integers(1, 12)))]
    relation = draw(relations(names, payload_cells))
    return relation, draw(predicates(names + ["missing"]))


@settings(max_examples=400, deadline=None)
@given(selections())
def test_select_matches_the_reference(selection):
    relation, predicate = selection
    plan = Select(Scan("w"), predicate)
    assert executed(Executor, plan, w=relation) == executed(
        ReferenceExecutor, plan, w=relation
    )


# --------------------------------------------------------------------- #
# the pushed REST fetch
# --------------------------------------------------------------------- #

record_keys = ("id", "name", "score", "team")
json_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([1.5, -2.0]),
    st.sampled_from(["", "a", "7", "true"]),
)
payloads = st.lists(
    st.fixed_dictionaries(
        {"id": st.integers(0, 3)},
        optional={
            "name": json_cells,
            "score": json_cells,
            # Nested records flatten to team_id / team_name.
            "team": st.fixed_dictionaries(
                {"id": json_cells}, optional={"name": json_cells}
            ),
        },
    ),
    max_size=6,
)


def computed_score(record):
    return None if record.get("score") is None else str(record["score"]) + "!"


#: Signature attribute → spec choices: a plain key, a renaming key, a
#: nested (flattened) key, a key some records lack, a computed spec.
attribute_maps = st.sampled_from(
    [
        {},
        {"label": "name"},
        {"team": "team_id"},
        {"label": "name", "team": "team_name"},
        {"label": computed_score},
        {"team": "team_id", "label": computed_score},
    ]
)


def pushed_relation(wrapper, scan):
    return wrapper.fetch_request(scan)[0].relation


def full_relation(wrapper, scan):
    return apply_pushdown(wrapper.fetch_relation(), scan)


def rest_wrapper(payload, attribute_map, strict):
    server = MockRestServer()
    server.register(Endpoint("players", 1, "json", lambda: [dict(r) for r in payload]))
    attributes = ["id"] + sorted(attribute_map)
    return RestWrapper(
        "w",
        attributes,
        server,
        "/v1/players",
        attribute_map=attribute_map,
        strict=strict,
    )


def fetched(call, *args):
    """``outcome``, where the only error allowed is the wrapper's own."""
    result = outcome(call, *args)
    if result[0] == "raised":
        assert result[1] == "WrapperSchemaError", result
    return result


@settings(max_examples=300, deadline=None)
@given(payloads, attribute_maps, st.booleans(), st.data())
def test_pushed_rest_fetch_matches_the_full_fetch(payload, attribute_map, strict, data):
    wrapper = rest_wrapper(payload, attribute_map, strict)
    names = data.draw(
        st.lists(st.sampled_from(wrapper.attributes), unique=True, min_size=1).map(tuple)
    )
    scan = Scan("w", (), names)
    assert scan.is_pushed()
    assert fetched(pushed_relation, wrapper, scan) == fetched(full_relation, wrapper, scan)


@pytest.mark.parametrize("strict", [True, False])
def test_pushed_rest_fetch_covers_every_record_shape(strict):
    payload = [
        {"id": 1, "name": "a", "score": 7, "team": {"id": 3}},
        {"id": 2, "name": None, "score": "7", "team": {"id": "3", "name": "x"}},
        {"id": 3, "score": 1.5},  # no name, no team
    ]
    mixed = rest_wrapper(payload[:2], {"team": "team_id"}, strict)
    scan = Scan("w", (), ("team", "id"))
    relation = mixed.fetch_request(scan)[0].relation
    assert [(a.name, a.type) for a in relation.schema.attributes] == [
        ("team", AttrType.STRING),
        ("id", AttrType.INTEGER),
    ]
    assert relation.rows == (("3", 1), ("3", 2))
    for attribute_map in ({"label": "name"}, {"team": "team_name"}):
        wrapper = rest_wrapper(payload, attribute_map, strict)
        scan = Scan("w", (), tuple(wrapper.attributes))
        if strict:
            with pytest.raises(WrapperSchemaError) as pushed:
                wrapper.fetch_request(scan)
            with pytest.raises(WrapperSchemaError) as full:
                wrapper.fetch_relation()
            assert str(pushed.value) == str(full.value)
        else:
            assert outcome(pushed_relation, wrapper, scan) == outcome(
                full_relation, wrapper, scan
            )
            relation = pushed_relation(wrapper, scan)
            assert None in relation.column(sorted(attribute_map)[0])
