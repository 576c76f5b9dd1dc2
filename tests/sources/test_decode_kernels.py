"""The decode kernels against their straightforward reference versions.

``flatten_record`` and ``Relation.from_dicts`` take shortcuts: a flat
record is copied without the recursive walk, and a column is typed from
the distinct Python types in it rather than cell by cell.  The
references below are the one-cell-at-a-time versions the shortcuts
replaced, kept verbatim; the properties check that the results (and
the ``TypeError`` an unsupported value raises) are the same.
"""

import enum
from typing import Any, Dict, List, Mapping, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttrType, coerce, common_type, infer_type
from repro.sources.formats import _scalar_to_text, flatten_record

Record = Dict[str, Any]


def reference_flatten_record(record: Mapping[str, Any], separator: str = "_") -> Record:
    flat: Record = {}

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, Mapping):
            for key, sub in value.items():
                walk(f"{prefix}{separator}{key}" if prefix else str(key), sub)
        elif isinstance(value, (list, tuple)):
            if all(not isinstance(v, (Mapping, list, tuple)) for v in value):
                flat[prefix] = "|".join(_scalar_to_text(v) for v in value)
            else:
                for index, element in enumerate(value):
                    walk(f"{prefix}{separator}{index}", element)
        else:
            flat[prefix] = value

    walk("", dict(record))
    return flat


def reference_from_dicts(
    records: Sequence[Dict[str, Any]],
    attribute_order: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> Relation:
    cls = Relation
    if attribute_order is None:
        seen: List[str] = []
        seen_set = set()
        for record in records:
            for key in record:
                if key not in seen_set:
                    seen_set.add(key)
                    seen.append(key)
        attribute_order = seen
    names = list(attribute_order)
    types: Dict[str, AttrType] = {n: AttrType.ANY for n in names}
    mixed: set = set()
    for record in records:
        for key in names:
            inferred = infer_type(record.get(key))
            if inferred is AttrType.ANY:
                continue  # NULL observes nothing
            current = types[key]
            if current is AttrType.ANY:
                types[key] = inferred
            elif inferred is not current:
                types[key] = common_type(current, inferred)
                mixed.add(key)
    schema = RelationSchema(Attribute(n, types[n]) for n in names)
    if not mixed:
        rows = [tuple(record.get(n) for n in names) for record in records]
        return cls(schema, rows, name=name)
    mixed_at = [(i, types[n]) for i, n in enumerate(names) if n in mixed]
    rows = []
    for record in records:
        cells = [record.get(n) for n in names]
        for index, target in mixed_at:
            cells[index] = coerce(cells[index], target)
        rows.append(tuple(cells))
    return cls(schema, rows, name=name)


# --------------------------------------------------------------------- #
# flatten_record
# --------------------------------------------------------------------- #

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="ab_|x", max_size=3),
)
keys = st.one_of(st.text(alphabet="ab_", max_size=2), st.integers(0, 3), st.booleans())
json_like = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=3),
    ),
    max_leaves=12,
)
records = st.one_of(
    st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=2), scalars, max_size=5),
    st.dictionaries(keys, json_like, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(records)
def test_flatten_record_matches_the_reference(record):
    flat = flatten_record(record)
    expected = reference_flatten_record(record)
    assert list(flat.items()) == list(expected.items())
    assert [type(key) for key in flat] == [type(key) for key in expected]


def test_flatten_record_covers_both_paths():
    flat = {"id": 1, "name": "x", "ok": True, "score": 2.5, "none": None}
    assert flatten_record(flat) == flat
    assert flatten_record(flat) is not flat
    nested = {"id": 1, "team": {"id": 25}, "tags": ["a", 1], "pts": ({"x": 1},)}
    assert flatten_record(nested) == {
        "id": 1,
        "team_id": 25,
        "tags": "a|1",
        "pts_0_x": 1,
    }
    assert flatten_record({1: "a", "b": {}, "c": []}) == {"1": "a", "c": ""}


# --------------------------------------------------------------------- #
# Relation.from_dicts
# --------------------------------------------------------------------- #


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Opaque:
    """A value no relation column can hold."""

    def __repr__(self) -> str:
        return "<opaque>"


cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.0, 1.0, 2.5, -1.5]),
    st.sampled_from(["", "a", "1", "true", "2.5"]),
)
odd_cells = st.one_of(cells, st.sampled_from([Level.LOW, Level.HIGH]), st.just(Opaque()))
columns = ("a", "b", "c")


def dict_rows(values):
    return st.lists(
        st.dictionaries(st.sampled_from(columns), values, max_size=3), max_size=8
    )


orders = st.one_of(
    st.none(),
    st.lists(st.sampled_from(columns + ("d",)), unique=True, max_size=4),
)


def built(build, rows, order):
    try:
        relation = build(rows, attribute_order=order, name="w")
    except TypeError as exc:
        return ("TypeError", str(exc))
    return (
        relation.name,
        [(a.name, a.type) for a in relation.schema.attributes],
        repr(relation.rows),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(dict_rows(cells), dict_rows(odd_cells)), orders)
def test_from_dicts_matches_the_reference(rows, order):
    assert built(Relation.from_dicts, rows, order) == built(
        reference_from_dicts, rows, order
    )


def test_from_dicts_covers_every_path():
    assert built(Relation.from_dicts, [], None) == ("w", [], "()")
    assert built(Relation.from_dicts, [], ["a"]) == ("w", [("a", AttrType.ANY)], "()")
    mixed = [{"a": 1, "b": True}, {"a": 2.5, "b": "x"}, {"a": None}]
    assert built(Relation.from_dicts, mixed, None) == (
        "w",
        [("a", AttrType.FLOAT), ("b", AttrType.STRING)],
        "((1.0, 'true'), (2.5, 'x'), (None, None))",
    )
    enums = [{"a": Level.HIGH}, {"a": 3}]
    assert built(Relation.from_dicts, enums, None)[1] == [("a", AttrType.INTEGER)]
    bad = [{"a": 1, "b": Opaque()}, {"a": Opaque()}]
    assert built(Relation.from_dicts, bad, None) == (
        "TypeError",
        "unsupported relational value: <opaque> (Opaque)",
    )
