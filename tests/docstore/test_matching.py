"""Unit tests for the store's query contract.

A query maps top-level fields to values; a document matches when it
holds every field with an equal value.  The operators and dot paths of
MongoDB's filter language are not evaluated: a ``$`` field or a mapping
value raises ``ValueError``, so a query written for them fails loudly
instead of matching nothing.
"""

import pytest

from repro.docstore.store import Collection

DOC = {
    "name": "w1",
    "kind": "wrapper",
    "release": {"version": 2, "breaking": True},
    "attributes": ["id", "pName", "teamId"],
    "stats": [{"calls": 5}, {"calls": 9}],
}
OTHER = {"name": "w2", "kind": "source", "attributes.1": "pName"}


@pytest.fixture
def collection():
    c = Collection("c")
    c.insert_one(DOC)
    c.insert_one(OTHER)
    return c


@pytest.fixture
def names(collection):
    return lambda query: [d["name"] for d in collection.find(query)]


@pytest.fixture
def rejects(collection):
    def check(query):
        for read in (collection.find, collection.find_one, collection.delete_one):
            with pytest.raises(ValueError):
                read(query)
        with pytest.raises(ValueError):
            collection.replace_one(query, {"name": "x"})
        assert len(collection) == 2

    return check


class TestResolvePath:
    """A query field names a top-level field; nothing else is resolved."""

    def test_top_level(self, names):
        assert names({"name": "w1"}) == ["w1"]

    def test_nested(self, rejects):
        # Even the equal value: nested values are not compared.
        rejects({"release": {"version": 2, "breaking": True}})

    def test_missing(self, names):
        assert names({"ghost": None}) == []

    def test_through_list_of_dicts(self, names):
        assert names({"stats.calls": 5}) == []
        assert names({"stats": [{"calls": 5}, {"calls": 9}]}) == ["w1"]

    def test_list_index(self, names):
        # A dotted field is matched by its literal name.
        assert names({"attributes.1": "pName"}) == ["w2"]


class TestImplicitEquality:
    def test_match(self, names):
        assert names({"name": "w1"}) == ["w1"]

    def test_mismatch(self, names):
        assert names({"name": "w3"}) == []

    def test_nested_path(self, names):
        assert names({"release.version": 2}) == []

    def test_list_membership(self, names):
        # Lists compare whole, in order: no element matching.
        assert names({"attributes": "pName"}) == []
        assert names({"attributes": ["pName", "id", "teamId"]}) == []
        assert names({"attributes": ["id", "pName", "teamId"]}) == ["w1"]

    def test_missing_field_fails(self, names):
        assert names({"ghost": 1}) == []

    def test_multiple_conditions_conjunctive(self, names):
        assert names({"name": "w1", "kind": "wrapper"}) == ["w1"]
        assert names({"name": "w1", "kind": "source"}) == []


class TestOperators:
    """Each operator the store once evaluated is now rejected."""

    def test_eq_ne(self, rejects):
        rejects({"kind": {"$eq": "wrapper"}})
        rejects({"kind": {"$ne": "wrapper"}})

    def test_ordering(self, rejects):
        for op in ("$gt", "$gte", "$lt", "$lte"):
            rejects({"release.version": {op: 2}})

    def test_ordering_type_mismatch_false(self, rejects):
        rejects({"name": {"$gt": 5}})

    def test_in_nin(self, rejects):
        rejects({"kind": {"$in": ["wrapper", "source"]}})
        rejects({"kind": {"$nin": ["wrapper"]}})

    def test_in_over_list_field(self, rejects):
        rejects({"attributes": {"$in": ["teamId", "zzz"]}})

    def test_in_requires_list(self, rejects):
        rejects({"kind": {"$in": "wrapper"}})

    def test_exists(self, rejects):
        rejects({"ghost": {"$exists": False}})

    def test_regex(self, rejects):
        rejects({"name": {"$regex": "^w\\d"}})

    def test_regex_options(self, rejects):
        rejects({"name": {"$regex": "^W", "$options": "i"}})

    def test_not(self, rejects):
        rejects({"name": {"$not": {"$eq": "w2"}}})

    def test_ne_on_missing_field_vacuous(self, rejects):
        rejects({"ghost": {"$ne": 5}})

    def test_range_combination(self, rejects):
        rejects({"release.version": {"$gte": 1, "$lte": 3}})

    def test_unknown_operator_rejected(self, rejects):
        rejects({"name": {"$fancy": 1}})


class TestCombinators:
    def test_and(self, rejects):
        rejects({"$and": [{"name": "w1"}, {"kind": "wrapper"}]})

    def test_or(self, rejects):
        rejects({"$or": [{"name": "zzz"}, {"kind": "wrapper"}]})

    def test_nor(self, rejects):
        rejects({"$nor": [{"name": "zzz"}, {"kind": "x"}]})

    def test_nested_combinators(self, rejects):
        rejects({"$or": [{"$and": [{"kind": "wrapper"}]}, {"name": "zzz"}]})

    def test_unknown_top_level_operator(self, rejects):
        rejects({"$xor": []})

    def test_empty_query_matches_everything(self, collection, names):
        assert names({}) == names(None) == ["w1", "w2"]
        assert collection.find_one({})["name"] == "w1"
