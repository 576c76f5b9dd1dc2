"""Property-based tests for the document store (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.store import Collection

scalars = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.sampled_from(["a", "b", "c"]),
    st.booleans(),
)
documents = st.dictionaries(
    st.sampled_from(["k", "v", "w"]), scalars, min_size=0, max_size=3
)


def _filled(docs):
    collection = Collection("c")
    for doc in docs:
        collection.insert_one(doc)
    return collection


def _ids(found):
    return [d["_id"] for d in found]


@given(st.lists(documents, max_size=15), scalars)
@settings(max_examples=60)
def test_equality_filter_matches_python_filter(docs, needle):
    collection = _filled(docs)
    found = collection.find({"k": needle})
    expected = [d for d in collection.find() if "k" in d and d["k"] == needle]
    assert found == expected
    assert len(found) == sum(1 for d in docs if "k" in d and d["k"] == needle)


@given(st.lists(documents, max_size=15), scalars, scalars)
@settings(max_examples=60)
def test_and_decomposes(docs, k, v):
    collection = _filled(docs)
    both = _ids(collection.find({"k": k, "v": v}))
    only_v = set(_ids(collection.find({"v": v})))
    assert both == [i for i in _ids(collection.find({"k": k})) if i in only_v]


@given(st.lists(documents, max_size=12), scalars)
@settings(max_examples=40)
def test_delete_then_count_zero(docs, needle):
    collection = _filled(docs)
    matches = len(collection.find({"k": needle}))
    deleted = 0
    while collection.delete_one({"k": needle}):
        deleted += 1
    assert deleted == matches
    assert collection.find({"k": needle}) == []
    assert collection.count() == len(docs) - matches


@given(st.lists(documents, max_size=12), scalars)
@settings(max_examples=40)
def test_update_many_sets_everywhere(docs, value):
    collection = _filled(docs)
    before = collection.find()
    for doc in before:
        assert collection.replace_one({"_id": doc["_id"]}, dict(doc, stamp=value)) == 1
    after = collection.find()
    assert _ids(after) == _ids(before)
    assert after == [dict(doc, stamp=value) for doc in before]
