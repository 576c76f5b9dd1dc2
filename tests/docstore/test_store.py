"""Unit tests for the document store."""

import sys
import threading

import pytest

from repro.docstore.store import Collection, DocumentStore, DuplicateKeyError


@pytest.fixture
def releases():
    c = Collection("releases")
    for document in (
        {"source": "players", "version": 1, "breaking": False},
        {"source": "players", "version": 2, "breaking": True},
        {"source": "teams", "version": 1, "breaking": False},
    ):
        c.insert_one(document)
    return c


class TestInsert:
    def test_auto_id_minted(self):
        c = Collection("x")
        doc_id = c.insert_one({"a": 1})
        assert doc_id == "x-000001"
        assert c.find_one({"_id": doc_id})["a"] == 1

    def test_explicit_id_kept(self):
        c = Collection("x")
        assert c.insert_one({"_id": "mine", "a": 1}) == "mine"

    def test_duplicate_id_rejected(self):
        c = Collection("x")
        c.insert_one({"_id": "d"})
        with pytest.raises(DuplicateKeyError):
            c.insert_one({"_id": "d"})

    def test_non_string_id_rejected(self):
        with pytest.raises(TypeError):
            Collection("x").insert_one({"_id": 5})

    def test_insert_copies_input(self):
        c = Collection("x")
        original = {"nested": {"v": 1}}
        doc_id = c.insert_one(original)
        original["nested"]["v"] = 99
        assert c.find_one({"_id": doc_id})["nested"]["v"] == 1


class TestFind:
    def test_find_all(self, releases):
        assert len(releases.find()) == 3

    def test_find_filtered(self, releases):
        assert len(releases.find({"source": "players"})) == 2

    def test_find_one(self, releases):
        doc = releases.find_one({"breaking": True})
        assert doc is not None and doc["version"] == 2

    def test_find_one_none(self, releases):
        assert releases.find_one({"source": "nope"}) is None

    def test_find_returns_copies(self, releases):
        doc = releases.find_one({"version": 1})
        doc["version"] = 99
        assert releases.find({"version": 99}) == []

    def test_sort_ascending(self, releases):
        ordered = releases.find(sort="version")
        assert [d["version"] for d in ordered] == [1, 1, 2]
        # Stable: equal keys keep insertion order.
        assert [d["source"] for d in ordered] == ["players", "teams", "players"]

    def test_count(self, releases):
        assert releases.count() == len(releases) == 3

    def test_iteration(self, releases):
        # Documents come back in insertion order.
        assert [(d["source"], d["version"]) for d in releases.find()] == [
            ("players", 1), ("players", 2), ("teams", 1),
        ]


class TestUpdate:
    def test_unknown_operator_rejected(self, releases):
        with pytest.raises(ValueError):
            releases.replace_one({"$set": {"a": 1}}, {"a": 1})
        assert len(releases) == 3

    def test_replace_one(self, releases):
        doc_id = releases.find_one({"source": "teams"})["_id"]
        count = releases.replace_one({"source": "teams"}, {"source": "teams", "fresh": 1})
        assert count == 1
        doc = releases.find_one({"source": "teams"})
        assert doc["fresh"] == 1 and "version" not in doc
        assert doc["_id"] == doc_id and len(releases) == 3

    def test_update_many(self, releases):
        # A replace touches only the first of several matches.
        releases.replace_one({"source": "players"}, {"source": "players", "version": 9})
        assert [d["version"] for d in releases.find({"source": "players"})] == [9, 2]

    def test_update_zero_matches(self, releases):
        # With no match, replace_one inserts the document.
        assert releases.replace_one({"source": "nope"}, {"source": "nope", "x": 1}) == 0
        assert releases.find_one({"source": "nope"}) == {
            "_id": "releases-000004", "source": "nope", "x": 1,
        }
        assert len(releases) == 4


class TestConcurrency:
    def test_concurrent_replaces_of_a_key_insert_it_once(self):
        c = Collection("saved_queries")
        start = threading.Barrier(8, timeout=30)

        def replace(n):
            start.wait()
            for i in range(300):
                c.replace_one({"name": f"q{i}"}, {"name": f"q{i}", "by": n})

        threads = [threading.Thread(target=replace, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(d["name"] for d in c.find()) == sorted(f"q{i}" for i in range(300))


class TestDelete:
    def test_delete_one(self, releases):
        assert releases.delete_one({"source": "players"}) == 1
        assert len(releases.find({"source": "players"})) == 1

    def test_delete_many(self, releases):
        # Deletes go one match at a time, first match first.
        assert releases.delete_one({"source": "players"}) == 1
        assert [d["version"] for d in releases.find({"source": "players"})] == [2]
        assert releases.delete_one({"source": "players"}) == 1
        assert releases.delete_one({"source": "players"}) == 0
        assert releases.count() == 1

    def test_delete_zero(self, releases):
        assert releases.delete_one({"source": "nope"}) == 0


class TestDocumentStore:
    def test_collection_created_on_demand(self):
        store = DocumentStore()
        store.collection("a").insert_one({"x": 1})
        assert store.collection_names() == ["a"]

    def test_same_collection_returned(self):
        store = DocumentStore()
        assert store.collection("a") is store.collection("a")

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        store = DocumentStore(path)
        store.collection("releases").insert_one({"source": "players", "v": 1})
        store.collection("queries").insert_one({"walk": "w"})
        store.save()
        restored = DocumentStore(path)
        assert restored.collection("releases").count() == 1
        assert restored.collection("queries").find_one({})["walk"] == "w"

    def test_save_requires_path(self):
        with pytest.raises(ValueError):
            DocumentStore().save()

    def test_save_explicit_path(self, tmp_path):
        store = DocumentStore()
        store.collection("c").insert_one({"x": 1})
        target = store.save(tmp_path / "out.jsonl")
        assert target.exists()

    def test_load_missing_file_is_empty(self, tmp_path):
        store = DocumentStore(tmp_path / "missing.jsonl")
        assert store.collection_names() == []

    def test_saved_ids_survive(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        store = DocumentStore(path)
        doc_id = store.collection("c").insert_one({"x": 1})
        store.save()
        restored = DocumentStore(path)
        assert restored.collection("c").find_one({"_id": doc_id})["x"] == 1
