"""Failure paths of :mod:`repro.service.persistence`: typed errors.

"Nothing saved yet" and "the snapshot is damaged" are different
operational situations; the loader must surface them as
:class:`SnapshotMissingError` (still a :class:`FileNotFoundError`, for
callers that predate the typed hierarchy) and
:class:`SnapshotCorruptError` (carrying the offending path and cause)
rather than whatever the parser happened to throw.
"""

import threading

import pytest

from repro.core.errors import (
    MdmError,
    PersistenceError,
    SnapshotCorruptError,
    SnapshotMissingError,
)
from repro.rdf.namespaces import EX
from repro.service.persistence import (
    DATASET_FILE,
    METADATA_FILE,
    load_mdm,
    save_mdm,
)


def tiny_mdm():
    from repro.core.mdm import MDM

    mdm = MDM()
    mdm.add_concept(EX.Thing)
    mdm.add_identifier(EX.thingId, EX.Thing)
    return mdm


class TestErrorHierarchy:
    def test_typed_errors_are_mdm_errors(self):
        assert issubclass(PersistenceError, MdmError)
        assert issubclass(SnapshotMissingError, PersistenceError)
        assert issubclass(SnapshotCorruptError, PersistenceError)

    def test_missing_is_also_file_not_found(self):
        # Callers that predate the typed hierarchy caught
        # FileNotFoundError; the typed error must keep matching.
        assert issubclass(SnapshotMissingError, FileNotFoundError)


class TestLoadFailures:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotMissingError) as exc:
            load_mdm(tmp_path / "never-saved")
        assert exc.value.path == tmp_path / "never-saved" / DATASET_FILE

    def test_missing_dataset_file(self, tmp_path):
        # Directory exists (say, created by an aborted first save) but
        # holds no dataset: still "missing", not "corrupt".
        (tmp_path / METADATA_FILE).write_text("")
        with pytest.raises(SnapshotMissingError):
            load_mdm(tmp_path)

    def test_truncated_trig(self, tmp_path):
        save_mdm(tiny_mdm(), tmp_path)
        full = (tmp_path / DATASET_FILE).read_text()
        (tmp_path / DATASET_FILE).write_text(full[: len(full) // 2])
        with pytest.raises(SnapshotCorruptError) as exc:
            load_mdm(tmp_path)
        assert exc.value.path == tmp_path / DATASET_FILE
        assert exc.value.cause is not None

    def test_garbage_trig(self, tmp_path):
        save_mdm(tiny_mdm(), tmp_path)
        (tmp_path / DATASET_FILE).write_text("@prefix broken <oops\n%%%")
        with pytest.raises(SnapshotCorruptError):
            load_mdm(tmp_path)

    def test_corrupt_metadata_jsonl(self, tmp_path):
        save_mdm(tiny_mdm(), tmp_path)
        (tmp_path / METADATA_FILE).write_text('{"collection": "releases", \n')
        with pytest.raises(SnapshotCorruptError) as exc:
            load_mdm(tmp_path)
        assert exc.value.path == tmp_path / METADATA_FILE

    def test_corrupt_error_message_names_path_and_cause(self, tmp_path):
        save_mdm(tiny_mdm(), tmp_path)
        (tmp_path / DATASET_FILE).write_text("!!!")
        with pytest.raises(SnapshotCorruptError) as exc:
            load_mdm(tmp_path)
        assert DATASET_FILE in str(exc.value)


class TestAtomicSave:
    def test_failed_metadata_serialization_preserves_old_snapshot(
        self, tmp_path, monkeypatch
    ):
        # No chaos involvement: any exception mid-save (here a failing
        # document-store serialization) must leave the previous snapshot
        # byte-identical and no temp files behind.
        mdm = tiny_mdm()
        save_mdm(mdm, tmp_path)
        before = {
            name: (tmp_path / name).read_bytes()
            for name in (DATASET_FILE, METADATA_FILE)
        }
        mdm.add_concept(EX.Other)

        def explode(path):
            raise OSError("disk full")

        monkeypatch.setattr(mdm.metadata, "save", explode)
        with pytest.raises(OSError, match="disk full"):
            save_mdm(mdm, tmp_path)
        after = {
            name: (tmp_path / name).read_bytes()
            for name in (DATASET_FILE, METADATA_FILE)
        }
        assert after == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_save_into_new_nested_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        save_mdm(tiny_mdm(), target)
        assert (target / DATASET_FILE).exists()
        assert (target / METADATA_FILE).exists()
        load_mdm(target)


class TestSaveLocking:
    def test_save_waits_for_a_mutation_in_progress(self, tmp_path):
        # A mutator holds the write lock half-way through a release: the
        # concept is added, its identifier not yet.  The save must wait
        # for the lock and then capture the finished mutation.
        mdm = tiny_mdm()
        started = threading.Event()

        def save():
            started.set()
            save_mdm(mdm, tmp_path)

        saver = threading.Thread(target=save)
        with mdm.metadata_lock.write_locked():
            mdm.add_concept(EX.Other)
            saver.start()
            assert started.wait(timeout=5.0)
            saver.join(timeout=0.5)
            assert saver.is_alive(), "save_mdm did not wait for the write lock"
            assert not (tmp_path / DATASET_FILE).exists()
            mdm.add_identifier(EX.otherId, EX.Other)
        saver.join(timeout=5.0)
        assert not saver.is_alive()
        loaded = load_mdm(tmp_path)
        assert EX.otherId in loaded.global_graph.features()
