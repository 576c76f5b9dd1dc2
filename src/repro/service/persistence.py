"""Durability for MDM state (the Jena TDB substitute).

One MDM instance's metadata lives in two stores:

- the RDF dataset (global graph, source graph, LAV named graphs), saved
  as a TriG document;
- the document store (releases, saved queries, query log), saved as
  JSONL.  Older snapshots also hold a ``sources`` collection; it loads
  and is saved back unchanged, and nothing reads it.

``save`` writes both under a directory; ``load`` reconstructs an
:class:`~repro.core.mdm.MDM` from them.  Runtime wrapper objects (live
fetch functions) cannot be serialized — callers re-attach them by name
with :func:`attach_wrappers` after loading, mirroring how the real system
re-establishes connections on restart.

**Crash safety.**  Both files are written to temporaries in the target
directory and published with ``os.replace``, and the two replaces happen
back-to-back after *both* temporaries are fully staged — a crash at any
injectable point before the commit leaves the previous snapshot exactly
as it was, and a reader never observes a truncated file.  The chaos
harness drives this through the ``persistence.save.*`` failpoints (see
:data:`repro.chaos.failpoints.SITES`); the only residual window is
between the two ``os.replace`` calls themselves, where a crash leaves
the *new* dataset next to the *old* metadata — both individually intact,
never truncated.  The ``persistence.save.metadata`` failpoint sits in
that window deliberately, so tests can pin down exactly what it costs.

Loading raises the typed :class:`~repro.core.errors.SnapshotMissingError`
/ :class:`~repro.core.errors.SnapshotCorruptError` instead of bare
parser exceptions, so the service layer can distinguish "nothing saved
yet" from "the snapshot is damaged".
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, List

from ..chaos.failpoints import fire as _failpoint
from ..core.errors import SnapshotCorruptError, SnapshotMissingError
from ..core.mdm import MDM
from ..docstore.store import DocumentStore
from ..rdf.trig import parse_trig, serialize_trig
from ..sources.wrappers import Wrapper

__all__ = ["save_mdm", "load_mdm", "attach_wrappers", "DATASET_FILE", "METADATA_FILE"]

DATASET_FILE = "mdm-dataset.trig"
METADATA_FILE = "mdm-metadata.jsonl"


def _stage_text(target_dir: Path, text: str, mid_site: str) -> str:
    """Write ``text`` to a temp file in ``target_dir``; return its name.

    The write happens in two halves with a failpoint between them so the
    chaos harness can kill the process "mid-write" — the target file is
    untouched either way.
    """
    fd, temp_name = tempfile.mkstemp(dir=str(target_dir), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            half = len(text) // 2
            handle.write(text[:half])
            _failpoint(mid_site)
            handle.write(text[half:])
        return temp_name
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


def save_mdm(mdm: MDM, directory: os.PathLike) -> Path:
    """Persist ``mdm``'s dataset and metadata under ``directory``.

    Atomic per file (temp + ``os.replace``), with both temporaries fully
    staged before either replace — an injected crash anywhere up to the
    commit leaves the previous snapshot intact.  Both stores serialize
    under the metadata read lock, so a mutation is never half-captured.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    _failpoint("persistence.save")
    dataset_tmp = metadata_tmp = None
    try:
        with mdm.metadata_lock.read_locked():
            dataset_tmp = _stage_text(
                target, serialize_trig(mdm.dataset), "persistence.save.dataset.mid"
            )
            _failpoint("persistence.save.dataset")
            fd, metadata_tmp = tempfile.mkstemp(dir=str(target), suffix=".tmp")
            os.close(fd)
            mdm.metadata.save(metadata_tmp)
        _failpoint("persistence.save.commit")
        os.replace(dataset_tmp, target / DATASET_FILE)
        dataset_tmp = None
        _failpoint("persistence.save.metadata")
        os.replace(metadata_tmp, target / METADATA_FILE)
        metadata_tmp = None
    finally:
        for leftover in (dataset_tmp, metadata_tmp):
            if leftover is not None and os.path.exists(leftover):
                os.unlink(leftover)
    return target


def load_mdm(directory: os.PathLike) -> MDM:
    """Reconstruct an MDM from a saved directory.

    Sources resolve by name through the loaded source graph; runtime
    wrappers must be re-attached (see :func:`attach_wrappers`).

    Raises :class:`SnapshotMissingError` when the dataset file is absent
    and :class:`SnapshotCorruptError` when either file fails to parse.
    """
    source = Path(directory)
    dataset_path = source / DATASET_FILE
    metadata_path = source / METADATA_FILE
    _failpoint("persistence.load")
    if not dataset_path.exists():
        raise SnapshotMissingError(dataset_path, "no dataset snapshot")
    mdm = MDM()
    text = _failpoint(
        "persistence.load.dataset",
        payload=dataset_path.read_text(encoding="utf-8"),
    )
    try:
        parse_trig(text, mdm.dataset)
    except Exception as exc:
        raise SnapshotCorruptError(dataset_path, exc) from exc
    if metadata_path.exists():
        _failpoint("persistence.load.metadata")
        try:
            mdm.metadata = DocumentStore(metadata_path)
        except Exception as exc:
            raise SnapshotCorruptError(metadata_path, exc) from exc
        from ..core.releases import GovernanceLog

        mdm.governance = GovernanceLog(mdm.metadata)
    return mdm


def attach_wrappers(mdm: MDM, wrappers: Iterable[Wrapper]) -> List[str]:
    """Re-attach runtime wrappers by name; returns the attached names.

    Raises :class:`KeyError` if a wrapper's name is not registered in the
    source graph — attaching an unknown wrapper almost certainly means
    the snapshot and the code have drifted.
    """
    attached: List[str] = []
    for wrapper in wrappers:
        if mdm.source_graph.wrapper_by_name(wrapper.name) is None:
            raise KeyError(
                f"wrapper {wrapper.name!r} is not registered in the loaded "
                "source graph"
            )
        mdm.wrappers[wrapper.name] = wrapper
        attached.append(wrapper.name)
    return attached
