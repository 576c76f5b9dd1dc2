"""Pytest gate over :mod:`scripts.check_repo_hygiene`.

Fails the suite when compiled-Python artifacts or ignored files are
tracked by git — the regressions that added four ``.pyc`` files to one
commit and kept a stale ``src/repro.egg-info/`` in the index stay fixed.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from check_repo_hygiene import (  # noqa: E402
    hygiene_violations,
    ignored_tracked_files,
    size_violations,
    tracked_files,
)


def test_no_tracked_pycache_or_pyc():
    paths = tracked_files(REPO_ROOT)
    # Outside a git checkout (e.g. an sdist) there is nothing to check.
    if not paths:
        return
    assert hygiene_violations(paths) == []


def test_no_oversized_tracked_files():
    paths = tracked_files(REPO_ROOT)
    if not paths:
        return
    assert size_violations(paths, REPO_ROOT) == []


def test_no_tracked_ignored_files():
    assert ignored_tracked_files(REPO_ROOT) == []


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_ignored_tracked_file_detection(tmp_path):
    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("*.egg-info/\n")
    (tmp_path / "pkg.egg-info").mkdir()
    (tmp_path / "pkg.egg-info" / "PKG-INFO").write_text("Name: pkg\n")
    (tmp_path / "setup.py").write_text("")
    git("add", ".gitignore", "setup.py")
    assert ignored_tracked_files(tmp_path) == []
    git("add", "--force", "pkg.egg-info/PKG-INFO")
    assert ignored_tracked_files(tmp_path) == ["pkg.egg-info/PKG-INFO"]


def test_size_violation_detection(tmp_path):
    big = tmp_path / "dump.json"
    big.write_bytes(b"x" * 2048)
    (tmp_path / "benchmarks").mkdir()
    exempt = tmp_path / "benchmarks" / "results.json"
    exempt.write_bytes(b"x" * 2048)
    paths = ["dump.json", "benchmarks/results.json", "missing.txt"]
    assert size_violations(paths, tmp_path, limit=1024) == [("dump.json", 2048)]
    assert size_violations(paths, tmp_path, limit=4096) == []


def test_gitignore_covers_compiled_python():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__/", ".pytest_cache/", ".hypothesis/"):
        assert pattern in gitignore
    assert "*.pyc" in gitignore or "*.py[cod]" in gitignore


def test_violation_detection():
    paths = [
        "src/repro/core/mdm.py",
        "src/repro/core/__pycache__/mdm.cpython-311.pyc",
        "notes.pyc",
        "README.md",
    ]
    assert hygiene_violations(paths) == [
        "notes.pyc",
        "src/repro/core/__pycache__/mdm.cpython-311.pyc",
    ]
