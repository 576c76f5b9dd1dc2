#!/usr/bin/env python3
"""Fail if compiled-Python artifacts, ignored or oversized files are tracked.

``__pycache__`` directories and ``.pyc`` files snuck into one commit
already; this check keeps them from coming back.  It also rejects
tracked files that ``.gitignore`` ignores (a stale
``src/repro.egg-info/`` was tracked that way), and tracked files larger
than 1 MB outside ``benchmarks/`` — generated result dumps belong there
or nowhere.  Run directly::

    python scripts/check_repo_hygiene.py

or through the pytest collection gate in ``tests/test_repo_hygiene.py``.
Exits 0 when clean, 1 with an offending-path listing otherwise.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tracked-path fragments that must never appear in the index.
FORBIDDEN_FRAGMENTS = ("__pycache__/",)
FORBIDDEN_SUFFIXES = (".pyc", ".pyo")

#: Largest tracked file allowed outside the size-exempt directories.
MAX_FILE_BYTES = 1_000_000
SIZE_EXEMPT_PREFIXES = ("benchmarks/",)


def _ls_files(repo_root: Path, *options: str) -> list:
    """``git ls-files`` paths (empty list when git is unavailable)."""
    try:
        completed = subprocess.run(
            ["git", "ls-files", "-z", *options],
            cwd=repo_root,
            capture_output=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return []
    raw = completed.stdout.decode("utf-8", errors="replace")
    return [p for p in raw.split("\0") if p]


def tracked_files(repo_root: Path = REPO_ROOT) -> list:
    """All paths in the git index (empty list when git is unavailable)."""
    return _ls_files(repo_root)


def ignored_tracked_files(repo_root: Path = REPO_ROOT) -> list:
    """Paths in the git index that the standard ignore rules exclude."""
    return _ls_files(repo_root, "--cached", "--ignored", "--exclude-standard")


def hygiene_violations(paths) -> list:
    """The subset of ``paths`` that violates the path-pattern rules.

    A path violates when it sits inside a ``__pycache__`` directory or
    carries a compiled-Python suffix.  Pure path matching — no
    filesystem access — so it also works on synthetic path lists.
    """
    violations = []
    for path in paths:
        if any(fragment in path for fragment in FORBIDDEN_FRAGMENTS) or path.endswith(
            FORBIDDEN_SUFFIXES
        ):
            violations.append(path)
    return sorted(violations)


def size_violations(
    paths,
    repo_root: Path = REPO_ROOT,
    limit: int = MAX_FILE_BYTES,
) -> list:
    """Tracked files over ``limit`` bytes outside the exempt prefixes.

    Returns ``(path, size)`` pairs sorted by path.  Paths missing from
    the working tree (e.g. staged deletions) are skipped.
    """
    violations = []
    for path in paths:
        if path.startswith(SIZE_EXEMPT_PREFIXES):
            continue
        file = repo_root / path
        try:
            size = file.stat().st_size
        except OSError:
            continue
        if size > limit:
            violations.append((path, size))
    return sorted(violations)


def main() -> int:
    paths = tracked_files()
    offenders = hygiene_violations(paths)
    ignored = ignored_tracked_files()
    oversized = size_violations(paths)
    if offenders:
        print("tracked compiled-Python artifacts (git rm --cached them):")
        for path in offenders:
            print(f"  {path}")
    if ignored:
        print("tracked files that .gitignore ignores (git rm --cached them):")
        for path in ignored:
            print(f"  {path}")
    if oversized:
        print(
            f"tracked files over {MAX_FILE_BYTES} bytes outside "
            f"{', '.join(SIZE_EXEMPT_PREFIXES)}:"
        )
        for path, size in oversized:
            print(f"  {path} ({size} bytes)")
    if offenders or ignored or oversized:
        return 1
    print(
        "repo hygiene: clean (no tracked __pycache__/.pyc, ignored or "
        "oversized files)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
