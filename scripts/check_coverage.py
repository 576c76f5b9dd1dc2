#!/usr/bin/env python3
"""Coverage gate for the most failure-prone modules (CI ``coverage`` job).

The failpoint registry, the readers-writer lock, the LRU behind every
generation-keyed cache, the LAV rewriter, the rewrite cache and its
rewriter-inputs and expansions maps, the result cache, the MDM facade
that runs every query and mutation, the query log it writes, the
execution configuration, the operators' schema rules and structure,
the plan checker that applies them, the optimizer and executor that
rewrite and run every plan, the wrappers and wrapper cache that answer
its pushed Scans, the mock REST server, payload decoding and typed
relations beneath them, the saved-query registry and impact analyzer
that replay the saved queries, the document store that keeps the
releases, saved queries and query log, the metrics registry and the
catalog every metric is declared in, the RDF terms, namespaces,
graphs, datasets and compiled LAV views every governance step reads
through, the walks every query starts from, and the service API and
the HTTP server's handler pool in front of it are the pieces whose
untested branches bite hardest — a silent hole in any shows up as a flaky
production incident, a wrongly rejected plan or a wrong answer, not a
failing assertion.  This gate reads a ``coverage.json`` report
(``pytest --cov=repro --cov-report=json:coverage.json``) and fails
unless every measured file under ``src/repro/chaos/`` and each of
:data:`GATED_FILES` has line coverage of at least 90%.

Usage:
    python scripts/check_coverage.py coverage.json

Exits 0 when every gated file clears the threshold, 1 with a per-file
listing otherwise (including gated files missing from the report —
"never imported" must not pass the gate).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

THRESHOLD = 90.0

#: Path fragments (as they appear in coverage.json keys) under the gate.
#: Kept prefix-free of ``src/`` — the keys vary with how pytest was
#: invoked (``src/repro/…`` vs ``repro/…``).
GATED_PREFIXES = ("repro/chaos/",)
GATED_FILES = (
    "repro/analysis/impact.py",
    "repro/analysis/plan_checker.py",
    "repro/core/config.py",
    "repro/core/lav.py",
    "repro/core/locking.py",
    "repro/core/lru.py",
    "repro/core/mdm.py",
    "repro/core/registry.py",
    "repro/core/result_cache.py",
    "repro/core/rewrite_cache.py",
    "repro/core/rewriting.py",
    "repro/core/walks.py",
    "repro/core/wrapper_cache.py",
    "repro/docstore/store.py",
    "repro/obs/metrics.py",
    "repro/obs/querylog.py",
    "repro/rdf/dataset.py",
    "repro/rdf/graph.py",
    "repro/rdf/namespaces.py",
    "repro/rdf/terms.py",
    "repro/relational/algebra.py",
    "repro/relational/executor.py",
    "repro/relational/optimizer.py",
    "repro/relational/relation.py",
    "repro/service/api.py",
    "repro/service/server.py",
    "repro/sources/formats.py",
    "repro/sources/restapi.py",
    "repro/sources/wrappers.py",
)


def normalize(path: str) -> str:
    return path.replace("\\", "/")


def is_gated(path: str) -> bool:
    path = normalize(path)
    return path.endswith(GATED_FILES) or any(
        prefix in path for prefix in GATED_PREFIXES
    )


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    report_path = Path(argv[1])
    if not report_path.exists():
        print(f"coverage report not found: {report_path}")
        return 1
    report = json.loads(report_path.read_text())
    files = report.get("files", {})

    rows = []
    seen_chaos = False
    seen_files = set()
    for path, data in sorted(files.items()):
        if not is_gated(path):
            continue
        norm = normalize(path)
        seen_chaos = seen_chaos or any(p in norm for p in GATED_PREFIXES)
        seen_files.update(f for f in GATED_FILES if norm.endswith(f))
        percent = float(data["summary"]["percent_covered"])
        rows.append((path, percent))

    failed = False
    for path, percent in rows:
        verdict = "ok" if percent >= THRESHOLD else "FAIL"
        if percent < THRESHOLD:
            failed = True
        print(f"{verdict:4s}  {percent:6.2f}%  {path}")

    if not seen_chaos:
        print("FAIL  src/repro/chaos/ is absent from the coverage report")
        failed = True
    for gated in GATED_FILES:
        if gated not in seen_files:
            print(f"FAIL  src/{gated} is absent from the coverage report")
            failed = True

    if failed:
        print(f"\ncoverage gate: at least one gated file below {THRESHOLD:.0f}%")
        return 1
    print(f"\ncoverage gate: all {len(rows)} gated files >= {THRESHOLD:.0f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
