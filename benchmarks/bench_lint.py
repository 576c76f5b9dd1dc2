"""Cost of the static diagnostics: lint sweeps and per-query plan checks.

Lint is meant to run in CI on every merge and (as ``validate_plans``)
inside every ``MDM.execute`` call, so its cost matters twice: the
whole-system sweep must stay interactive on realistic metadata sizes,
and the per-plan schema check must be negligible next to rewriting and
fetching.  This bench times both on growing synthetic chains and on the
seeded-broken fixture (worst case: every rule fires and allocates
findings), and persists the numbers to ``benchmarks/BENCH_lint.json``.

Timings are *logged*, not asserted — wall-clock under CI load is not a
correctness property.  Finding counts are asserted.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import lint_mdm
from repro.analysis.lint import wrapper_catalog
from repro.analysis.plan_checker import check_plan
from repro.scenarios.broken import EXPECTED_CODES, broken_mdm
from repro.scenarios.synthetic import SYN, chain_mdm

BENCH_LINT_PATH = Path(__file__).resolve().parent / "BENCH_lint.json"


def _timed(fn, repeat=5):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_bench_lint_sweep_and_plan_check():
    results = {"sweep": [], "plan_check": []}

    for n_concepts in (2, 4, 8, 12):
        mdm, concepts, _, _ = chain_mdm(n_concepts, rows_per_concept=2)
        report, sweep_s = _timed(lambda m=mdm: lint_mdm(m))
        assert report.ok, report.render_text()

        nodes = list(concepts) + [SYN[f"val{i}"] for i in range(n_concepts)]
        rewrite = mdm.rewriter.rewrite(mdm.walk_from_nodes(nodes))
        catalog = wrapper_catalog(mdm)
        (findings, schema), check_s = _timed(
            lambda r=rewrite, c=catalog: check_plan(r.plan, c)
        )
        assert schema is not None and not findings

        results["sweep"].append({"concepts": n_concepts, "seconds": sweep_s})
        results["plan_check"].append(
            {
                "concepts": n_concepts,
                "plan_operators": sum(1 for _ in rewrite.plan.nodes()),
                "seconds": check_s,
            }
        )

    broken_report, broken_s = _timed(lambda: lint_mdm(broken_mdm()))
    fired = {f.code for f in broken_report.findings}
    assert EXPECTED_CODES <= fired
    results["broken"] = {
        "seconds": broken_s,
        "findings": len(broken_report.findings),
        "distinct_codes": len(fired),
    }

    BENCH_LINT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    emit(
        "Static diagnostics cost (best of 5)",
        "\n".join(
            [
                *(
                    f"lint sweep, {r['concepts']:>2} concepts: {r['seconds'] * 1e3:7.2f} ms"
                    for r in results["sweep"]
                ),
                *(
                    f"plan check, {r['concepts']:>2} concepts: {r['seconds'] * 1e3:7.2f} ms"
                    for r in results["plan_check"]
                ),
                f"broken fixture ({results['broken']['findings']} findings): "
                f"{results['broken']['seconds'] * 1e3:7.2f} ms",
            ]
        ),
    )
