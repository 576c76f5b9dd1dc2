"""The metric catalog: one declaration per ``mdm_`` metric.

``repro.obs.metrics.METRICS`` holds each metric's kind, labels and help;
the registry takes them from there, refuses an ``mdm_`` name outside it
and any use that disagrees with its row.  DESIGN §7 mirrors the table,
and no call under ``src/`` repeats what the table says.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.obs import METRICS, MetricsRegistry, timed

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def test_a_catalogued_name_takes_its_row():
    registry = MetricsRegistry()
    for spec in METRICS.values():
        metric = getattr(registry, spec.kind)(spec.name)
        assert (metric.name, metric.type_name, metric.labelnames, metric.help_text) == spec
    assert registry.names() == list(METRICS)


def test_an_undeclared_mdm_name_raises():
    with pytest.raises(ValueError, match="not declared in METRICS"):
        MetricsRegistry().counter("mdm_undeclared_total", "Not in the catalog.")


def test_a_kind_mismatch_raises():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="is a counter, not a gauge"):
        registry.gauge("mdm_queries_total")
    with pytest.raises(ValueError, match="is a histogram, not a counter"):
        registry.counter("mdm_execute_seconds")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"help_text": "Findings."},
        {"labelnames": ("level",)},
        {"labelnames": ()},
    ],
)
def test_a_conflicting_help_or_label_set_raises(kwargs):
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="mdm_lint_findings_total"):
        registry.counter("mdm_lint_findings_total", **kwargs)
    assert registry.names() == []


def test_the_catalogued_help_and_labels_are_accepted():
    registry = MetricsRegistry()
    spec = METRICS["mdm_http_requests_total"]
    counter = registry.counter(spec.name, spec.help_text, labelnames=spec.labelnames)
    assert registry.counter(spec.name, "") is counter


def test_timed_takes_the_catalogued_help():
    registry = MetricsRegistry()

    @timed("mdm_scenario_step_seconds", registry=registry, step="s")
    def step():
        return None

    step()
    assert registry.get("mdm_scenario_step_seconds").help_text == (
        METRICS["mdm_scenario_step_seconds"].help_text
    )


def _source_files():
    """Every module under src/ except the catalog's own."""
    return [p for p in sorted(SRC.rglob("*.py")) if p != SRC / "obs" / "metrics.py"]


def _metric_calls():
    """``(path, line, name, extra args)`` of each metric call in src/
    whose name is written out; an f-string name comes back unparsed."""
    for path in _source_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called not in ("counter", "gauge", "histogram", "timed"):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant):
                name = first.value
            elif isinstance(first, ast.JoinedStr):
                name = ast.unparse(first)
            else:
                continue
            extra = node.args[1:] + [k for k in node.keywords if k.arg in ("help_text", "labelnames")]
            yield path.relative_to(ROOT), node.lineno, name, extra


def test_no_call_in_src_repeats_the_catalog():
    calls = list(_metric_calls())
    assert calls
    for path, line, name, extra in calls:
        assert name in METRICS or name.startswith("f'mdm_"), f"{path}:{line}: {name}"
        assert not extra, f"{path}:{line} passes help or labels for {name}"


def test_every_catalogued_metric_has_an_emitter():
    """A row whose metric nothing emits any more is a stale row; a cache
    family's series are emitted for each prefix a ``GenerationLRU`` is
    built with."""
    names = {name for _, _, name, _ in _metric_calls()}
    sources = "\n".join(path.read_text() for path in _source_files())
    family = re.compile(r"mdm_(\w+)_(?:hits_total|misses_total|evictions_total|size)")
    for name in METRICS:
        match = family.fullmatch(name)
        assert name in names or (match and f'"{match[1]}"' in sources), name


def _design_rows():
    design = (ROOT / "DESIGN.md").read_text()
    section = design.split("## 7. Metric catalog", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(mdm_\w+)` \| (\w+) \| ([^|]*) \| [^|]* \| ([^|]*) \|$", section, re.M)
    return [
        (name, kind, tuple(re.findall(r"`(\w+)`", labels)), help_text.strip())
        for name, kind, labels, help_text in rows
    ]


def test_design_section_7_lists_the_catalog():
    assert _design_rows() == [tuple(spec) for spec in METRICS.values()]
