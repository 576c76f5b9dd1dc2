"""The CI golden-diff gate, runnable as a plain test.

Mirrors ``scripts/impact_golden.py``: the analyzer's normalized JSON
reports for the two fixed scenarios must match the blessed files under
``tests/analysis/golden/``.  Re-bless with
``PYTHONPATH=src python scripts/impact_golden.py --update``.
"""

import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import impact_golden  # noqa: E402


@pytest.fixture(scope="module")
def reports():
    return impact_golden.compute_reports()


def test_goldens_exist():
    names = sorted(p.name for p in impact_golden.GOLDEN_DIR.glob("impact_*.json"))
    assert names == sorted(
        ["impact_broken_retire.json", "impact_football_v2.json"]
    )


@pytest.mark.parametrize(
    "name", ["impact_broken_retire.json", "impact_football_v2.json"]
)
def test_analyzer_output_matches_golden(name, reports):
    golden = json.loads((impact_golden.GOLDEN_DIR / name).read_text())
    assert reports[name] == golden, (
        f"analyzer output drifted from {name}; if intentional, re-bless "
        "with: PYTHONPATH=src python scripts/impact_golden.py --update"
    )


def test_goldens_are_normalized():
    # Volatile fields must not be baked into the blessed files.
    for path in impact_golden.GOLDEN_DIR.glob("impact_*.json"):
        assert "generation" not in json.loads(path.read_text())


def test_check_mode_passes_on_blessed_goldens(capsys):
    assert impact_golden.main([]) == 0
    out = capsys.readouterr().out
    assert "ok impact_broken_retire.json" in out
