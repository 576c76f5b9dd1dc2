"""Self-test of the benchmark at smoke size (a few seconds).

Run from the repository root::

    PYTHONPATH=src python -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, oracles
from bench import run as bench_run
from bench.trace import summarize
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers each workload must reach (the prediction table in the README).
USES = {
    "paper_omq": {
        "rewrite_cache", "optimizer.stage_b", "validate", "fetch", "source",
        "decode", "execute", "finalize", "lock.read", "docstore.insert",
    },
    "scaled_join": {
        "rewrite_cache", "optimizer.stage_b", "validate", "fetch", "source",
        "decode", "execute", "finalize", "lock.read", "docstore.insert",
    },
    "governance": {
        "rewrite", "rewrite_cache", "optimizer.stage_a", "optimizer.stage_b",
        "validate", "fetch", "source", "decode", "execute", "finalize",
        "lock.read", "lock.write", "impact", "impact.shadow", "revalidate",
        "docstore.insert",
    },
    "service_mixed": {
        "http.dispatch", "rewrite", "rewrite_cache", "result_cache",
        "wrapper_cache", "optimizer.stage_a", "optimizer.stage_b", "validate",
        "fetch", "source", "decode", "execute", "finalize", "lock.read",
        "lock.write", "docstore.insert",
    },
}


def _run(capsys, *argv):
    code = bench_run.main(["--smoke", "--seconds", "0", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.fixture(scope="module")
def traced():
    """Every workload once, traced: (result, recorder) by workload."""
    return {
        name: bench_run.run_workload(workload, 3, 0, True, "smoke")
        for name, workload in WORKLOADS.items()
    }


def test_benchmark_json_lists_what_the_harness_emits():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench_run.PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, tmp_path, trace):
    out = tmp_path / "result.json"
    code, summary, lines = _run(capsys, "--trace", str(trace), "--out", str(out))
    assert code == 0
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= len(WORKLOADS)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        for metric in listed:
            emitted = summary["metrics"][f"{workload}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)
    shown = len(listed) if trace else len(listed) + len(bench_run.UNBOUNDED)
    assert len(lines) == len(WORKLOADS) * shown
    artifact = json.loads(out.read_text())
    for result in artifact["workloads"].values():
        assert result["failed"] == 0
        assert result["samples"] > 0


def test_artifact_key_sets_do_not_depend_on_the_seed(capsys, tmp_path):
    def keys(value, prefix=""):
        if isinstance(value, dict):
            return {k for key, v in value.items() for k in keys(v, f"{prefix}/{key}")} | {prefix}
        return {prefix}

    shapes = []
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}.json"
        code, _, _ = _run(
            capsys, "--workload", "paper_omq", "--trace", "--seed", str(seed), "--out", str(out)
        )
        assert code == 0
        shapes.append(keys(json.loads(out.read_text())))
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize("workload", sorted(USES))
def test_every_layer_the_workload_uses_fired(traced, workload):
    result, recorder = traced[workload]
    assert result["failed"] == 0
    calls = summarize(recorder.spans).calls
    missing = sorted(layer for layer in USES[workload] if calls[layer] == 0)
    assert missing == []


@pytest.mark.parametrize("workload", sorted(USES))
def test_self_times_add_up_to_the_operation(traced, workload):
    layers = traced[workload][0]["per_layer"]
    attributed = (
        sum(layers[name] for name in bench_run.SELF_TIMES)
        + layers["unattributed_ms"]
        + layers["http.queue_ms"]
    )
    assert attributed == pytest.approx(layers["op_ms"], rel=0.01)


def test_result_cache_ratio_matches_the_responses(traced):
    # The service pass fails when the server's count of result-cache hits
    # differs from the "result_cache" fields the clients received.
    result, _ = traced["service_mixed"]
    assert result["failed"] == 0
    assert 0 < result["per_layer"]["result_cache.hit_ratio"] < 1


def test_a_wrong_answer_fails_the_run(capsys, monkeypatch):
    real = oracles.league_nationality

    def wrong(data):
        columns, rows = real(data)
        return columns, rows | {("Nobody",)}

    monkeypatch.setattr(oracles, "league_nationality", wrong)
    code, summary, _ = _run(capsys, "--workload", "paper_omq")
    assert code == 1
    assert summary["correct"] is False and summary["failed"] > 0


def test_without_the_program_source_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_omq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10, 10.1, 9.9, 10, 10.2], [12, 12.1, 11.9, 12, 12.2], "lower", "regressed"),
        ([10, 10.1, 9.9, 10, 10.2], [9, 9.1, 8.9, 9, 9.2], "lower", "improved"),
        ([10, 10.1, 9.9, 10, 10.2], [10.1, 10, 9.9, 10.2, 10], "lower", "same"),
        ([10, 14, 8, 13, 9], [10, 12, 9, 11, 10], "lower", "unresolved"),
        ([10, 14, 8, 13, 9], [4, 4.5, 4, 4.5, 4], "lower", "improved"),
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "regressed"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)["verdict"] == expected
