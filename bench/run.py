"""Run the benchmark: every workload, every metric, every answer checked.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE] [--trace-out FILE]
    PYTHONPATH=src python -m bench run ...      # the same

A run makes one warm-up pass of its workload (see
:mod:`bench.workloads`), then repeats passes until ``--seconds`` would
be exceeded, with at least three.  Without tracing it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics, whose self times come
from :mod:`bench.trace`.  Every metric is printed as ``workload metric
value unit``; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any answer was wrong or any operation failed, and 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: CPU time, in seconds, of ``bench.workloads.reference_s`` on the
#: machine the bounds in BENCHMARK.json were set on: 2 shared vCPUs whose
#: speed drifted by up to 40% between minutes, which moved raw times of
#: the same commit by 20-50% from run to run.  Every time reported is
#: scaled to that speed: multiplied by REFERENCE_S over the reference
#: time measured next to it (before each operation).  The raw times are
#: kept in the ``--out`` artifact.
REFERENCE_S = 0.00045

#: name → unit of every end-to-end metric (measured with tracing off).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_ops": "ops/s",
    "peak_rss_mb": "MB",
}

#: name → unit of end-to-end numbers that are reported but carry no
#: bound: the 95th percentile moved by 10-25% between runs even when
#: scaled, and the raw times are there to check the scaling against.
UNBOUNDED = {
    "latency_p95_ms": "ms",
    "reference_ms": "ms",
    "raw_setup_s": "s",
    "raw_latency_p50_ms": "ms",
    "raw_latency_p95_ms": "ms",
    "raw_throughput_ops": "ops/s",
}

#: Per-layer self times: metric name → span layer (see bench.trace.LAYERS).
SELF_TIMES = {
    "rewrite.self_ms": "rewrite",
    "rewrite_cache.self_ms": "rewrite_cache",
    "result_cache.self_ms": "result_cache",
    "wrapper_cache.self_ms": "wrapper_cache",
    "optimizer.stage_a.self_ms": "optimizer.stage_a",
    "optimizer.stage_b.self_ms": "optimizer.stage_b",
    "validate.self_ms": "validate",
    "fetch.self_ms": "fetch",
    "source.self_ms": "source",
    "decode.self_ms": "decode",
    "execute.self_ms": "execute",
    "finalize.self_ms": "finalize",
    "lock.read_wait_ms": "lock.read",
    "lock.write_wait_ms": "lock.write",
    "impact.self_ms": "impact",
    "impact.shadow.self_ms": "impact.shadow",
    "revalidate.self_ms": "revalidate",
    "docstore.insert.self_ms": "docstore.insert",
}

#: name → unit of every per-layer metric (from traced passes).
PER_LAYER = {
    "op_ms": "ms",
    "unattributed_ms": "ms",
    **{name: "ms" for name in SELF_TIMES},
    "rewrite.calls": "count",
    "optimizer.stage_a.calls": "count",
    "optimizer.stage_b.calls": "count",
    "rewrite_cache.hit_ratio": "ratio",
    "result_cache.hit_ratio": "ratio",
    "wrapper_cache.hit_ratio": "ratio",
    "fetch.wall_ms": "ms",
    "fetch.attempts": "count",
    "fetch.failures": "count",
    "pushdown.transfer_ratio": "ratio",
    "execute.rows_ratio": "ratio",
    "docstore.queries_docs": "count",
    "http.dispatch_ms": "ms",
    "http.queue_ms": "ms",
    "trace_overhead_pct": "%",
}


def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pass_scale(result) -> float:
    return REFERENCE_S / statistics.median(result.references)


def _scaled_latencies(passes) -> List[float]:
    """Each latency scaled by the median reference time of the 7 around it."""
    scaled = []
    for result in passes:
        refs = result.references
        for i, latency in enumerate(result.latencies):
            nearby = refs[max(0, i - 3) : i + 4]
            scaled.append(latency * REFERENCE_S / statistics.median(nearby))
    return scaled


def end_to_end(passes) -> Dict[str, float]:
    """The end-to-end metrics of untraced passes, and the unbounded ones.

    Latencies are pooled over the passes, so the 95th percentile has
    enough samples beyond it; set-up and memory are medians over passes.
    Set-up is scaled by the reference time measured just before it.
    """
    scaled = _scaled_latencies(passes)
    raw = [s for p in passes for s in p.latencies]
    return {
        "setup_s": statistics.median(
            p.setup_s * REFERENCE_S / p.setup_reference for p in passes
        ),
        "latency_p50_ms": _percentile(scaled, 50) * 1000.0,
        "throughput_ops": len(raw) / sum(p.loop_s * _pass_scale(p) for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "latency_p95_ms": _percentile(scaled, 95) * 1000.0,
        "reference_ms": statistics.median(r for p in passes for r in p.references)
        * 1000.0,
        "raw_setup_s": statistics.median(p.setup_s for p in passes),
        "raw_latency_p50_ms": _percentile(raw, 50) * 1000.0,
        "raw_latency_p95_ms": _percentile(raw, 95) * 1000.0,
        "raw_throughput_ops": len(raw) / sum(p.loop_s for p in passes),
    }


def per_layer(recorder, traced, untraced) -> Dict[str, float]:
    """The per-layer metrics of traced passes, per operation.

    Times are scaled like the end-to-end ones, by the median reference
    time over the traced passes.
    """
    from bench.trace import summarize

    totals = summarize(recorder.spans)
    counts: Counter = recorder.counts
    ops = totals.ops
    latencies = [s for p in traced for s in p.latencies]
    # In-process the operation is the benchmark's root span; behind the
    # service it is the client's request, of which the server saw only
    # the dispatch: the rest is time on the wire and in the queue.
    dispatch_ms = totals.wall_ms["http.dispatch"] / ops
    op_ms = statistics.fmean(latencies) * 1000.0 if dispatch_ms else totals.op_ms / ops
    root = "http.dispatch" if dispatch_ms else "op"
    metrics = {
        "op_ms": op_ms,
        "unattributed_ms": totals.self_ms[root] / ops,
        **{name: totals.self_ms[layer] / ops for name, layer in SELF_TIMES.items()},
        "rewrite.calls": totals.calls["rewrite"] / ops,
        "optimizer.stage_a.calls": totals.calls["optimizer.stage_a"] / ops,
        "optimizer.stage_b.calls": totals.calls["optimizer.stage_b"] / ops,
        "fetch.wall_ms": totals.wall_ms["fetch"] / ops,
        "fetch.attempts": counts["fetch.attempts"] / ops,
        "fetch.failures": counts["fetch.failures"],
        "pushdown.transfer_ratio": _ratio(
            counts["rows_transferred"], counts["rows_source"]
        ),
        "execute.rows_ratio": _ratio(counts["rows_returned"], counts["rows_fetched"]),
        "docstore.queries_docs": traced[-1].queries_docs,
        "http.dispatch_ms": dispatch_ms,
        "http.queue_ms": op_ms - dispatch_ms if dispatch_ms else 0.0,
        "trace_overhead_pct": 100.0
        * (
            _percentile(_scaled_latencies(traced), 50)
            / _percentile(_scaled_latencies(untraced), 50)
            - 1.0
        ),
    }
    for cache in ("rewrite_cache", "result_cache", "wrapper_cache"):
        metrics[f"{cache}.hit_ratio"] = _ratio(
            counts[f"{cache}.hits"], counts[f"{cache}.lookups"]
        )
    scale = REFERENCE_S / statistics.median(r for p in traced for r in p.references)
    for name, unit in PER_LAYER.items():
        if unit == "ms":
            metrics[name] *= scale
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool, size: str):
    """Repeat passes until ``seconds`` would be exceeded; aggregate them.

    The first pass of a full-size run only warms the process up (imports,
    first-touch memory) and is not reported.
    """
    from bench.trace import Recorder

    recorder = Recorder() if trace else None
    untraced, traced = [], []
    # A traced round is two passes, so two rounds already set up 4 times.
    min_rounds = 1 if size == "smoke" else (2 if trace else 3)
    started = time.perf_counter()
    warmup = [workload.run_pass(seed, size, None)] if size != "smoke" else []
    while True:
        round_started = time.perf_counter()
        untraced.append(workload.run_pass(seed, size, None))
        if recorder is not None:
            traced.append(workload.run_pass(seed, size, recorder))
        elapsed = time.perf_counter() - started
        last = time.perf_counter() - round_started
        if len(untraced) >= min_rounds and elapsed + last > seconds:
            break
    passes = warmup + untraced + traced
    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "samples": sum(len(p.latencies) for p in untraced),
        "passes": len(untraced),
        "config": untraced[-1].config,
        "end_to_end": end_to_end(untraced),
    }
    if recorder is not None:
        result["traced_samples"] = sum(len(p.latencies) for p in traced)
        result["per_layer"] = per_layer(recorder, traced, untraced)
    return result, recorder


def _with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {
        name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("command", nargs="?", choices=["run"], default="run")
    parser.add_argument(
        "--workload",
        default="all",
        help="paper_omq, scaled_join, governance, service_mixed or all",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1]
    )
    parser.add_argument("--out", help="write the aggregated results as JSON here")
    parser.add_argument("--trace-out", help="write the traced spans as JSON lines here")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny passes, one round (self-test)"
    )
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]
    from bench.workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}")
    size = "smoke" if args.smoke else "full"

    reported = "per_layer" if args.trace else "end_to_end"
    artifact = {
        "seed": args.seed,
        "seconds": args.seconds,
        "size": size,
        "traced": bool(args.trace),
        "workloads": {},
    }
    recorders = []
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, recorder = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), size
        )
        measured = result["end_to_end"]
        result["end_to_end"] = _with_units(measured, END_TO_END)
        result["unbounded"] = _with_units(measured, UNBOUNDED)
        shown = [reported] if args.trace else ["end_to_end", "unbounded"]
        if recorder is not None:
            recorders.append(recorder)
            result["per_layer"] = _with_units(result["per_layer"], PER_LAYER)
        artifact["workloads"][name] = result
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for block in shown:
            for metric, value in result[block].items():
                print(f"{name:14} {metric:26} {value['value']:12.4f} {value['unit']}")
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in result[reported].items():
            summary["metrics"][prefix + metric] = value
    summary["correct"] = summary["failed"] == 0
    if args.out:
        Path(args.out).write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    if args.trace_out:
        merged = recorders[0]
        for other in recorders[1:]:
            merged.absorb(other.spans, other.counts)
        merged.write(args.trace_out)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    # Import the package, not the scripts' directory: bench/trace.py
    # must not shadow the standard library's trace module.
    sys.path[0] = str(ROOT)
    sys.exit(main())
