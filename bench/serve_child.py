"""The server process of the ``service_mixed`` workload.

Builds the generated football scenario for ``--seed`` and serves it
through :class:`repro.service.server.MdmHttpServer` with the settings
``repro-mdm serve`` starts with (its argument defaults).  Talks to the
benchmark over its standard streams:

- prints ``port <n>`` once the server accepts connections;
- on the line ``trace``, wraps the layers (:mod:`bench.trace`) and
  answers ``ok``; each request then becomes one traced operation;
- on the line ``stop`` (or end of input), stops the server and prints
  one JSON line: peak RSS, the configuration snapshot, the size of the
  query log, and when traced the spans and counts.

Run ``python bench/run.py --workload service_mixed`` rather than this.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# In place of the script's own directory, so that bench/trace.py cannot
# shadow the standard library's trace module.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from repro.cli import build_parser  # noqa: E402
from repro.scenarios.football import FootballScenario  # noqa: E402
from repro.service.api import MdmService  # noqa: E402
from repro.service.server import MdmHttpServer  # noqa: E402

from bench.trace import Recorder, install  # noqa: E402
from bench.workloads import config_snapshot, peak_rss_mb, queries_docs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    serve = build_parser().parse_args(["serve"])
    mdm = FootballScenario.build(seed=args.seed).mdm
    mdm.configure_execution(
        result_cache_size=serve.result_cache,
        wrapper_cache_size=serve.wrapper_cache,
    )
    server = MdmHttpServer(
        MdmService(mdm),
        host=serve.host,
        port=0,
        max_in_flight=serve.max_in_flight,
        retry_after_s=serve.retry_after,
    )
    recorder = None
    uninstall = None
    server.start()
    try:
        print(f"port {server.server_address[1]}", flush=True)
        for line in sys.stdin:
            if line.strip() == "trace" and recorder is None:
                recorder = Recorder()
                uninstall = install(recorder)
                print("ok", flush=True)
            elif line.strip() == "stop":
                break
    finally:
        server.stop()
        if uninstall is not None:
            uninstall()
    summary = {
        "peak_rss_mb": peak_rss_mb(),
        "config": config_snapshot(mdm),
        "queries_docs": queries_docs(mdm),
    }
    if recorder is not None:
        summary["spans"] = recorder.spans
        summary["counts"] = dict(recorder.counts)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
