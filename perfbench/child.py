"""One program process of the benchmark, optionally traced.

Two modes, each run as a fresh interpreter by ``run.py``:

``eval``
    Build an :class:`EvaluationHarness` over a generated ensemble and
    call ``run_suite`` once (the eval_grid workload's operation).  The
    result file holds set-up time (launch to ``run_suite`` entry),
    ``run_suite`` wall time, the Table-2 rows and cache counters.
    ``--setup-only`` stops at ``run_suite`` entry.

``cli``
    Run ``repro.cli.main`` with the remaining arguments (a one-shot
    ``query``, or ``serve`` until SIGINT drains it).  Untraced runs of
    the benchmark start ``python -m repro`` directly; this mode exists
    so the traced runs go through the same entry point with spans on.

With ``--trace-out`` the layer wrappers of :mod:`spans` are installed
after a timed ``import repro.cli``, and the per-thread layer tables are
written to that file when the process ends its work.

    python3 perfbench/child.py eval --ensemble E --workdir W --out R.json
    python3 perfbench/child.py --trace-out T.json cli query "..." --ensemble E
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

RUNS_PER_QUESTION = 2
HARNESS_SEED = 7  # the paper-protocol default of `repro eval`


def _cache_counters() -> dict[str, float]:
    from repro.db.cache import stats_snapshot as query_stats
    from repro.rag.cache import stats_snapshot as rag_stats

    rag = rag_stats()
    query = query_stats()
    return {
        "rag_memo_hits": rag.query_memo_hits,
        "rag_memo_misses": rag.query_memo_misses,
        "db_query_hits": query.hits,
        "db_query_requests": query.requests,
    }


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _write(path: str, doc: dict) -> None:
    tmp = Path(path + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    tmp.replace(path)


def run_eval(args, launched_at: float, startup_s: float) -> dict:
    from repro.eval import EvaluationHarness, HarnessConfig
    from repro.sim.ensemble import Ensemble

    harness = EvaluationHarness(
        Ensemble(args.ensemble),
        args.workdir,
        HarnessConfig(runs_per_question=RUNS_PER_QUESTION, seed=HARNESS_SEED, workers=1),
    )
    doc: dict = {"setup_s": time.monotonic() - launched_at, "startup_s": startup_s}
    if args.setup_only:
        return doc
    start = time.perf_counter()
    result = harness.run_suite()
    doc["wall_s"] = time.perf_counter() - start
    rows = [asdict(row) for row in result.aggregator.table2_rows()]
    for row in rows:
        del row["time_s"]
    doc["table2"] = rows
    doc["sessions"] = len(result.metrics)
    doc["session_walls"] = list(result.perf.per_run_wall_s)
    doc["completed"] = sum(1 for m in result.metrics if m.completed)
    doc["tokens"] = sum(m.tokens for m in result.metrics)
    return doc


def main(argv: list[str] | None = None) -> int:
    entered_at = launched_at = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--launched-at", type=float, default=None,
                        help="parent's time.monotonic() just before the launch")
    parser.add_argument("--trace-out", default=None)
    sub = parser.add_subparsers(dest="mode", required=True)
    ev = sub.add_parser("eval")
    ev.add_argument("--ensemble", required=True)
    ev.add_argument("--workdir", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--setup-only", action="store_true")
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.launched_at is not None:
        launched_at = args.launched_at

    start = time.perf_counter()
    import repro.cli

    startup_s = time.perf_counter() - start
    tracer = None
    if args.trace_out:
        import spans  # this file's directory is sys.path[0]

        tracer = spans.LayerTracer()
        spans.install(tracer)
    before = _cache_counters()
    if args.mode == "eval":
        _write(args.out, run_eval(args, launched_at, startup_s))
        rc = 0
    else:
        rc = repro.cli.main(args.argv)
    if tracer is not None:
        tracer.uninstall()
        _write(args.trace_out, {
            # monotonic clock stamps, comparable with the parent's: the
            # interpreter's own start-up and teardown lie outside them
            "entered_at": entered_at,
            "returned_at": time.monotonic(),
            "startup_s": startup_s,
            "threads": tracer.tables(),
            "caches": _delta(_cache_counters(), before),
        })
    return rc


if __name__ == "__main__":
    sys.exit(main())
