"""Query-result cache — cold vs warm redo loop.

Measures the query-result cache (``repro.db.cache``) and emits
``BENCH_query_cache.json`` so the perf trajectory is tracked across PRs.
The workload is a direct ``Database.query`` sequence shaped like the QA
redo loop (verbatim re-issues plus alias, conjunct-order and narrower
rewrites).  The cache keys on the exact parsed statement, so each
rewrite is its own entry and only verbatim re-issues hit in the cold
pass, which executes everything else against storage.  The warm pass is
served from the in-process cache.  Asserted invariants:

- every warm frame is byte-identical to an uncached oracle database's
  answer (columns, dtypes, and raw bytes);
- the warm pass is served entirely from the cache and is >= 3x faster
  than the cold pass.

Runs under pytest (``pytest benchmarks/bench_query_cache.py``) and as a
script (``python benchmarks/bench_query_cache.py --quick`` — the CI smoke
configuration: smaller table).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.db import Database
from repro.db import cache as query_cache
from repro.frame import Frame

# each entry is one redo attempt; later queries repeat or rewrite earlier
# ones the way the QA loop re-issues SQL after feedback.  Only verbatim
# re-issues share an entry; every rewrite is a distinct entry
REDO_LOOP = [
    "SELECT * FROM halos WHERE step = 624",
    "SELECT * FROM halos WHERE step = 624",                      # verbatim redo
    "SELECT h.mass FROM halos h WHERE h.step = 624",             # alias: own entry
    "SELECT mass, vel FROM halos WHERE step = 624 AND mass > 40",  # narrower: own entry
    "SELECT mass FROM halos WHERE mass > 40 AND step = 624",     # conjunct order: own entry
    "SELECT step, COUNT(*) AS n, AVG(mass) AS m FROM halos GROUP BY step",
    "SELECT step, COUNT(*) AS n, AVG(mass) AS m FROM halos GROUP BY step",
    "SELECT mass FROM halos WHERE step IN (498, 624) ORDER BY mass DESC LIMIT 100",
    "SELECT mass FROM halos WHERE step IN (624, 498) ORDER BY mass DESC LIMIT 100",
    "SELECT vel FROM halos WHERE step = 624 AND mass > 40 AND vel < 1.0",
]


def build_db(root: Path, rows: int, result_cache: bool = True) -> Database:
    rng = np.random.default_rng(42)
    steps = np.asarray([0, 124, 249, 374, 498, 624])
    frame = Frame(
        {
            "step": np.sort(rng.choice(steps, rows)).astype(np.int64),
            "mass": rng.lognormal(3, 1, rows),
            "vel": rng.normal(0, 1, rows),
            "count": rng.integers(1, 500, rows),
        }
    )
    db = Database(root / ("db" if result_cache else "oracle"), result_cache=result_cache)
    db.create_table("halos", frame, row_group_size=max(rows // 64, 256))
    return db


def run_loop(db: Database) -> tuple[float, list]:
    start = time.perf_counter()
    frames = [db.query(sql) for sql in REDO_LOOP]
    return time.perf_counter() - start, frames


def frames_byte_identical(a: Frame, b: Frame) -> bool:
    if list(a.columns) != list(b.columns) or a.num_rows != b.num_rows:
        return False
    return all(
        np.asarray(a.column(n)).dtype == np.asarray(b.column(n)).dtype
        and np.asarray(a.column(n)).tobytes() == np.asarray(b.column(n)).tobytes()
        for n in a.columns
    )


def bench_redo_loop(root: Path, rows: int) -> dict:
    query_cache.clear_memory_cache()
    db = build_db(root, rows)
    oracle = build_db(root, rows, result_cache=False)

    before = query_cache.stats_snapshot()
    cold_s, _ = run_loop(db)
    cold_stats = query_cache.stats_snapshot().delta(before)

    before = query_cache.stats_snapshot()
    warm_s, warm_frames = run_loop(db)
    warm_stats = query_cache.stats_snapshot().delta(before)

    _, oracle_frames = run_loop(oracle)
    for got, want in zip(warm_frames, oracle_frames):
        assert frames_byte_identical(got, want), "cached frame diverged from uncached"
    assert warm_stats.misses == 0 and warm_stats.hit_ratio == 1.0
    speedup = cold_s / warm_s
    assert speedup >= 3.0, f"warm redo loop only {speedup:.1f}x faster than cold"

    return {
        "rows": rows,
        "queries": len(REDO_LOOP),
        "cold_wall_s": round(cold_s, 4),
        "warm_memory_wall_s": round(warm_s, 4),
        "warm_speedup": round(speedup, 2),
        "cold_tiers": cold_stats.as_dict(),
        "warm_memory_tiers": warm_stats.as_dict(),
    }


def run(root: Path, output_dir: Path, quick: bool) -> dict:
    from conftest import emit_json

    rows = 40_000 if quick else 200_000
    payload = {
        "benchmark": "query_cache",
        "quick": quick,
        "redo_loop": bench_redo_loop(root / "redo", rows),
    }
    return emit_json(output_dir, "BENCH_query_cache.json", payload)


def test_query_cache(output_dir, tmp_path):
    run(tmp_path, output_dir, quick=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: small table")
    args = parser.parse_args(argv)
    output_dir = Path(__file__).resolve().parent / "output"
    output_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bench_qc_") as tmp:
        run(Path(tmp), output_dir, quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
