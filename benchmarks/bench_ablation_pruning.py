"""Infrastructure ablation — zone-map row-group pruning in the SQL engine.

Not a paper table (the paper delegates this to DuckDB), but the property
it buys is the paper's core storage claim: selective queries over the
analysis database touch only the row groups that can match.  The data
loader appends one (run, timestep) slice at a time, so zone maps on
``run``/``step`` are naturally tight and single-timestep queries — the
paper's most common SQL shape — skip almost everything.
"""

import time

import numpy as np

from conftest import emit
from repro.db import Database
from repro.frame import Frame


def test_ablation_zone_map_pruning(benchmark, output_dir, tmp_path):
    # a loader-shaped table: 24 (run, step) slices appended in order
    rng = np.random.default_rng(5)
    # result cache off: a cache hit serves the frame without scanning,
    # which would leave no scan stats to measure
    db = Database(tmp_path / "zdb", result_cache=False)
    rows_per_slice = 5000
    for run in range(4):
        for step in (0, 124, 249, 374, 498, 624):
            frame = Frame(
                {
                    "run": np.full(rows_per_slice, run, dtype=np.int64),
                    "step": np.full(rows_per_slice, step, dtype=np.int64),
                    "mass": rng.lognormal(29, 1, rows_per_slice),
                }
            )
            if db.has_table("halos"):
                db.append("halos", frame)
            else:
                db.create_table("halos", frame, row_group_size=2048)

    query = "SELECT mass FROM halos WHERE run = 0 AND step = 624 ORDER BY mass DESC LIMIT 10"

    def run_query():
        return db.query(query)

    result = benchmark.pedantic(run_query, rounds=3, iterations=1)
    assert result.num_rows == 10
    stats = db.last_scan_stats
    assert stats.row_groups_total > 20
    assert stats.skip_fraction > 0.9  # 23 of 24 slices skipped

    t0 = time.perf_counter()
    db.query(query)
    pruned_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    db.query("SELECT mass FROM halos ORDER BY mass DESC LIMIT 10")  # unprunable
    full_s = time.perf_counter() - t0

    lines = [
        "zone-map pruning on a loader-shaped table "
        f"({stats.row_groups_total} row groups, {rows_per_slice * 24:,} rows)",
        "",
        f"row groups skipped : {stats.row_groups_skipped}/{stats.row_groups_total} "
        f"({stats.skip_fraction:.0%})",
        f"selective query    : {pruned_s * 1e3:.1f} ms",
        f"full-scan query    : {full_s * 1e3:.1f} ms",
        f"speedup            : {full_s / max(pruned_s, 1e-9):.1f}x",
    ]
    emit(output_dir, "ablation_pruning.txt", "\n".join(lines))
