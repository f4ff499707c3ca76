"""Behaviour oracle: a pinned digest of the Table-2 metric columns.

A fixed small evaluation (harness seed 7, two runs per question, the
calibrated error model on) is hashed over every Table-2 metric column
except the wall-time one, both per run and per Table-2 row group.  The
digest must be the same sequentially, across two worker processes and in
a fresh interpreter (unpinned ``PYTHONHASHSEED``), and it must equal the
pinned value: a change that alters what the system answers, how many
tokens it spends or how many redo attempts it needs moves the digest,
while a refactor that keeps behaviour leaves it untouched.

The questions are a named subset of the suite that still covers failed
runs (q05, q09, q13, q18, q20), unsatisfactory data (q03) and visuals
(q06), and the multi-simulation questions (q09, q12).

Run as a script to print the digest of one evaluation::

    PYTHONPATH=src python -m tests.test_behaviour_oracle <ensemble> <workdir> [workers]
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.eval import EvaluationHarness, HarnessConfig
from repro.eval.questions import QUESTION_SUITE
from repro.sim.ensemble import Ensemble

ORACLE_QIDS = ("q03", "q05", "q06", "q09", "q12", "q13", "q18", "q20")
ORACLE_SEED = 7
ORACLE_RUNS = 2
PINNED_DIGEST = "bcbc8e1e7f2dbc7284c91d38a8182283ff65c1e7d429024eb71554fe21f779c5"

# per-run columns behind Table 2 (time_s left out: it is a wall-clock
# measurement); every Table-2 row-group column except time_s
RUN_FIELDS = ("qid", "run_index", "completed", "tasks_fraction", "data_ok",
              "visual_ok", "tokens", "storage_bytes", "redo_iterations")
ROW_FIELDS = ("label", "count", "runs", "pct_satisfactory_data",
              "pct_satisfactory_visual", "pct_runs_completed", "pct_tasks_complete",
              "token_usage", "storage_overhead_gb", "redo_iterations")

REPO_ROOT = Path(__file__).resolve().parent.parent


def oracle_digest(ensemble_root: str | Path, workdir: str | Path, workers: int = 1) -> str:
    questions = tuple(q for q in QUESTION_SUITE if q.qid in ORACLE_QIDS)
    harness = EvaluationHarness(
        Ensemble(ensemble_root),
        workdir,
        HarnessConfig(runs_per_question=ORACLE_RUNS, seed=ORACLE_SEED, workers=workers),
    )
    result = harness.run_suite(questions=questions)
    payload = {
        "runs": [[getattr(m, f) for f in RUN_FIELDS] for m in result.metrics],
        "table2": [[getattr(row, f) for f in ROW_FIELDS]
                   for row in result.aggregator.table2_rows()],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class TestBehaviourOracle:
    def test_sequential_matches_pin(self, ensemble, tmp_path):
        assert oracle_digest(ensemble.root, tmp_path / "w1", workers=1) == PINNED_DIGEST

    def test_two_workers_match_pin(self, ensemble, tmp_path):
        assert oracle_digest(ensemble.root, tmp_path / "w2", workers=2) == PINNED_DIGEST

    def test_fresh_interpreter_matches_pin(self, ensemble, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tests.test_behaviour_oracle",
             str(ensemble.root), str(tmp_path / "fresh")],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip().splitlines()[-1] == PINNED_DIGEST


if __name__ == "__main__":
    workers = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    print(oracle_digest(sys.argv[1], sys.argv[2], workers))
