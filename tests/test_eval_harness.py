"""Evaluation harness on a reduced protocol (full 200-run protocol lives in benchmarks)."""

import zlib
from dataclasses import fields

import pytest

from repro.eval import (
    EvaluationHarness,
    HarnessConfig,
    HarnessResult,
    MetricsAggregator,
    derive_seed,
    format_table1,
    format_table2,
)
from repro.eval.metrics import RunMetrics
from repro.eval.questions import QUESTION_SUITE, classify_suite
from repro.faults import NO_FAULTS
from repro.llm.errors import NO_ERRORS
from repro.rag.cache import clear_memory_cache


@pytest.fixture(scope="module")
def clean_result(ensemble, tmp_path_factory):
    harness = EvaluationHarness(
        ensemble,
        tmp_path_factory.mktemp("harness"),
        HarnessConfig(runs_per_question=1, error_model=NO_ERRORS),
    )
    return harness.run_suite()


class TestCleanProtocol:
    def test_all_questions_complete_without_error_injection(self, clean_result):
        incomplete = [m.qid for m in clean_result.metrics if not m.completed]
        assert incomplete == []

    def test_all_data_and_visuals_satisfactory(self, clean_result):
        bad = [m.qid for m in clean_result.metrics if not (m.data_ok and m.visual_ok)]
        assert bad == []

    def test_one_row_per_question(self, clean_result):
        assert len(clean_result.metrics) == 20

    def test_tokens_grow_with_analysis_difficulty(self, clean_result):
        rows = {r.label: r for r in clean_result.aggregator.table2_rows()}
        assert rows["Analysis Easy"].token_usage < rows["Analysis Hard"].token_usage

    def test_storage_overhead_tiny_fraction(self, clean_result, ensemble):
        total = clean_result.aggregator.bucket("Total", lambda r: True)
        # the paper's headline: provenance storage << dataset size (<0.35%
        # of terabytes; our ensemble is small so allow a loose bound)
        assert total.storage_overhead_gb * 1e9 < ensemble.total_data_bytes() * 2

    def test_multi_step_questions_store_more(self, clean_result):
        rows = {r.label: r for r in clean_result.aggregator.table2_rows()}
        multi = rows["Multi sim / Multi step"].storage_overhead_gb
        single = rows["Single sim / Single step"].storage_overhead_gb
        assert multi > single


class TestInjectedProtocol:
    def test_failure_shapes(self, ensemble, tmp_path):
        harness = EvaluationHarness(
            ensemble, tmp_path / "h", HarnessConfig(runs_per_question=2, seed=3)
        )
        result = harness.run_suite()
        rows = {r.label: r for r in result.aggregator.table2_rows()}
        total = rows["Total"]
        # the Table 2 orderings that must hold under error injection
        assert total.pct_runs_completed < 100
        assert rows["Semantic Hard"].redo_iterations >= rows["Semantic Easy"].redo_iterations
        assert rows["Semantic Hard"].token_usage > rows["Semantic Easy"].token_usage
        unsuccessful = rows["Unsuccessful runs"]
        if unsuccessful.runs:
            assert unsuccessful.redo_iterations > rows["Successful runs"].redo_iterations
            assert 0 < unsuccessful.pct_tasks_complete < 100


class TestSeedDerivation:
    def test_pinned_seed_values(self):
        """Regression: seeds must be stable across interpreter invocations.

        The old ``hash(qid) % 997`` used Python's salted string hash, so
        every interpreter (and every pool worker) drew different error
        sequences.  These literals pin the CRC32-based derivation.
        """
        assert derive_seed(7, "q01", 0) == 7 + 777
        assert derive_seed(7, "q02", 0) == 7 + 842
        assert derive_seed(7, "q03", 2) == 7 + 2000 + 478

    def test_matches_crc32_formula(self):
        for qid in ("q01", "q17", "weird-qid"):
            expected = 11 + 3000 + zlib.crc32(qid.encode()) % 997
            assert derive_seed(11, qid, 3) == expected

    def test_distinct_across_runs_and_questions(self):
        seeds = {derive_seed(7, q.qid, ri) for q in QUESTION_SUITE for ri in range(3)}
        assert len(seeds) == len(QUESTION_SUITE) * 3


DETERMINISTIC_FIELDS = [f.name for f in fields(RunMetrics) if f.name != "time_s"]


def _deterministic_rows(result):
    return [tuple(getattr(m, n) for n in DETERMINISTIC_FIELDS) for m in result.metrics]


class TestParallelParity:
    def test_parallel_rows_identical_to_sequential(self, ensemble, tmp_path):
        """workers=2 must reproduce the sequential RunMetrics bit-for-bit
        on every deterministic field, in the same canonical order
        (``time_s`` is a wall-clock measurement, not a derived output)."""
        questions = QUESTION_SUITE[:3]
        sequential = EvaluationHarness(
            ensemble, tmp_path / "seq", HarnessConfig(runs_per_question=2, seed=3)
        ).run_suite(questions=questions)
        parallel = EvaluationHarness(
            ensemble, tmp_path / "par", HarnessConfig(runs_per_question=2, seed=3, workers=2)
        ).run_suite(questions=questions)
        assert _deterministic_rows(parallel) == _deterministic_rows(sequential)
        assert [(m.qid, m.run_index) for m in parallel.metrics] == [
            (q.qid, ri) for q in questions for ri in range(2)
        ]
        assert parallel.perf.workers == 2
        assert sequential.perf.workers == 1

    def test_workers_argument_overrides_config(self, ensemble, tmp_path):
        harness = EvaluationHarness(
            ensemble, tmp_path / "h", HarnessConfig(runs_per_question=1, workers=2)
        )
        result = harness.run_suite(questions=QUESTION_SUITE[:1], workers=1)
        assert result.perf.workers == 1

    def test_auto_workers_resolves_to_cpu_count(self, ensemble, tmp_path):
        import os

        harness = EvaluationHarness(
            ensemble, tmp_path / "h", HarnessConfig(workers=0)
        )
        assert harness.resolve_workers() == (os.cpu_count() or 1)


class TestRetrievalCacheSharing:
    def test_warm_cache_eliminates_rebuilds(self, ensemble, tmp_path):
        """Cold: exactly one corpus build; warm: hits only, zero builds."""
        clear_memory_cache()
        # counter-exact assertions below: pin fault injection off so an
        # ambient REPRO_FAULT_PROFILE (the chaos-smoke CI job) cannot turn
        # cache hits into quarantine-and-recompute misses
        harness = EvaluationHarness(
            ensemble,
            tmp_path / "h",
            HarnessConfig(runs_per_question=1, error_model=NO_ERRORS,
                          fault_profile=NO_FAULTS),
        )
        cold = harness.run_suite(questions=QUESTION_SUITE[:2])
        assert cold.perf.cache.builds == 1
        assert cold.perf.cache.matrix_hits == 1  # second run reuses the matrix

        warm = harness.run_suite(questions=QUESTION_SUITE[:2])
        assert warm.perf.cache.builds == 0
        assert warm.perf.cache.matrix_hits == 2
        # repeated prompts within runs hit the query-embedding memo
        assert cold.perf.cache.query_memo_hits > 0

    def test_per_run_instrumentation(self, ensemble, tmp_path):
        harness = EvaluationHarness(
            ensemble,
            tmp_path / "h",
            HarnessConfig(runs_per_question=2, error_model=NO_ERRORS),
        )
        result = harness.run_suite(questions=QUESTION_SUITE[:1])
        perf = result.perf
        assert len(perf.per_run_wall_s) == 2
        assert all(w > 0 for w in perf.per_run_wall_s)
        assert perf.runs_per_s > 0
        assert perf.total_wall_s >= max(perf.per_run_wall_s)


def _rows_modulo_storage(result):
    """Rows on every deterministic field except storage_bytes: a re-run
    over the same workdir reuses session dirs, so provenance trails
    accumulate bytes without the computed answers differing."""
    names = [n for n in DETERMINISTIC_FIELDS if n != "storage_bytes"]
    return [tuple(getattr(m, n) for n in names) for m in result.metrics]


class TestQueryCacheSharing:
    def test_warm_suite_served_from_cache(self, ensemble, tmp_path):
        """Second suite over the same workdir re-executes nothing: every
        SELECT is served from the shared on-disk result cache."""
        # counter-exact assertions below: pin fault injection off so an
        # ambient REPRO_FAULT_PROFILE (the chaos-smoke CI job) cannot turn
        # cache hits into quarantine-and-recompute misses
        harness = EvaluationHarness(
            ensemble,
            tmp_path / "h",
            HarnessConfig(runs_per_question=1, error_model=NO_ERRORS,
                          fault_profile=NO_FAULTS),
        )
        cold = harness.run_suite(questions=QUESTION_SUITE[:2])
        cold_qc = cold.perf.query_cache
        assert cold_qc.misses > 0 and cold_qc.stores > 0

        warm = harness.run_suite(questions=QUESTION_SUITE[:2])
        warm_qc = warm.perf.query_cache
        assert warm_qc.misses == 0
        assert warm_qc.hits == warm_qc.requests == cold_qc.requests
        assert warm_qc.hit_ratio == 1.0
        assert _rows_modulo_storage(warm) == _rows_modulo_storage(cold)

    def test_counters_visible_in_perf_dict(self, ensemble, tmp_path):
        harness = EvaluationHarness(
            ensemble,
            tmp_path / "h",
            HarnessConfig(runs_per_question=1, error_model=NO_ERRORS),
        )
        result = harness.run_suite(questions=QUESTION_SUITE[:1])
        doc = result.perf.as_dict()
        assert "query_cache" in doc
        assert {"memory_hits", "disk_hits", "misses",
                "stores", "evictions", "invalidations"} <= set(doc["query_cache"])

    def test_parallel_workers_share_disk_cache_without_corruption(
        self, ensemble, tmp_path
    ):
        """4 workers hammering one .query_cache directory must produce
        the same rows as a sequential run, cold and warm."""
        questions = QUESTION_SUITE[:2]
        seq = EvaluationHarness(
            ensemble,
            tmp_path / "seq",
            HarnessConfig(runs_per_question=2, error_model=NO_ERRORS),
        ).run_suite(questions=questions)
        par_harness = EvaluationHarness(
            ensemble,
            tmp_path / "par",
            HarnessConfig(runs_per_question=2, workers=4, error_model=NO_ERRORS),
        )
        par_cold = par_harness.run_suite(questions=questions)
        par_warm = par_harness.run_suite(questions=questions)
        assert _deterministic_rows(par_cold) == _deterministic_rows(seq)
        assert _rows_modulo_storage(par_warm) == _rows_modulo_storage(seq)
        assert par_warm.perf.query_cache.hits > 0


class TestRangesGuard:
    def test_empty_result_yields_zero_ranges(self):
        result = HarnessResult(aggregator=MetricsAggregator(), metrics=[])
        assert result.ranges() == {
            "tokens": (0.0, 0.0),
            "time_s": (0.0, 0.0),
            "storage_bytes": (0.0, 0.0),
        }

    def test_empty_question_bucket_skipped(self):
        """A qid whose runs were all filtered out must not divide by zero."""
        row = RunMetrics(
            qid="q01", run_index=0, completed=True, tasks_fraction=1.0,
            data_ok=True, visual_ok=True, tokens=100, storage_bytes=10,
            time_s=1.0, redo_iterations=0, plan_steps=3, semantic_level=0,
            analysis_level=0, multi_run=False, multi_step=False,
        )
        result = HarnessResult(aggregator=MetricsAggregator(), metrics=[row])
        # forge the degenerate shape directly: one populated, one empty bucket
        per_question = {"q01": [row], "q02": []}
        averages = [
            sum(m.tokens for m in runs) / len(runs)
            for runs in per_question.values()
            if runs
        ]
        assert averages == [100.0]
        assert result.ranges()["tokens"] == (100.0, 100.0)


class TestReporting:
    def test_table1_renders(self):
        text = format_table1(list(QUESTION_SUITE), classify_suite())
        assert "n/a" in text            # the empty Table 1 cells
        assert "q07" in text

    def test_table2_renders(self, clean_result):
        text = format_table2(clean_result.aggregator.table2_rows())
        assert "Total" in text
        assert "Successful runs" in text
