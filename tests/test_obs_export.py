"""Trace exporters: JSONL, Chrome trace format (golden), rollups, trees."""

import json
import os
from pathlib import Path

import pytest

from repro.obs.export import (
    canonical_tree,
    chrome_trace_json,
    engine_counts,
    find_trace_file,
    phase_of,
    phase_rollups,
    read_spans,
    render_tree,
    sql_cache_counts,
    summarize,
    token_totals,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import TraceContext, Tracer
from repro.util.timing import SimulatedClock

GOLDEN = Path(__file__).parent / "golden" / "chrome_trace.json"


def build_reference_trace() -> list[dict]:
    """A fully deterministic little trace: simulated clock, fixed ids."""
    clock = SimulatedClock()
    tracer = Tracer(clock=clock, context=TraceContext("trace-golden"), id_prefix="aa00")
    with tracer.span("session", session_id="q1"):
        clock.advance(0.001)
        with tracer.span("step.sql", step=0) as sp:
            clock.advance(0.010)
            sp.set(rows=5)
        with tracer.span("llm.chat", skill="qa") as sp:
            clock.advance(0.002)
            sp.set(prompt_tokens=100, completion_tokens=20, latency_s=0.0)
        try:
            with tracer.span("sandbox.execute"):
                clock.advance(0.005)
                raise RuntimeError("exec failed")
        except RuntimeError:
            pass
    return tracer.span_dicts()


class TestChromeExport:
    def test_matches_golden_file(self):
        assert chrome_trace_json(build_reference_trace()) == GOLDEN.read_text()

    def test_event_shape(self):
        doc = json.loads(chrome_trace_json(build_reference_trace()))
        events = doc["traceEvents"]
        assert len(events) == 4
        assert all(e["ph"] == "X" for e in events)
        sql = next(e for e in events if e["name"] == "step.sql")
        assert sql["dur"] == pytest.approx(10_000)          # 10 ms in µs
        failed = next(e for e in events if e["name"] == "sandbox.execute")
        assert "RuntimeError" in failed["args"]["error"]

    def test_write_chrome_trace(self, tmp_path):
        out = tmp_path / "chrome.json"
        nbytes = write_chrome_trace(build_reference_trace(), out)
        assert out.stat().st_size == nbytes
        json.loads(out.read_text())


class TestJsonl:
    def test_round_trip(self, tmp_path):
        spans = build_reference_trace()
        path = tmp_path / "trace.jsonl"
        write_jsonl(spans, path)
        assert read_spans(path) == spans

    def test_find_trace_file_in_directory(self, tmp_path):
        # provenance names traces NNN_trace.jsonl; the latest seq wins
        write_jsonl(build_reference_trace()[:1], tmp_path / "003_trace.jsonl")
        write_jsonl(build_reference_trace(), tmp_path / "019_trace.jsonl")
        assert find_trace_file(tmp_path).name == "019_trace.jsonl"

    def test_find_trace_file_falls_back_to_newest_session(self, tmp_path):
        # a query workdir: no top-level trace, one per session directory
        older = tmp_path / "query_001_a" / "019_trace.jsonl"
        newer = tmp_path / "query_001_b" / "019_trace.jsonl"
        for path in (newer, older):
            path.parent.mkdir()
            write_jsonl(build_reference_trace(), path)
        os.utime(older, ns=(1_000_000_000, 1_000_000_000))
        assert find_trace_file(tmp_path) == newer
        # a top-level trace still wins
        write_jsonl(build_reference_trace(), tmp_path / "trace.jsonl")
        assert find_trace_file(tmp_path) == tmp_path / "trace.jsonl"

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            find_trace_file(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            find_trace_file(tmp_path)


class TestRollups:
    def test_phase_of_uses_dot_prefix(self):
        assert phase_of("sql.execute") == "sql"
        assert phase_of("session") == "session"

    def test_phase_rollups(self):
        rollups = phase_rollups(build_reference_trace())
        assert rollups["step"]["spans"] == 1
        assert rollups["step"]["total_s"] == pytest.approx(0.010)
        assert rollups["sandbox"]["errors"] == 1

    def test_token_totals_from_llm_spans(self):
        totals = token_totals(build_reference_trace())
        assert totals == {
            "calls": 1,
            "prompt_tokens": 100,
            "completion_tokens": 20,
            "total_tokens": 120,
        }


class TestTreeViews:
    def test_render_tree_indents_children(self):
        text = render_tree(build_reference_trace())
        lines = text.splitlines()
        assert lines[0].startswith("session")
        assert lines[1].startswith("  step.sql")
        assert "[error]" in text

    def test_summarize_mentions_phases_and_tokens(self):
        text = summarize(build_reference_trace())
        assert "4 spans" in text
        assert "sandbox" in text
        assert "prompt=100" in text

    def test_canonical_tree_ignores_timing(self):
        a, b = build_reference_trace(), build_reference_trace()
        for span in b:                       # perturb everything timing-shaped
            span["start"] += 5.0
            span["end"] += 5.0
            span["duration"] *= 3.0
            span["attributes"].pop("latency_s", None)
            span["span_id"] = "zz" + span["span_id"]
            if span["parent_id"]:
                span["parent_id"] = "zz" + span["parent_id"]
        assert canonical_tree(a) == canonical_tree(b)

    def test_canonical_tree_detects_structural_change(self):
        a, b = build_reference_trace(), build_reference_trace()
        b[1]["name"] = "step.python"
        assert canonical_tree(a) != canonical_tree(b)

    def test_canonical_tree_detects_status_change(self):
        a, b = build_reference_trace(), build_reference_trace()
        b[-1]["status"] = "ok"
        assert canonical_tree(a) != canonical_tree(b)


def build_cached_trace() -> list[dict]:
    """sql.execute spans in every cache tier plus an uncached miss."""
    clock = SimulatedClock()
    tracer = Tracer(clock=clock, context=TraceContext("trace-cache"), id_prefix="bb00")
    with tracer.span("session", session_id="q1"):
        for tier in ("memory", "disk"):
            with tracer.span("sql.execute", cache=tier, rows=5):
                clock.advance(0.001)
        with tracer.span("sql.execute", cache="miss", rows=5):
            clock.advance(0.010)
        with tracer.span("sql.execute", rows=5):   # legacy span, no attr
            clock.advance(0.010)
    return tracer.span_dicts()


class TestSqlCacheViews:
    def test_sql_cache_counts(self):
        counts = sql_cache_counts(build_cached_trace())
        assert counts == {"memory": 1, "disk": 1, "miss": 2, "queries": 4}

    def test_summarize_reports_cache_tiers(self):
        text = summarize(build_cached_trace())
        assert "sql cache:" in text
        assert "memory=1 disk=1 miss=2 over 4 queries" in text

    def test_summarize_omits_line_without_queries(self):
        assert "sql cache" not in summarize(build_reference_trace())

    def test_engine_counts_summarize_older_scan_attributes(self):
        """Older traces also carry a thread count and a per-index skip
        split; only the shared totals count."""
        tracer = Tracer(clock=SimulatedClock(), id_prefix="cc00")
        with tracer.span("session"):
            with tracer.span("sql.execute", morsels=2, row_groups_total=5,
                             row_groups_skipped=3, row_groups_skipped_zone=3,
                             threads=4):
                pass
            with tracer.span("sql.execute", morsels=1, row_groups_total=1,
                             row_groups_skipped=0):
                pass
        spans = tracer.span_dicts()
        assert engine_counts(spans) == {"morsels": 3, "row_groups": 6, "skipped": 3}
        assert "sql engine: 3 morsels executed, 3/6 row groups skipped by zone map" \
            in summarize(spans)

    def test_cache_counts_summarize_older_incremental_tier(self):
        """Older traces also carry a retired ``incremental`` tier; those
        spans count as queries but not as misses."""
        tracer = Tracer(clock=SimulatedClock(), id_prefix="dd00")
        with tracer.span("session"):
            with tracer.span("sql.execute", cache="incremental",
                             residual_conjuncts=1, rows=5):
                pass
            with tracer.span("sql.execute", cache="memory", rows=5):
                pass
            with tracer.span("sql.execute", rows=5):   # no cache attr: a miss
                pass
        spans = tracer.span_dicts()
        assert sql_cache_counts(spans) == {"memory": 1, "disk": 0, "miss": 1, "queries": 3}
        assert "sql cache: memory=1 disk=0 miss=1 over 3 queries" in summarize(spans)

    def test_canonical_tree_ignores_cache_tier(self):
        """Sequential and parallel runs may serve the same query from
        different tiers; that must not read as a structural difference."""
        a, b = build_cached_trace(), build_cached_trace()
        rotate = {"memory": "disk", "disk": "miss", "miss": "memory"}
        for span in b:
            tier = span["attributes"].get("cache")
            if tier is not None:
                span["attributes"]["cache"] = rotate[tier]
        assert a != b
        assert canonical_tree(a) == canonical_tree(b)
