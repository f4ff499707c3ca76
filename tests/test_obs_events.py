"""The streaming event bus: ordering, bounds, fault isolation, sinks,
and event propagation across the SQL morsel thread pool and the harness
process pool."""

import json
import os

import numpy as np
import pytest

from repro.core import InferA, InferAConfig
from repro.db import Database
from repro.eval.harness import EvaluationHarness, HarnessConfig
from repro.eval.questions import QUESTION_SUITE
from repro.faults import FaultProfile
from repro.frame import Frame
from repro.llm.errors import NO_ERRORS
from repro.obs.events import (
    COUNTER,
    NULL_BUS,
    SPAN_END,
    SPAN_START,
    CollectingSubscriber,
    Event,
    EventBus,
    JsonlSink,
    LiveRenderer,
    get_bus,
    replay_counters,
    replay_spans,
    subscribe,
    use_bus,
)
from repro.obs.export import canonical_tree, read_spans
from repro.obs.names import MORSEL_EVENT, SQL_EXECUTE_SPAN
from repro.obs.tracer import Tracer, use_tracer
from repro.util.timing import SimulatedClock


class TestEventBusCore:
    def test_dispatch_preserves_publication_order(self):
        bus = EventBus()
        seen = CollectingSubscriber()
        bus.subscribe(seen)
        for i in range(10):
            bus.publish_counter(f"c{i}", i)
        assert [e.name for e in seen.events] == [f"c{i}" for i in range(10)]
        assert bus.stats()["dispatched"] == 10

    def test_bounded_queue_drops_and_counts(self):
        bus = EventBus(capacity=3)
        # freeze dispatch (as if another thread held the pump) so the
        # queue actually fills
        bus._pumping = True
        for i in range(5):
            bus.publish_counter("burst", i)
        assert bus.published == 3
        assert bus.dropped == 2
        bus._pumping = False
        seen = CollectingSubscriber()
        bus.subscribe(seen)
        assert bus.pump() == 3
        assert len(seen.events) == 3

    def test_subscriber_exceptions_are_counted_not_raised(self):
        bus = EventBus()
        healthy = CollectingSubscriber()

        def broken(event):
            raise RuntimeError("observer bug")

        bus.subscribe(broken)
        bus.subscribe(healthy)
        bus.publish_counter("x")
        assert bus.subscriber_errors == 1
        assert len(healthy.events) == 1  # later subscribers still served

    def test_subscriber_publishing_reentrantly_does_not_deadlock(self):
        bus = EventBus()
        seen = CollectingSubscriber()

        def echo_once(event):
            if event.name == "ping":
                bus.publish_counter("pong")

        bus.subscribe(echo_once)
        bus.subscribe(seen)
        bus.publish_counter("ping")
        assert [e.name for e in seen.events] == ["ping", "pong"]

    def test_use_bus_nests_and_restores(self):
        assert get_bus() is NULL_BUS
        outer, inner = EventBus(), EventBus()
        with use_bus(outer):
            assert get_bus() is outer
            with use_bus(inner):
                assert get_bus() is inner
            assert get_bus() is outer
        assert get_bus() is NULL_BUS

    def test_unsubscribe(self):
        bus = EventBus()
        seen = CollectingSubscriber()
        bus.subscribe(seen)
        bus.publish_counter("a")
        bus.unsubscribe(seen)
        bus.publish_counter("b")
        assert [e.name for e in seen.events] == ["a"]


class TestTracerPublishing:
    def test_span_lifecycle_publishes_start_and_end(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        bus = EventBus()
        seen = CollectingSubscriber()
        bus.subscribe(seen)
        with use_bus(bus):
            with tracer.span("outer"):
                clock.advance(1.0)
                with tracer.span("inner"):
                    clock.advance(0.5)
        kinds = [(e.kind, e.name) for e in seen.events]
        assert kinds == [
            (SPAN_START, "outer"), (SPAN_START, "inner"),
            (SPAN_END, "inner"), (SPAN_END, "outer"),
        ]
        inner_end = seen.of_kind(SPAN_END)[0]
        assert inner_end.data["duration"] == pytest.approx(0.5)
        # parenting is carried on the event payload
        assert inner_end.data["parent_id"] == seen.events[0].data["span_id"]

    def test_no_bus_publishes_nothing(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("quiet"):
            pass
        assert get_bus() is NULL_BUS  # and nothing raised


class TestReplay:
    def _spans(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("a"):
            clock.advance(1)
            with tracer.span("b"):
                clock.advance(1)
            clock.advance(1)  # distinct end times: b at t=2, a at t=3
        return tracer.span_dicts()

    def test_replay_spans_orders_starts_then_ends(self):
        docs = self._spans()
        bus = EventBus()
        seen = CollectingSubscriber()
        bus.subscribe(seen)
        assert replay_spans(bus, docs) == 4
        assert [(e.kind, e.name) for e in seen.events] == [
            (SPAN_START, "a"), (SPAN_START, "b"),
            (SPAN_END, "b"), (SPAN_END, "a"),
        ]

    def test_replay_matches_live_canonical_structure(self):
        docs = self._spans()
        bus = EventBus()
        seen = CollectingSubscriber()
        bus.subscribe(seen)
        replay_spans(bus, docs)
        replayed = [e.data for e in seen.of_kind(SPAN_END)]
        assert canonical_tree(replayed) == canonical_tree(docs)

    def test_replay_counters_sorted_by_name(self):
        bus = EventBus()
        seen = CollectingSubscriber()
        bus.subscribe(seen)
        replay_counters(bus, {"z": 2.0, "a": 1.0})
        assert [(e.name, e.data["value"]) for e in seen.events] == [
            ("a", 1.0), ("z", 2.0)]

    def test_replay_on_null_bus_is_free(self):
        assert replay_spans(NULL_BUS, self._spans()) == 0
        assert replay_counters(NULL_BUS, {"a": 1}) == 0


class TestJsonlSink:
    def test_writes_one_line_per_span_end(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink(Event(SPAN_START, "a", {"span_id": "s1"}))
        sink(Event(SPAN_END, "a", {"span_id": "s1", "name": "a"}))
        sink(Event(COUNTER, "c", {"value": 1}))
        sink.close()
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) == 1 and sink.spans_written == 1
        assert json.loads(lines[0])["name"] == "a"

    def test_truncates_stale_file_on_first_write(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("stale line\n")
        sink = JsonlSink(path)
        sink(Event(SPAN_END, "a", {"span_id": "s1"}))
        sink.close()
        assert "stale" not in path.read_text()

    def test_flushes_every_n_spans_and_on_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=2)
        sink(Event(SPAN_END, "a", {"span_id": "s1"}))
        sink(Event(SPAN_END, "b", {"span_id": "s2"}))
        # second span crossed the flush boundary: both lines durable
        assert len(path.read_text().splitlines()) == 2
        sink(Event(SPAN_END, "c", {"span_id": "s3"}))
        sink.flush()  # explicit flush drains the trailing partial batch
        assert len(path.read_text().splitlines()) == 3
        sink.close()

    def test_rejects_nonpositive_flush_interval(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", flush_every=0)


class TestLiveRenderer:
    def test_renders_interesting_spans_only(self, tmp_path):
        out = (tmp_path / "live.txt").open("w")
        renderer = LiveRenderer(stream=out)
        renderer(Event(SPAN_END, "session", {"duration": 1.0, "attributes": {}}))
        renderer(Event(SPAN_END, "sql.execute", {"duration": 0.1, "attributes": {}}))
        renderer(Event(COUNTER, "session", {"value": 1}))
        out.close()
        text = (tmp_path / "live.txt").read_text()
        assert "[live] session" in text
        assert "sql.execute" not in text
        assert renderer.lines == 1

    def test_verbose_renders_everything(self, tmp_path):
        out = (tmp_path / "live.txt").open("w")
        renderer = LiveRenderer(stream=out, verbose=True)
        renderer(Event(SPAN_END, "sql.execute", {"duration": 0.1, "attributes": {}}))
        out.close()
        assert "sql.execute" in (tmp_path / "live.txt").read_text()


class TestMorselThreadPropagation:
    @pytest.fixture()
    def chunked_db(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 3000
        frame = Frame({
            "step": np.repeat([0, 624], n // 2),
            "mass": rng.lognormal(3, 1, n),
        })
        db = Database(tmp_path / "p.db")
        # small row groups so the scan runs several morsels
        db.create_table("halos", frame, row_group_size=512)
        return db

    def test_morsel_events_parent_on_the_sql_execute_span(self, chunked_db):
        tracer = Tracer(clock=SimulatedClock())
        bus = EventBus()
        seen = CollectingSubscriber()
        bus.subscribe(seen)
        with use_bus(bus), use_tracer(tracer):
            chunked_db.query("SELECT step, SUM(mass) FROM halos GROUP BY step")
        sql_spans = [e for e in seen.of_kind(SPAN_END)
                     if e.name == SQL_EXECUTE_SPAN]
        assert len(sql_spans) == 1
        morsels = [e for e in seen.of_kind(COUNTER) if e.name == MORSEL_EVENT]
        assert morsels, "scan published no morsel events"
        # every morsel event is parented on the query's span
        assert {e.span_id for e in morsels} == {sql_spans[0].data["span_id"]}
        # and the count matches what the span itself recorded
        assert len(morsels) == sql_spans[0].data["attributes"]["morsels"]


@pytest.fixture(scope="module")
def bus_suite(ensemble, tmp_path_factory):
    """One 2-worker harness run with the event bus active."""
    bus = EventBus(capacity=65536)
    seen = CollectingSubscriber()
    bus.subscribe(seen)
    harness = EvaluationHarness(
        ensemble,
        tmp_path_factory.mktemp("bus_suite") / "wd",
        HarnessConfig(runs_per_question=1, workers=2, error_model=NO_ERRORS),
    )
    with use_bus(bus):
        result = harness.run_suite(questions=QUESTION_SUITE[:2])
    return result, bus, seen


class TestProcessPoolPropagation:
    def test_incremental_trace_canonically_equals_merged_spans(self, bus_suite):
        result, _, _ = bus_suite
        # with the bus on, trace.jsonl is written incrementally by the
        # sink; it must be the same trace the harness merged in memory
        on_disk = read_spans(result.trace_path)
        assert len(on_disk) == len(result.spans)
        assert canonical_tree(on_disk) == canonical_tree(result.spans)

    def test_worker_spans_replayed_with_parenting(self, bus_suite):
        result, _, seen = bus_suite
        ends = seen.of_kind(SPAN_END)
        names = {e.name for e in ends}
        assert {"harness.run_suite", "harness.cell", "session", "llm.chat"} <= names
        by_id = {e.data["span_id"]: e.data for e in ends}
        sessions = [e.data for e in ends if e.name == "session"]
        assert sessions, "no worker session spans reached the parent bus"
        for doc in sessions:
            assert by_id[doc["parent_id"]]["name"] == "harness.cell"

    def test_bus_counts_are_consistent(self, bus_suite):
        _, bus, seen = bus_suite
        stats = bus.stats()
        assert stats["dropped"] == 0
        assert stats["dispatched"] == stats["published"] == len(seen.events)

    def test_matches_busless_sequential_run(self, bus_suite, ensemble, tmp_path):
        result, _, _ = bus_suite
        harness = EvaluationHarness(
            ensemble,
            tmp_path / "plain",
            HarnessConfig(runs_per_question=1, workers=1, error_model=NO_ERRORS),
        )
        plain = harness.run_suite(questions=QUESTION_SUITE[:2])
        assert canonical_tree(plain.spans) == canonical_tree(result.spans)


class TestBusDoesNotPerturbRuns:
    def test_chaos_query_identical_with_bus_enabled(self, ensemble, tmp_path):
        """Observability must be read-only: the same chaos-profile query
        run with and without the bus produces identical results."""
        question = "Plot the halo mass distribution for run 1"

        def run(name, with_bus):
            app = InferA(
                ensemble,
                tmp_path / name,
                InferAConfig(
                    error_model=NO_ERRORS,
                    llm_latency_s=0.0,
                    fault_profile=FaultProfile.named("light", seed=5),
                ),
            )
            if with_bus:
                bus = EventBus()
                bus.subscribe(CollectingSubscriber())
                with use_bus(bus):
                    return app.run_query(question)
            return app.run_query(question)

        plain = run("plain", with_bus=False)
        observed = run("observed", with_bus=True)
        assert plain.completed == observed.completed
        assert plain.tokens == observed.tokens
        # figures byte-identical, trace structurally identical
        assert plain.figures == observed.figures
        assert canonical_tree(plain.trace_spans) == canonical_tree(observed.trace_spans)


class TestForkReset:
    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork hooks")
    def test_child_process_sees_null_bus(self):
        bus = EventBus()
        with use_bus(bus):
            pid = os.fork()
            if pid == 0:  # child
                ok = get_bus() is NULL_BUS
                os._exit(0 if ok else 1)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestSubscribeAPI:
    """The documented public hook: filtering, buffering, detachment."""

    def _span_event(self, kind, name, trace_id="t1", **attrs):
        return Event(kind, name, {"name": name, "trace_id": trace_id,
                                  "span_id": "s1", "duration": 0.01,
                                  "status": "ok", "attributes": attrs})

    def test_subscribe_requires_an_active_bus(self):
        assert get_bus() is NULL_BUS
        with pytest.raises(RuntimeError, match="no active event bus"):
            subscribe(lambda e: None)

    def test_kind_and_trace_filtering(self):
        bus = EventBus()
        got = CollectingSubscriber()
        sub = subscribe(got, bus=bus, kinds=(SPAN_END,), trace_id="mine")
        bus.publish(self._span_event(SPAN_START, "a", trace_id="mine"))
        bus.publish(self._span_event(SPAN_END, "b", trace_id="mine"))
        bus.publish(self._span_event(SPAN_END, "c", trace_id="other"))
        bus.publish_counter("x", 1)  # counters carry no trace affiliation
        assert [e.name for e in got.events] == ["b"]
        assert sub.delivered == 1
        sub.close()
        bus.publish(self._span_event(SPAN_END, "d", trace_id="mine"))
        assert [e.name for e in got.events] == ["b"]  # detached

    def test_slow_subscriber_does_not_stall_publishers(self):
        """The serving-layer regression: a consumer sleeping per event
        must not slow the publish path once wrapped with buffered=True."""
        import time as _time

        bus = EventBus()

        def slow(event):
            _time.sleep(0.05)

        sub = subscribe(slow, bus=bus, buffered=True)
        start = _time.perf_counter()
        n = 50
        for i in range(n):
            bus.publish(self._span_event(SPAN_END, f"e{i}"))
        publish_wall = _time.perf_counter() - start
        # unbuffered, this would take n * 0.05 = 2.5s on the publisher;
        # buffered, publishing is decoupled from consumption entirely
        assert publish_wall < 0.5, (
            f"publishers stalled {publish_wall:.2f}s behind a slow subscriber"
        )
        sub.close()
        assert sub.delivered + sub.dropped == n

    def test_buffered_bounded_drop(self):
        bus = EventBus()
        release = __import__("threading").Event()

        def blocked(event):
            release.wait(10.0)

        sub = subscribe(blocked, bus=bus, buffered=True, capacity=4)
        for i in range(20):
            bus.publish(self._span_event(SPAN_END, f"e{i}"))
        assert sub.dropped > 0  # newest events dropped, counted, no growth
        release.set()
        sub.close()
        assert sub.delivered + sub.dropped == 20
        assert sub.dropped >= 20 - 4 - 1  # at most capacity + in-flight kept

    def test_buffered_preserves_order(self):
        bus = EventBus()
        got = []
        sub = subscribe(lambda e: got.append(e.name), bus=bus, buffered=True)
        for i in range(100):
            bus.publish(self._span_event(SPAN_END, f"e{i:03d}"))
        sub.close()  # close drains the buffer before detaching
        assert got == [f"e{i:03d}" for i in range(100)]

    def test_live_session_events_filterable_by_trace(self, ensemble, tmp_path):
        """End to end: one bus, two sessions, per-trace subscriptions see
        only their own session's spans (the per-request SSE contract)."""
        app = InferA(
            ensemble, tmp_path / "w",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0),
        )
        bus = EventBus()
        all_events = CollectingSubscriber()
        bus.subscribe(all_events)
        with use_bus(bus):
            r1 = app.run_query("How many halos are in run 0?")
            r2 = app.run_query("What is the average halo mass at timestep 624?")
        t1 = r1.trace_spans[0]["trace_id"]
        t2 = r2.trace_spans[0]["trace_id"]
        assert t1 != t2
        mine = [e for e in all_events.of_kind(SPAN_END)
                if e.data.get("trace_id") == t1]
        names = {e.name for e in mine}
        assert "session" in names and "plan.generate" in names
        assert len(mine) == len(r1.trace_spans)
