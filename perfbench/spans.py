"""Layer spans recorded from outside the program.

``LayerTracer.wrap`` replaces one public function of a layer with a
wrapper that opens a span for the call.  Spans nest on a stack kept per
thread, so each layer gets a *self* time: the span's duration minus the
time of wrapped children.  Each thread aggregates into its own table
(layer -> self_s, incl_s, calls, counters); the tables are merged only
when the run ends, so worker threads never contend on a lock per call.

``count_open`` adds a counter to every distinct layer open on the
calling thread, which is how ``os.fsync`` calls are attributed: an
fsync inside ``db.write`` inside ``db.ingest`` counts once for each.

The tracer imports nothing from the program; ``install`` (below) holds
the map from layer names to the program's functions.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable


class _Frame:
    __slots__ = ("layer", "start", "child_s", "outermost")

    def __init__(self, layer: str, start: float, outermost: bool):
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.outermost = outermost


class LayerTracer:
    """Per-thread span stacks with self and inclusive time per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[tuple[str, dict[str, dict[str, float]]]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- per-thread state ------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append((threading.current_thread().name, local.table))
        return local

    @staticmethod
    def _entry(table: dict, layer: str) -> dict[str, float]:
        entry = table.get(layer)
        if entry is None:
            entry = table[layer] = {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
        return entry

    # -- spans -------------------------------------------------------------
    def enter(self, layer: str) -> _Frame:
        state = self._state()
        outermost = all(f.layer != layer for f in state.stack)
        frame = _Frame(layer, self.clock(), outermost)
        state.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        state = self._local
        duration = self.clock() - frame.start
        popped = state.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.layer!r} closed out of order")
        entry = self._entry(state.table, frame.layer)
        entry["self_s"] += duration - frame.child_s
        if frame.outermost:
            entry["calls"] += 1
            entry["incl_s"] += duration
        if state.stack:
            state.stack[-1].child_s += duration

    def count(self, layer: str, key: str, n: float = 1) -> None:
        """Add ``n`` to one counter of ``layer`` on the calling thread."""
        entry = self._entry(self._state().table, layer)
        entry[key] = entry.get(key, 0) + n

    def count_open(self, key: str, n: float = 1) -> None:
        """Add ``n`` to ``key`` of every distinct layer open on this thread."""
        state = self._state()
        for layer in {f.layer for f in state.stack}:
            entry = self._entry(state.table, layer)
            entry[key] = entry.get(key, 0) + n

    # -- patching ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Callable[["LayerTracer", Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        ``on_result(tracer, result)`` runs inside the span after a normal
        return, for counters read off the layer's result.  A call nested in
        a span of its own layer (a fleet routing to a client) adds self
        time but no call and no result count, so each request counts once.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = self.enter(layer)
            try:
                result = original(*args, **kwargs)
                if on_result is not None and frame.outermost:
                    on_result(self, result)
                return result
            finally:
                self.exit(frame)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count_calls(self, owner: Any, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` into ``key`` of every open layer."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count_open(key)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def tables(self) -> list[tuple[str, dict[str, dict[str, float]]]]:
        """``(thread name, {layer: counters})`` for every thread that ran."""
        with self._lock:
            return [(name, {k: dict(v) for k, v in t.items()}) for name, t in self._tables]


def merge_tables(tables, keep: Callable[[str], bool] = lambda name: True) -> dict:
    """Sum per-thread tables (of threads whose name passes ``keep``)."""
    total: dict[str, dict[str, float]] = {}
    for name, table in tables:
        if not keep(name):
            continue
        for layer, entry in table.items():
            into = total.setdefault(layer, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    return total


# ----------------------------------------------------------------------
# the program's layers
# ----------------------------------------------------------------------
def _count_tokens(tracer: LayerTracer, response) -> None:
    tracer.count("llm", "tokens", response.prompt_tokens + response.completion_tokens)


def _count_sandbox(tracer: LayerTracer, result) -> None:
    if not result.ok:
        tracer.count("sandbox", "failed")


def _count_bytes(tracer: LayerTracer, report) -> None:
    tracer.count("agents.data_loader", "bytes_read", report.bytes_selected)


def _count_qa(tracer: LayerTracer, verdict) -> None:
    tracer.count("agents.qa", "passed", int(verdict.passed))


def install(tracer: LayerTracer) -> None:
    """Wrap the public function of each layer of the program.

    ``agents.supervisor`` wraps the whole session (``InferA.run_query``),
    so its self time is the orchestration remainder after every wrapped
    child.  ``core.app`` is app construction, which runs once per session
    in the eval harness and once per process in a one-shot query.
    """
    from repro.agents.data_loader import DataLoadingAgent
    from repro.agents.planner import PlanningAgent
    from repro.agents.python_agent import PythonProgrammingAgent
    from repro.agents.qa_agent import QualityAssuranceAgent
    from repro.agents.sql_agent import SQLProgrammingAgent
    from repro.agents.viz_agent import VisualizationAgent
    from repro.core.app import InferA
    from repro.db.database import Database
    from repro.db.ingest import StreamingIngester
    from repro.llm.base import MeteredModel
    from repro.provenance.tracker import ProvenanceTracker
    from repro.rag.retriever import ColumnRetriever
    from repro.sandbox.client import InProcessClient, SandboxClient
    from repro.sandbox.fleet import SandboxFleet

    tracer.wrap(InferA, "run_query", "agents.supervisor")
    tracer.wrap(InferA, "__init__", "core.app")
    tracer.wrap(ColumnRetriever, "retrieve", "rag")
    tracer.wrap(MeteredModel, "chat", "llm", _count_tokens)
    tracer.wrap(Database, "create_table", "db.write")
    tracer.wrap(Database, "append", "db.write")
    tracer.wrap(Database, "query", "db.query")
    tracer.wrap(StreamingIngester, "ingest_step", "db.ingest")
    for client in (InProcessClient, SandboxClient, SandboxFleet):
        tracer.wrap(client, "execute", "sandbox", _count_sandbox)
    tracer.wrap(PlanningAgent, "plan", "agents.planner")
    tracer.wrap(DataLoadingAgent, "load", "agents.data_loader", _count_bytes)
    tracer.wrap(QualityAssuranceAgent, "assess", "agents.qa", _count_qa)
    tracer.wrap(SQLProgrammingAgent, "run_step", "agents.sql")
    tracer.wrap(PythonProgrammingAgent, "run_step", "agents.python")
    tracer.wrap(VisualizationAgent, "run_step", "agents.viz")
    for name in sorted(vars(ProvenanceTracker)):
        if name.startswith("record_"):
            tracer.wrap(ProvenanceTracker, name, "provenance")
    tracer.count_calls(os, "fsync", "fsyncs")
