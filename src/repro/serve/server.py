"""The multi-tenant HTTP serving layer: ``repro serve``.

A stdlib-only long-running server over one warm process:

* ``POST /v1/query`` — run one question in one tenant session.  The
  request is admitted through the bounded queue (429 + ``Retry-After``
  when full, 503 while draining) and executed by the worker pool over
  the shared warm state; with ``"stream": true`` the response is an SSE
  stream of live progress lines followed by a terminal ``result`` frame.
* ``POST /v1/ingest`` — append one generated snapshot to the live
  ensemble (and its live analysis database) through the WAL commit
  protocol.  Single-writer: concurrent ingests get 409, draining
  servers 503; queries admitted before, during, and after the commit
  stay byte-identical to a quiescent run at their pinned snapshot
  version.
* ``GET /healthz`` — liveness plus drain state.
* ``GET /stats`` — queue, session, breaker, cache, bus, and live-ingest
  (snapshot version + WAL) telemetry.

The HTTP threads (one per connection, via
:class:`~http.server.ThreadingHTTPServer`) do *admission and waiting*
only; execution happens on the worker pool, so the number of concurrent
connections never changes how many queries run at once.

Graceful shutdown (:meth:`ReproServer.shutdown`) closes the admission
queue (new work → 503), lets the workers drain every admitted request,
checkpoints every session — per-session ``cost_ledger.json``, the
``sessions.json`` registry summary, and one durable
:class:`~repro.graph.checkpoint.DurableCheckpointer` record per session
so a restarted server can see what each tenant ran — and only then stops
listening.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.core.config import InferAConfig
from repro.graph.checkpoint import DurableCheckpointer
from repro.obs.events import EventBus, use_bus
from repro.resilience import Deadline
from repro.serve.admission import AdmissionQueue, QueueClosed, QueueFull
from repro.serve.session import InvalidSessionId, SessionRegistry
from repro.serve.state import WarmState
from repro.serve.streaming import EventStreamer, sse_frame
from repro.serve.worker import ServeRequest, WorkerPool
from repro.sim.ensemble import Ensemble

DEFAULT_REQUEST_TIMEOUT_S = 120.0


class IngestBusy(Exception):
    """A snapshot ingest is already in flight (single-writer system)."""


class ReproServer:
    """Owns warm state, sessions, queue, workers, and the HTTP listener."""

    def __init__(
        self,
        ensemble: Ensemble,
        workdir: str | Path,
        config: InferAConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        app_workers: int = 4,
        queue_depth: int = 32,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        llm_factory=None,
    ):
        self.config = config or InferAConfig()
        self.workdir = Path(workdir)
        self.state = WarmState(ensemble, self.workdir, self.config)
        self.registry = SessionRegistry(
            self.workdir, token_budget=self.config.token_budget
        )
        self.queue = AdmissionQueue(depth=queue_depth, workers=app_workers)
        self.pool = WorkerPool(
            self.state,
            self.registry,
            self.queue,
            workers=app_workers,
            llm_factory=llm_factory,
        )
        self.request_timeout_s = float(request_timeout_s)
        self.bus = EventBus()
        self._bus_scope = None
        # live ingestion: built lazily on the first /v1/ingest (serving a
        # static ensemble must not pay for a writer it never uses); the
        # lock makes the server a single-writer system
        self._ingester = None
        self._ingest_injector = None
        self._ingest_lock = threading.Lock()
        self.checkpointer = DurableCheckpointer(self.workdir / "server_checkpoints")
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._draining = False
        self.host = host
        self.port = port

    # -- lifecycle -----------------------------------------------------
    def start(self):
        """Warm shared state, start workers, bind and serve; returns the
        warm-up report."""
        # one process-wide bus for the server's lifetime: workers publish
        # span events onto it, per-request SSE subscriptions filter it
        self._bus_scope = use_bus(self.bus)
        self._bus_scope.__enter__()
        report = self.state.warm()
        self.pool.start()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self.port = self._httpd.server_address[1]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        self._started_at = self.pool.clock.now()
        return report

    def shutdown(self, timeout_s: float = 30.0) -> Path:
        """Graceful drain: finish admitted work, checkpoint, stop listening.

        Returns the path of the persisted ``sessions.json``.
        """
        self._draining = True
        # 1. refuse new admissions, let workers finish the backlog
        self.pool.stop(drain=True, timeout_s=timeout_s)
        # 2. checkpoint every session: ledgers + registry + durable record
        for session in self.registry.sessions():
            self.checkpointer.save(
                thread_id=session.session_id,
                seq=session.requests,
                node="serve.shutdown",
                next_node=None,
                state=session.as_dict(),
            )
        manifest = self.registry.checkpoint()
        # release warm resources that own workers (the sandbox fleet)
        # after the drain, so in-flight executions finished first
        self.state.close()
        # 3. stop accepting connections last so in-flight responses finish
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout_s)
        if self._bus_scope is not None:
            self._bus_scope.__exit__(None, None, None)
            self._bus_scope = None
        return manifest

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling (called from HTTP threads) --------------------
    def admit(self, question: str, session_id: str) -> ServeRequest:
        """Create, register, and enqueue one request (may raise
        :class:`QueueFull`/:class:`QueueClosed`/:class:`InvalidSessionId`)."""
        session = self.registry.get_or_create(session_id)
        index, run_id = session.next_run_id(question)
        request = ServeRequest(
            question=question,
            session=session,
            run_id=run_id,
            request_index=index,
            deadline=Deadline(self.request_timeout_s, clock=self.pool.clock),
            submitted_at=self.pool.clock.now(),
        )
        self.queue.submit(request)
        return request

    # -- live ingestion -------------------------------------------------
    def _ensure_ingester(self):
        from repro import faults
        from repro.db.ingest import StreamingIngester

        if self._ingester is None:
            self._ingester = StreamingIngester(
                self.state.ensemble.root,
                db_path=self.workdir / "live.db",
                arm_faults=True,
            )
            profile = self.config.fault_profile
            if profile is None:
                profile = faults.FaultProfile.from_env(seed=self.config.seed)
            # one injector for the server's lifetime: the kill schedule is
            # a deterministic function of (profile, seed, attempt number)
            self._ingest_injector = faults.FaultInjector(profile)
        return self._ingester

    def run_ingest(self, step: int | None = None) -> dict[str, Any]:
        """Append one snapshot (admission-controlled, drain-aware).

        Runs under the server's chaos profile with kill faults armed; a
        simulated death is recovered and retried internally, so the call
        returns only when the commit landed (the report counts the kills
        it absorbed).
        """
        from repro import faults

        if self._draining:
            raise QueueClosed()
        if not self._ingest_lock.acquire(blocking=False):
            raise IngestBusy()
        try:
            ingester = self._ensure_ingester()
            with use_bus(self.bus), faults.use_faults(self._ingest_injector):
                report = ingester.ingest_step_resilient(step)
            # publish the committed manifest to the warm shared handle:
            # requests admitted from now on pin the new snapshot version
            self.state.ensemble.reload()
            return report.as_dict()
        finally:
            self._ingest_lock.release()

    def ingest_stats(self) -> dict[str, Any]:
        """Snapshot + WAL telemetry for ``/stats`` (cheap when no writer)."""
        from repro.obs import names as obs_names
        from repro.obs.metrics import get_registry

        registry = get_registry()
        doc: dict[str, Any] = {
            "ensemble_version": self.state.ensemble.version,
            "timesteps": len(self.state.ensemble.timesteps),
            "wal": {
                "commits": registry.counter(obs_names.WAL_COMMITS).value,
                "replayed": registry.counter(obs_names.WAL_REPLAYED).value,
                "torn_tails": registry.counter(obs_names.WAL_TORN_TAIL_DROPPED).value,
                "corrupt_records": registry.counter(obs_names.WAL_CORRUPT_DROPPED).value,
                "kills": registry.counter(obs_names.INGEST_KILLS).value,
            },
            "live": self._ingester.stats() if self._ingester is not None else None,
        }
        return doc

    def stats(self) -> dict[str, Any]:
        from repro.db.cache import stats_snapshot as query_cache_stats
        from repro.rag.cache import stats_snapshot as retrieval_cache_stats

        qstats = query_cache_stats()
        rstats = retrieval_cache_stats()
        return {
            "uptime_s": (
                round(self.pool.clock.now() - self._started_at, 3)
                if self._started_at is not None
                else 0.0
            ),
            "draining": self._draining,
            "workers": {
                "alive": self.pool.alive_workers,
                "executed": self.pool.executed,
            },
            "queue": self.queue.stats(),
            "sessions": self.registry.stats(),
            "breaker": {
                "state": self.pool.breaker.state,
                "consecutive_failures": self.pool.breaker.consecutive_failures,
            },
            "warmup": self.state.report.as_dict() if self.state.report else None,
            "query_cache": {
                "memory_hits": qstats.memory_hits,
                "disk_hits": qstats.disk_hits,
                "misses": qstats.misses,
                "hit_ratio": round(qstats.hit_ratio, 4),
            },
            "retrieval_cache": {
                "memory_hits": rstats.memory_hits,
                "disk_hits": rstats.disk_hits,
                "builds": rstats.builds,
                "query_memo_hits": rstats.query_memo_hits,
                "query_memo_misses": rstats.query_memo_misses,
            },
            "bus": self.bus.stats(),
            # snapshot version queries pin against + WAL/kill counters;
            # "live" carries writer detail once the first ingest ran
            "ingest": self.ingest_stats(),
            # fleet topology + per-worker load/breaker state when the warm
            # sandbox is a SandboxFleet; None for single-client setups
            "sandbox_fleet": (
                self.state.sandbox.stats()
                if hasattr(self.state.sandbox, "stats")
                else None
            ),
        }


# ----------------------------------------------------------------------
# the HTTP handler
# ----------------------------------------------------------------------
def _make_handler(server: ReproServer):
    class Handler(BaseHTTPRequestHandler):
        # one worker request can take seconds; don't let keep-alive
        # connections pin HTTP threads between requests
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        # -- helpers ---------------------------------------------------
        def _send_json(self, code: int, doc: dict[str, Any], headers: dict | None = None):
            body = json.dumps(doc, sort_keys=True).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> dict[str, Any] | None:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                return None
            try:
                return json.loads(self.rfile.read(length).decode())
            except (ValueError, UnicodeDecodeError):
                return None

        # -- routes ----------------------------------------------------
        def do_GET(self):
            if self.path == "/healthz":
                self._send_json(
                    200,
                    {
                        "status": "draining" if server._draining else "ok",
                        "warmed": server.state.warmed,
                        "workers": server.pool.alive_workers,
                    },
                )
            elif self.path == "/stats":
                self._send_json(200, server.stats())
            else:
                self._send_json(404, {"error": "not-found", "path": self.path})

        def do_POST(self):
            if self.path == "/v1/ingest":
                self._ingest_response()
                return
            if self.path != "/v1/query":
                self._send_json(404, {"error": "not-found", "path": self.path})
                return
            doc = self._read_body()
            if not doc or not isinstance(doc.get("question"), str) or not doc["question"].strip():
                self._send_json(400, {"error": "bad-request", "detail": "body must be JSON with a non-empty 'question'"})
                return
            question = doc["question"]
            session_id = str(doc.get("session") or "default")
            stream = bool(doc.get("stream", False))
            streamer = None
            try:
                if stream:
                    # subscribe before admission so no event is missed;
                    # needs the trace_id, which admission mints — so
                    # build the request first, then enqueue
                    session = server.registry.get_or_create(session_id)
                    index, run_id = session.next_run_id(question)
                    request = ServeRequest(
                        question=question,
                        session=session,
                        run_id=run_id,
                        request_index=index,
                        deadline=Deadline(
                            server.request_timeout_s, clock=server.pool.clock
                        ),
                        submitted_at=server.pool.clock.now(),
                    )
                    streamer = EventStreamer(request.trace_id)
                    server.queue.submit(request)
                else:
                    request = server.admit(question, session_id)
            except InvalidSessionId as exc:
                if streamer is not None:
                    streamer.close()
                self._send_json(400, {"error": "bad-session", "detail": str(exc)})
                return
            except QueueFull as exc:
                if streamer is not None:
                    streamer.close()
                self._send_json(
                    429,
                    {
                        "error": "queue-full",
                        "detail": str(exc),
                        "retry_after_s": exc.retry_after_s,
                        "queue_depth": exc.depth,
                    },
                    headers={"Retry-After": f"{exc.retry_after_s:.3f}"},
                )
                return
            except QueueClosed:
                if streamer is not None:
                    streamer.close()
                self._send_json(503, {"error": "draining", "detail": "server is shutting down"})
                return

            if stream:
                self._stream_response(request, streamer)
            else:
                self._block_response(request)

        def _ingest_response(self) -> None:
            doc = self._read_body() or {}
            step = doc.get("step")
            if step is not None and not isinstance(step, int):
                self._send_json(
                    400,
                    {"error": "bad-request", "detail": "'step' must be an integer"},
                )
                return
            try:
                report = server.run_ingest(step)
            except QueueClosed:
                self._send_json(
                    503, {"error": "draining", "detail": "server is shutting down"}
                )
                return
            except IngestBusy:
                self._send_json(
                    409,
                    {
                        "error": "ingest-busy",
                        "detail": "a snapshot ingest is already in flight",
                    },
                )
                return
            except ValueError as exc:
                # append_snapshot rejects out-of-grid / non-monotonic steps
                self._send_json(400, {"error": "bad-step", "detail": str(exc)})
                return
            self._send_json(200, {"status": "committed", "report": report})

        def _result_doc(self, request: ServeRequest) -> dict[str, Any]:
            return {
                "status": request.status,
                "session": request.session.session_id,
                "run_id": request.run_id,
                "trace_id": request.trace_id,
                "result": request.result,
                "error": request.error,
                # the snapshot-isolation receipt: which ensemble manifest
                # version this run was pinned to (outside the byte-compared
                # answer payload — two runs at the same version must agree)
                "snapshot": {"ensemble_version": request.snapshot_version},
                "timing": {
                    "queue_wait_s": round(request.queue_wait_s, 6),
                    "exec_s": round(request.exec_s, 6),
                },
            }

        def _block_response(self, request: ServeRequest) -> None:
            finished = request.wait(server.request_timeout_s + 5.0)
            if not finished:
                self._send_json(
                    504, {"error": "timeout", "run_id": request.run_id}
                )
                return
            code = 200 if request.status in ("ok", "failed") else 500
            self._send_json(code, self._result_doc(request))

        def _stream_response(self, request: ServeRequest, streamer: EventStreamer) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            try:
                for frame in streamer.frames(request.done):
                    self.wfile.write(frame)
                    self.wfile.flush()
                doc = self._result_doc(request)
                doc["stream_dropped_events"] = streamer.dropped
                self.wfile.write(sse_frame("result", doc))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; the request still completes
            finally:
                streamer.close()

    return Handler
