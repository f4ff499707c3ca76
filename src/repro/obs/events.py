"""Streaming telemetry event bus: bounded, drop-counting pub/sub.

PR 2 made every run *inspectable after the fact* — spans land in one
``trace.jsonl`` when the run is over.  This module makes the same
telemetry *observable while it happens*: the tracer publishes
``span_start``/``span_end`` events and the metrics layer publishes
``counter`` events onto an ambient :class:`EventBus`, whose subscribers
include

* :class:`JsonlSink` — the trace file written incrementally, one span
  per line at span end, instead of in one burst at end of run;
* :class:`LiveRenderer` — per-step progress lines on stderr for
  ``repro eval --live`` / ``repro query --live``;
* any callable attached through :func:`subscribe` — the documented
  public hook (``repro serve`` streams per-session progress through it).

**Subscriber contract** (:func:`subscribe` / :meth:`EventBus.subscribe`):

* *Ordering* — subscribers observe events in publication order, and
  callbacks are single-threaded: the bus never invokes the same
  subscriber concurrently from two threads.  Dispatch happens inline on
  a publisher's thread (whichever thread wins the pump), so a direct
  subscriber's latency is paid by the traced work.
* *Bounded-drop* — the bus queue is bounded (``capacity``); when a burst
  outruns it the newest events are dropped and counted
  (``EventBus.dropped``), never blocking the publisher or growing
  without bound.  A :class:`BufferedSubscriber` has its own bounded
  buffer with the same newest-dropped semantics (``Subscription.dropped``).
* *Isolation* — a raising subscriber is counted
  (``bus.subscriber_errors``) and skipped; it can never fail the run it
  observes.  A *slow* subscriber, however, stalls the publisher unless
  wrapped: pass ``buffered=True`` to :func:`subscribe` to decouple it
  onto a drain thread, which is mandatory for anything doing I/O on the
  request path (the serving layer's per-session streams are buffered).
* *Per-session filtering* — span events carry their ``trace_id``; pass
  ``trace_id=`` (and/or ``kinds=``) to :func:`subscribe` to see exactly
  one session's events, which is how ``repro serve`` fans one process-
  wide bus out into per-request progress streams.

Design constraints, matching the tracer's:

* **near-zero overhead when nobody is listening** — instrumented code
  pays one module-global read and an identity check per span/counter
  when no bus is active (:data:`NULL_BUS`);
* **bounded and drop-counting** — ``publish`` appends to a bounded
  queue; when a burst outruns the queue, the newest events are dropped
  and counted (``bus.dropped``) rather than blocking the traced work or
  growing without bound;
* **subscriber faults never propagate** — a raising subscriber is
  counted (``bus.subscriber_errors``) and skipped, never allowed to fail
  the run it is observing;
* **process-wide and thread-safe** — the ambient bus is a module global
  (not a contextvar) so events published from serving and
  parallel-viz threads reach the same bus as the coordinator's, with a
  lock serializing the queue.  Forked harness workers deliberately
  *reset* the ambient bus (``os.register_at_fork``): a child publishing
  into an inherited sink would interleave writes into the parent's file
  descriptor.  Worker spans instead ship back with each
  :class:`~repro.eval.harness.RunOutcome` and are re-published on the
  parent by :func:`replay_spans`, preserving parenting because span
  dicts carry their ``parent_id``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

SPAN_START = "span_start"
SPAN_END = "span_end"
COUNTER = "counter"


@dataclass(slots=True)
class Event:
    """One telemetry event.

    ``data`` is a span dict for span events (the same serialized form
    exporters consume) or ``{"value": ..., "span_id": ...}`` for counter
    events, where ``span_id`` names the enclosing span when the publisher
    knows it (the SQL engine's morsel events use this for parenting).

    A slotted, non-frozen dataclass: events are constructed on the
    publish hot path (every span start/end and counter), where a frozen
    dataclass pays ``object.__setattr__`` per field.  Treat instances as
    immutable by convention.
    """

    kind: str
    name: str
    data: dict[str, Any] = field(default_factory=dict)
    thread_id: int = 0

    @property
    def span_id(self) -> str | None:
        return self.data.get("span_id")


Subscriber = Callable[[Event], None]


class NullBus:
    """The ambient default: swallows everything, allocates nothing."""

    __slots__ = ()
    dropped = 0
    published = 0

    def publish(self, event: Event) -> None:
        pass

    def publish_span_start(self, span_doc: dict[str, Any]) -> None:
        pass

    def publish_span_end(self, span_doc: dict[str, Any]) -> None:
        pass

    def publish_counter(self, name: str, value: float = 1, span_id: str | None = None) -> None:
        pass


NULL_BUS = NullBus()


class EventBus:
    """Bounded-queue, drop-counting pub/sub for telemetry events.

    ``publish`` enqueues under a lock and then pumps: queued events are
    dispatched to every subscriber in publication order.  Only one
    thread pumps at a time — a publisher arriving while another thread
    is dispatching leaves its event on the queue for the active pump,
    which keeps subscriber callbacks single-threaded and events ordered
    without a dedicated dispatch thread.
    """

    def __init__(self, capacity: int = 8192):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._queue: deque[Event] = deque()
        self._lock = threading.Lock()
        self._pumping = False
        self._subscribers: list[Subscriber] = []
        self.published = 0
        self.dropped = 0
        self.dispatched = 0
        self.subscriber_errors = 0

    # -- subscriptions -------------------------------------------------
    def subscribe(self, fn: Subscriber) -> Subscriber:
        with self._lock:
            if fn not in self._subscribers:
                self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        with self._lock:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

    # -- publication ---------------------------------------------------
    def publish(self, event: Event) -> None:
        with self._lock:
            if len(self._queue) >= self.capacity:
                self.dropped += 1
                return
            self._queue.append(event)
            self.published += 1
        self.pump()

    def publish_span_start(self, span_doc: dict[str, Any]) -> None:
        self.publish(
            Event(SPAN_START, span_doc.get("name", ""), span_doc,
                  threading.get_ident())
        )

    def publish_span_end(self, span_doc: dict[str, Any]) -> None:
        self.publish(
            Event(SPAN_END, span_doc.get("name", ""), span_doc,
                  threading.get_ident())
        )

    def publish_counter(self, name: str, value: float = 1, span_id: str | None = None) -> None:
        data: dict[str, Any] = {"value": value}
        if span_id is not None:
            data["span_id"] = span_id
        self.publish(Event(COUNTER, name, data, threading.get_ident()))

    # -- dispatch ------------------------------------------------------
    def pump(self) -> int:
        """Dispatch queued events in order; returns how many were sent.

        Re-entrant-safe: a subscriber that publishes (or a second thread
        arriving mid-pump) leaves its events for the active pump loop.
        """
        dispatched = 0
        while True:
            with self._lock:
                if self._pumping:
                    return dispatched
                if not self._queue:
                    return dispatched
                self._pumping = True
                # drain the whole backlog in one batch: one lock round per
                # pump instead of two per event keeps the hot publish path
                # inside the site overhead budget (the common case is a
                # single queued event — skip the copy-and-clear for it)
                if len(self._queue) == 1:
                    batch = (self._queue.popleft(),)
                else:
                    batch = tuple(self._queue)
                    self._queue.clear()
                subscribers = list(self._subscribers)
            more = True
            try:
                for event in batch:
                    for fn in subscribers:
                        try:
                            fn(event)
                        except Exception:
                            self.subscriber_errors += 1
                    dispatched += 1
                    self.dispatched += 1
            finally:
                with self._lock:
                    self._pumping = False
                    more = bool(self._queue)
            if not more:
                return dispatched

    def stats(self) -> dict[str, int]:
        return {
            "published": self.published,
            "dispatched": self.dispatched,
            "dropped": self.dropped,
            "subscriber_errors": self.subscriber_errors,
            "subscribers": len(self._subscribers),
        }


# ----------------------------------------------------------------------
# the ambient bus
# ----------------------------------------------------------------------
_AMBIENT: EventBus | NullBus = NULL_BUS
_AMBIENT_LOCK = threading.Lock()


def get_bus() -> EventBus | NullBus:
    """The process's active event bus, or the shared null bus."""
    return _AMBIENT


@contextmanager
def use_bus(bus: EventBus) -> Iterator[EventBus]:
    """Activate ``bus`` process-wide for the extent of the block.

    A module global rather than a contextvar so events published from
    worker *threads* (serving, parallel viz) reach the same bus;
    nesting restores the previous bus on exit.
    """
    global _AMBIENT
    with _AMBIENT_LOCK:
        previous = _AMBIENT
        _AMBIENT = bus
    try:
        yield bus
    finally:
        with _AMBIENT_LOCK:
            _AMBIENT = previous


def _reset_ambient() -> None:
    global _AMBIENT
    _AMBIENT = NULL_BUS


import os  # noqa: E402  (placed here to keep the fork hook next to its rationale)

if hasattr(os, "register_at_fork"):
    # forked harness workers must not publish into the parent's sinks
    # through inherited file descriptors; their spans ship back with the
    # RunOutcome and are re-published on the parent via replay_spans
    os.register_at_fork(after_in_child=_reset_ambient)


# ----------------------------------------------------------------------
# replay: cross-process propagation
# ----------------------------------------------------------------------
def replay_spans(bus: EventBus | NullBus, span_docs: list[dict[str, Any]]) -> int:
    """Re-publish spans shipped back from a worker process.

    Start events go out in span start order, end events in span end
    order, so subscribers observe the same canonical structure a live
    in-process run publishes (parenting is carried by the span dicts'
    ``parent_id``); only the fine-grained interleaving differs.  Returns
    the number of events published.
    """
    if bus is NULL_BUS or not span_docs:
        return 0
    starts = sorted(span_docs, key=lambda d: (float(d.get("start", 0.0)), str(d.get("span_id", ""))))
    ends = sorted(
        span_docs,
        key=lambda d: (float(d.get("end") or d.get("start", 0.0)), str(d.get("span_id", ""))),
    )
    for doc in starts:
        bus.publish_span_start(doc)
    for doc in ends:
        bus.publish_span_end(doc)
    return 2 * len(span_docs)


def replay_counters(bus: EventBus | NullBus, counters: dict[str, float]) -> int:
    """Re-publish a worker cell's counter deltas as one event per name."""
    if bus is NULL_BUS or not counters:
        return 0
    for name in sorted(counters):
        bus.publish_counter(name, counters[name])
    return len(counters)


# ----------------------------------------------------------------------
# subscribers
# ----------------------------------------------------------------------
class JsonlSink:
    """Incremental trace writer: one span JSON line per ``span_end``.

    Produces a trace file canonically equivalent to the end-of-run
    :func:`repro.obs.export.write_jsonl` export (same spans, ordered by
    span end instead of span start).  The file is truncated on first
    write so a re-run of the same workdir starts clean.

    Writes are buffered and flushed every ``flush_every`` spans (and on
    ``close``/``flush``): a per-line fsync-style flush costs a syscall
    per span — an order of magnitude more than the serialization — and
    live tailing only needs the file to trail the run by a bounded
    number of spans, not by zero.
    """

    def __init__(self, path: str | Path, flush_every: int = 32):
        if flush_every <= 0:
            raise ValueError("flush_every must be positive")
        self.path = Path(path)
        self.flush_every = flush_every
        self.spans_written = 0
        self._fh = None
        self._lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        if event.kind != SPAN_END:
            return
        line = json.dumps(event.data, separators=(",", ":")) + "\n"
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("w")
            self._fh.write(line)
            self.spans_written += 1
            if self.spans_written % self.flush_every == 0:
                self._fh.flush()

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class LiveRenderer:
    """Progress lines for humans: one per completed step-level span.

    Subscribes to ``span_end`` events of the coarse-grained spans (grid
    cells, sessions, plan/step/QA phases) and prints a compact line per
    completion; fine-grained spans (SQL, sandbox internals) and counter
    events are ignored so ``--live`` output stays readable.
    """

    INTERESTING = (
        "harness.cell",
        "session",
        "plan.generate",
        "step.sql",
        "step.python",
        "step.viz",
        "qa.assess",
        "llm.chat",
    )

    def __init__(self, stream=None, verbose: bool = False):
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.verbose = verbose
        self.lines = 0

    @classmethod
    def format_event(cls, event: Event, verbose: bool = False) -> str | None:
        """One progress line for a span-end event, or None to skip it.

        Shared by the stderr renderer and the serving layer's SSE
        streams, so ``--live`` output and streamed session progress stay
        word-for-word identical.
        """
        if event.kind != SPAN_END:
            return None
        name = event.name
        if not verbose and name not in cls.INTERESTING:
            return None
        doc = event.data
        attrs = doc.get("attributes", {})
        hints = " ".join(
            f"{k}={attrs[k]}"
            for k in ("qid", "run_index", "session_id", "step", "attempt",
                      "skill", "ok", "passed", "steps")
            if k in attrs
        )
        status = doc.get("status", "")
        mark = "" if status == "ok" else f" [{status}]"
        dur_ms = float(doc.get("duration", 0.0)) * 1e3
        return f"[live] {name:<18} {dur_ms:9.2f} ms  {hints}{mark}"

    def __call__(self, event: Event) -> None:
        line = self.format_event(event, verbose=self.verbose)
        if line is None:
            return
        print(line, file=self.stream)
        self.lines += 1


class CollectingSubscriber:
    """Test/serving helper: buffers every event it sees, in order."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        with self._lock:
            self.events.append(event)

    def of_kind(self, kind: str) -> list[Event]:
        with self._lock:
            return [e for e in self.events if e.kind == kind]


# ----------------------------------------------------------------------
# the public subscription API
# ----------------------------------------------------------------------
class FilteredSubscriber:
    """Forward only matching events to an inner subscriber.

    ``kinds`` restricts by event kind; ``trace_id`` restricts span
    events to one trace (one served session/request).  Counter events
    carry no trace affiliation, so a ``trace_id`` filter drops them —
    combine with ``kinds`` only when that is what you want.
    """

    def __init__(
        self,
        fn: Subscriber,
        kinds: tuple[str, ...] | None = None,
        trace_id: str | None = None,
    ):
        self.fn = fn
        self.kinds = tuple(kinds) if kinds is not None else None
        self.trace_id = trace_id
        self.forwarded = 0
        self.filtered = 0

    def __call__(self, event: Event) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            self.filtered += 1
            return
        if self.trace_id is not None and event.data.get("trace_id") != self.trace_id:
            self.filtered += 1
            return
        self.forwarded += 1
        self.fn(event)


class BufferedSubscriber:
    """Decouple a slow subscriber from the publish path.

    The bus-facing callable only appends to a bounded deque (newest
    events dropped and counted when the consumer falls behind, matching
    the bus's own semantics) and wakes a dedicated drain thread that
    invokes the wrapped subscriber.  Publishers therefore pay O(1) per
    event no matter how slow the consumer is — the regression the
    serving layer's per-session SSE streams depend on, since a stalled
    HTTP client must never stall the workers' request path.

    ``close()`` drains what is buffered (bounded by ``close_timeout_s``),
    stops the thread, and detaches; it is idempotent.
    """

    def __init__(self, fn: Subscriber, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.fn = fn
        self.capacity = capacity
        self.dropped = 0
        self.delivered = 0
        self.errors = 0
        self._queue: deque[Event] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain, name="repro-buffered-subscriber", daemon=True
        )
        self._thread.start()

    def __call__(self, event: Event) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._queue) >= self.capacity:
                self.dropped += 1
                return
            self._queue.append(event)
            self._cond.notify()

    def _drain(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                event = self._queue.popleft()
            try:
                self.fn(event)
            except Exception:
                self.errors += 1
            else:
                self.delivered += 1

    def close(self, timeout_s: float = 5.0) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout_s)


@dataclass
class Subscription:
    """Handle for one :func:`subscribe` attachment; ``close()`` detaches."""

    bus: EventBus
    attached: Subscriber
    _buffered: BufferedSubscriber | None = None
    _filtered: FilteredSubscriber | None = None

    @property
    def dropped(self) -> int:
        """Events this subscription's own buffer dropped (0 unbuffered)."""
        return self._buffered.dropped if self._buffered is not None else 0

    @property
    def delivered(self) -> int:
        buffered = self._buffered
        if buffered is not None:
            return buffered.delivered
        filtered = self._filtered
        return filtered.forwarded if filtered is not None else self.bus.dispatched

    def close(self) -> None:
        self.bus.unsubscribe(self.attached)
        if self._buffered is not None:
            self._buffered.close()


def subscribe(
    fn: Subscriber,
    bus: EventBus | None = None,
    kinds: tuple[str, ...] | None = None,
    trace_id: str | None = None,
    buffered: bool = False,
    capacity: int = 4096,
) -> Subscription:
    """Attach ``fn`` to an event bus; the documented public hook.

    ``bus`` defaults to the ambient bus (:func:`get_bus`) and must be a
    real :class:`EventBus` — subscribing to the null bus is an error, not
    a silent no-op, because the caller clearly expects events.  ``kinds``
    and ``trace_id`` filter before delivery (see the module docstring's
    subscriber contract); ``buffered=True`` decouples a slow ``fn`` from
    the publish path via :class:`BufferedSubscriber`.  Returns a
    :class:`Subscription` whose ``close()`` detaches (and drains the
    buffer, when there is one).
    """
    target = bus if bus is not None else get_bus()
    if not isinstance(target, EventBus):
        raise RuntimeError(
            "no active event bus to subscribe to; activate one with use_bus() first"
        )
    inner: Subscriber = fn
    buffered_sub: BufferedSubscriber | None = None
    if buffered:
        inner = buffered_sub = BufferedSubscriber(fn, capacity=capacity)
    filtered_sub: FilteredSubscriber | None = None
    if kinds is not None or trace_id is not None:
        inner = filtered_sub = FilteredSubscriber(inner, kinds=kinds, trace_id=trace_id)
    target.subscribe(inner)
    return Subscription(
        bus=target, attached=inner, _buffered=buffered_sub, _filtered=filtered_sub
    )
