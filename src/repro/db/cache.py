"""Query-result cache keyed on the exact parsed statement.

The QA redo loop and the evaluation harness re-issue the same SQL across
revisions, repeated questions and runs.  This module memoizes executed
result frames behind a content-addressed key so that re-work in the same
process costs a lookup instead of a scan.

**Key.**  ``blake2b(repr(statement) | per-table states)``.  The parser
already folds whitespace and keyword case; nothing else is folded, so two
spellings share an entry only when they parse to the same statement (an
alias, operand order or literal type that differs is a different entry,
because it can change the result's column names or dtypes).  The table
state (``Database.table_state``) combines the catalog's monotonic version
with the store's content checksums, so appending rows changes every
affected key — stale results are unreachable by construction, and
byte-identical tables in *different* databases (every harness run loads
the same subset) share entries.

**One tier**: an in-process bounded LRU of result frames, shared by every
Database in the process across redo attempts, repeated questions and
harness runs.  A miss is a full streaming execution whose result is then
stored.  There is no on-disk tier: every hit measured on the eval, one-shot
query and serving workloads came from memory, while publishing each miss
to disk cost a write per miss.

Hits and misses count into the process-local :data:`QUERY_STATS`
(mergeable — the harness ships deltas back from worker processes), into
``repro.obs`` metrics counters, and onto ``sql.execute`` span attributes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.db.errors import UnknownTableError
from repro.db.sql import ast
from repro.db.sql.executor import ScanStats, execute as sql_execute
from repro.frame import Frame
from repro.obs.names import SQL_EXECUTE_SPAN
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.util.stats import MergeableCounters

DEFAULT_MEMORY_ENTRIES = 128
_MAX_TRACKED_STATEMENTS = 4096


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class QueryCacheStats(MergeableCounters):
    """Process-local counters of the query-result cache."""

    memory_hits: int = 0
    misses: int = 0                  # full streaming executions
    stores: int = 0
    evictions: int = 0               # in-process LRU evictions
    invalidations: int = 0           # a known statement's table state changed

    @property
    def hits(self) -> int:
        return self.memory_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


QUERY_STATS = QueryCacheStats()

# key -> result Frame, LRU over insertion/use order
_MEMORY: OrderedDict[str, Frame] = OrderedDict()
_MEMORY_CAPACITY = DEFAULT_MEMORY_ENTRIES

# statement -> last-seen table-states key (invalidation accounting)
_LAST_STATES: OrderedDict[str, str] = OrderedDict()


def stats_snapshot() -> QueryCacheStats:
    """Copy of the process-wide counters (subtract later with ``delta``)."""
    return QUERY_STATS.copy()


def set_memory_capacity(entries: int) -> None:
    """Resize the in-process result LRU (evicting down if needed)."""
    global _MEMORY_CAPACITY
    _MEMORY_CAPACITY = max(0, int(entries))
    _evict_to_capacity()


def memory_capacity() -> int:
    return _MEMORY_CAPACITY


def clear_memory_cache() -> None:
    """Drop the in-process results and invalidation state."""
    _MEMORY.clear()
    _LAST_STATES.clear()


def _evict_to_capacity() -> None:
    while len(_MEMORY) > _MEMORY_CAPACITY:
        _MEMORY.popitem(last=False)
        QUERY_STATS.evictions += 1
        get_registry().counter("db.cache.eviction").inc()


def _memory_put(key: str, frame: Frame) -> None:
    _MEMORY[key] = frame
    _MEMORY.move_to_end(key)
    _evict_to_capacity()


def _memory_get(key: str) -> Frame | None:
    frame = _MEMORY.get(key)
    if frame is not None:
        _MEMORY.move_to_end(key)
    return frame


def _view(frame: Frame) -> Frame:
    """A fresh Frame over the same column arrays (callers may reshape the
    column dict; by repo convention nobody mutates arrays in place)."""
    return Frame({name: frame.column(name) for name in frame.columns})


def _table_names(stmt: ast.SelectStatement) -> tuple[str, ...]:
    """Every real table the statement touches, subqueries included."""
    names: list[str] = []

    def visit(s: ast.SelectStatement) -> None:
        for ref in (s.table, *(j.table for j in s.joins)):
            if ref.is_subquery:
                visit(ref.subquery)
            elif ref.name is not None and ref.name not in names:
                names.append(ref.name)

    visit(stmt)
    return tuple(names)


def _shape_attrs(stmt: ast.SelectStatement) -> dict:
    """The statement-shape attributes the executor stamps on every
    ``sql.execute`` span; hit spans carry the same ones so a cached run's
    canonical span tree matches a cold run's (the ``cache`` tier itself
    is excluded from canonicalization, like timing)."""
    return {
        "grouped": bool(stmt.group_by)
        or any(ast.contains_aggregate(item.expr) for item in stmt.items),
        "joins": len(stmt.joins),
    }


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
def execute_cached(db, stmt: ast.SelectStatement, scan_stats: ScanStats | None) -> Frame:
    """Serve ``stmt`` from the in-process LRU, or execute and store it."""
    try:
        states = tuple(db.table_state(t) for t in _table_names(stmt))
    except UnknownTableError:
        # unknown table: run the ordinary path so the agent-facing
        # error (with known-table suggestions) is raised unchanged
        return sql_execute(db, stmt, scan_stats)

    statement = repr(stmt)
    states_key = "|".join(states)
    _track_invalidation(statement, states_key)
    key = hashlib.blake2b(f"{statement}|{states_key}".encode(), digest_size=16).hexdigest()

    frame = _memory_get(key)
    if frame is not None:
        QUERY_STATS.memory_hits += 1
        get_registry().counter("db.cache.hit.memory").inc()
        # every SELECT counts as a query regardless of how it was served,
        # so "sql.queries" stays identical between cached and cold runs
        get_registry().counter("sql.queries").inc()
        with get_tracer().span(SQL_EXECUTE_SPAN, cache="memory", **_shape_attrs(stmt)) as sp:
            sp.set(rows=frame.num_rows)
        return _view(frame)

    QUERY_STATS.misses += 1
    get_registry().counter("db.cache.miss").inc()
    frame = sql_execute(db, stmt, scan_stats, cache_outcome="miss")
    QUERY_STATS.stores += 1
    get_registry().counter("db.cache.store").inc()
    _memory_put(key, frame)
    return frame


def _track_invalidation(statement: str, states_key: str) -> None:
    previous = _LAST_STATES.get(statement)
    if previous is not None and previous != states_key:
        QUERY_STATS.invalidations += 1
        get_registry().counter("db.cache.invalidation").inc()
    _LAST_STATES[statement] = states_key
    _LAST_STATES.move_to_end(statement)
    while len(_LAST_STATES) > _MAX_TRACKED_STATEMENTS:
        _LAST_STATES.popitem(last=False)
