"""Query-result cache keyed on the exact parsed statement.

The QA redo loop and the evaluation harness re-issue the same SQL across
revisions, repeated questions, runs and worker processes.  This module
memoizes executed result frames behind a content-addressed key so that
re-work costs a lookup instead of a scan.

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

**Tiers** (mirroring :mod:`repro.rag.cache`):

1. in-process bounded LRU of result frames (shared by every Database in
   the process, across redo attempts and repeated questions);
2. on-disk ``.npy`` columns + JSON sidecar under ``cache_dir``, published
   atomically (write-temp-then-rename) and served memory-mapped, shared
   across harness worker processes and one-shot queries;
3. cold miss: full streaming execution, then publish for everyone else.

All tiers count into the process-local :data:`QUERY_STATS` (mergeable —
the harness ships deltas back from worker processes), into ``repro.obs``
metrics counters, and onto ``sql.execute`` span attributes.

**Self-healing.**  Every published column file carries a CRC32 in the
sidecar.  A read that fails verification — a torn write that published a
truncated column, a bit flipped on disk, a mangled sidecar — *quarantines*
the entry (moved under ``<cache_dir>/.quarantine/``, counted as
``db.cache.quarantine``) and falls through to recomputation, which
re-publishes a good copy.  Corruption therefore costs one extra execution,
never a wrong answer and never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro.db.errors import UnknownTableError
from repro.db.sql import ast
from repro.db.sql.executor import ScanStats, execute as sql_execute
from repro.frame import Frame
from repro.obs.logsetup import get_logger
from repro.obs.names import SQL_EXECUTE_SPAN
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.util.stats import MergeableCounters

log = get_logger("db.cache")

SIDECAR_NAME = "result.json"
QUARANTINE_DIRNAME = ".quarantine"
DEFAULT_MEMORY_ENTRIES = 128
_MAX_TRACKED_STATEMENTS = 4096


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class QueryCacheStats(MergeableCounters):
    """Process-local counters for every query-result-cache tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0                  # full streaming executions
    stores: int = 0
    evictions: int = 0               # in-process LRU evictions
    invalidations: int = 0           # a known statement's table state changed
    quarantined: int = 0             # corrupt disk entries moved aside

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


QUERY_STATS = QueryCacheStats()

# tier 1: key -> result Frame, LRU over insertion/use order
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
class _CorruptEntry(ValueError):
    """A published disk entry failed verification; quarantine it."""


class QueryResultCache:
    """Tiered result store driving ``Database.query`` SELECT execution.

    The in-process LRU is module-global and shared by every instance; ``cache_dir`` adds the cross-process disk
    tier when set.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    # -- orchestration -------------------------------------------------
    def execute(self, db, stmt: ast.SelectStatement, scan_stats: ScanStats | None) -> Frame:
        try:
            states = tuple(db.table_state(t) for t in _table_names(stmt))
        except UnknownTableError:
            # unknown table: run the ordinary path so the agent-facing
            # error (with known-table suggestions) is raised unchanged
            return sql_execute(db, stmt, scan_stats)

        statement = repr(stmt)
        states_key = "|".join(states)
        self._track_invalidation(statement, states_key)
        key = hashlib.blake2b(
            f"{statement}|{states_key}".encode(), digest_size=16
        ).hexdigest()

        frame = _memory_get(key)
        if frame is not None:
            return self._record_hit("memory", stmt, frame)

        frame = self._disk_load(key)
        if frame is not None:
            _memory_put(key, frame)
            return self._record_hit("disk", stmt, frame)

        QUERY_STATS.misses += 1
        get_registry().counter("db.cache.miss").inc()
        frame = sql_execute(db, stmt, scan_stats, cache_outcome="miss")
        self._store(key, frame)
        return frame

    def _record_hit(self, tier: str, stmt: ast.SelectStatement, frame: Frame) -> Frame:
        setattr(QUERY_STATS, f"{tier}_hits", getattr(QUERY_STATS, f"{tier}_hits") + 1)
        get_registry().counter(f"db.cache.hit.{tier}").inc()
        # every SELECT counts as a query regardless of how it was served,
        # so "sql.queries" stays identical between cached and cold runs
        get_registry().counter("sql.queries").inc()
        with get_tracer().span(SQL_EXECUTE_SPAN, cache=tier, **_shape_attrs(stmt)) as sp:
            sp.set(rows=frame.num_rows)
        return _view(frame)

    def _track_invalidation(self, statement: str, states_key: str) -> None:
        previous = _LAST_STATES.get(statement)
        if previous is not None and previous != states_key:
            QUERY_STATS.invalidations += 1
            get_registry().counter("db.cache.invalidation").inc()
        _LAST_STATES[statement] = states_key
        _LAST_STATES.move_to_end(statement)
        while len(_LAST_STATES) > _MAX_TRACKED_STATEMENTS:
            _LAST_STATES.popitem(last=False)

    # -- publishing ----------------------------------------------------
    def _store(self, key: str, frame: Frame) -> None:
        QUERY_STATS.stores += 1
        get_registry().counter("db.cache.store").inc()
        _memory_put(key, frame)
        self._disk_store(key, frame)

    # -- disk tier -----------------------------------------------------
    def _entry_dir(self, key: str) -> Path | None:
        return None if self.cache_dir is None else self.cache_dir / f"q_{key}"

    def quarantined_entries(self) -> list[Path]:
        if self.cache_dir is None:
            return []
        qdir = self.cache_dir / QUARANTINE_DIRNAME
        if not qdir.is_dir():
            return []
        return sorted(p for p in qdir.iterdir() if p.is_dir())

    def _disk_load(self, key: str) -> Frame | None:
        entry = self._entry_dir(key)
        if entry is None or not entry.is_dir():
            return None
        try:
            return self._read_entry(entry, key)
        except _CorruptEntry as exc:
            self._quarantine(entry, str(exc))
            return None
        except OSError:
            return None  # raced with another process's quarantine/clear

    def _read_entry(self, entry: Path, key: str) -> Frame:
        """Load and *verify* one published entry.

        Raises :class:`_CorruptEntry` for anything that should not be
        possible under an intact publish: unreadable/mismatched sidecar,
        a missing or CRC-failing column file, a row-count mismatch.
        """
        injector = faults.get_injector()
        try:
            meta = json.loads((entry / SIDECAR_NAME).read_text())
        except FileNotFoundError:
            raise _CorruptEntry("sidecar missing") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _CorruptEntry(f"sidecar unreadable: {exc}") from None
        if not isinstance(meta, dict) or meta.get("key") != key:
            raise _CorruptEntry("sidecar key mismatch")
        crcs = meta.get("crc32")
        try:
            names = list(meta["columns"])
            num_rows = int(meta["num_rows"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _CorruptEntry(f"sidecar schema: {exc}") from None
        columns: dict[str, np.ndarray] = {}
        for i, name in enumerate(names):
            path = entry / f"col{i:05d}.npy"
            if crcs is not None:
                try:
                    raw = path.read_bytes()
                except FileNotFoundError:
                    raise _CorruptEntry(f"column file {path.name} missing") from None
                if injector.fire(faults.STORAGE_BIT_FLIP):
                    raw = injector.flip_bit(faults.STORAGE_BIT_FLIP, raw)
                if (zlib.crc32(raw) & 0xFFFFFFFF) != int(crcs[i]):
                    raise _CorruptEntry(f"column {name!r} failed CRC")
            try:
                arr = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                raise _CorruptEntry(f"column {name!r} unreadable: {exc}") from None
            if len(arr) != num_rows:
                raise _CorruptEntry(
                    f"column {name!r} has {len(arr)} rows, sidecar says {num_rows}"
                )
            columns[name] = arr
        return Frame(columns)

    def _quarantine(self, entry: Path, detail: str) -> None:
        """Move a corrupt entry aside so the next execution re-publishes."""
        QUERY_STATS.quarantined += 1
        get_registry().counter("db.cache.quarantine").inc()
        span = get_tracer().current()
        if span is not None:
            attrs = span.attributes
            attrs["cache_quarantined"] = int(attrs.get("cache_quarantined", 0)) + 1
        log.warning("quarantining corrupt cache entry %s: %s", entry.name, detail)
        qdir = entry.parent / QUARANTINE_DIRNAME
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(entry, qdir / entry.name)
        except OSError:
            shutil.rmtree(entry, ignore_errors=True)

    def _disk_store(self, key: str, frame: Frame) -> None:
        """Atomic write-temp-then-rename publish (racers lose quietly)."""
        entry = self._entry_dir(key)
        if entry is None or entry.exists():
            return
        if any(frame.column(n).dtype == object for n in frame.columns):
            return  # object columns don't round-trip .npy; memory tier only
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = Path(tempfile.mkdtemp(dir=self.cache_dir, prefix=".q_tmp_"))
        except OSError:
            return  # read-only workdir degrades to in-process caching
        try:
            crcs: list[int] = []
            for i, name in enumerate(frame.columns):
                path = tmp / f"col{i:05d}.npy"
                np.save(path, np.asarray(frame.column(name)), allow_pickle=False)
                crcs.append(zlib.crc32(path.read_bytes()) & 0xFFFFFFFF)
            sidecar = {
                "key": key,
                "columns": list(frame.columns),
                "dtypes": [str(frame.column(n).dtype) for n in frame.columns],
                "num_rows": frame.num_rows,
                "crc32": crcs,
            }
            (tmp / SIDECAR_NAME).write_text(json.dumps(sidecar, indent=1))
            injector = faults.get_injector()
            if frame.columns and injector.fire(faults.STORAGE_TORN_WRITE):
                # tear the first column file *after* its CRC was recorded:
                # the publish "succeeds", and the read side must catch it
                victim = tmp / "col00000.npy"
                victim.write_bytes(
                    injector.truncate(faults.STORAGE_TORN_WRITE, victim.read_bytes())
                )
            os.rename(tmp, entry)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)

    # -- maintenance ---------------------------------------------------
    def disk_entries(self) -> list[Path]:
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return []
        return sorted(p for p in self.cache_dir.iterdir()
                      if p.is_dir() and p.name.startswith("q_"))

    def footprint_bytes(self) -> int:
        """On-disk bytes held by published result entries."""
        return sum(
            f.stat().st_size
            for entry in self.disk_entries()
            for f in entry.iterdir()
            if f.is_file()
        )

    def clear_disk(self) -> int:
        """Remove every published entry; returns how many were dropped."""
        entries = self.disk_entries()
        for entry in entries:
            shutil.rmtree(entry, ignore_errors=True)
        return len(entries)
