"""Public Database façade.

Usage::

    db = Database(workdir / "analysis.db")
    db.create_table("halos", frame)            # or append multiple frames
    top = db.query("SELECT fof_halo_tag, fof_halo_count FROM halos "
                   "ORDER BY fof_halo_count DESC LIMIT 20")

The database is a directory; every table is a column-segmented subdirectory
(see :mod:`repro.db.storage`).  All query execution streams from disk.
``nbytes()`` reports exact on-disk footprint — the paper's storage-overhead
metric counts these bytes.

Every catalog entry carries a monotonic ``version`` bumped on
create/append/drop; combined with the store's content signature it forms
the per-table state that keys the semantic query-result cache
(:mod:`repro.db.cache`), so appending rows provably invalidates every
cached result computed over the old contents.

Writes are crash-safe and reads are snapshot-isolated (MVCC-lite):

* every populated create/append first lands in a CRC-framed, fsynced
  write-ahead log (:mod:`repro.db.wal`), then stages its row-group
  segments, and only *commits* via a single atomic ``catalog.json``
  publish carrying the bumped version and a ``committed_row_groups``
  clamp — a kill at any byte offset recovers to exactly the pre- or
  post-append table, never a hybrid;
* readers pin a :class:`CatalogSnapshot` — an immutable catalog image
  whose stores clamp every scan, zone map and cache key to the
  committed row-group prefix — for the duration of a query (automatic)
  or a whole session (:meth:`Database.pinned`), so concurrent appends
  land new groups without perturbing in-flight work.
"""

from __future__ import annotations

import copy
import json
import re
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro import faults
from repro.db.cache import execute_cached
from repro.db.errors import DBError, IngestKilled, UnknownTableError
from repro.db.sql.ast import CreateTableAs, SelectStatement
from repro.db.sql.executor import execute
from repro.db.sql.parser import parse_sql
from repro.db.storage import (
    DEFAULT_ROW_GROUP_SIZE,
    TableStore,
    publish_json_verified,
)
from repro.db.wal import WriteAheadLog, make_append_record
from repro.frame import Frame
from repro.obs import names as obs_names
from repro.obs.logsetup import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

log = get_logger("db.database")

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


class CatalogSnapshot:
    """An immutable catalog image: table → version + committed row groups.

    Reads through a snapshot are repeatable for its whole lifetime even
    while a writer appends: committed segment directories are immutable,
    so clamping every store to the snapshot's ``committed_row_groups``
    yields byte-identical scans no matter how far the live table has
    advanced.  ``table_state`` is likewise computed over the clamp, so
    query-result cache keys taken under a pin match exactly the results
    a quiescent database at this version would produce.
    """

    def __init__(self, db_path: Path, tables: dict[str, dict]):
        self.db_path = Path(db_path)
        self._tables = copy.deepcopy(tables)
        self._stores: dict[str, TableStore] = {}
        self._states: dict[str, str] = {}

    # -- catalog ----------------------------------------------------------
    def list_tables(self) -> list[str]:
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def entry(self, name: str) -> dict:
        meta = self._tables.get(name)
        if meta is None:
            raise UnknownTableError(name, self.list_tables())
        return meta

    def table_version(self, name: str) -> int:
        return int(self.entry(name).get("version", 0))

    def committed_row_groups(self, name: str) -> int | None:
        """The clamp for this table, or None for pre-WAL legacy entries
        (which are only ever written quiescently, so every group counts)."""
        value = self.entry(name).get("committed_row_groups")
        return None if value is None else int(value)

    def versions(self) -> dict[str, int]:
        return {name: self.table_version(name) for name in self._tables}

    # -- reads ------------------------------------------------------------
    def store(self, name: str) -> TableStore:
        cached = self._stores.get(name)
        if cached is None:
            self.entry(name)  # raise with suggestions if unknown
            cached = self._stores[name] = TableStore(
                self.db_path / name, clamp_row_groups=self.committed_row_groups(name)
            )
        return cached

    def table_state(self, name: str) -> str:
        cached = self._states.get(name)
        if cached is None:
            signature = self.store(name).content_signature()
            if signature is None:
                signature = f"path={self.db_path.resolve()}"
            cached = self._states[name] = (
                f"{name}@v{self.table_version(name)}:{signature}"
            )
        return cached


class Database:
    """An embedded, directory-backed columnar SQL database.

    SELECT results are memoized in the process-wide query-result cache
    (:mod:`repro.db.cache`) unless ``result_cache`` is False.

    ``wal`` (default on) routes populated creates and appends through the
    write-ahead log's commit protocol; ``wal_fsync=False`` keeps the
    protocol but drops the per-record fsync (benchmark use only — it
    trades the durable-intent guarantee for disk-free latency).
    """

    def __init__(
        self,
        path: str | Path,
        result_cache: bool = True,
        wal: bool = True,
        wal_fsync: bool = True,
    ):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._catalog_path = self.path / "catalog.json"
        self._tables = self._read_catalog()
        self._wal = (
            WriteAheadLog(self.path / "wal.log", fsync=wal_fsync) if wal else None
        )
        self._write_lock = threading.Lock()
        self._pins = threading.local()
        self._result_cache = result_cache

    def _read_catalog(self) -> dict[str, dict]:
        if self._catalog_path.exists():
            try:
                return json.loads(self._catalog_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise DBError(
                    f"corrupt catalog at {self._catalog_path}: {exc}"
                ) from exc
        return {}

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def list_tables(self) -> list[str]:
        snap = self._active_snapshot()
        if snap is not None:
            return snap.list_tables()
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        snap = self._active_snapshot()
        if snap is not None:
            return snap.has_table(name)
        return name in self._tables

    def store(self, name: str) -> TableStore:
        snap = self._active_snapshot()
        if snap is not None:
            return snap.store(name)
        meta = self._tables.get(name)
        if meta is None:
            raise UnknownTableError(name, self.list_tables())
        clamp = meta.get("committed_row_groups")
        return TableStore(
            self.path / name,
            clamp_row_groups=None if clamp is None else int(clamp),
        )

    def schema(self, name: str) -> dict[str, str]:
        """Column name -> dtype string for a table."""
        store = self.store(name)
        return {c: store.dtype_of(c).name for c in store.columns}

    def table_version(self, name: str) -> int:
        """Monotonic catalog version of a table (bumped on create/append)."""
        snap = self._active_snapshot()
        if snap is not None:
            return snap.table_version(name)
        meta = self._tables.get(name)
        if meta is None:
            raise UnknownTableError(name, self.list_tables())
        return int(meta.get("version", 0))

    def table_state(self, name: str) -> str:
        """Cache-key component identifying a table's exact contents.

        Prefers the store's content signature (schema + per-segment
        checksums), which is identical across databases holding the same
        bytes — that is what lets the harness runs of one process share
        cached results.  Legacy tables without checksums fall back
        to a path-scoped state, which is always safe, never shared.
        """
        snap = self._active_snapshot()
        if snap is not None:
            return snap.table_state(name)
        version = self.table_version(name)
        signature = self.store(name).content_signature()
        if signature is None:
            signature = f"path={self.path.resolve()}"
        return f"{name}@v{version}:{signature}"

    def _flush_catalog(self) -> None:
        """Crash-safe catalog publish: temp file + verify + atomic rename
        (a cache-invalidation version bump that dies mid-write must not
        corrupt the catalog).  Under the WAL protocol this rename *is*
        the commit point of an append."""
        publish_json_verified(
            self.path, "catalog.json", self._tables, what="catalog.json", indent=1
        )

    # ------------------------------------------------------------------
    # snapshots (MVCC-lite)
    # ------------------------------------------------------------------
    def snapshot(self) -> CatalogSnapshot:
        """Pin the current committed catalog as an immutable snapshot.

        Re-reads ``catalog.json`` so a long-lived handle observes appends
        committed by other handles/threads since it was opened (the
        snapshot is taken at *call* time; it never moves afterwards).
        """
        tables = self._read_catalog() if self._catalog_path.exists() else self._tables
        return CatalogSnapshot(self.path, tables)

    def _pin_stack(self) -> list[CatalogSnapshot]:
        stack = getattr(self._pins, "stack", None)
        if stack is None:
            stack = self._pins.stack = []
        return stack

    def _active_snapshot(self) -> CatalogSnapshot | None:
        stack = self._pin_stack()
        return stack[-1] if stack else None

    @contextmanager
    def pinned(self, snap: CatalogSnapshot | None = None) -> Iterator[CatalogSnapshot]:
        """Route this thread's reads through one snapshot for the block.

        Serve sessions wrap whole requests in a pin so every query of the
        request sees one consistent catalog; ``query()`` pins per
        statement automatically when no outer pin is active.
        """
        snap = snap if snap is not None else self.snapshot()
        stack = self._pin_stack()
        stack.append(snap)
        try:
            yield snap
        finally:
            stack.pop()

    @contextmanager
    def _statement_pin(self) -> Iterator[CatalogSnapshot]:
        """Reuse the session's pin when one is active, else pin per statement."""
        active = self._active_snapshot()
        if active is not None:
            yield active
        else:
            with self.pinned() as snap:
                yield snap

    # ------------------------------------------------------------------
    # WAL commit protocol + recovery
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Replay the WAL: truncate torn tails, finish or discard
        interrupted commits, drop orphan row groups.

        Idempotent and safe to call any time a writer (re)opens the
        database; read paths never trigger it.  Returns an accounting doc
        (also stamped on a ``wal.recover`` span).
        """
        if self._wal is None:
            return {"replayed": 0, "skipped": 0, "torn_tail": 0, "corrupt": 0,
                    "orphan_groups": 0}
        with self._write_lock:
            return self._recover_locked()

    def _recover_locked(self) -> dict:
        registry = get_registry()
        with get_tracer().span(obs_names.WAL_RECOVER_SPAN) as span:
            # a restarted process must judge the durable state, not a
            # stale in-memory image
            self._tables = self._read_catalog()
            records, scan = self._wal.pending()
            replayed = skipped = orphans = 0
            for record in records:
                name = record.get("table")
                kind = record.get("kind")
                entry = self._tables.get(name)
                base = int(record.get("base_version", 0))
                if kind == "create":
                    if entry is not None:
                        skipped += 1  # commit already published
                        continue
                    # a crashed create may have staged segments or even
                    # published meta.json; replay restarts from nothing so
                    # the staged groups cannot double up
                    crashed = TableStore(self.path / name)
                    if crashed.path.exists():
                        orphans += max(crashed.num_row_groups, 1)
                        crashed.drop()
                elif kind == "append":
                    if entry is None:
                        skipped += 1  # table dropped after the record landed
                        continue
                    if int(entry.get("version", 0)) > base:
                        skipped += 1  # commit already published
                        continue
                else:
                    skipped += 1
                    continue
                orphans += self._discard_uncommitted(name)
                frame = Frame(dict(record["columns"]))
                self._commit(
                    name,
                    frame,
                    kind=kind,
                    row_group_size=int(record["row_group_size"]),
                    allow_kills=False,
                )
                replayed += 1
                registry.counter(obs_names.WAL_REPLAYED).inc()
            if skipped:
                registry.counter(obs_names.WAL_SKIPPED_COMMITTED).inc(skipped)
            # even with no replayable record, a crashed stage may have left
            # meta.json or segment dirs ahead of the committed clamp
            for name in list(self._tables):
                orphans += self._discard_uncommitted(name)
            if orphans:
                registry.counter(obs_names.WAL_ORPHAN_GROUPS_DROPPED).inc(orphans)
            self._wal.clear()
            report = {
                "replayed": replayed,
                "skipped": skipped,
                "torn_tail": int(scan.torn_tail),
                "corrupt": int(scan.corrupt_record),
                "orphan_groups": orphans,
            }
            span.set(**{f"wal_{k}": v for k, v in report.items()})
            if replayed or scan.torn_tail or scan.corrupt_record or orphans:
                log.info("WAL recovery at %s: %s", self.path, report)
            return report

    def _discard_uncommitted(self, name: str) -> int:
        """Trim one table back to its committed prefix (recovery helper)."""
        entry = self._tables.get(name)
        if entry is None:
            return 0
        committed = entry.get("committed_row_groups")
        if committed is None:
            return 0
        return TableStore(self.path / name).discard_uncommitted(int(committed))

    def _commit(
        self,
        name: str,
        frame: Frame,
        kind: str,
        row_group_size: int,
        allow_kills: bool = True,
    ) -> None:
        """Stage segments, publish meta, then commit via the catalog.

        ``allow_kills=False`` disarms the simulated-death fault points —
        recovery replays must run to completion deterministically (replay
        is idempotent, so a *real* crash during recovery still only loses
        the in-flight record to the next recovery pass).
        """
        def fire(point: str) -> bool:
            return allow_kills and faults.fire_ingest_kill(point)

        if fire(faults.INGEST_KILL_APPLY):
            raise IngestKilled("apply", f"before staging row groups of {name!r}")
        store = TableStore(self.path / name)
        if allow_kills:
            staged = store.stage_append(frame, row_group_size)
        else:
            with faults.use_faults(faults.NULL_INJECTOR):
                staged = store.stage_append(frame, row_group_size)
        if staged is not None:
            store.publish_staged(staged)
        if fire(faults.INGEST_KILL_PUBLISH):
            raise IngestKilled(
                "publish", f"meta.json of {name!r} published, catalog commit pending"
            )
        committed_groups = len(staged["row_groups"]) if staged is not None else 0
        committed_rows = int(sum(staged["row_groups"])) if staged is not None else 0
        if kind == "create":
            entry = self._tables[name] = {
                "row_group_size": row_group_size,
                "version": 1,
            }
        else:
            entry = self._tables[name]
            entry["version"] = int(entry.get("version", 0)) + 1
        entry["committed_row_groups"] = committed_groups
        entry["committed_rows"] = committed_rows
        self._flush_catalog()

    # ------------------------------------------------------------------
    # DDL / loading
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        frame: Frame | None = None,
        row_group_size: int = DEFAULT_ROW_GROUP_SIZE,
    ) -> None:
        """Create (and optionally populate) a table."""
        if not _NAME_RE.match(name):
            raise DBError(f"invalid table name {name!r}")
        if name in self._tables:
            raise DBError(f"table {name!r} already exists")
        if frame is None or not frame.num_columns:
            # nothing to stage: the single catalog publish is already atomic
            with self._write_lock:
                self._tables[name] = {
                    "row_group_size": row_group_size,
                    "version": 1,
                    "committed_row_groups": 0,
                    "committed_rows": 0,
                }
                self._flush_catalog()
            return
        self._write(name, frame, kind="create", row_group_size=row_group_size)

    def append(self, name: str, frame: Frame) -> None:
        """Append rows to an existing table (schema must match).

        Crash-safe: the frame is WAL-logged before any table bytes move,
        and becomes visible only at the atomic catalog publish.
        """
        meta = self._tables.get(name)
        if meta is None:
            raise UnknownTableError(name, self.list_tables())
        self._write(name, frame, kind="append", row_group_size=int(meta["row_group_size"]))

    def _write(self, name: str, frame: Frame, kind: str, row_group_size: int) -> None:
        with self._write_lock:
            if self._wal is None:
                # direct path (WAL disabled): still commit-ordered — the
                # catalog publish carries the clamp covering the new groups
                self._commit(name, frame, kind=kind, row_group_size=row_group_size,
                             allow_kills=False)
                return
            if self._wal.exists_nonempty():
                # a previous writer died mid-commit; settle its state first
                self._recover_locked()
                if kind == "append" and name not in self._tables:
                    raise UnknownTableError(name, sorted(self._tables))
                if kind == "create" and name in self._tables:
                    raise DBError(f"table {name!r} already exists")
            if kind == "append" and "committed_row_groups" not in self._tables[name]:
                # first WAL-protected append to a pre-WAL table: publish a
                # clamp covering today's quiescent contents, so a crash in
                # the upcoming commit cannot expose its staged tail
                legacy = TableStore(self.path / name)
                self._tables[name]["committed_row_groups"] = legacy.num_row_groups
                self._tables[name]["committed_rows"] = legacy.num_rows
                self._flush_catalog()
            base = (
                int(self._tables[name].get("version", 0))
                if name in self._tables
                else 0
            )
            self._wal.append(
                make_append_record(
                    name,
                    kind,
                    base_version=base,
                    row_group_size=row_group_size,
                    columns={c: frame.column(c) for c in frame.columns},
                )
            )
            self._commit(name, frame, kind=kind, row_group_size=row_group_size)
            self._wal.clear()
            get_registry().counter(obs_names.WAL_COMMITS).inc()

    def drop_table(self, name: str) -> None:
        with self._write_lock:
            if name not in self._tables:
                raise UnknownTableError(name, sorted(self._tables))
            TableStore(self.path / name).drop()
            del self._tables[name]
            self._flush_catalog()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, sql: str) -> Frame:
        """Parse and execute one SQL statement.

        ``CREATE TABLE name AS SELECT ...`` persists the result and returns
        it; a bare SELECT just returns the result frame.  Zone-map pruning
        accounting for the scan is exposed as ``last_scan_stats``; SELECT
        results flow through the semantic query-result cache when enabled.

        Reads run under a pinned catalog snapshot (the session's, if one
        is active, else one taken for this statement), so a SELECT racing
        a concurrent append is byte-identical to the same SELECT against
        the quiescent pre- or post-append table.
        """
        from repro.db.sql.executor import ScanStats

        stmt = parse_sql(sql)
        self.last_scan_stats = ScanStats()
        if isinstance(stmt, CreateTableAs):
            with self._statement_pin():
                result = self._execute_select(stmt.select)
            self.create_table(stmt.name, result)
            return result
        assert isinstance(stmt, SelectStatement)
        with self._statement_pin():
            return self._execute_select(stmt)

    def _execute_select(self, stmt: SelectStatement) -> Frame:
        if self._result_cache:
            return execute_cached(self, stmt, self.last_scan_stats)
        return execute(self, stmt, self.last_scan_stats)

    def table_frame(self, name: str) -> Frame:
        """Materialize a whole table (result-sized tables only)."""
        return self.store(name).read_all()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Total on-disk bytes across all tables."""
        return sum(TableStore(self.path / n).nbytes() for n in self._tables)

    def describe(self) -> str:
        lines = [f"Database at {self.path} ({self.nbytes():,} bytes)"]
        for name in self.list_tables():
            store = self.store(name)
            lines.append(
                f"  {name}: {store.num_rows} rows x {len(store.columns)} cols "
                f"({store.nbytes():,} bytes, {store.num_row_groups} row groups)"
            )
        return "\n".join(lines)
