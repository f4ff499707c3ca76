"""Row-group columnar storage.

A table lives in its own directory::

    <db>/<table>/
      meta.json                 # columns, dtypes, row-group row counts
      rg00000/<column>.npy      # one contiguous array per column per group

Row groups bound executor memory: a scan yields one group at a time, so a
filter over a table of any size peaks at ``row_group_size`` rows — the
"on disk rather than in memory" property the paper gets from DuckDB.
``.npy`` is used as the segment container because NumPy memory-maps it for
free, giving zero-copy selective column reads.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import tempfile
import zlib
from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

from repro import faults
from repro.db.errors import DBError, IngestKilled, UnknownColumnError
from repro.frame import Frame
from repro.obs.logsetup import get_logger
from repro.obs.metrics import get_registry

log = get_logger("db.storage")

DEFAULT_ROW_GROUP_SIZE = 65536
_PUBLISH_ATTEMPTS = 3


def publish_json_verified(
    dir_path: Path, final_name: str, obj, what: str, indent: int | None = None
) -> None:
    """Atomic JSON publish hardened with write-verify-retry.

    Catalog and table metadata are re-read from disk by *fresh* objects on
    every ``Database.store()`` call, so a torn publish here cannot be
    deferred to a read-side check:
    the temp file is read back and compared against the intended bytes
    before ``os.replace`` makes it visible, and a mismatch (the
    ``storage.torn_write`` fault point, or a genuinely short write) is
    rewritten.  After ``_PUBLISH_ATTEMPTS`` failures the publish raises a
    classified :class:`DBError` instead of silently shipping garbage.
    """
    dir_path.mkdir(parents=True, exist_ok=True)
    expected = json.dumps(obj, indent=indent).encode("utf-8")
    injector = faults.get_injector()
    fd, tmp_name = tempfile.mkstemp(dir=dir_path, prefix=final_name + ".", suffix=".tmp")
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        for attempt in range(1, _PUBLISH_ATTEMPTS + 1):
            data = expected
            if injector.fire(faults.STORAGE_TORN_WRITE):
                data = injector.truncate(faults.STORAGE_TORN_WRITE, data)
            tmp.write_bytes(data)
            if tmp.read_bytes() == expected:
                os.replace(tmp, dir_path / final_name)
                return
            get_registry().counter("storage.write_verify_retry").inc()
            log.warning(
                "torn write publishing %s (attempt %d/%d); rewriting",
                what, attempt, _PUBLISH_ATTEMPTS,
            )
        raise DBError(
            f"could not publish intact {what} after {_PUBLISH_ATTEMPTS} attempts"
        )
    finally:
        tmp.unlink(missing_ok=True)


class TableStore:
    """On-disk storage of one table.

    ``clamp_row_groups`` bounds the *visible* row-group prefix: a snapshot
    reader constructed with the catalog's ``committed_row_groups`` sees
    exactly the committed prefix — scans, zone maps, row counts
    and the content signature all stop there — even while a concurrent
    writer stages further groups on disk.  Committed segment directories
    are immutable (appends only ever add higher-numbered groups), which is
    what makes a clamped prefix a consistent snapshot rather than a racy
    window.  ``None`` (the default, and the writer's view) clamps nothing.
    """

    def __init__(self, path: Path, clamp_row_groups: int | None = None):
        self.path = Path(path)
        self._meta: dict = {"columns": {}, "row_groups": []}
        self._clamp = clamp_row_groups
        meta_path = self.path / "meta.json"
        if meta_path.exists():
            try:
                self._meta = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise DBError(
                    f"corrupt table metadata at {meta_path}: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._meta["columns"])

    @property
    def num_rows(self) -> int:
        return int(sum(self._meta["row_groups"][: self.num_row_groups]))

    @property
    def num_row_groups(self) -> int:
        n = len(self._meta["row_groups"])
        if self._clamp is not None:
            n = min(n, self._clamp)
        return n

    @property
    def version(self) -> int:
        """Monotonic content version; bumped on every append."""
        return int(self._meta.get("version", 0))

    def content_signature(self) -> str | None:
        """Content hash over schema + per-segment checksums.

        The query-result cache keys cached frames on this signature, which
        makes results shareable across databases that hold byte-identical
        tables.  Tables written
        before checksums existed return None; callers must then fall back
        to a path-scoped key.

        Computed over the *visible* (clamped) prefix, so a snapshot's
        signature never changes while a writer stages new groups.
        """
        n = self.num_row_groups
        checksums = self._meta.get("checksums", [])
        if len(checksums) < n:
            return None
        doc = json.dumps(
            [self._meta["columns"], self._meta["row_groups"][:n], checksums[:n]],
            sort_keys=True,
        )
        return hashlib.blake2b(doc.encode(), digest_size=16).hexdigest()

    def dtype_of(self, name: str) -> np.dtype:
        try:
            return np.dtype(self._meta["columns"][name])
        except KeyError:
            raise UnknownColumnError(name, self.columns) from None

    def nbytes(self) -> int:
        """Bytes on disk across all segments (storage-overhead metric)."""
        return sum(f.stat().st_size for f in self.path.rglob("*.npy"))

    # ------------------------------------------------------------------
    def append(self, frame: Frame, row_group_size: int = DEFAULT_ROW_GROUP_SIZE) -> None:
        """Append a frame, splitting into row groups.

        Stage + publish in one step — the standalone path for callers
        without a catalog.  :class:`repro.db.database.Database` instead
        drives :meth:`stage_append` / :meth:`publish_staged` separately so
        its WAL commit protocol controls exactly when the new groups
        become durable metadata.
        """
        staged = self.stage_append(frame, row_group_size)
        if staged is not None:
            self.publish_staged(staged)

    def stage_append(
        self, frame: Frame, row_group_size: int = DEFAULT_ROW_GROUP_SIZE
    ) -> dict | None:
        """Write the new row-group segments; return the updated metadata
        doc *without publishing it*.

        Until :meth:`publish_staged` (and, above it, the catalog commit)
        runs, the staged groups are invisible: readers clamp to the
        catalog's committed prefix and the on-disk ``meta.json`` is
        untouched.  A crash mid-stage leaves only orphan segment
        directories, which recovery discards or overwrites.
        """
        if frame.num_columns == 0:
            return None
        staged = copy.deepcopy(self._meta)
        if not staged["columns"]:
            staged["columns"] = {
                n: np.asarray(frame.column(n)).dtype.str for n in frame.columns
            }
        else:
            expected = set(staged["columns"])
            got = set(frame.columns)
            if expected != got:
                raise DBError(
                    f"append schema mismatch: table has {sorted(expected)}, "
                    f"frame has {sorted(got)}"
                )
        self.path.mkdir(parents=True, exist_ok=True)
        staged.setdefault("zone_maps", [])
        staged.setdefault("checksums", [])
        # legacy tables written before zone maps existed: pad the list with
        # empty docs so indexes stay aligned with the groups being appended
        # now (an empty doc never prunes)
        while len(staged["zone_maps"]) < len(staged["row_groups"]):
            staged["zone_maps"].append({})
        for start in range(0, frame.num_rows, row_group_size):
            chunk = frame[start : start + row_group_size]
            rg_index = len(staged["row_groups"])
            rg_dir = self.path / f"rg{rg_index:05d}"
            rg_dir.mkdir(parents=True, exist_ok=True)
            zone_map: dict[str, list[float]] = {}
            checksums: dict[str, int] = {}
            last_path: Path | None = None
            for name in staged["columns"]:
                col = np.asarray(chunk.column(name))
                if col.dtype == object:
                    col = col.astype(str)
                elif np.issubdtype(col.dtype, np.number) and len(col):
                    # a zone map is only sound when it bounds EVERY row:
                    # NaN/inf escape [min(finite), max(finite)], so groups
                    # holding any non-finite value publish no stats and
                    # are never pruned (see repro.db.sql.pruning)
                    as_float = col.astype(np.float64)
                    if np.isfinite(as_float).all():
                        zone_map[name] = [float(as_float.min()), float(as_float.max())]
                checksums[name] = zlib.crc32(np.ascontiguousarray(col).tobytes())
                last_path = rg_dir / f"{name}.npy"
                np.save(last_path, col, allow_pickle=False)
            if last_path is not None and faults.fire_ingest_kill(
                faults.INGEST_PARTIAL_ROW_GROUP
            ):
                # die mid-segment: the last column file survives as a torn
                # prefix, an orphan the commit never covers
                injector = faults.get_injector()
                data = last_path.read_bytes()
                last_path.write_bytes(
                    injector.truncate(faults.INGEST_PARTIAL_ROW_GROUP, data)
                )
                raise IngestKilled(
                    "stage-row-group", f"torn segment {last_path.name} in rg{rg_index:05d}"
                )
            staged["row_groups"].append(chunk.num_rows)
            staged["zone_maps"].append(zone_map)
            staged["checksums"].append(checksums)
        return staged

    def publish_staged(self, staged: dict) -> None:
        """Atomically publish a staged metadata doc with a version bump."""
        staged["version"] = self.version + 1
        self._meta = staged
        self._flush_meta()

    def discard_uncommitted(self, committed_groups: int) -> int:
        """Drop row groups beyond the catalog's committed prefix.

        Used by WAL recovery when a crash left ``meta.json`` (or orphan
        segment directories) running ahead of the catalog commit point.
        Returns the number of orphan segment directories removed.
        """
        raw_groups = self._meta.get("row_groups", [])
        if committed_groups < len(raw_groups):
            for key in ("row_groups", "zone_maps", "checksums"):
                if key in self._meta:
                    del self._meta[key][committed_groups:]
            self._flush_meta()
        dropped = 0
        for rg_dir in self.path.glob("rg*"):
            try:
                index = int(rg_dir.name[2:])
            except ValueError:
                continue
            if index >= committed_groups and rg_dir.is_dir():
                shutil.rmtree(rg_dir)
                dropped += 1
        return dropped

    def _flush_meta(self) -> None:
        """Crash-safe metadata publish: temp file + verify + atomic rename.

        A process dying mid-write must never leave a truncated meta.json
        behind — that would corrupt the whole table, not just the append
        (or the cache-invalidating version bump) in flight.
        """
        publish_json_verified(
            self.path, "meta.json", self._meta, what=f"meta.json of {self.path.name!r}"
        )

    # ------------------------------------------------------------------
    def read_row_group(
        self, index: int, columns: Sequence[str] | None = None, mmap: bool = True
    ) -> Frame:
        """Read one row group; columns not requested are never touched."""
        if not (0 <= index < self.num_row_groups):
            raise DBError(f"row group {index} out of range [0, {self.num_row_groups})")
        names = list(columns) if columns is not None else self.columns
        for n in names:
            self.dtype_of(n)  # validate with a helpful error
        rg_dir = self.path / f"rg{index:05d}"
        mode = "r" if mmap else None
        return Frame(
            {n: np.load(rg_dir / f"{n}.npy", mmap_mode=mode, allow_pickle=False) for n in names}
        )

    def zone_map(self, index: int) -> dict[str, tuple[float, float]]:
        """Per-column (min, max) of one row group (empty for legacy tables)."""
        maps = self._meta.get("zone_maps", [])
        if index >= len(maps):
            return {}
        return {k: (v[0], v[1]) for k, v in maps[index].items()}

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Frame]:
        """Stream the table one row group at a time."""
        for i in range(self.num_row_groups):
            yield self.read_row_group(i, columns)

    def read_all(self, columns: Sequence[str] | None = None) -> Frame:
        """Materialize the whole table (only for result-sized tables)."""
        from repro.frame import concat

        groups = list(self.scan(columns))
        if not groups:
            return Frame()
        return concat([Frame({n: np.asarray(g.column(n)) for n in g.columns}) for g in groups])

    def drop(self) -> None:
        if self.path.exists():
            shutil.rmtree(self.path)
