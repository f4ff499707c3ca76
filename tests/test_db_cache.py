"""Query-result cache: byte-identity, invalidation, sharing across
databases, and bounded memory (repro.db.cache)."""

import numpy as np
import pytest

from repro.db import Database
from repro.db import cache as qcache
from repro.db.cache import QueryCacheStats, clear_memory_cache, stats_snapshot
from repro.frame import Frame


@pytest.fixture(autouse=True)
def cold_cache():
    """Every test starts with an empty cache (it is module-global)."""
    clear_memory_cache()
    yield
    clear_memory_cache()


def make_frame(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return Frame(
        {
            "step": np.repeat(np.arange(n // 100), 100).astype(np.int64),
            "mass": rng.lognormal(3, 1, n),
            "count": rng.integers(1, 500, n),
            "tag": np.asarray([f"halo_{i % 7}" for i in range(n)]),
        }
    )


@pytest.fixture()
def db(tmp_path):
    d = Database(tmp_path / "c.db")
    d.create_table("halos", make_frame(), row_group_size=100)
    return d


@pytest.fixture()
def oracle(tmp_path):
    d = Database(tmp_path / "oracle.db", result_cache=False)
    d.create_table("halos", make_frame(), row_group_size=100)
    return d


def assert_frames_byte_identical(a: Frame, b: Frame):
    assert list(a.columns) == list(b.columns)
    assert a.num_rows == b.num_rows
    for name in a.columns:
        ca, cb = np.asarray(a.column(name)), np.asarray(b.column(name))
        assert ca.dtype == cb.dtype, name
        assert ca.tobytes() == cb.tobytes(), name


QUERIES = [
    "SELECT mass, count FROM halos WHERE step = 3",
    "SELECT * FROM halos WHERE mass > 20 AND count < 100",
    "SELECT step, COUNT(*) AS n, AVG(mass) AS m FROM halos GROUP BY step ORDER BY step",
    "SELECT tag, mass FROM halos ORDER BY mass DESC LIMIT 17",
    "SELECT DISTINCT tag FROM halos ORDER BY tag",
]

# (first, second): statements that differ only in spelling
SPELLING_VARIANTS = [
    ("SELECT count, 1 AS k FROM halos", "SELECT count, 1.0 AS k FROM halos"),
    ("SELECT count + 1 FROM halos", "SELECT 1 + count FROM halos"),
    ("SELECT count > 2 FROM halos", "SELECT 2 < count FROM halos"),
    ("SELECT h.mass FROM halos h", "SELECT mass FROM halos"),
    ("SELECT mass FROM halos WHERE step = 3 AND count > 10",
     "SELECT mass FROM halos WHERE count > 10 AND step = 3"),
]


class TestByteIdentity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_memory_hit_identical_to_uncached(self, db, oracle, sql):
        cold = db.query(sql)
        before = stats_snapshot()
        warm = db.query(sql)
        assert stats_snapshot().delta(before).memory_hits == 1
        assert_frames_byte_identical(warm, oracle.query(sql))
        assert_frames_byte_identical(warm, cold)

    @pytest.mark.parametrize("first, second", SPELLING_VARIANTS)
    def test_spelling_variants_match_uncached(self, db, oracle, first, second):
        """A second spelling of a cached statement is never served the
        first spelling's frame when their columns or dtypes differ."""
        db.query(first)
        assert_frames_byte_identical(db.query(second), oracle.query(second))


class TestInvalidation:
    def test_append_bumps_version_and_invalidates(self, db, tmp_path):
        """Appending rows must provably orphan every stale cached result."""
        sql = "SELECT COUNT(*) AS n FROM halos WHERE step = 0"
        assert db.query(sql)["n"][0] == 100
        assert db.table_version("halos") == 1

        extra = make_frame(200, seed=9)
        db.append("halos", extra)
        assert db.table_version("halos") == 2

        before = stats_snapshot()
        fresh = db.query(sql)
        delta = stats_snapshot().delta(before)
        assert delta.hits == 0
        assert delta.misses == 1 and delta.invalidations == 1
        # the new rows (step 0 and 1 only in a 200-row frame) are visible
        expected = 100 + int((np.asarray(extra.column("step")) == 0).sum())
        assert fresh["n"][0] == expected

        oracle = Database(tmp_path / "inv_oracle.db", result_cache=False)
        oracle.create_table("halos", make_frame(), row_group_size=100)
        oracle.append("halos", extra)
        assert_frames_byte_identical(fresh, oracle.query(sql))

    def test_drop_and_recreate_not_served_stale(self, db):
        sql = "SELECT COUNT(*) AS n FROM halos"
        assert db.query(sql)["n"][0] == 1000
        db.drop_table("halos")
        db.create_table("halos", make_frame(300, seed=4), row_group_size=100)
        assert db.query(sql)["n"][0] == 300


class TestSharing:
    def test_identical_content_shares_entries_across_databases(self, tmp_path):
        """Two databases (think: two harness runs) holding byte-identical
        tables serve each other's results."""
        sql = "SELECT step, AVG(mass) AS m FROM halos GROUP BY step"
        db1 = Database(tmp_path / "r1.db")
        db1.create_table("halos", make_frame(), row_group_size=100)
        out1 = db1.query(sql)

        db2 = Database(tmp_path / "r2.db")
        db2.create_table("halos", make_frame(), row_group_size=100)
        before = stats_snapshot()
        out2 = db2.query(sql)
        assert stats_snapshot().delta(before).memory_hits == 1
        assert_frames_byte_identical(out1, out2)

    def test_different_content_never_shares(self, tmp_path):
        sql = "SELECT COUNT(*) AS n FROM halos"
        db1 = Database(tmp_path / "a.db")
        db1.create_table("halos", make_frame(500, seed=1), row_group_size=100)
        db2 = Database(tmp_path / "b.db")
        db2.create_table("halos", make_frame(700, seed=2), row_group_size=100)
        assert db1.query(sql)["n"][0] == 500
        assert db2.query(sql)["n"][0] == 700


class TestBoundedMemory:
    def test_lru_eviction_counts(self, db):
        old = qcache.memory_capacity()
        try:
            qcache.set_memory_capacity(4)
            before = stats_snapshot()
            for step in range(8):
                db.query(f"SELECT mass FROM halos WHERE step = {step}")
            delta = stats_snapshot().delta(before)
            assert delta.evictions == 8 - 4
            # most recent entry survives in memory
            before = stats_snapshot()
            db.query("SELECT mass FROM halos WHERE step = 7")
            assert stats_snapshot().delta(before).memory_hits == 1
            # oldest was evicted: executed again
            before = stats_snapshot()
            db.query("SELECT mass FROM halos WHERE step = 0")
            assert stats_snapshot().delta(before).misses == 1
        finally:
            qcache.set_memory_capacity(old)


class TestStats:
    def test_mergeable(self):
        a = QueryCacheStats(memory_hits=2, misses=1)
        b = QueryCacheStats(memory_hits=4, misses=1)
        a.merge(b)
        assert a.memory_hits == 6 and a.misses == 2
        assert a.hits == 6 and a.requests == 8
        assert a.hit_ratio == pytest.approx(6 / 8)

    def test_as_dict_round_trip(self):
        d = QueryCacheStats(invalidations=2).as_dict()
        assert d["invalidations"] == 2

    def test_error_paths_uncached(self, db):
        from repro.db.errors import UnknownTableError

        with pytest.raises(UnknownTableError):
            db.query("SELECT x FROM nope")

    def test_cache_disabled_database(self, tmp_path):
        d = Database(tmp_path / "plain.db", result_cache=False)
        d.create_table("t", Frame({"x": np.arange(10)}))
        before = stats_snapshot()
        d.query("SELECT x FROM t")
        d.query("SELECT x FROM t")
        delta = stats_snapshot().delta(before)
        assert delta.requests == 0 and delta.misses == 0
