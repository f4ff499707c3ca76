"""Row-group chunking: a table's answers do not depend on its row groups.

The executor scans row groups one at a time and folds per-group partials
in row-group order.  These tests store the same rows as 15 row groups
and as one, and sweep the query shapes the executor special-cases —
plain scans, early-terminating LIMIT, streaming top-k, grouped
aggregation (every accumulator kind), global aggregates, DISTINCT, joins,
subqueries — requiring the same columns, dtypes and row order.  Non-float
columns must match byte for byte; float columns may differ only in the
last-bit rounding of a SUM/AVG/VAR folded over a different split.
"""

import numpy as np
import pytest

from repro.db import Database
from repro.frame import Frame

ONE_GROUP = 1_000_000


def _table_frame(n=1500, seed=7):
    rng = np.random.default_rng(seed)
    steps = np.repeat([0, 124, 249, 374, 498, 624], n // 6)
    mass = rng.lognormal(3, 1, n)
    x = rng.uniform(-50, 50, n)
    x[rng.random(n) < 0.05] = np.nan  # NaN-handling must match exactly
    return Frame(
        {
            "step": steps,
            "run": rng.integers(0, 4, n),
            "kind": rng.choice(np.asarray(["cold", "warm", "hot"]), n),
            "mass": mass,
            "x": x,
        }
    )


def _build(path, halos_group, runs_group):
    d = _open(path)
    d.create_table("halos", _table_frame(), row_group_size=halos_group)
    d.create_table(
        "runs",
        Frame({"run": np.arange(4), "weight": np.asarray([1.0, 2.5, 0.5, 4.0])}),
        row_group_size=runs_group,
    )
    return path


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    """The table split into 15 row groups (and ``runs`` into 2)."""
    path = _build(tmp_path_factory.mktemp("rg") / "many.db", 100, 2)
    assert _open(path).store("halos").num_row_groups == 15
    return path


@pytest.fixture(scope="module")
def one_group_path(tmp_path_factory):
    """The same rows, each table stored as a single row group."""
    path = _build(tmp_path_factory.mktemp("rg") / "one.db", ONE_GROUP, ONE_GROUP)
    assert _open(path).store("halos").num_row_groups == 1
    return path


def _open(path):
    # caching off so every query truly executes
    return Database(path, result_cache=False)


def assert_frames_match(a, b):
    assert list(a.columns) == list(b.columns)
    assert a.num_rows == b.num_rows
    for name in a.columns:
        ca = np.asarray(a.column(name))
        cb = np.asarray(b.column(name))
        assert ca.dtype == cb.dtype, f"{name}: {ca.dtype} != {cb.dtype}"
        if ca.dtype == object:
            assert ca.tolist() == cb.tolist()
        elif np.issubdtype(ca.dtype, np.floating):
            np.testing.assert_allclose(
                ca, cb, rtol=1e-12, atol=0.0, equal_nan=True, err_msg=name
            )
        else:
            assert ca.tobytes() == cb.tobytes(), f"{name}: bytes differ"


QUERIES = [
    # plain scan + filter
    "SELECT mass, x FROM halos WHERE mass > 20",
    # early-terminating un-ordered LIMIT
    "SELECT mass FROM halos WHERE mass > 5 LIMIT 37",
    # selective scan with zone-map pruning in play
    "SELECT mass FROM halos WHERE step = 624",
    # string equality beside a zone-prunable IN list
    "SELECT mass FROM halos WHERE kind = 'hot' AND step IN (124, 498)",
    # streaming top-k
    "SELECT mass FROM halos WHERE step > 100 ORDER BY mass DESC LIMIT 10",
    # grouped: one of every accumulator kind
    "SELECT step, COUNT(*) AS n, SUM(mass) AS s, AVG(mass) AS m, "
    "MIN(mass) AS lo, MAX(mass) AS hi, STDDEV(mass) AS sd, "
    "MEDIAN(mass) AS med FROM halos GROUP BY step ORDER BY step",
    # unordered GROUP BY: result row order comes from registry order
    # (first appearance), which must not depend on the row-group split
    "SELECT kind, COUNT(*) AS n, COUNT(DISTINCT run) AS r, VAR(x) AS v "
    "FROM halos GROUP BY kind",
    # multi-key grouping with HAVING and aggregate ORDER BY
    "SELECT run, step, AVG(mass) AS m FROM halos GROUP BY run, step "
    "HAVING COUNT(*) > 10 ORDER BY AVG(mass) DESC",
    # global aggregate over a filtered scan
    "SELECT COUNT(*) AS n, VAR(mass) AS v FROM halos WHERE kind = 'warm'",
    # aggregates over a column holding NaN
    "SELECT run, AVG(x) AS mx, COUNT(x) AS nx FROM halos GROUP BY run ORDER BY run",
    # DISTINCT
    "SELECT DISTINCT run, kind FROM halos ORDER BY run, kind",
    # join + grouping
    "SELECT run, COUNT(*) AS n, SUM(weight) AS w FROM halos "
    "JOIN runs ON run = run GROUP BY run ORDER BY run",
    # subquery source
    "SELECT step, n FROM (SELECT step, COUNT(*) AS n FROM halos "
    "WHERE mass > 10 GROUP BY step) s ORDER BY n DESC",
    # zero-row result (empty projection must stay schema-stable)
    "SELECT mass, x FROM halos WHERE mass < 0",
    "SELECT step, COUNT(*) AS n FROM halos WHERE mass < 0 GROUP BY step",
]


class TestRowGroupChunking:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_single_group(self, db_path, one_group_path, sql):
        chunked = _open(db_path).query(sql)
        whole = _open(one_group_path).query(sql)
        assert_frames_match(chunked, whole)


class TestEmptyProjectionDtypes:
    """Satellite: zero-row results must carry schema-derived dtypes, not
    unconditional float64, so empty frames are byte-stable vs non-empty
    schemas and across row-group splits."""

    def test_plain_empty_matches_store_schema(self, db_path):
        d = _open(db_path)
        empty = d.query("SELECT step, kind, mass FROM halos WHERE mass < 0")
        assert empty.num_rows == 0
        full = d.query("SELECT step, kind, mass FROM halos LIMIT 1")
        for name in ("step", "kind", "mass"):
            assert np.asarray(empty.column(name)).dtype == np.asarray(
                full.column(name)
            ).dtype

    def test_count_is_integer_in_empty_grouped_result(self, db_path):
        d = _open(db_path)
        empty = d.query("SELECT step, COUNT(*) AS n FROM halos WHERE mass < 0 GROUP BY step")
        assert empty.num_rows == 0
        assert np.asarray(empty.column("n")).dtype == np.int64
        full = d.query("SELECT step, COUNT(*) AS n FROM halos GROUP BY step")
        assert np.asarray(full.column("n")).dtype == np.int64


class TestDensify:
    """Satellite: _densify only copies mmap-backed columns."""

    def test_owned_arrays_pass_through(self):
        from repro.db.sql.executor import _densify

        frame = Frame({"a": np.arange(5), "b": np.linspace(0, 1, 5)})
        assert _densify(frame) is frame

    def test_mmap_columns_are_copied(self, tmp_path):
        from repro.db.sql.executor import _densify

        np.save(tmp_path / "seg.npy", np.arange(8))
        loaded = np.load(tmp_path / "seg.npy", mmap_mode="r")
        out = _densify(Frame({"a": loaded}))
        arr = np.asarray(out.column("a"))
        assert not isinstance(arr, np.memmap)
        assert arr.tolist() == list(range(8))


class TestVectorizedRegistry:
    """The np.unique-based group coder must reproduce the sequential
    first-appearance code assignment exactly."""

    def test_codes_match_dict_loop(self):
        from repro.db.sql.executor import _GroupRegistry, _local_codes_slow

        rng = np.random.default_rng(3)
        arrays = [
            rng.integers(0, 5, 200),
            rng.choice(np.asarray(["a", "b", "c"]), 200),
        ]
        fast = _GroupRegistry().codes_for(arrays)
        keys, slow = _local_codes_slow([np.asarray(a) for a in arrays])
        assert fast.tolist() == slow.tolist()

    def test_registry_order_is_first_appearance(self):
        from repro.db.sql.executor import _GroupRegistry

        reg = _GroupRegistry()
        reg.codes_for([np.asarray([30, 10, 30, 20])])
        assert reg.keys == [(30,), (10,), (20,)]
        # a second chunk reuses existing codes and appends new ones
        codes = reg.codes_for([np.asarray([20, 40, 10])])
        assert codes.tolist() == [2, 3, 1]
        assert reg.keys[3] == (40,)
