"""Self-test of the layer-span arithmetic in ``spans.py``.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"

A fake clock kept per thread makes every duration exact: each fake call
advances its own thread's clock by whole units, so self and inclusive
times are integers and must match to the last bit.
"""

from __future__ import annotations

import os
import tempfile
import threading
import unittest

from spans import LayerTracer, merge_tables


class FakeClock:
    """A clock per thread, advanced only by ``tick``."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def tick(self, units: float) -> None:
        self._local.now = self() + units


class Work:
    """Nested fake calls: outer -> inner, and a recursive layer."""

    def __init__(self, clock: FakeClock, scale: float, fd: int):
        self.clock = clock
        self.scale = scale
        self.fd = fd

    def outer(self):
        self.clock.tick(1 * self.scale)
        self.inner()
        os.fsync(self.fd)
        self.clock.tick(2 * self.scale)
        self.inner()
        return "outer"

    def inner(self):
        self.clock.tick(3 * self.scale)
        os.fsync(self.fd)

    def recurse(self, depth: int):
        self.clock.tick(1 * self.scale)
        if depth:
            self.recurse(depth - 1)
        else:
            os.fsync(self.fd)


class LayerTracerTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = LayerTracer(clock=self.clock)
        self.tracer.wrap(Work, "outer", "outer")
        self.tracer.wrap(Work, "inner", "inner")
        self.tracer.wrap(Work, "recurse", "recurse")
        self.tracer.count_calls(os, "fsync", "fsyncs")
        handle = tempfile.TemporaryFile()
        self.addCleanup(handle.close)
        self.fd = handle.fileno()

    def tearDown(self):
        self.tracer.uninstall()

    def _run(self, scale: float) -> None:
        work = Work(self.clock, scale, self.fd)
        self.assertEqual(work.outer(), "outer")
        work.recurse(2)
        os.fsync(self.fd)  # outside any layer: counted nowhere

    def test_self_and_inclusive_times_per_thread(self):
        threads = [
            threading.Thread(target=self._run, args=(scale,), name=f"t{scale}")
            for scale in (1, 10)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            self.assertFalse(thread.is_alive())

        tables = dict(self.tracer.tables())
        self.assertEqual(sorted(tables), ["t1", "t10"])
        for name, scale in (("t1", 1), ("t10", 10)):
            table = tables[name]
            # outer: 1 + 2 own units around two inner calls of 3 units each
            self.assertEqual(table["outer"]["self_s"], 3 * scale)
            self.assertEqual(table["outer"]["incl_s"], 9 * scale)
            self.assertEqual(table["outer"]["calls"], 1)
            self.assertEqual(table["inner"]["self_s"], 6 * scale)
            self.assertEqual(table["inner"]["incl_s"], 6 * scale)
            self.assertEqual(table["inner"]["calls"], 2)
            # recursion within one layer: time counted once, one call
            self.assertEqual(table["recurse"]["self_s"], 3 * scale)
            self.assertEqual(table["recurse"]["incl_s"], 3 * scale)
            self.assertEqual(table["recurse"]["calls"], 1)
            # fsync: one in outer itself, one in each inner (which is
            # also inside outer); the one three recurse frames deep counts
            # once; the un-spanned one counts nowhere
            self.assertEqual(table["outer"]["fsyncs"], 3)
            self.assertEqual(table["inner"]["fsyncs"], 2)
            self.assertEqual(table["recurse"]["fsyncs"], 1)

        merged = merge_tables(self.tracer.tables())
        self.assertEqual(merged["outer"]["self_s"], 33)
        self.assertEqual(merged["inner"]["fsyncs"], 4)
        only_t1 = merge_tables(self.tracer.tables(), keep=lambda n: n == "t1")
        self.assertEqual(only_t1["inner"]["incl_s"], 6)

    def test_uninstall_restores_originals(self):
        self.tracer.uninstall()
        self.assertFalse(hasattr(Work.outer, "__wrapped__"))
        self.assertFalse(hasattr(os.fsync, "__wrapped__"))

    def test_exception_closes_span(self):
        clock = self.clock

        class Boom:
            def fail(self):
                clock.tick(5)
                raise ValueError("boom")

        self.tracer.wrap(Boom, "fail", "boom")
        with self.assertRaises(ValueError):
            Boom().fail()
        table = dict(self.tracer.tables())[threading.current_thread().name]
        self.assertEqual(table["boom"]["self_s"], 5)
        self.assertEqual(table["boom"]["calls"], 1)


if __name__ == "__main__":
    unittest.main()
