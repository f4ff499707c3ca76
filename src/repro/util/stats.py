"""Mergeable integer-counter dataclasses and the service-time EWMA.

Both shared caches (the retrieval-artifact cache in :mod:`repro.rag.cache`
and the query-result cache in :mod:`repro.db.cache`) count their
hits/misses in process-local dataclasses that the evaluation harness
snapshots around each grid cell and merges across worker processes.  The
arithmetic is identical for any all-integer-field dataclass, so it lives
here once: subclass :class:`MergeableCounters` with plain ``int`` fields
and ``merge``/``delta``/``copy``/``as_dict`` come for free.
"""

from __future__ import annotations

import threading
from dataclasses import fields


class MergeableCounters:
    """Field-wise arithmetic over an all-int-field dataclass."""

    def merge(self, other):
        """Fold ``other`` into ``self`` (field-wise addition)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def delta(self, earlier):
        """What happened between two snapshots of the same counters."""
        return type(self)(
            **{f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)}
        )

    def copy(self):
        return type(self)(**{f.name: getattr(self, f.name) for f in fields(self)})

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ServiceTimeEWMA:
    """Thread-safe exponentially weighted moving average of service times.

    Reads ``initial_s`` until the first observation, which replaces it;
    each later observation moves the average by ``alpha`` of the gap.
    ``reset`` returns to the prior.  The sandbox fleet keeps the 0.0
    default, so untried members sort ahead of proven-slow ones; admission
    control starts from a 1 s prior for its Retry-After estimate.
    """

    def __init__(self, alpha: float = 0.2, initial_s: float = 0.0):
        self.alpha = float(alpha)
        self.initial_s = float(initial_s)
        self.samples = 0
        self._value = self.initial_s
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.samples += 1
            if self.samples == 1:
                self._value = float(seconds)
            else:
                self._value += self.alpha * (float(seconds) - self._value)

    def reset(self) -> None:
        with self._lock:
            self._value = self.initial_s
            self.samples = 0

    @property
    def value_s(self) -> float:
        return self._value

    value = value_s  # the sandbox fleet's spelling
