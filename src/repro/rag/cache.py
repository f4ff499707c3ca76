"""Shared retrieval-artifact cache.

The column-description corpus is fixed per ensemble manifest and the
:class:`~repro.llm.embeddings.HashedEmbedder` is deterministic, so the
``VectorIndex`` embedding matrix is a pure function of (corpus text,
embedder geometry).  Re-embedding it for every query — as every
evaluation run used to do — is redundant work on the hottest end-to-end
path in the repo.

This module keeps two in-process memos:

1. the corpus embedding matrix, keyed by :func:`corpus_key` (corpus
   content hash + embedder key): built once per process, then the same
   array is handed to every retriever;
2. a bounded LRU of query embeddings shared by every ``VectorIndex``.

There is no on-disk tier: the corpus is a few dozen short documents, so
a process that starts cold re-embeds it in milliseconds.

Both memos count into process-local :class:`CacheStats`; the evaluation
harness snapshots them around each run and merges the deltas into its
result, which is how the hit/miss counters in ``HarnessResult.perf`` are
produced.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.llm.embeddings import HashedEmbedder
from repro.util.stats import MergeableCounters

QUERY_MEMO_MAX = 1024


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class CacheStats(MergeableCounters):
    """Process-local counters of both memos (mergeable)."""

    memory_hits: int = 0             # corpus matrix served from the memo
    builds: int = 0                  # cold misses: full corpus re-embeds
    query_memo_hits: int = 0
    query_memo_misses: int = 0
    query_memo_evictions: int = 0

    @property
    def matrix_hits(self) -> int:
        return self.memory_hits

    @property
    def matrix_requests(self) -> int:
        return self.memory_hits + self.builds


GLOBAL_STATS = CacheStats()

# corpus matrix memo: corpus_key -> ndarray
_MATRIX_MEMO: dict[str, np.ndarray] = {}

# shared query-embedding memo: (embedder key, query text) -> vector.
# Bounded LRU shared by every VectorIndex in the process — the agents
# re-embed the same handful of prompts across retrieve calls, redo
# attempts, and harness runs, so one memo beats one per index instance.
_QUERY_MEMO: OrderedDict[tuple[str, str], np.ndarray] = OrderedDict()
_QUERY_MEMO_CAPACITY = QUERY_MEMO_MAX


def stats_snapshot() -> CacheStats:
    """Copy of the process-wide counters (subtract later with ``delta``)."""
    return GLOBAL_STATS.copy()


def clear_memory_cache() -> None:
    """Drop both memos (tests use this to force a cold build)."""
    _MATRIX_MEMO.clear()
    _QUERY_MEMO.clear()


def query_memo_capacity() -> int:
    return _QUERY_MEMO_CAPACITY


def set_query_memo_capacity(entries: int) -> None:
    """Resize the shared query-embedding LRU (evicting down if needed)."""
    global _QUERY_MEMO_CAPACITY
    _QUERY_MEMO_CAPACITY = max(0, int(entries))
    while len(_QUERY_MEMO) > _QUERY_MEMO_CAPACITY:
        _QUERY_MEMO.popitem(last=False)
        GLOBAL_STATS.query_memo_evictions += 1


def query_memo_size() -> int:
    return len(_QUERY_MEMO)


def memoized_query_embedding(embedder: HashedEmbedder, query: str) -> np.ndarray:
    """Embed ``query``, served from the shared bounded LRU when possible."""
    key = (embedder.cache_key(), query)
    vec = _QUERY_MEMO.get(key)
    if vec is not None:
        GLOBAL_STATS.query_memo_hits += 1
        _QUERY_MEMO.move_to_end(key)
        return vec
    GLOBAL_STATS.query_memo_misses += 1
    vec = embedder.embed(query)
    _QUERY_MEMO[key] = vec
    while len(_QUERY_MEMO) > _QUERY_MEMO_CAPACITY:
        _QUERY_MEMO.popitem(last=False)
        GLOBAL_STATS.query_memo_evictions += 1
    return vec


# ----------------------------------------------------------------------
# the corpus matrix
# ----------------------------------------------------------------------
def corpus_key(texts: list[str], embedder_key: str) -> str:
    """Content hash of the ordered corpus texts under one embedder geometry.

    Equivalent to hashing the manifest's metadata dictionaries (the corpus
    is built deterministically from them) but robust to any upstream
    change in document construction.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(embedder_key.encode())
    for text in texts:
        h.update(b"\x00")
        h.update(text.encode())
    return h.hexdigest()


def corpus_matrix(texts: list[str], embedder: HashedEmbedder) -> np.ndarray:
    """The corpus embedding matrix, built once per :func:`corpus_key`."""
    key = corpus_key(texts, embedder.cache_key())
    matrix = _MATRIX_MEMO.get(key)
    if matrix is not None:
        GLOBAL_STATS.memory_hits += 1
        return matrix
    GLOBAL_STATS.builds += 1
    matrix = _MATRIX_MEMO[key] = embedder.embed_batch(texts)
    return matrix
