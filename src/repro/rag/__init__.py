"""Retrieval-augmented metadata context (§3.1 of the paper).

Two LLM-generatable, expert-refined dictionaries — ensemble file structure
and column-label descriptions — are chunked into fine-grained documents of
at most 80 tokens each (one per column label, never merged), embedded, and
retrieved with maximum marginal relevance.  Retrieval fans out over four
prompts (user query, assigned task, full plan, and an "[IMPORTANT]"
prompt boosting expert-tagged columns), top 20 each, up to 80 documents.
"""

from repro.rag.cache import CacheStats, corpus_key, corpus_matrix
from repro.rag.documents import ColumnDocument, build_documents, chunk_text
from repro.rag.index import VectorIndex
from repro.rag.mmr import mmr_select
from repro.rag.retriever import ColumnRetriever, RetrievalResult

__all__ = [
    "CacheStats",
    "ColumnDocument",
    "build_documents",
    "chunk_text",
    "corpus_key",
    "corpus_matrix",
    "VectorIndex",
    "mmr_select",
    "ColumnRetriever",
    "RetrievalResult",
]
