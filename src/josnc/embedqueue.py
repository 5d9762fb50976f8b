"""Bounded FIFO of teacher key embeddings with metadata.

Serves two consumers: the contrastive negative pool and the K-nearest-neighbor
evidence for clean-sample identification / neighbor-prediction consistency.
Exact cosine scans only; the queue is small enough that approximate indexes
would be pointless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class QueueError(ValueError):
    pass


class InsufficientNeighbors(QueueError):
    """Fewer than K entries available after exclusion; caller falls back."""


@dataclass
class QueueEntry:
    key_embedding: np.ndarray
    observed_label: int
    p_clean_at_enqueue: float
    pred_at_enqueue: np.ndarray
    sample_id: int


@dataclass
class KnnResult:
    """Arrays aligned by descending similarity (ties broken newest-first)."""
    similarities: np.ndarray   # (K,)
    observed_labels: np.ndarray
    p_clean: np.ndarray
    preds: np.ndarray          # (K, C)
    sample_ids: np.ndarray


class EmbedQueue:
    def __init__(self, capacity: int, embed_dim: int, n_classes: int):
        if capacity < 1:
            raise QueueError("capacity must be positive")
        self.capacity = capacity
        self.embed_dim = embed_dim
        self.n_classes = n_classes
        self._emb = np.empty((0, embed_dim))
        self._labels = np.empty(0, dtype=np.int64)
        self._p_clean = np.empty(0)
        self._preds = np.empty((0, n_classes))
        self._ids = np.empty(0, dtype=np.int64)
        self._seq = np.empty(0, dtype=np.int64)   # monotonic insertion counter
        self._next_seq = 0

    def __len__(self):
        return self._emb.shape[0]

    def enqueue(self, embeddings, observed_labels, p_clean, preds, sample_ids,
                unit_tol: float = 1e-6) -> None:
        """Append a batch (insertion order preserved), evicting oldest-first."""
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        n = embeddings.shape[0]
        if n == 0:
            return
        norms = np.sqrt((embeddings ** 2).sum(axis=1))
        if not np.allclose(norms, 1.0, rtol=0.0, atol=unit_tol):
            raise QueueError("key embeddings must be unit-norm")
        p_clean = np.asarray(p_clean, dtype=np.float64)
        if ((p_clean < 0) | (p_clean > 1)).any():
            raise QueueError("p_clean must lie in [0, 1]")
        seq = np.arange(self._next_seq, self._next_seq + n, dtype=np.int64)
        self._next_seq += n
        self._emb = np.concatenate([self._emb, embeddings])[-self.capacity:]
        self._labels = np.concatenate(
            [self._labels, np.asarray(observed_labels, dtype=np.int64)])[-self.capacity:]
        self._p_clean = np.concatenate([self._p_clean, p_clean])[-self.capacity:]
        self._preds = np.concatenate(
            [self._preds, np.atleast_2d(np.asarray(preds, dtype=np.float64))])[-self.capacity:]
        self._ids = np.concatenate(
            [self._ids, np.asarray(sample_ids, dtype=np.int64)])[-self.capacity:]
        self._seq = np.concatenate([self._seq, seq])[-self.capacity:]

    def stored_ids(self) -> np.ndarray:
        return self._ids.copy()

    def knn(self, query_embedding: np.ndarray, k: int,
            exclude_id: int = -1) -> KnnResult:
        """Top-K entries by descending cosine similarity to the query.

        Entries with sample_id == exclude_id are skipped; exact similarity
        ties are broken by recency (newer entries first).
        """
        q = np.asarray(query_embedding, dtype=np.float64)
        keep = self._ids != exclude_id
        if int(keep.sum()) < k:
            raise InsufficientNeighbors(
                f"need {k} entries, have {int(keep.sum())} after exclusion")
        sims = self._emb[keep] @ q   # unit vectors: cosine == dot
        seq = self._seq[keep]
        order = np.lexsort((-seq, -sims))[:k]
        idx = np.flatnonzero(keep)[order]
        return KnnResult(
            similarities=sims[order],
            observed_labels=self._labels[idx],
            p_clean=self._p_clean[idx],
            preds=self._preds[idx],
            sample_ids=self._ids[idx],
        )

    def knn_batch(self, queries: np.ndarray, k: int,
                  exclude_ids: np.ndarray) -> list:
        """Vectorized top-K for a batch of queries.

        Returns a list of KnnResult or None (None where fewer than k entries
        remain after exclusion). Uses argpartition with a slack window, then
        resolves order (and float-tie recency) exactly within the window. When
        the window ends on a similarity tied with the k-th (e.g. dead-ReLU keys
        pinned to one unit vector), ties may lie outside it, so the candidates
        are widened to every kept entry at or above the k-th similarity.
        """
        queries = np.atleast_2d(queries)
        n_entries = len(self)
        results = []
        if n_entries == 0:
            return [None] * queries.shape[0]
        sims_all = queries @ self._emb.T   # (B, n_entries)
        for row, exc in zip(sims_all, np.asarray(exclude_ids)):
            keep = self._ids != exc
            n_keep = int(keep.sum())
            if n_keep < k:
                results.append(None)
                continue
            excluded = n_entries - n_keep
            window = min(n_entries, k + excluded + 8)
            cand = np.argpartition(-row, window - 1)[:window] \
                if window < n_entries else np.arange(n_entries)
            cand = cand[self._ids[cand] != exc]
            order = cand[np.lexsort((-self._seq[cand], -row[cand]))]
            if window < n_entries and row[order[-1]] >= row[order[k - 1]]:
                cand = np.flatnonzero(keep & (row >= row[order[k - 1]]))
                order = cand[np.lexsort((-self._seq[cand], -row[cand]))]
            order = order[:k]
            results.append(KnnResult(
                similarities=row[order],
                observed_labels=self._labels[order],
                p_clean=self._p_clean[order],
                preds=self._preds[order],
                sample_ids=self._ids[order],
            ))
        return results

    def embeddings_view(self) -> np.ndarray:
        """Read-only view of stored keys (contrastive negative pool)."""
        return self._emb
