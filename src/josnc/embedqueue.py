"""Bounded FIFO of teacher key embeddings with metadata.

Serves two consumers: the contrastive negative pool and the K-nearest-neighbor
evidence for clean-sample identification / neighbor-prediction consistency.
Exact cosine scans only; the queue is small enough that approximate indexes
would be pointless.

The queue is a ring: its arrays are allocated once at capacity, and
`enqueue` writes each batch in place over the oldest slots. The insertion
counter says where the oldest entry sits, so the oldest-first order (the
newest-first tie rule, the contrastive pool) is read from it rather than
kept by copying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffmath import BLOCK_ROWS, Scratch

# key blocks of the grouped top-k threshold in knn_batch
_GROUPS = 32


class QueueError(ValueError):
    pass


@dataclass
class KnnResult:
    """Arrays aligned by descending similarity (ties broken newest-first)."""
    similarities: np.ndarray   # (K,)
    observed_labels: np.ndarray
    p_clean: np.ndarray
    preds: np.ndarray          # (K, C)
    sample_ids: np.ndarray


@dataclass
class KnnBatch:
    """Top-K arrays for a batch of B queries, one row per query.

    Rows where found is False (fewer than K entries after exclusion) hold
    zeros. len(), [i] and iteration give each row as a KnnResult, or None if
    not found.
    """
    similarities: np.ndarray   # (B, K)
    observed_labels: np.ndarray
    p_clean: np.ndarray
    preds: np.ndarray          # (B, K, C)
    sample_ids: np.ndarray
    found: np.ndarray          # (B,) bool

    def __len__(self):
        return self.found.size

    def __getitem__(self, i):
        if not self.found[i]:
            return None
        return KnnResult(similarities=self.similarities[i],
                         observed_labels=self.observed_labels[i],
                         p_clean=self.p_clean[i], preds=self.preds[i],
                         sample_ids=self.sample_ids[i])


class EmbedQueue:
    def __init__(self, capacity: int, embed_dim: int, n_classes: int):
        self.capacity = capacity
        # ring storage: insertion number s lives in slot s % capacity
        self._emb = np.empty((capacity, embed_dim))
        self._labels = np.empty(capacity, dtype=np.int64)
        self._p_clean = np.empty(capacity)
        self._preds = np.empty((capacity, n_classes))
        self._ids = np.empty(capacity, dtype=np.int64)
        self._count = 0   # insertions so far

    def __len__(self):
        return min(self._count, self.capacity)

    def _head(self) -> int:
        """Slot of the oldest stored entry."""
        return (self._count - len(self)) % self.capacity

    def enqueue(self, embeddings, observed_labels, p_clean, preds,
                sample_ids) -> None:
        """Append a batch (insertion order preserved), evicting oldest-first.

        The rows are written in place over the oldest slots; no queue-sized
        array is allocated.
        """
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        n = embeddings.shape[0]
        if n == 0:
            return
        norms = np.sqrt((embeddings ** 2).sum(axis=1))
        if not (np.abs(norms - 1.0) <= 1e-6).all():
            raise QueueError("key embeddings must be unit-norm")
        p_clean = np.asarray(p_clean, dtype=np.float64)
        if not ((p_clean >= 0) & (p_clean <= 1)).all():   # NaN fails too
            raise QueueError("p_clean must lie in [0, 1]")
        stores = (self._emb, self._labels, self._p_clean, self._preds,
                  self._ids)
        columns = (embeddings, np.asarray(observed_labels), p_clean,
                   np.atleast_2d(np.asarray(preds, dtype=np.float64)),
                   np.asarray(sample_ids))
        if any(v.shape != (n,) + s.shape[1:] for v, s in zip(columns, stores)):
            raise QueueError("every batch array needs one row per key, "
                             "of the queue's width")
        # rows beyond capacity would be evicted by their own batch
        drop = max(n - self.capacity, 0)
        self._count += drop
        n -= drop
        start = self._count % self.capacity
        split = min(n, self.capacity - start)   # rows before the ring wraps
        for store, values in zip(stores, columns):
            store[start:start + split] = values[drop:drop + split]
            store[:n - split] = values[drop + split:]
        self._count += n

    def knn_batch(self, queries: np.ndarray, k: int,
                  exclude_ids: np.ndarray, out=None) -> KnnBatch:
        """Exact top-K for a batch of queries; row i skips exclude_ids[i].

        Each found row holds the k kept entries of highest cosine
        similarity, in descending order with exact ties newest first. A row
        is not found when fewer than k entries remain after its exclusion;
        its fields are gathered like the others', then zeroed.

        Similarities come from one (M, E) @ (E, BLOCK_ROWS) product per
        block of the queries, zero-padded once to whole blocks. Each query
        is a column, summed alike at every place in the block (a row's sum
        can depend on its place on SkylakeX), so a row's bits do not depend
        on which rows share its call (checked on the SkylakeX, Haswell and
        Sandybridge kernels).

        out, a `diffmath.Scratch` or None, receives each block's
        (M, BLOCK_ROWS) similarities. The returned KnnBatch is built by
        gathers, so the caller may reuse out at once.

        One threshold per row bounds the candidates. The first G*L slots
        (G = _GROUPS, L = M // G) form G blocks of L columns, whose
        elementwise max gives L group maxima per row, each over G distinct
        keys. With E the most entries any row of the block excludes, at
        least k kept keys reach the (k + E)-th largest group max, so every
        top-k key and every key tied with the k-th does. That max is the
        row's threshold when L >= k + E, and -inf otherwise; every key at
        or above it is a candidate. Each row's kept candidates fill its row
        of a table, which one lexsort orders by -similarity, then newest
        first.
        """
        queries = np.atleast_2d(queries)
        b, m = queries.shape[0], len(self)
        exclude_ids = np.asarray(exclude_ids, dtype=np.int64)
        out = Scratch() if out is None else out
        keys, ids = self._emb[:m], self._ids[:m]
        # entries each row excludes, by id lookup (an id may repeat)
        sorted_ids = np.sort(ids)
        n_excl = (np.searchsorted(sorted_ids, exclude_ids, side="right")
                  - np.searchsorted(sorted_ids, exclude_ids, side="left"))
        found = m - n_excl >= k
        n_groups = m // _GROUPS
        slots = np.zeros((b, k), dtype=np.int64)
        similarities = np.zeros((b, k))
        padded = np.zeros((-(-b // BLOCK_ROWS) * BLOCK_ROWS, queries.shape[1]))
        padded[:b] = queries
        for lo in range(0, b, BLOCK_ROWS):
            rows = min(b - lo, BLOCK_ROWS)
            # unit vectors: cosine == dot
            sims = np.matmul(keys, padded[lo:lo + BLOCK_ROWS].T,
                             out=out.view((m, BLOCK_ROWS))).T[:rows]
            need = k + int(n_excl[lo:lo + rows].max())
            th = np.full((rows, 1), -np.inf)
            if n_groups >= need:
                group_max = sims[:, :_GROUPS * n_groups].reshape(
                    rows, _GROUPS, n_groups).max(axis=1)
                th = np.partition(group_max, n_groups - need,
                                  axis=1)[:, n_groups - need, None]
            r, c = np.divmod(np.flatnonzero(sims >= th), m)
            kept = found[lo + r] & (ids[c] != exclude_ids[lo + r])
            r, c = r[kept], c[kept]
            # each row's candidates, left-aligned in its row of a table; the
            # padding's +inf sorts after every -similarity
            col = np.arange(r.size) - np.searchsorted(r, r)
            width = int(col.max(initial=k - 1)) + 1
            table = np.zeros((rows, width), dtype=np.int64)
            neg_sims = np.full((rows, width), np.inf)
            table[r, col], neg_sims[r, col] = c, -sims[r, c]
            age = (table - self._head()) % self.capacity   # 0 = oldest
            top = (np.arange(rows)[:, None],
                   np.lexsort((-age, neg_sims), axis=1)[:, :k])
            slots[lo:lo + rows], similarities[lo:lo + rows] = (
                table[top], -neg_sims[top])
        fields = (similarities, self._labels[slots], self._p_clean[slots],
                  self._preds[slots], self._ids[slots])
        for field in fields:
            field[~found] = 0
        return KnnBatch(*fields, found=found)

    def key_views(self) -> tuple:
        """Read-only views of the stored keys, oldest first, as the ring's
        two pieces (the contrastive negative pool)."""
        head, m = self._head(), len(self)
        views = (self._emb[head:m], self._emb[:head])
        for view in views:
            view.flags.writeable = False
        return views
