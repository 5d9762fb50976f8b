import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from josnc.embedqueue import EmbedQueue, InsufficientNeighbors, QueueError


def unit_rows(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.sqrt((v ** 2).sum(axis=1, keepdims=True))


def fill(q, rng, n, d=6, c=4, start_id=0):
    emb = unit_rows(rng, n, d)
    labels = rng.integers(0, c, size=n)
    p_clean = rng.random(n)
    preds = rng.dirichlet(np.ones(c), size=n)
    ids = np.arange(start_id, start_id + n)
    q.enqueue(emb, labels, p_clean, preds, ids)
    return emb, labels, p_clean, preds, ids


def test_enqueue_validation(rng):
    q = EmbedQueue(10, 3, 2)
    with pytest.raises(QueueError):
        q.enqueue(np.ones((2, 3)), [0, 1], [0.5, 0.5],
                  np.full((2, 2), 0.5), [0, 1])
    with pytest.raises(QueueError):
        q.enqueue(unit_rows(rng, 2, 3), [0, 1], [0.5, 1.5],
                  np.full((2, 2), 0.5), [0, 1])
    with pytest.raises(QueueError):
        EmbedQueue(0, 3, 2)


def test_fifo_eviction_order(rng):
    q = EmbedQueue(5, 4, 3)
    fill(q, rng, 8, d=4, c=3)
    assert len(q) == 5
    # oldest three evicted: ids 3..7 remain in insertion order
    np.testing.assert_array_equal(q.stored_ids(), [3, 4, 5, 6, 7])
    fill(q, rng, 2, d=4, c=3, start_id=100)
    np.testing.assert_array_equal(q.stored_ids(), [5, 6, 7, 100, 101])
    assert len(q) == 5


def test_knn_matches_bruteforce_oracle(rng):
    q = EmbedQueue(200, 6, 4)
    emb, labels, p_clean, preds, ids = fill(q, rng, 150)
    for _ in range(20):
        query = unit_rows(rng, 1, 6)[0]
        res = q.knn(query, k=7)
        # independent oracle: full sort of all similarities
        sims = emb @ query
        oracle = np.argsort(-sims, kind="stable")[:7]
        np.testing.assert_array_equal(res.sample_ids, ids[oracle])
        np.testing.assert_allclose(res.similarities, sims[oracle], atol=1e-12)
        np.testing.assert_array_equal(res.observed_labels, labels[oracle])
        np.testing.assert_allclose(res.p_clean, p_clean[oracle], atol=1e-15)
        np.testing.assert_allclose(res.preds, preds[oracle], atol=1e-15)


def test_knn_exclude_and_insufficient(rng):
    q = EmbedQueue(50, 4, 3)
    emb, _, _, _, ids = fill(q, rng, 10, d=4, c=3)
    res = q.knn(emb[3], k=9, exclude_id=3)
    assert 3 not in res.sample_ids
    with pytest.raises(InsufficientNeighbors):
        q.knn(emb[3], k=10, exclude_id=3)


def test_knn_recency_tie_break():
    q = EmbedQueue(10, 2, 2)
    e = np.array([1.0, 0.0])
    # three identical keys: equal similarity, newest must come first
    for sid in (10, 11, 12):
        q.enqueue(e, [0], [0.5], [[0.5, 0.5]], [sid])
    res = q.knn(e, k=3)
    np.testing.assert_array_equal(res.sample_ids, [12, 11, 10])


def test_knn_batch_matches_scalar_knn(rng):
    q = EmbedQueue(300, 8, 5)
    fill(q, rng, 250, d=8, c=5)
    queries = unit_rows(rng, 30, 8)
    exclude = rng.integers(0, 250, size=30)
    batch = q.knn_batch(queries, k=10, exclude_ids=exclude)
    for i in range(30):
        single = q.knn(queries[i], k=10, exclude_id=int(exclude[i]))
        np.testing.assert_array_equal(batch[i].sample_ids, single.sample_ids)
        np.testing.assert_allclose(batch[i].similarities,
                                   single.similarities, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pinned_frac=st.floats(0.2, 0.9),
       k=st.integers(1, 12))
def test_knn_batch_matches_knn_with_pinned_ties(seed, pinned_frac, k):
    # Dead-ReLU keys are pinned to one unit vector, so long runs of exactly
    # tied similarities arise; knn_batch must keep the newest-first tie rule.
    rng = np.random.default_rng(seed)
    d, n = 6, 120
    q = EmbedQueue(100, d, 4)
    emb = unit_rows(rng, n, d)
    emb[rng.random(n) < pinned_frac] = np.eye(d)[0]
    ids = rng.integers(0, 40, size=n)      # repeated ids: exclusion drops several
    q.enqueue(emb, rng.integers(0, 4, n), rng.random(n),
              rng.dirichlet(np.ones(4), n), ids)
    queries = np.concatenate([np.eye(d)[:1], unit_rows(rng, 9, d)])
    exclude = np.concatenate([rng.choice(ids, size=7), [-1, -1, -1]])
    batch = q.knn_batch(queries, k=k, exclude_ids=exclude)
    for query, exc, got in zip(queries, exclude, batch):
        try:
            want = q.knn(query, k=k, exclude_id=int(exc))
        except InsufficientNeighbors:
            assert got is None
            continue
        np.testing.assert_array_equal(got.sample_ids, want.sample_ids)
        np.testing.assert_allclose(got.similarities, want.similarities,
                                   atol=1e-12)


def test_knn_batch_none_when_too_small(rng):
    q = EmbedQueue(50, 4, 3)
    emb, _, _, _, _ = fill(q, rng, 5, d=4, c=3)
    out = q.knn_batch(emb[:2], k=5, exclude_ids=np.array([0, -1]))
    assert out[0] is None           # exclusion drops below k
    assert out[1] is not None


def test_knn_batch_on_empty_queue(rng):
    q = EmbedQueue(50, 4, 3)
    out = q.knn_batch(unit_rows(rng, 3, 4), k=2, exclude_ids=np.full(3, -1))
    assert out == [None, None, None]


def test_replay_log_oracle(rng):
    """Interleave enqueues and queries; mirror state with plain python lists."""
    q = EmbedQueue(30, 4, 3)
    log_emb, log_ids = [], []
    next_id = 0
    for step in range(40):
        n = int(rng.integers(1, 6))
        emb = unit_rows(rng, n, 4)
        ids = np.arange(next_id, next_id + n)
        next_id += n
        q.enqueue(emb, rng.integers(0, 3, n), rng.random(n),
                  rng.dirichlet(np.ones(3), n), ids)
        for e, i in zip(emb, ids):
            log_emb.append(e)
            log_ids.append(i)
        log_emb, log_ids = log_emb[-30:], log_ids[-30:]
        if len(log_ids) >= 5:
            query = unit_rows(rng, 1, 4)[0]
            res = q.knn(query, k=5)
            sims = np.array([e @ query for e in log_emb])
            oracle = np.argsort(-sims, kind="stable")[:5]
            np.testing.assert_array_equal(
                res.sample_ids, np.array(log_ids)[oracle])
    np.testing.assert_array_equal(q.stored_ids(), log_ids)


def test_embeddings_view_is_pool(rng):
    q = EmbedQueue(10, 4, 3)
    emb, *_ = fill(q, rng, 6, d=4, c=3)
    np.testing.assert_array_equal(q.embeddings_view(), emb)
