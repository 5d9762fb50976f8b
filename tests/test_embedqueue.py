import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from josnc.diffmath import BLOCK_ROWS, Scratch
from josnc.embedqueue import EmbedQueue, QueueError

from oracles import knn, knn_batch_one_shot, ring_slots

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import kernel_matrix  # noqa: E402


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
    with pytest.raises(QueueError, match="p_clean"):
        q.enqueue(unit_rows(rng, 2, 3), [0, 1], [0.5, np.nan],
                  np.full((2, 2), 0.5), [0, 1])
    # a norm within 1e-6 of 1 passes; a NaN row or one 2e-6 off does not
    def row(x):
        return np.array([[x, 0.0, 0.0]])

    for bad in (row(np.nan), row(1.0 + 2e-6), row(1.0 - 2e-6)):
        with pytest.raises(QueueError, match="unit-norm"):
            q.enqueue(bad, [0], [0.5], np.full((1, 2), 0.5), [0])
    assert len(q) == 0
    q.enqueue(row(1.0 + 5e-7), [0], [0.5], np.full((1, 2), 0.5), [0])
    assert len(q) == 1


def test_fifo_eviction_order(rng):
    q = EmbedQueue(5, 4, 3)
    fill(q, rng, 8, d=4, c=3)
    assert len(q) == 5
    # oldest three evicted: ids 3..7 remain in insertion order
    np.testing.assert_array_equal(q._ids[ring_slots(q)], [3, 4, 5, 6, 7])
    fill(q, rng, 2, d=4, c=3, start_id=100)
    np.testing.assert_array_equal(q._ids[ring_slots(q)], [5, 6, 7, 100, 101])
    assert len(q) == 5


def test_knn_matches_bruteforce_oracle(rng):
    q = EmbedQueue(200, 6, 4)
    emb, labels, p_clean, preds, ids = fill(q, rng, 150)
    for _ in range(20):
        query = unit_rows(rng, 1, 6)[0]
        res = q.knn_batch(query, k=7, exclude_ids=[-1])[0]
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
    res = q.knn_batch(emb[3], k=9, exclude_ids=[3])[0]
    assert 3 not in res.sample_ids
    assert q.knn_batch(emb[3], k=10, exclude_ids=[3])[0] is None


def test_knn_recency_tie_break():
    q = EmbedQueue(10, 2, 2)
    e = np.array([1.0, 0.0])
    # three identical keys: equal similarity, newest must come first
    for sid in (10, 11, 12):
        q.enqueue(e, [0], [0.5], [[0.5, 0.5]], [sid])
    res = q.knn_batch(e, k=3, exclude_ids=[-1])[0]
    np.testing.assert_array_equal(res.sample_ids, [12, 11, 10])


def test_knn_batch_matches_scalar_knn(rng):
    q = EmbedQueue(300, 8, 5)
    fill(q, rng, 250, d=8, c=5)
    queries = unit_rows(rng, 30, 8)
    exclude = rng.integers(0, 250, size=30)
    batch = q.knn_batch(queries, k=10, exclude_ids=exclude)
    for i in range(30):
        single = knn(q, queries[i], k=10, exclude_id=int(exclude[i]))
        np.testing.assert_array_equal(batch[i].sample_ids, single.sample_ids)
        np.testing.assert_allclose(batch[i].similarities,
                                   single.similarities, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 700),
       k=st.integers(1, 12),
       pinned_frac=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
       id_pool=st.integers(1, 400))
# every key pinned to one vector, grouped threshold in use, with and without
# tail keys (700 = 32*21 + 28, 640 = 32*20)
@example(seed=1, length=700, k=10, pinned_frac=1.0, id_pool=400)
@example(seed=5, length=640, k=10, pinned_frac=1.0, id_pool=400)
@example(seed=6, length=512, k=7, pinned_frac=0.9, id_pool=300)
# few distinct ids: below 32 * (k + excluded), and rows left with < k keys
@example(seed=2, length=100, k=5, pinned_frac=0.0, id_pool=1)
@example(seed=3, length=20, k=12, pinned_frac=0.5, id_pool=2)
# grouped threshold with a 613 mod 32 = 5 key tail and duplicate ids
@example(seed=4, length=613, k=10, pinned_frac=0.5, id_pool=400)
def test_knn_batch_equals_knn_oracle(seed, length, k, pinned_frac, id_pool):
    # knn_batch sorts only keys at or above a grouped threshold; knn sorts
    # every kept key, so it is the oracle for ids (similarities come from a
    # matmul instead of a matrix-vector product, hence the 1e-12). Dead-ReLU
    # keys are pinned to one unit vector, so long runs of exact ties arise,
    # and the newest-first tie rule must hold across them.
    rng = np.random.default_rng(seed)
    d, c = 6, 4
    q = EmbedQueue(max(length, 1), d, c)
    n = length + int(rng.integers(0, 50)) if length else 0   # some evicted
    emb = unit_rows(rng, n, d)
    emb[rng.random(n) < pinned_frac] = np.eye(d)[0]
    ids = rng.integers(0, id_pool, size=n)
    q.enqueue(emb, rng.integers(0, c, n), rng.random(n),
              rng.dirichlet(np.ones(c), n), ids)
    stored = q._ids[ring_slots(q)]
    common = np.bincount(stored).argmax() if length else -1
    queries = np.concatenate([np.eye(d)[:1], unit_rows(rng, 11, d)])
    exclude = np.concatenate([[common, common, -1, -1],
                              rng.choice(np.append(stored, -1), size=8)])
    batch = q.knn_batch(queries, k=k, exclude_ids=exclude)
    assert len(batch) == queries.shape[0]
    for query, exc, got in zip(queries, exclude, batch):
        want = knn(q, query, k=k, exclude_id=int(exc))
        if want is None:
            assert got is None
            continue
        np.testing.assert_array_equal(got.sample_ids, want.sample_ids)
        np.testing.assert_allclose(got.similarities, want.similarities,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(got.observed_labels,
                                      want.observed_labels)
        np.testing.assert_array_equal(got.p_clean, want.p_clean)
        np.testing.assert_array_equal(got.preds, want.preds)


def test_knn_batch_tail_ties_with_head_under_grouped_threshold(rng):
    # 700 keys = 32 * 21 groups + a 28-key tail. The keys nearest e0 sit in
    # the tail, and e0 itself is stored at head slot 10 and tail slot 690:
    # an exact tie (e0 . e0 is 1 in any summation order) that the newer tail
    # key wins. k + E = 7 <= 21 groups, so the grouped threshold is in use.
    d, k = 6, 6
    q = EmbedQueue(700, d, 4)
    emb = unit_rows(rng, 700, d)
    emb[:, 0] = -np.abs(emb[:, 0])   # every other key far from e0
    e0 = np.eye(d)[0]
    emb[680:686] = unit_rows(rng, 6, d) * 0.05 + e0
    emb[680:686] /= np.sqrt((emb[680:686] ** 2).sum(axis=1, keepdims=True))
    emb[[10, 690]] = e0
    q.enqueue(emb, rng.integers(0, 4, 700), rng.random(700),
              rng.dirichlet(np.ones(4), 700), np.arange(700))
    queries = np.stack([e0, e0, e0, emb[683]])
    exclude = np.array([-1, 690, 10, 683])
    batch = q.knn_batch(queries, k, exclude)
    np.testing.assert_array_equal(batch[0].sample_ids[:2], [690, 10])
    for i, (query, exc, got) in enumerate(zip(queries, exclude, batch)):
        want = knn(q, query, k=k, exclude_id=int(exc))
        np.testing.assert_array_equal(got.sample_ids, want.sample_ids)
        np.testing.assert_allclose(got.similarities, want.similarities,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(got.observed_labels,
                                      want.observed_labels)
        np.testing.assert_array_equal(got.p_clean, want.p_clean)
        np.testing.assert_array_equal(got.preds, want.preds)
        lone = q.knn_batch(query, k, exclude[i:i + 1])[0]
        np.testing.assert_array_equal(lone.sample_ids, want.sample_ids)


@pytest.mark.parametrize("length, k, b", [
    (5, 5, 3),      # short queue: excluding id 7 leaves k - 1 keys
    (3, 5, 2),      # shorter than k: no row is found
    (700, 10, 40),  # a second block, whose rows use the grouped threshold
])
def test_not_found_rows_equal_one_shot(rng, length, k, b):
    # every field byte for byte, the zeros of not-found rows and the dtypes
    # included
    q = EmbedQueue(length, 4, 3)
    fill(q, rng, length, d=4, c=3)
    q._ids[:length - k + 1] = 7
    exclude = np.full(b, -1)
    exclude[:32:2] = 7
    exclude[33::2] = length - 1
    queries = unit_rows(rng, b, 4)
    want = knn_batch_one_shot(q, queries, k, exclude)
    got = q.knn_batch(queries, k, exclude)
    assert not want.found.all() and (want.found.any() or length < k)
    for name in vars(want):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert getattr(got, name).tobytes() == \
            getattr(want, name).tobytes(), name


def test_knn_batch_none_when_too_small(rng):
    q = EmbedQueue(50, 4, 3)
    emb, _, _, _, _ = fill(q, rng, 5, d=4, c=3)
    out = q.knn_batch(emb[:2], k=5, exclude_ids=np.array([0, -1]))
    assert out[0] is None           # exclusion drops below k
    assert out[1] is not None


@pytest.mark.parametrize("b", [1, 2, 9])
def test_knn_batch_keeps_nothing_of_its_scratch(rng, b):
    # a scratch product gives the bits of an allocated one, and the KnnBatch
    # is unchanged when the scratch is overwritten after the call
    q = EmbedQueue(300, 6, 4)
    fill(q, rng, 400)
    queries = unit_rows(rng, b, 6)
    exclude = q._ids[rng.integers(0, 300, size=b)]
    scratch = Scratch()
    got = q.knn_batch(queries, 5, exclude, out=scratch)
    assert scratch.buffer.size == BLOCK_ROWS * 300
    want = q.knn_batch(queries, 5, exclude)
    kept = {name: getattr(got, name).copy() for name in vars(got)}
    scratch.buffer[:] = np.nan
    for name, value in kept.items():
        field = getattr(got, name)
        assert not np.shares_memory(field, scratch.buffer)
        assert field.tobytes() == value.tobytes()
        assert field.tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("b", [1, 2, 8, 31, 32, 33, 40, 97, 128])
def test_blocked_knn_batch_equals_one_shot(rng, b):
    # BLOCK_ROWS queries at a time, each block with its own grouped
    # threshold, give the bits of one product over the zero-padded queries
    # and one threshold: at a full 4,096-key queue and embed 32, across
    # block boundaries (33, 40, 97) and a lone-row last block (33, 97)
    q = EmbedQueue(4096, 32, 8)
    fill(q, rng, 4096 + 200, d=32, c=8)
    pinned = rng.random(4096) < 0.2   # exact ties, newest first
    q._emb[pinned] = np.eye(32)[0]
    q._ids[:] = rng.integers(0, 1500, size=4096)   # ids repeat: E > 0
    queries = unit_rows(rng, b, 32)
    queries[0] = np.eye(32)[0]
    # the first block excludes the most entries: its need differs
    exclude = rng.integers(0, 1500, size=b)
    exclude[0] = np.bincount(q._ids).argmax()
    want = knn_batch_one_shot(q, queries, 10, exclude)
    for out in (None, Scratch()):
        got = q.knn_batch(queries, 10, exclude, out=out)
        for name in vars(want):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), name
    assert got.found.all()


def test_knn_batch_on_empty_queue(rng):
    q = EmbedQueue(50, 4, 3)
    out = q.knn_batch(unit_rows(rng, 3, 4), k=2, exclude_ids=np.full(3, -1))
    assert list(out) == [None, None, None]


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
            res = q.knn_batch(query, k=5, exclude_ids=[-1])[0]
            sims = np.array([e @ query for e in log_emb])
            oracle = np.argsort(-sims, kind="stable")[:5]
            np.testing.assert_array_equal(
                res.sample_ids, np.array(log_ids)[oracle])
    np.testing.assert_array_equal(q._ids[ring_slots(q)], log_ids)


def test_key_views_are_pool_oldest_first(rng):
    q = EmbedQueue(10, 4, 3)
    emb, *_ = fill(q, rng, 6, d=4, c=3)
    np.testing.assert_array_equal(np.concatenate(q.key_views()), emb)
    more, *_ = fill(q, rng, 7, d=4, c=3, start_id=6)   # wraps the ring
    older, newer = q.key_views()
    assert len(older) and len(newer)
    np.testing.assert_array_equal(np.concatenate([older, newer]),
                                  np.concatenate([emb, more])[-10:])


def test_key_views_are_read_only(rng):
    q = EmbedQueue(10, 4, 3)
    fill(q, rng, 13, d=4, c=3)
    for view in q.key_views():
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 0.0


def test_enqueue_rejects_misshapen_batches(rng):
    q = EmbedQueue(10, 4, 3)
    emb = unit_rows(rng, 2, 4)
    with pytest.raises(QueueError, match="one row per key"):
        q.enqueue(emb, [0], [0.5, 0.5], np.full((2, 3), 1 / 3), [0, 1])
    with pytest.raises(QueueError, match="one row per key"):
        q.enqueue(emb, [0, 1], [0.5, 0.5], np.full((2, 2), 0.5), [0, 1])
    assert len(q) == 0


def test_enqueue_allocates_no_queue_sized_array(rng):
    q = EmbedQueue(4096, 32, 8)
    for start in range(0, 4096 + 64, 128):   # full, and wrapped mid-batch
        fill(q, rng, 128, d=32, c=8, start_id=start)
    batch = [unit_rows(rng, 128, 32), rng.integers(0, 8, 128),
             rng.random(128), rng.dirichlet(np.ones(8), 128),
             np.arange(128)]
    tracemalloc.start()
    try:
        q.enqueue(*batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < q._emb.nbytes / 8


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(1, 90),
       batches=st.lists(st.integers(1, 40), min_size=1, max_size=12),
       k=st.integers(1, 8), pinned_frac=st.sampled_from([0.0, 0.5, 1.0]))
def test_wrapped_ring_knn_equals_bruteforce(seed, capacity, batches, k,
                                            pinned_frac):
    # brute force over a plain list of every enqueued row: the last
    # `capacity` rows, their similarities by the same batched product, and
    # exact ties (pinned keys) newest first
    rng = np.random.default_rng(seed)
    d, c = 5, 3
    q = EmbedQueue(capacity, d, c)
    log = []
    for n in batches:
        emb = unit_rows(rng, n, d)
        emb[rng.random(n) < pinned_frac] = np.eye(d)[0]
        row = (emb, rng.integers(0, c, n), rng.random(n),
               rng.dirichlet(np.ones(c), n), rng.integers(0, 30, n))
        q.enqueue(*row)
        log.append(row)
    emb, labels, p_clean, preds, ids = (np.concatenate(col)[-capacity:]
                                        for col in zip(*log))
    np.testing.assert_array_equal(q._ids[ring_slots(q)], ids)
    queries = np.concatenate([np.eye(d)[:1], unit_rows(rng, 5, d)])
    exclude = rng.choice(np.append(ids, -1), size=len(queries))
    got = q.knn_batch(queries, k, exclude)
    sims = queries @ emb.T
    newest_first = np.arange(len(ids))[::-1]
    for i, query in enumerate(queries):
        keep = np.flatnonzero(ids != exclude[i])
        if len(keep) < k:
            assert not got.found[i]
            continue
        order = keep[np.lexsort((newest_first[keep], -sims[i, keep]))[:k]]
        assert got.found[i]
        np.testing.assert_array_equal(got.sample_ids[i], ids[order])
        assert got.similarities[i].tobytes() == sims[i, order].tobytes()
        np.testing.assert_array_equal(got.observed_labels[i], labels[order])
        np.testing.assert_array_equal(got.p_clean[i], p_clean[order])
        np.testing.assert_array_equal(got.preds[i], preds[order])
        lone = q.knn_batch(query, k, exclude[i:i + 1])
        assert lone.similarities.tobytes() == got.similarities[i].tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), embed=st.integers(5, 33),
       capacity=st.integers(1, 500), wrapped=st.booleans(),
       k=st.integers(1, 12), size=st.integers(1, 97))
# a lone row, an odd count and a count one past a whole block
@example(seed=1, embed=5, capacity=1, wrapped=False, k=1, size=1)
@example(seed=2, embed=32, capacity=500, wrapped=True, k=10, size=33)
@example(seed=3, embed=33, capacity=257, wrapped=True, k=4, size=97)
# a queue size at which SkylakeX's kernels sum a row of a product by its
# place in the block, though not a column
@example(seed=0, embed=5, capacity=318, wrapped=False, k=1, size=15)
def test_knn_row_bits_do_not_depend_on_other_rows(seed, embed, capacity,
                                                  wrapped, k, size):
    # a row's lookup, all five fields and found, has the same bytes in a
    # call over any subset of a 128-row batch, over the whole batch and
    # alone: every block is a full BLOCK_ROWS-row product
    rng = np.random.default_rng(seed)
    q = EmbedQueue(capacity, embed, 3)
    n = capacity + (int(rng.integers(1, capacity + 1)) if wrapped else 0)
    q.enqueue(unit_rows(rng, n, embed), rng.integers(0, 3, n), rng.random(n),
              rng.dirichlet(np.ones(3), n), rng.integers(0, 40, n))
    queries = unit_rows(rng, 128, embed)
    exclude = rng.choice(np.append(q._ids[:len(q)], -1), size=128)
    rows = np.sort(rng.choice(128, size=size, replace=False))
    whole = q.knn_batch(queries, k, exclude)
    subset = q.knn_batch(queries[rows], k, exclude[rows])
    names = ("similarities", "observed_labels", "p_clean", "preds",
             "sample_ids", "found")
    for j, i in enumerate(rows):
        lone = q.knn_batch(queries[i], k, exclude[i:i + 1])
        for name in names:
            want = getattr(whole, name)[i].tobytes()
            assert getattr(subset, name)[j].tobytes() == want, (name, i)
            assert getattr(lone, name)[0].tobytes() == want, (name, i)


@pytest.mark.parametrize("family", ["Haswell", "Sandybridge"])
def test_knn_row_bits_do_not_depend_on_other_rows_on_family(family):
    # the same property with OPENBLAS_CORETYPE forcing the family as the
    # library loads, in a fresh interpreter; a family this CPU cannot run
    # could die of SIGILL, so it is skipped
    if family not in kernel_matrix.runnable():
        pytest.skip(f"this CPU cannot run OpenBLAS's {family} kernels")
    env = {**os.environ, "OPENBLAS_CORETYPE": family,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                          str(ROOT / "tests")])}
    node = f"{__file__}::test_knn_row_bits_do_not_depend_on_other_rows"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         node], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:]
