"""Loss terms and their weighted assembly, one graph node each.

Classification dispatches per partition: positive cross-entropy (natural log)
against smoothed / sharpened targets for CLEAN and ID samples, negative
learning -log(1 - p_c) at the complementary class for OOD samples. The three
consistency terms are symmetric KL between view predictions, KL against a
similarity-weighted neighbor mixture, and an InfoNCE feature loss over the
embedding queue. KL-based consistency uses base-2 logs, consistent with the
selection metrics; the base only rescales the alpha/beta weights.

Each term is one `Tensor`. Every backward but the InfoNCE one takes any
upstream scalar and repeats the float operations of the generic tape's log /
product / sum / scale chain (`tests/oracles.py`) in order, so gradients and
values are bit-identical to it. The InfoNCE node (`feature_consistency_loss`)
runs its pool, logits and softmax in float32: its value and gradient have
the bits of an oracle that takes the same float32 steps in one product, and
stay within float32 rounding of the tape's float64 chain.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .diffmath import (BLOCK_ROWS, LOG2, LOG_FLOOR, DiffMathError, Scratch,
                       Tensor, softmax)


class LossBreakdown(NamedTuple):
    """A step's losses, or an epoch's means of them: metrics.csv's loss
    columns, in its order and under its names."""
    train_loss: float
    l_cls: float
    l_con_s: float
    l_con_n: float
    l_con_f: float


def classification_loss(probs: Tensor, positive_targets: np.ndarray,
                        positive_mask: np.ndarray,
                        negative_targets: np.ndarray,
                        negative_mask: np.ndarray) -> Tensor:
    """Per-batch mean classification loss over all N samples.

    positive_targets: (N, C) distributions, rows outside positive_mask ignored.
    negative_targets: (N, C) one-hot complementary labels for OOD rows.
    """
    n = probs.data.shape[0]
    pos = positive_targets * positive_mask[:, None]
    neg = negative_targets * negative_mask[:, None]
    floored_pos = np.maximum(probs.data, LOG_FLOOR)
    floored_neg = np.maximum(1.0 - probs.data, LOG_FLOOR)
    l_pos = -(np.log(floored_pos) * pos).sum()
    l_neg = -(np.log(floored_neg) * neg).sum()

    def backward(g):
        # the log(p) branch reaches p before the log(1 - p) branch
        t = -(g * (1.0 / n))
        probs._accum((t * pos) / floored_pos)
        probs._accum(-((t * neg) / floored_neg))
    return Tensor((l_pos + l_neg) * (1.0 / n), (probs,), backward)


def cross_entropy_loss(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Plain mean cross-entropy against fixed target distributions."""
    n = probs.data.shape[0]
    floored = np.maximum(probs.data, LOG_FLOOR)

    def backward(g):
        probs._accum((-(g * (1.0 / n)) * targets) / floored)
    return Tensor(-(np.log(floored) * targets).sum() * (1.0 / n), (probs,),
                  backward)


def self_consistency_loss(p: Tensor, p_prime: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over the batch of mask * (KL(p||p') + KL(p'||p)), base 2.

    Uses the identity KL(p||q) + KL(q||p) = sum((p - q) * (log p - log q)).
    """
    n = p.data.shape[0]
    scale, col = 1.0 / (n * LOG2), mask[:, None]
    floored, floored_prime = (np.maximum(p.data, LOG_FLOOR),
                              np.maximum(p_prime.data, LOG_FLOOR))
    diff = p.data - p_prime.data
    log_ratio = np.log(floored) - np.log(floored_prime)

    def backward(g):
        # the (p - p') factor's partial reaches each view before the log's
        g_term = (g * scale) * col
        g_diff, g_log = g_term * log_ratio, g_term * diff
        p._accum(g_diff)
        p._accum(g_log / floored)
        p_prime._accum(-g_diff)
        p_prime._accum(-g_log / floored_prime)
    return Tensor(((diff * log_ratio) * col).sum() * scale, (p, p_prime),
                  backward)


def neighbor_consistency_loss(p: Tensor, mixtures: np.ndarray,
                              mask: np.ndarray) -> Tensor:
    """Mean masked KL(p || neighbor mixture), base 2.

    mixtures are constants read from the queue; no gradient flows into them.
    """
    n = p.data.shape[0]
    scale, col = 1.0 / (n * LOG2), mask[:, None]
    floored = np.maximum(p.data, LOG_FLOOR)
    log_ratio = np.log(floored) - np.log(np.maximum(mixtures, LOG_FLOOR))

    def backward(g):
        # the product p * log_ratio reaches p before the log does
        g_term = (g * scale) * col
        p._accum(g_term * log_ratio)
        p._accum((g_term * p.data) / floored)
    return Tensor(((p.data * log_ratio) * col).sum() * scale, (p,), backward)


def neighbor_mixture(similarities: np.ndarray, neighbor_preds: np.ndarray) -> np.ndarray:
    """Similarity-weighted mixture of stored neighbor predictions.

    similarities (K,) with neighbor_preds (K, C) gives one (C,) mixture;
    (N, K) with (N, K, C) gives one per row. Negative cosine similarities
    are clipped to zero before renormalization; an all-zero weight row falls
    back to uniform weights. The stacked matmul gives each row the bits of
    its own `w @ preds` (an einsum would not).
    """
    w = np.maximum(np.asarray(similarities, dtype=np.float64), 0.0)
    total = w.sum(axis=-1, keepdims=True)
    w = np.divide(w, total, out=np.full_like(w, 1.0 / w.shape[-1]),
                  where=total > 0.0)
    preds = np.asarray(neighbor_preds, dtype=np.float64)
    return np.matmul(w[..., None, :], preds)[..., 0, :]


def feature_consistency_loss(query_emb: Tensor, positive_keys: np.ndarray,
                             queue_pool: np.ndarray, t_ssl: float,
                             weight: float = 1.0, out=None) -> Tensor:
    """InfoNCE over cosine similarities; applied to the whole batch.

    The i-th positive key is the i-th row of positive_keys; the negative pool
    is positive_keys plus the stored queue embeddings (all constants), given
    as one array or as a tuple of arrays whose rows follow each other (the
    queue's `key_views`). The result is a single graph node whose only
    parent is query_emb.

    The value and the gradient for an upstream weight (`total_loss`'s
    gamma; 1.0 for a root) are computed together, a block of query rows at
    a time: a block's (b, N + Q) logits are softmaxed by `diffmath.softmax`
    and turned into logit gradients, both in place, then multiplied by the
    pool into the block's rows of the (N, E) gradient, which backward adds.
    backward raises DiffMathError for any other upstream.

    The pool, the logits, the softmax and both products are float32
    (`Scratch.SINGLE`), held in out, a `diffmath.Scratch` (allocated when
    None); the query is scaled by 1 / t_ssl before its cast. The positive
    probabilities, the log floor, the value, the per-row gradient factors
    and the (N, E) gradient are float64. The blocked gradient has the bits
    of one (N, N + Q) product when N <= BLOCK_ROWS or N is a multiple of 8
    (embed 32, a 4,096-key pool); at other batch sizes, such as 33 or 100,
    OpenBLAS's shape-dependent kernels can move its last bit, though each
    row stays deterministic.
    """
    positive_keys = np.atleast_2d(positive_keys)
    n, e = query_emb.data.shape
    pieces = queue_pool if isinstance(queue_pool, tuple) else (queue_pool,)
    pieces = [positive_keys, *(p for p in pieces if p is not None and len(p))]
    m = sum(len(p) for p in pieces)
    if m == 0:
        raise DiffMathError("empty contrastive pool")
    # the pool, then one block of logits, end to end in the scratch
    flat = (Scratch() if out is None else out).view(
        (m * e + min(n, BLOCK_ROWS) * m,), Scratch.SINGLE)
    pool = flat[:m * e].reshape(m, e)
    np.concatenate(pieces, out=pool)
    inv_t = 1.0 / t_ssl
    scaled = (query_emb.data * inv_t).astype(Scratch.SINGLE)
    floored = np.empty(n)
    grad = np.empty((n, e))
    for lo in range(0, n, BLOCK_ROWS):
        query = scaled[lo:lo + BLOCK_ROWS]
        rows = np.arange(query.shape[0])
        # (b, N + Q) logits, softmaxed in place
        y = np.matmul(query, pool.T,
                      out=flat[m * e:m * e + rows.size * m].reshape(-1, m))
        softmax(y, out=y)
        y_pos = y[rows, lo + rows].astype(np.float64)
        f = np.maximum(y_pos, LOG_FLOOR)
        floored[lo:lo + rows.size] = f
        # the logit gradient overwrites the softmax: -s y_j off the
        # diagonal and y_pos (g - s) on it, both times 1 / t_ssl
        g = -(weight * (1.0 / n)) / f
        s = g * y_pos
        y *= (-s * inv_t).astype(Scratch.SINGLE)[:, None]
        y[rows, lo + rows] = y_pos * (g - s) * inv_t
        grad[lo:lo + rows.size] = y @ pool

    def backward(g):
        if g != weight:
            raise DiffMathError(f"InfoNCE gradient was computed for upstream "
                                f"{weight}, got {g}")
        query_emb._accum(grad)
    return Tensor(-np.log(floored).sum() * (1.0 / n), (query_emb,), backward)


def total_loss(l_cls: Tensor, l_con_s: Tensor | None, l_con_n: Tensor | None,
               l_con_f: Tensor | None, alpha: float, beta: float,
               gamma: float):
    """Weighted sum; returns (scalar Tensor, LossBreakdown).

    A consistency term that its method leaves out is None: it enters neither
    the sum nor the graph, and the breakdown reads 0.0 for it. The present
    terms are added left to right.
    """
    weighted = [(term, weight) for term, weight in
                ((l_cls, 1.0), (l_con_s, alpha), (l_con_n, beta),
                 (l_con_f, gamma)) if term is not None]
    total = l_cls.data
    for term, weight in weighted[1:]:
        total = total + term.data * weight

    def backward(g):
        for term, weight in weighted:
            term._accum(g * weight)
    breakdown = LossBreakdown(float(total), *(
        0.0 if term is None else term.item()
        for term in (l_cls, l_con_s, l_con_n, l_con_f)))
    return Tensor(total, tuple(t for t, _ in weighted), backward), breakdown
