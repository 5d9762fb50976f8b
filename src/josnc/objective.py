"""Loss terms and their weighted assembly.

Classification dispatches per partition: positive cross-entropy (natural log)
against smoothed / sharpened targets for CLEAN and ID samples, negative
learning -log(1 - p_c) at the complementary class for OOD samples. The three
consistency terms are symmetric KL between view predictions, KL against a
similarity-weighted neighbor mixture, and an InfoNCE feature loss over the
embedding queue. KL-based consistency uses base-2 logs, consistent with the
selection metrics; the base only rescales the alpha/beta weights.

The InfoNCE term is one fused tape node over an (N, N + Q) buffer that holds
the softmax and then, in backward, the logit gradient. Its gradient is
bit-identical to the generic matmul -> scale -> softmax -> log -> one-hot sum
chain (the backward repeats that chain's float operations in order), so
training trajectories do not depend on the fusion. Its loss value sums the N
diagonal log-probabilities directly instead of a masked (N, N + Q) matrix, so
it can differ from the chain's in the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffmath import LOG2, LOG_FLOOR, DiffMathError, Tensor


@dataclass
class LossBreakdown:
    l_cls: float
    l_con_s: float
    l_con_n: float
    l_con_f: float
    total: float
    alpha: float
    beta: float
    gamma: float


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
    l_pos = -(probs.log() * pos).sum()
    neg = negative_targets * negative_mask[:, None]
    l_neg = -((1.0 - probs).log() * neg).sum()
    return (l_pos + l_neg) / n


def cross_entropy_loss(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Plain mean cross-entropy against fixed target distributions."""
    n = probs.data.shape[0]
    return -(probs.log() * targets).sum() / n


def self_consistency_loss(p: Tensor, p_prime: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over the batch of mask * (KL(p||p') + KL(p'||p)), base 2.

    Uses the identity KL(p||q) + KL(q||p) = sum((p - q) * (log p - log q)).
    """
    n = p.data.shape[0]
    term = (p - p_prime) * (p.log() - p_prime.log())
    return (term * mask[:, None]).sum() / (n * LOG2)


def neighbor_consistency_loss(p: Tensor, mixtures: np.ndarray,
                              mask: np.ndarray) -> Tensor:
    """Mean masked KL(p || neighbor mixture), base 2.

    mixtures are constants read from the queue; no gradient flows into them.
    """
    n = p.data.shape[0]
    log_mix = np.log(np.maximum(mixtures, 1e-12))
    term = p * (p.log() - log_mix)
    return (term * mask[:, None]).sum() / (n * LOG2)


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
                             queue_pool: np.ndarray, t_ssl: float = 0.1) -> Tensor:
    """InfoNCE over cosine similarities; applied to the whole batch.

    The i-th positive key is the i-th row of positive_keys; the negative pool
    is positive_keys plus the stored queue embeddings (all constants). The
    result is a single tape node whose only parent is query_emb.
    """
    if t_ssl <= 0:
        raise DiffMathError(f"t_ssl must be positive, got {t_ssl}")
    positive_keys = np.atleast_2d(positive_keys)
    n = query_emb.data.shape[0]
    if positive_keys.shape[0] != n:
        raise DiffMathError("one positive key per query required")
    pool = positive_keys if queue_pool is None or len(queue_pool) == 0 \
        else np.concatenate([positive_keys, queue_pool])
    if pool.shape[0] == 0:
        raise DiffMathError("empty contrastive pool")
    inv_t = 1.0 / t_ssl
    y = query_emb.data @ pool.T        # (N, N + Q) logits, softmaxed in place
    y *= inv_t
    if not np.isfinite(y).all():
        raise DiffMathError("softmax input contains non-finite values")
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    rows = np.arange(n)
    y_pos = y[rows, rows]
    floored = np.maximum(y_pos, LOG_FLOOR)
    loss = -np.log(floored).sum() * (1.0 / n)
    out = Tensor(loss, _parents=(query_emb,))

    def bw():   # runs only if query_emb, the only parent, requires grad
        # The float steps of the log -> softmax -> scale -> matmul tape
        # chain, in its order, so the gradient is bit-identical to it.
        g = -(out.grad * (1.0 / n)) / floored
        s = g * y_pos
        dz = y                      # logit gradient overwrites the softmax
        dz *= -s[:, None]
        dz[rows, rows] = y_pos * (g - s)
        dz *= inv_t
        query_emb._accum(dz @ pool)
    return out._record(bw)


def total_loss(l_cls: Tensor, l_con_s: Tensor, l_con_n: Tensor, l_con_f: Tensor,
               alpha: float, beta: float, gamma: float):
    """Weighted sum; returns (scalar Tensor, LossBreakdown)."""
    total = l_cls + alpha * l_con_s + beta * l_con_n + gamma * l_con_f
    breakdown = LossBreakdown(
        l_cls=l_cls.item(), l_con_s=l_con_s.item(), l_con_n=l_con_n.item(),
        l_con_f=l_con_f.item(), total=total.item(),
        alpha=alpha, beta=beta, gamma=gamma)
    return total, breakdown
