"""Reference implementations that the engine's code is checked against.

`robust_step_loop` is the robust step's selection / target / mixture loop as
it was written one sample at a time, with the scalar helpers it called.
`josnc.trainer.robust_targets` must reproduce it bit for bit. `knn` is the
one-query top-K scan that `EmbedQueue.knn_batch` must agree with,
`knn_batch_one_shot` is the lookup as one product over the zero-padded
queries, whose bits the blocked `knn_batch` must reproduce, and
`ring_slots` reads the queue's stored entries oldest first. The scalar
target helpers check that each teacher prediction is a distribution with
`check_prob_vec`.

`kl_oracle` and `js_oracle` are the base-2 divergences of two
distributions written term by term, one term per nonzero probability.

`TapeTensor` is the generic op-by-op autodiff tape (add, mul, matmul, relu,
log, softmax, sum, L2-normalize) that the engine's coarse graph replaced,
with the forward pass and loss terms as they were written on it
(`tape_forward`, `tape_*_loss`). The coarse nodes' gradients must be
bit-identical to this tape's, the InfoNCE node's excepted: its pool, logits
and softmax are single precision, so its value and gradient must stay close
to the float64 chain's `tape_feature_consistency_loss` and be bit-identical
to `single_feature_consistency_loss`, which takes its float32 steps in one
product.
"""

import math

import numpy as np

from josnc.diffmath import (BLOCK_ROWS, LOG2, LOG_FLOOR, DiffMathError, Tensor,
                            softmax)
from josnc.embedqueue import _GROUPS, KnnBatch, KnnResult
from josnc.selector import CLEAN, ID, OOD


def kl_oracle(p, q):
    """KL(p || q) in bits."""
    return sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def js_oracle(p, q):
    """JS(p, q) in bits: the mean KL of p and q to their midpoint."""
    m = [(pi + qi) / 2 for pi, qi in zip(p, q)]
    return 0.5 * kl_oracle(p, m) + 0.5 * kl_oracle(q, m)


def ring_slots(queue):
    """The queue ring's occupied slots, oldest entry first: with
    `queue._ids[ring_slots(queue)]`, its stored sample ids in insertion
    order."""
    m = len(queue)
    return (queue._count - m + np.arange(m)) % queue.capacity


def knn(queue, query_embedding, k, exclude_id=-1):
    """Top-K entries of queue by descending cosine similarity to one query.

    Entries with sample_id == exclude_id are skipped; exact similarity ties
    are broken by recency (newer entries first). None when fewer than k
    entries remain after exclusion.
    """
    q = np.asarray(query_embedding, dtype=np.float64)
    slots = ring_slots(queue)
    keep = queue._ids[slots] != exclude_id
    if int(keep.sum()) < k:
        return None
    sims = queue._emb[slots[keep]] @ q   # unit vectors: cosine == dot
    order = np.lexsort((-np.flatnonzero(keep), -sims))[:k]
    idx = slots[keep][order]
    return KnnResult(similarities=sims[order],
                     observed_labels=queue._labels[idx],
                     p_clean=queue._p_clean[idx], preds=queue._preds[idx],
                     sample_ids=queue._ids[idx])


def knn_batch_one_shot(queue, queries, k, exclude_ids):
    """`EmbedQueue.knn_batch` as it was written with one similarity product
    and one grouped threshold for the whole batch. The product multiplies
    the queries zero-padded to a whole number of BLOCK_ROWS rows, the rows
    that the blocked lookup multiplies."""
    queries = np.atleast_2d(queries)
    b, m = queries.shape[0], len(queue)
    exclude_ids = np.asarray(exclude_ids, dtype=np.int64)
    keys, ids = queue._emb[:m], queue._ids[:m]
    padded = np.zeros((-(-b // BLOCK_ROWS) * BLOCK_ROWS, queries.shape[1]))
    padded[:b] = queries
    sims = (padded @ keys.T)[:b]
    sorted_ids = np.sort(ids)
    n_excl = (np.searchsorted(sorted_ids, exclude_ids, side="right")
              - np.searchsorted(sorted_ids, exclude_ids, side="left"))
    found = m - n_excl >= k
    cand = np.ones((b, m), dtype=bool)
    n_groups = m // _GROUPS
    need = k + int(n_excl.max(initial=0))
    if n_groups >= need:
        head = _GROUPS * n_groups
        group_max = sims[:, :head].reshape(b, _GROUPS, n_groups).max(axis=1)
        th = np.partition(group_max, n_groups - need,
                          axis=1)[:, n_groups - need]
        np.greater_equal(sims[:, :head], th[:, None], out=cand[:, :head])
    rows, cols = np.divmod(np.flatnonzero(cand), m)
    kept = found[rows] & (ids[cols] != exclude_ids[rows])
    rows, cols = rows[kept], cols[kept]
    age = (cols - queue._head()) % queue.capacity
    order = np.lexsort((-age, -sims[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    hit = np.flatnonzero(found)
    top = cols[np.searchsorted(rows, hit)[:, None] + np.arange(k)]

    def at_hits(values):
        out = np.zeros((b,) + values.shape[1:], dtype=values.dtype)
        out[hit] = values
        return out
    return KnnBatch(
        similarities=at_hits(sims[hit[:, None], top]),
        observed_labels=at_hits(queue._labels[top]),
        p_clean=at_hits(queue._p_clean[top]), preds=at_hits(queue._preds[top]),
        sample_ids=at_hits(ids[top]), found=found)


def classify_row(p_clean, p_ood, neighbor_mean_p_clean, neighbors_share_label,
                 observed_label, thresholds):
    """Clean criterion (own score, then neighbor rescue), OOD, else ID."""
    tau_c = thresholds.tau_clean[observed_label]
    if p_clean > tau_c:
        return CLEAN
    if (neighbors_share_label
            and neighbor_mean_p_clean is not None
            and neighbor_mean_p_clean > tau_c):
        return CLEAN
    if p_ood > thresholds.tau_ood[observed_label]:
        return OOD
    return ID


def check_prob_vec(v, tol: float = 1e-9) -> np.ndarray:
    """Validate that v is a discrete probability distribution.

    Accepts a 1-D vector or a 2-D batch of row distributions. Entries must be
    non-negative and each row must sum to 1 within tol.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise DiffMathError(f"expected 1-D or 2-D probability array, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise DiffMathError("probability vector contains non-finite entries")
    if (v < 0).any():
        raise DiffMathError("probability vector contains negative entries")
    sums = v.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=tol):
        raise DiffMathError(f"probability vector does not sum to 1 (sums={sums})")
    return v


def pll_row(teacher_pred, kappa, t_in, t_out):
    """Sharpen the kappa largest teacher classes (ties to the lower index)."""
    pred = check_prob_vec(teacher_pred)
    c = pred.size
    order = np.lexsort((np.arange(c), -pred))
    in_set = np.zeros(c, dtype=bool)
    in_set[order[:kappa]] = True
    scaled = pred / t_out
    scaled[in_set] = pred[in_set] / t_in
    e = np.exp(scaled - scaled.max())
    return e / e.sum()


def negative_row(teacher_pred):
    """One-hot at the least-likely teacher class (ties to the lower index)."""
    pred = check_prob_vec(teacher_pred)
    dist = np.zeros(pred.size)
    dist[int(np.argmin(pred))] = 1.0
    return dist


def mixture_row(similarities, neighbor_preds):
    """Clipped, renormalized similarity weights (uniform if all <= 0)."""
    w = np.maximum(np.asarray(similarities, dtype=np.float64), 0.0)
    total = w.sum()
    if total <= 0.0:
        w = np.full(w.size, 1.0 / w.size)
    else:
        w = w / total
    return w @ np.asarray(neighbor_preds, dtype=np.float64)


def robust_step_loop(neighbors, p_clean, p_ood, y_b, y_smooth, teacher_probs,
                     thresholds, kappa, t_in, t_out):
    """(codes, positive targets, negative targets, mixtures, has_neighbors).

    neighbors holds one KnnResult, or None, per row.
    """
    nb, n_classes = y_smooth.shape
    codes = np.empty(nb, dtype=np.int64)
    pos_targets = np.zeros((nb, n_classes))
    neg_targets = np.zeros((nb, n_classes))
    mixtures = np.zeros((nb, n_classes))
    has_neighbors = np.zeros(nb)
    for i in range(nb):
        res = neighbors[i]
        mean_p_clean = share_label = None
        if res is not None:
            mean_p_clean = float(res.p_clean.mean())
            share_label = bool(np.all(res.observed_labels == y_b[i]))
            mixtures[i] = mixture_row(res.similarities, res.preds)
            has_neighbors[i] = 1.0
        code = classify_row(float(p_clean[i]), float(p_ood[i]), mean_p_clean,
                            share_label, int(y_b[i]), thresholds)
        codes[i] = code
        if code == CLEAN:
            pos_targets[i] = y_smooth[i]
        elif code == ID:
            pos_targets[i] = pll_row(teacher_probs[i], kappa, t_in, t_out)
        else:
            neg_targets[i] = negative_row(teacher_probs[i])
    return codes, pos_targets, neg_targets, mixtures, has_neighbors


# ---------------------------------------------------------------------------
# the generic tape
# ---------------------------------------------------------------------------

def _unbroadcast(grad, shape):
    """Reduce grad back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class TapeTensor(Tensor):
    """A Tensor with the generic op menu; every op is one graph node.

    Every operand, a constant too, receives its partials. No constant's
    subtree reaches a parameter, so the sweep meets the parameters in the
    same order as it would with the constants left out.
    """

    __slots__ = ()

    def _record(self, backward_fn):
        self._backward_fn = backward_fn
        return self

    @property
    def shape(self):
        return self.data.shape

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, TapeTensor) else TapeTensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = TapeTensor(self.data + other.data, parents=(self, other))

        def bw(g):
            self._accum(_unbroadcast(g, self.shape))
            other._accum(_unbroadcast(g, other.shape))
        return out._record(bw)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        out = TapeTensor(self.data * other.data, parents=(self, other))

        def bw(g):
            self._accum(_unbroadcast(g * other.data, self.shape))
            other._accum(_unbroadcast(g * self.data, other.shape))
        return out._record(bw)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise DiffMathError("tensor/tensor division is not on the op menu")
        return self * (1.0 / float(scalar))

    def matmul(self, other):
        other = self._coerce(other)
        out = TapeTensor(self.data @ other.data, parents=(self, other))

        def bw(g):
            self._accum(g @ other.data.T)
            other._accum(self.data.T @ g)
        return out._record(bw)

    __matmul__ = matmul

    def relu(self):
        out = TapeTensor(np.maximum(self.data, 0.0), parents=(self,))

        def bw(g):
            self._accum(g * (self.data > 0))
        return out._record(bw)

    def log(self):
        """Natural log with the 1e-12 floor guard."""
        floored = np.maximum(self.data, LOG_FLOOR)
        out = TapeTensor(np.log(floored), parents=(self,))

        def bw(g):
            self._accum(g / floored)
        return out._record(bw)

    def softmax(self, temperature=1.0):
        """Row-wise temperature softmax over the last axis."""
        y = softmax(self.data / temperature)
        out = TapeTensor(y, parents=(self,))

        def bw(g):
            dz = y * (g - (g * y).sum(axis=-1, keepdims=True))
            self._accum(dz / temperature)
        return out._record(bw)

    def sum(self):
        out = TapeTensor(self.data.sum(), parents=(self,))

        def bw(g):
            self._accum(np.full_like(self.data, float(g)))
        return out._record(bw)

    def l2_normalize(self, eps=1e-12):
        """Unit-norm rows; a (near-)zero row maps to the first basis vector
        and receives zero gradient."""
        norms = np.sqrt((self.data ** 2).sum(axis=-1, keepdims=True))
        dead = norms[..., 0] < eps
        norms = np.maximum(norms, eps)
        y = self.data / norms
        if dead.any():
            y = y.copy()
            y[dead] = 0.0
            y[dead, ..., 0] = 1.0
        out = TapeTensor(y, parents=(self,))

        def bw(g):
            gx = (g - y * (g * y).sum(axis=-1, keepdims=True)) / norms
            if dead.any():
                gx = gx.copy()
                gx[dead] = 0.0
            self._accum(gx)
        return out._record(bw)


def on_tape(node):
    """Any Tensor as a TapeTensor that passes its gradient straight back, so
    a coarse node can be scaled or summed with tape ops."""
    out = TapeTensor(node.data, parents=(node,))
    return out._record(node._accum)


def tape_params(arrays):
    """Trainable TapeTensor leaves holding copies of the parameter arrays."""
    return {k: TapeTensor(v.copy()) for k, v in arrays.items()}


def tape_forward(params, config, x):
    """(logits, probs, embeddings) of the MLP, built op by op."""
    h = TapeTensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    for i in range(len(config.hidden_dims)):
        h = (h @ params[f"encoder.{i}.W"] + params[f"encoder.{i}.b"]).relu()
    logits = h @ params["classifier.W"] + params["classifier.b"]
    emb = h @ params["projection.W"] + params["projection.b"]
    return logits, logits.softmax(), emb.l2_normalize()


def tape_cross_entropy_loss(probs, targets):
    n = probs.data.shape[0]
    return -(probs.log() * targets).sum() / n


def tape_classification_loss(probs, positive_targets, positive_mask,
                             negative_targets, negative_mask):
    n = probs.data.shape[0]
    pos = positive_targets * positive_mask[:, None]
    l_pos = -(probs.log() * pos).sum()
    neg = negative_targets * negative_mask[:, None]
    l_neg = -((1.0 - probs).log() * neg).sum()
    return (l_pos + l_neg) / n


def tape_self_consistency_loss(p, p_prime, mask):
    n = p.data.shape[0]
    term = (p - p_prime) * (p.log() - p_prime.log())
    return (term * mask[:, None]).sum() / (n * LOG2)


def tape_neighbor_consistency_loss(p, mixtures, mask):
    n = p.data.shape[0]
    log_mix = np.log(np.maximum(mixtures, 1e-12))
    term = p * (p.log() - log_mix)
    return (term * mask[:, None]).sum() / (n * LOG2)


def tape_feature_consistency_loss(query_emb, positive_keys, queue_pool, t_ssl):
    """InfoNCE as a matmul -> scale -> softmax -> log -> one-hot sum chain."""
    n = query_emb.data.shape[0]
    pool = np.concatenate([positive_keys, queue_pool])
    log_p = ((query_emb @ pool.T) * (1.0 / t_ssl)).softmax().log()
    onehot = np.zeros((n, pool.shape[0]))
    onehot[np.arange(n), np.arange(n)] = 1.0
    return -(log_p * onehot).sum() / n


def single_feature_consistency_loss(query_emb, positive_keys, queue_pool,
                                    t_ssl):
    """InfoNCE in the engine's single-precision steps, as one node over one
    (N, N + Q) product.

    The query is scaled by 1 / t_ssl in float64 and cast; the pool, the
    logits and their softmax are float32, and each row's positive
    probability, its log floor and the value are float64. backward repeats
    the float steps of the log -> one-hot sum chain's backward for its
    upstream g and multiplies the float32 logit gradient by the pool.
    """
    n = query_emb.data.shape[0]
    inv_t = 1.0 / t_ssl
    pool = np.concatenate([positive_keys, queue_pool]).astype(np.float32)
    logits = (query_emb.data * inv_t).astype(np.float32) @ pool.T
    y = np.exp(logits - logits.max(axis=-1, keepdims=True))
    y /= y.sum(axis=-1, keepdims=True)
    diagonal = np.arange(n)
    y_pos = y[diagonal, diagonal].astype(np.float64)
    floored = np.maximum(y_pos, LOG_FLOOR)
    out = TapeTensor(-np.log(floored).sum() * (1.0 / n), parents=(query_emb,))

    def bw(g):
        g_pos = -(g * (1.0 / n)) / floored
        s = g_pos * y_pos
        dz = y * (-s * inv_t).astype(np.float32)[:, None]
        dz[diagonal, diagonal] = y_pos * (g_pos - s) * inv_t
        query_emb._accum((dz @ pool).astype(np.float64))
    return out._record(bw)


def tape_total_loss(l_cls, l_con_s, l_con_n, l_con_f, alpha, beta, gamma):
    return l_cls + alpha * l_con_s + beta * l_con_n + gamma * l_con_f
