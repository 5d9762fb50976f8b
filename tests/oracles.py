"""Per-row reference implementations that the batched code is checked against.

`robust_step_loop` is the robust step's selection / target / mixture loop as
it was written one sample at a time, with the scalar helpers it called.
`josnc.trainer.robust_targets` must reproduce it bit for bit. `knn` is the
one-query top-K scan that `EmbedQueue.knn_batch` must agree with.
"""

import numpy as np

from josnc.diffmath import check_prob_vec
from josnc.embedqueue import KnnResult
from josnc.selector import CLEAN, ID, OOD


def knn(queue, query_embedding, k, exclude_id=-1):
    """Top-K entries of queue by descending cosine similarity to one query.

    Entries with sample_id == exclude_id are skipped; exact similarity ties
    are broken by recency (newer entries first). None when fewer than k
    entries remain after exclusion.
    """
    q = np.asarray(query_embedding, dtype=np.float64)
    keep = queue._ids != exclude_id
    if int(keep.sum()) < k:
        return None
    sims = queue._emb[keep] @ q   # unit vectors: cosine == dot
    order = np.lexsort((-queue._seq[keep], -sims))[:k]
    idx = np.flatnonzero(keep)[order]
    return KnnResult(similarities=sims[order],
                     observed_labels=queue._labels[idx],
                     p_clean=queue._p_clean[idx], preds=queue._preds[idx],
                     sample_ids=queue._ids[idx])


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
