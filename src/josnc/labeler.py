"""Training-target construction for each partition.

CLEAN samples keep their observed label, smoothed. ID noisy samples get a
temperature-sharpened distribution whose top-kappa teacher predictions form a
candidate set. OOD noisy samples get a complementary one-hot label (the
teacher's least-likely class) for negative learning.

Inputs are not re-checked here: `TrainConfig` and `trainer.fit` check C,
epsilon, kappa and the labels, and teacher predictions are softmax rows.
"""

from __future__ import annotations

import numpy as np

from .diffmath import softmax


def lsr_matrix(labels: np.ndarray, n_classes: int, epsilon: float) -> np.ndarray:
    """Row-per-sample smoothed one-hots: 1 - eps at the label, eps/(C-1)
    elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full((labels.size, n_classes), epsilon / (n_classes - 1))
    out[np.arange(labels.size), labels] = 1.0 - epsilon
    return out


def make_pll_target(teacher_pred, kappa: int, t_in: float = 0.1,
                    t_out: float = 1.0):
    """Partial-label targets: sharpen each row's top-kappa teacher classes.

    teacher_pred is one (C,) distribution or an (N, C) batch of rows.
    Returns (dist, in_set): in_set is the boolean mask of the candidate set,
    the kappa largest teacher predictions (ties go to the lower class
    index). Entries inside the set are divided by t_in and the rest by t_out
    before `diffmath.softmax`, so in-set mass strictly grows.
    """
    pred = np.asarray(teacher_pred, dtype=np.float64)
    # stable sort of -pred: ties resolve to the lower index
    order = np.argsort(-pred, axis=-1, kind="stable")
    in_set = np.zeros(pred.shape, dtype=bool)
    np.put_along_axis(in_set, order[..., :kappa], True, axis=-1)
    return softmax(np.where(in_set, pred / t_in, pred / t_out)), in_set


def make_negative_target(teacher_pred) -> np.ndarray:
    """One-hot at each row's least-likely teacher class (ties to the lower
    index); teacher_pred is one (C,) distribution or an (N, C) batch."""
    pred = np.asarray(teacher_pred, dtype=np.float64)
    dist = np.zeros(pred.shape)
    # argmin already takes the first minimum
    np.put_along_axis(dist, np.argmin(pred, axis=-1)[..., None], 1.0, axis=-1)
    return dist
