"""Batch partitioning by clean/OOD likelihood scores, and the self-adaptive
per-class thresholds.

The trainer computes the scores with `js_divergence_rows`; they are
divergence-based and live in [0, 1]:
  p_clean = 1 - JS(prediction, smoothed label distribution)
  p_ood   = JS(prediction of view 1, prediction of view 2)

A sample is CLEAN if its own clean-likelihood clears the per-class threshold,
or if all K of its nearest neighbors share its observed label and their mean
enqueue-time clean-likelihood clears the threshold. Non-clean samples are OOD
when their view divergence exceeds the per-class OOD threshold, otherwise ID.
Thresholds are per-class epoch means rolled by the mean teacher's EMA rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffmath import ema_update

CLEAN, ID, OOD = 0, 1, 2


class SelectorError(ValueError):
    pass


@dataclass
class Partition:
    clean_ids: set
    id_ids: set
    ood_ids: set

    def check_sound(self, batch_ids) -> None:
        """Disjoint + exhaustive over the batch; raises otherwise."""
        batch = set(int(i) for i in batch_ids)
        union = self.clean_ids | self.id_ids | self.ood_ids
        overlap = ((self.clean_ids & self.id_ids)
                   | (self.clean_ids & self.ood_ids)
                   | (self.id_ids & self.ood_ids))
        if overlap:
            raise SelectorError(f"partition sets overlap on ids {sorted(overlap)[:5]}")
        if union != batch:
            raise SelectorError("partition does not cover the batch exactly")


class ThresholdState:
    """Per-class thresholds tau (2, C), row views tau_clean and tau_ood.

    Thresholds start at 0 and are rolled once per epoch by `ema_update`:
      tau <- w * tau + (1 - w) * epoch_mean
    Classes unseen in an epoch carry their previous threshold forward.
    """

    def __init__(self, n_classes: int):
        self.tau = np.zeros((2, n_classes))
        self.tau_clean, self.tau_ood = self.tau
        self._sums = np.zeros((2, n_classes))
        self._count = np.zeros(n_classes, dtype=np.int64)

    def accumulate_batch(self, p_clean, p_ood, observed_labels) -> None:
        np.add.at(self._sums, (slice(None), observed_labels), (p_clean, p_ood))
        np.add.at(self._count, observed_labels, 1)

    def epoch_means(self) -> np.ndarray:
        return self._sums / np.maximum(self._count, 1)

    def roll(self, omega_tau: float) -> None:
        """End-of-epoch threshold update; clears the accumulators."""
        seen = self._count > 0
        tau = self.tau[:, seen]
        ema_update(tau, self.epoch_means()[:, seen], omega_tau)
        self.tau[:, seen] = tau
        self._sums[:] = 0.0
        self._count[:] = 0


def fails_own_test(p_clean, observed_label, thresholds: ThresholdState):
    """True where a sample's own clean-likelihood does not clear its class
    threshold, the first test of `classify_sample`: only such a sample's
    neighbors can change its code."""
    return ~(p_clean > thresholds.tau_clean[observed_label])


def classify_sample(p_clean, p_ood, neighbor_mean_p_clean,
                    neighbors_share_label, observed_label,
                    thresholds: ThresholdState):
    """Apply the clean criterion, then the OOD criterion, else ID.

    Elementwise over (N,) arrays (or on scalars for one sample); returns the
    partition code(s). A row without neighbor evidence has
    neighbors_share_label False.
    """
    tau_c = thresholds.tau_clean[observed_label]
    clean = (p_clean > tau_c) | (neighbors_share_label
                                 & (neighbor_mean_p_clean > tau_c))
    ood = p_ood > thresholds.tau_ood[observed_label]
    return np.where(clean, CLEAN, np.where(ood, OOD, ID))[()]


def check_codes(codes: np.ndarray, batch_size: int) -> None:
    """One code per row of the batch, each CLEAN, ID or OOD; raises
    otherwise. Over a batch of unique ids (a TrainingSet's are) this is what
    `Partition.check_sound` checks of the three id sets."""
    if codes.shape != (batch_size,) or not ((codes >= CLEAN)
                                            & (codes <= OOD)).all():
        raise SelectorError("partition codes do not give each row of the "
                            "batch exactly one of CLEAN, ID, OOD")
