"""Training loop: warmup epochs with plain smoothed cross-entropy, then robust
epochs with partition -> label reassignment -> joint loss -> SGD step ->
teacher EMA -> queue update, rolling the adaptive thresholds at every epoch
boundary.

A robust step handles its batch as arrays: one `knn_batch` call gives every
row's K queue neighbors, and `robust_targets` turns scores, neighbors and
teacher predictions into partition codes, classification targets and
neighbor mixtures with no per-row Python loop. Its results are bit-identical
to classifying and labeling one sample at a time (tests/oracles.py).

A step computes only what it reads: teacher predictions only in robust steps
(their targets read them), teacher keys and queue writes only in fits with
selection (robust steps read the queue; warmup fills it). A STANDARD fit
runs no teacher forward and writes no queue.

The loop receives only features, observed labels, and sample ids; hidden noise
tags are not reachable from this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import selector
from .datagen import TrainingSet, augment_views
from .diffmath import DiffMathError, Tensor, js_divergence_rows
from .embedqueue import EmbedQueue, KnnBatch
from .labeler import lsr_matrix, make_negative_target, make_pll_target
from .network import Model, ModelConfig, ema_update, forward_arrays
from .objective import (classification_loss, cross_entropy_loss,
                        feature_consistency_loss, neighbor_consistency_loss,
                        neighbor_mixture, self_consistency_loss, total_loss)


class TrainerError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Non-finite loss; carries the history and last-good parameters."""

    def __init__(self, message, history, student, teacher):
        super().__init__(message)
        self.history = history
        self.student = student
        self.teacher = teacher


@dataclass
class TrainConfig:
    epochs: int = 60
    warmup_epochs: int = 5
    batch_size: int = 128
    learning_rate: float = 0.05
    momentum: float = 0.9
    optimizer: str = "sgd"            # "sgd" | "adam"
    epsilon: float = 0.6              # label smoothing amount
    kappa: int = 5                    # partial label set size
    knn_k: int = 10
    alpha: float = 0.3
    beta: float = 0.1
    gamma: float = 1e-4
    ema_omega: float = 0.99
    tau_omega_warmup: float = 0.75
    tau_omega_main: float = 0.975
    t_pll_in: float = 0.1
    t_pll_out: float = 1.0
    t_ssl: float = 0.1
    queue_capacity: int = 4096
    hidden_dims: tuple = (64, 64)
    embed_dim: int = 32
    jitter_sigma: float = 0.1
    mask_rate: float = 0.1
    seed: int = 0
    use_selection: bool = True        # False: warmup-mode for every epoch
    use_scon: bool = True
    use_ncon: bool = True
    use_fcon: bool = True

    def __post_init__(self):
        if not (0 < self.warmup_epochs < self.epochs):
            raise TrainerError("need 0 < warmup_epochs < epochs")
        if self.batch_size < 1 or self.learning_rate <= 0:
            raise TrainerError("invalid batch size / learning rate")
        for name in ("epsilon", "mask_rate"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise TrainerError(f"{name} must be in [0, 1), got {v}")
        for name in ("ema_omega", "tau_omega_warmup", "tau_omega_main",
                     "momentum"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise TrainerError(f"{name} must be in [0, 1], got {v}")
        if self.optimizer not in ("sgd", "adam"):
            raise TrainerError(f"unknown optimizer {self.optimizer!r}")
        if self.t_ssl <= 0 or self.t_pll_in <= 0 or self.t_pll_out <= 0:
            raise TrainerError("temperatures must be positive")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)

    def model_config(self, input_dim: int, n_classes: int) -> ModelConfig:
        return ModelConfig(input_dim=input_dim, n_classes=n_classes,
                           hidden_dims=self.hidden_dims,
                           embed_dim=self.embed_dim)


@dataclass
class EpochRecord:
    epoch: int
    l_cls: float
    l_con_s: float
    l_con_n: float
    l_con_f: float
    total: float
    test_acc: float
    mean_tau_clean: float
    mean_tau_ood: float
    partition_codes: np.ndarray = field(repr=False, default=None)


@dataclass
class FitResult:
    history: list
    student: dict
    teacher: dict


class _SGD:
    def __init__(self, params, momentum):
        self.params = params
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self, lr):
        for name, t in self.params.items():
            if t.grad is None:
                continue
            v = self.velocity[name]
            v *= self.momentum
            v += t.grad
            t.data -= lr * v


class _Adam:
    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, t in self.params.items():
            if t.grad is None:
                continue
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * t.grad
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * t.grad ** 2
            t.data -= lr * (self.m[name] / b1c) / (np.sqrt(self.v[name] / b2c) + self.eps)


def _lr_at(config: TrainConfig, epoch: int) -> float:
    """Constant through warmup, cosine decay afterwards."""
    if epoch <= config.warmup_epochs:
        return config.learning_rate
    span = config.epochs - config.warmup_epochs
    progress = (epoch - 1 - config.warmup_epochs) / span
    return config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * progress))


def robust_targets(knn: KnnBatch, p_clean: np.ndarray, p_ood: np.ndarray,
                   y_b: np.ndarray, y_smooth: np.ndarray,
                   teacher_probs: np.ndarray,
                   thresholds: selector.ThresholdState, config: TrainConfig):
    """Selection and targets of one robust step, as array operations.

    Returns (codes, positive targets, negative targets, neighbor mixtures),
    one row per sample. CLEAN rows keep their smoothed label, ID rows get
    partial-label targets and OOD rows a complementary one-hot from the
    teacher; rows without K neighbors get a zero mixture.
    """
    codes = selector.classify_sample(
        p_clean, p_ood, knn.p_clean.mean(axis=1),
        knn.found & np.all(knn.observed_labels == y_b[:, None], axis=1),
        y_b, thresholds)
    mixtures = np.where(knn.found[:, None],
                        neighbor_mixture(knn.similarities, knn.preds), 0.0)
    pos_targets = np.where((codes == selector.CLEAN)[:, None], y_smooth, 0.0)
    neg_targets = np.zeros_like(y_smooth)
    is_id, is_ood = codes == selector.ID, codes == selector.OOD
    if is_id.any():
        pos_targets[is_id] = make_pll_target(
            teacher_probs[is_id], config.kappa, config.t_pll_in,
            config.t_pll_out)[0]
    if is_ood.any():
        neg_targets[is_ood] = make_negative_target(teacher_probs[is_ood])
    return codes, pos_targets, neg_targets, mixtures


def fit(config: TrainConfig, train: TrainingSet, test_x: np.ndarray,
        test_y: np.ndarray, n_classes: int, step_hook=None) -> FitResult:
    """Run the full schedule; deterministic for a fixed config.

    step_hook, if given, is called as hook(epoch, batch_ids, partition) after
    every partitioned step.
    """
    n = train.x.shape[0]
    model_config = config.model_config(train.x.shape[1], n_classes)
    init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    model = Model(model_config, init_rng)
    teacher = model.snapshot()
    optimizer = (_SGD(model.params, config.momentum) if config.optimizer == "sgd"
                 else _Adam(model.params))
    queue = EmbedQueue(config.queue_capacity, config.embed_dim, n_classes)
    thresholds = selector.ThresholdState(n_classes)

    history: list[EpochRecord] = []

    for epoch in range(1, config.epochs + 1):
        warmup_mode = epoch <= config.warmup_epochs or not config.use_selection
        lr = _lr_at(config, epoch)
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 1, epoch]))
        perm = shuffle_rng.permutation(n)
        codes_epoch = np.zeros(n, dtype=np.int64)
        sums = np.zeros(5)   # l_cls, l_con_s, l_con_n, l_con_f, total
        n_batches = 0

        for b_start in range(0, n, config.batch_size):
            idx = perm[b_start:b_start + config.batch_size]
            x_b = train.x[idx]
            y_b = train.observed_labels[idx]
            ids_b = train.ids[idx]
            nb = idx.size
            aug_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 2, epoch, n_batches]))
            v, v2 = augment_views(x_b, aug_rng, config.jitter_sigma,
                                  config.mask_rate)

            for t in model.params.values():
                if not np.isfinite(t.data).all():
                    raise TrainingDiverged(
                        f"non-finite parameters at epoch {epoch}", history,
                        model.snapshot(),
                        {k: a.copy() for k, a in teacher.items()})
            try:
                _, p1, emb_q = model.forward(v)
                _, p2, _ = model.forward(v2)
                if not warmup_mode:
                    teacher_probs, _ = forward_arrays(teacher, model_config, x_b)
                if config.use_selection:
                    _, teacher_keys = forward_arrays(teacher, model_config, v2)
            except DiffMathError as exc:
                # overflow inside a forward pass (inf logits) is divergence too
                raise TrainingDiverged(
                    f"forward pass overflow at epoch {epoch}: {exc}", history,
                    model.snapshot(),
                    {k: a.copy() for k, a in teacher.items()}) from exc

            y_smooth = lsr_matrix(y_b, n_classes, config.epsilon)
            p1_np, p2_np = p1.data, p2.data
            p_clean = 1.0 - js_divergence_rows(p1_np, y_smooth)
            p_ood = js_divergence_rows(p1_np, p2_np)

            if warmup_mode:
                codes = np.full(nb, selector.CLEAN, dtype=np.int64)
                l_cls = cross_entropy_loss(p1, y_smooth)
                zero = Tensor(0.0)
                total, breakdown = total_loss(l_cls, zero, zero, zero,
                                              0.0, 0.0, 0.0)
            else:
                knn = queue.knn_batch(teacher_keys, config.knn_k, ids_b)
                codes, pos_targets, neg_targets, mixtures = robust_targets(
                    knn, p_clean, p_ood, y_b, y_smooth, teacher_probs,
                    thresholds, config)
                rho = (codes != selector.OOD).astype(np.float64)
                pos_mask = rho
                neg_mask = 1.0 - rho
                l_cls = classification_loss(p1, pos_targets, pos_mask,
                                            neg_targets, neg_mask)
                zero = Tensor(0.0)
                l_s = self_consistency_loss(p1, p2, rho) if config.use_scon else zero
                ncon_mask = rho * knn.found
                l_n = (neighbor_consistency_loss(p1, mixtures, ncon_mask)
                       if config.use_ncon else zero)
                l_f = (feature_consistency_loss(emb_q, teacher_keys,
                                                queue.embeddings_view(),
                                                config.t_ssl)
                       if config.use_fcon else zero)
                total, breakdown = total_loss(
                    l_cls, l_s, l_n, l_f,
                    config.alpha if config.use_scon else 0.0,
                    config.beta if config.use_ncon else 0.0,
                    config.gamma if config.use_fcon else 0.0)

            if not np.isfinite(breakdown.total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", history,
                    model.snapshot(), {k: a.copy() for k, a in teacher.items()})

            for t in model.params.values():
                t.zero_grad()
            total.backward()
            optimizer.step(lr)
            ema_update(teacher, model, config.ema_omega)

            thresholds.accumulate_batch(p_clean, p_ood, y_b)
            if config.use_selection:
                queue.enqueue(teacher_keys, y_b, np.clip(p_clean, 0.0, 1.0),
                              p1_np, ids_b)

            codes_epoch[idx] = codes   # sample ids are unique per position
            part = selector.Partition(
                *(set(ids_b[codes == c].tolist())
                  for c in (selector.CLEAN, selector.ID, selector.OOD)))
            part.check_sound(ids_b)
            if step_hook is not None:
                step_hook(epoch, ids_b, part)

            sums += (breakdown.l_cls, breakdown.l_con_s, breakdown.l_con_n,
                     breakdown.l_con_f, breakdown.total)
            n_batches += 1

        thresholds.roll(config.tau_omega_warmup if warmup_mode
                        else config.tau_omega_main)
        test_probs, _ = forward_arrays(model.snapshot_view(), model_config, test_x)
        test_acc = float((test_probs.argmax(axis=1) == test_y).mean())
        means = sums / n_batches
        history.append(EpochRecord(
            epoch=epoch, l_cls=float(means[0]), l_con_s=float(means[1]),
            l_con_n=float(means[2]), l_con_f=float(means[3]),
            total=float(means[4]), test_acc=test_acc,
            mean_tau_clean=float(thresholds.tau_clean.mean()),
            mean_tau_ood=float(thresholds.tau_ood.mean()),
            partition_codes=codes_epoch.copy()))

    return FitResult(history=history, student=model.snapshot(),
                     teacher={k: a.copy() for k, a in teacher.items()})
