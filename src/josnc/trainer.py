"""Training loop: warmup epochs with plain smoothed cross-entropy, then robust
epochs with partition -> label reassignment -> joint loss -> SGD step ->
teacher EMA -> queue update, rolling the adaptive thresholds at every epoch
boundary.

A robust step handles its batch as arrays: one `knn_batch` call gives the
K queue neighbors of the rows that read them, `robust_codes` turns scores and
neighbors into partition codes, and `robust_targets` turns codes and teacher
predictions into classification targets, with no per-row Python loop. Its
results are bit-identical to classifying and labeling one sample at a time
with every row's neighbors at hand (tests/oracles.py).

A step's gradient comes from a coarse graph of at most ten nodes: two per
view from `Model.forward` (encoder and classifier) plus the first view's
projection under feature consistency, one per loss term and one for their
weighted sum; the teacher and evaluation forwards are plain arrays and build
none.

A step computes only what it reads:
- teacher keys and the queue only in fits with selection (robust steps
  read the queue; warmup fills it); a STANDARD fit runs no teacher forward
  and holds no queue;
- neighbors for every row only under neighbor consistency, whose mixtures
  cover every non-OOD row; otherwise only for the rows that fail their own
  clean test, since neighbors can rescue no other row, and no lookup at all
  when there are none;
- the teacher's predictions of the whole batch only in a step with an ID or
  OOD row, whose targets read them, after classification;
- the consistency terms of its method (METHODS) only; a term the method
  leaves out is not built, and `total_loss` gets None for it;
- the forward heads that are read: the classifier of both student views,
  the projection of the first view only in a robust step with feature
  consistency, the teacher's projection for the keys and its classifier for
  a batch with ID or OOD rows and the evaluation.
A row's neighbors have the same bits whichever rows share its lookup, since
`knn_batch` runs every product as full BLOCK_ROWS-row blocks, and the
teacher's predictions are of the whole batch, so skipping rows changes no
bit of the rest.

A fit owns one `diffmath.Scratch`, shared by the two queue-sized products
of a robust step, the KNN similarities and the InfoNCE logits
(`diffmath.BLOCK_ROWS`), and by the InfoNCE's float32 pool.

The loop receives only features, observed labels, and sample ids; hidden noise
tags are not reachable from this module. `fit` is the one divergence boundary:
a step's non-finite loss or weights raise `DiffMathError`, as an overflow in a
softmax, the projection norms or the InfoNCE does, and its one handler turns
each into `TrainingDiverged` ("numeric overflow at epoch E: <what>"), whose
`result` is the partial `FitResult`, built as a finished fit's is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import selector
from .datagen import TrainingSet, augment_views
from .diffmath import DiffMathError, Scratch, ema_update, js_divergence_rows
from .embedqueue import EmbedQueue, KnnBatch
from .labeler import lsr_matrix, make_negative_target, make_pll_target
from .network import Model, ModelConfig, forward_arrays
from .objective import (LossBreakdown, classification_loss,
                        cross_entropy_loss, feature_consistency_loss,
                        neighbor_consistency_loss, neighbor_mixture,
                        self_consistency_loss, total_loss)


class TrainerError(ValueError):
    """An invalid TrainConfig field or fit input: key names it, detail why."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"{key} {detail}")
        self.key, self.detail = key, detail


class TrainingDiverged(RuntimeError):
    """A fit that diverged; result is its partial FitResult."""

    def __init__(self, message: str, result: FitResult):
        super().__init__(message)
        self.result = result

    def __reduce__(self):
        # by default only the message is pickled, so a process pool could
        # not rebuild the exception a worker raised
        return type(self), (str(self), self.result)


# method -> (selection, self-, neighbor-, feature consistency); each ablation
# adds one part to the one before it. Without selection every epoch runs in
# warmup mode.
METHODS = {
    "JOSNC": (True, True, True, True),
    "STANDARD": (False, False, False, False),
    "SELECT_ONLY": (True, False, False, False),
    "SCON": (True, True, False, False),
    "SCON_NCON": (True, True, True, False),
}

# (TrainConfig fields, requirement, test) of the single-field checks
_FIELD_RULES = (
    (("batch_size", "kappa", "knn_k", "queue_capacity", "embed_dim"),
     "must be >= 1", lambda v: v >= 1),
    (("hidden_dims",), "must all be integers >= 1",
     lambda v: all(h >= 1 and float(h).is_integer() for h in v)),
    (("seed", "alpha", "beta", "gamma", "jitter_sigma"), "must be >= 0",
     lambda v: v >= 0),
    (("learning_rate", "t_ssl", "t_pll_in", "t_pll_out"), "must be positive",
     lambda v: v > 0),
    # a temperature divides logits: 1.0 / 1e-320 is inf and raises nothing;
    # the InfoNCE scales its query by 1 / t_ssl into single precision
    (("t_pll_in", "t_pll_out"), "must have a finite reciprocal",
     lambda v: np.isfinite(1.0 / v)),
    (("t_ssl",), "must have a reciprocal finite in single precision",
     lambda v: 1.0 / v <= float(np.finfo(Scratch.SINGLE).max)),
    (("epsilon", "mask_rate"), "must be in [0, 1)", lambda v: 0.0 <= v < 1.0),
    (("ema_omega", "tau_omega_warmup", "tau_omega_main", "momentum"),
     "must be in [0, 1]", lambda v: 0.0 <= v <= 1.0),
)


@dataclass
class TrainConfig:
    epochs: int = 60
    warmup_epochs: int = 5
    batch_size: int = 128
    learning_rate: float = 0.05
    momentum: float = 0.9
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
    method: str = "JOSNC"             # a key of METHODS

    def __post_init__(self):
        if self.method not in METHODS:
            raise TrainerError("method", f"must be one of {sorted(METHODS)}, "
                               f"got {self.method!r}")
        if not 0 < self.warmup_epochs < self.epochs:
            raise TrainerError("warmup_epochs", "must be in [1, epochs - 1], "
                               f"got {self.warmup_epochs}")
        for keys, requirement, ok in _FIELD_RULES:
            for key in keys:
                if not ok(getattr(self, key)):
                    raise TrainerError(
                        key, f"{requirement}, got {getattr(self, key)!r}")
        # below K keys no row has K neighbors: the neighbor terms would be off
        if self.knn_k > self.queue_capacity:
            raise TrainerError("queue_capacity", f"must be >= knn_k "
                               f"({self.knn_k}), got {self.queue_capacity}")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)

    def model_config(self, input_dim: int, n_classes: int) -> ModelConfig:
        return ModelConfig(input_dim=input_dim, n_classes=n_classes,
                           hidden_dims=self.hidden_dims,
                           embed_dim=self.embed_dim)


@dataclass
class EpochRecord:
    epoch: int
    losses: LossBreakdown             # the means over the epoch's steps
    test_acc: float
    mean_tau_clean: float
    mean_tau_ood: float
    partition_codes: np.ndarray = field(repr=False)


@dataclass
class FitResult:
    history: list
    student: dict
    teacher: dict


def _lr_at(config: TrainConfig, epoch: int) -> float:
    """Constant through warmup, cosine decay afterwards."""
    if epoch <= config.warmup_epochs:
        return config.learning_rate
    span = config.epochs - config.warmup_epochs
    progress = (epoch - 1 - config.warmup_epochs) / span
    return config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * progress))


def robust_codes(knn: KnnBatch | None, asked: np.ndarray,
                 p_clean: np.ndarray, p_ood: np.ndarray, y_b: np.ndarray,
                 thresholds: selector.ThresholdState) -> np.ndarray:
    """Partition codes of one robust step, as array operations.

    knn holds the queue neighbors of the rows where asked is True, in batch
    order, or is None when no row was asked. A row must be asked unless it
    passes its own clean test, where neighbors change nothing.
    """
    mean_p_clean = np.zeros(p_clean.shape)
    share_label = np.zeros(p_clean.shape, dtype=bool)
    if knn is not None:
        mean_p_clean[asked] = knn.p_clean.mean(axis=1)
        share_label[asked] = knn.found & np.all(
            knn.observed_labels == y_b[asked, None], axis=1)
    return selector.classify_sample(p_clean, p_ood, mean_p_clean, share_label,
                                    y_b, thresholds)


def robust_targets(codes: np.ndarray, y_smooth: np.ndarray,
                   teacher_probs: np.ndarray | None, config: TrainConfig):
    """(positive targets, negative targets) of one robust step, one row per
    sample.

    CLEAN rows keep their smoothed label, ID rows get partial-label targets
    and OOD rows a complementary one-hot from the teacher. teacher_probs
    holds the teacher's predictions of the whole batch, row for row, and is
    read only at ID and OOD rows (None when there are none).
    """
    pos_targets = np.where((codes == selector.CLEAN)[:, None], y_smooth, 0.0)
    neg_targets = np.zeros_like(y_smooth)
    is_id, is_ood = codes == selector.ID, codes == selector.OOD
    if is_id.any():
        pos_targets[is_id] = make_pll_target(
            teacher_probs[is_id], config.kappa, config.t_pll_in,
            config.t_pll_out)[0]
    if is_ood.any():
        neg_targets[is_ood] = make_negative_target(teacher_probs[is_ood])
    return pos_targets, neg_targets


def fit(config: TrainConfig, train: TrainingSet, test_x: np.ndarray,
        test_y: np.ndarray, n_classes: int, step_hook=None) -> FitResult:
    """Run the full schedule; deterministic for a fixed config.

    step_hook, if given, is called as hook(epoch, batch_ids, partition) after
    every partitioned step. Raises TrainerError before the first step on an
    empty split, test rows of another width than train's (the model's), not
    one test label per test row, n_classes < 2, kappa > n_classes, a label
    out of range or a queue too large for numpy to allocate.
    """
    if n_classes < 2:
        raise TrainerError("n_classes", f"must be >= 2, got {n_classes}")
    if config.kappa > n_classes:
        raise TrainerError("kappa", f"must be <= n_classes ({n_classes}), "
                           f"got {config.kappa}")
    for key, x in (("train", train.x), ("test_x", test_x)):
        if x.shape[0] == 0:
            raise TrainerError(key, "must hold at least one sample, got 0")
    if test_x.shape[1:] != train.x.shape[1:]:
        raise TrainerError("test_x", f"must have rows of shape "
                           f"{train.x.shape[1:]} like train, got {test_x.shape}")
    if test_y.shape != test_x.shape[:1]:
        raise TrainerError("test_y", f"must hold one label per test_x row, "
                           f"shape {test_x.shape[:1]}, got {test_y.shape}")
    labels = train.observed_labels
    if not (labels.min() >= 0 and labels.max() < n_classes):
        raise TrainerError("observed_labels",
                           f"must lie in [0, {n_classes}), got "
                           f"[{labels.min()}, {labels.max()}]")
    selection, scon, ncon, fcon = METHODS[config.method]
    n = train.x.shape[0]
    model_config = config.model_config(train.x.shape[1], n_classes)
    init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    model = Model(model_config, init_rng)
    # teacher and velocity are flat arrays of the model's layout
    teacher_flat = model.flat.copy()
    teacher = model.views(teacher_flat)
    velocity = np.zeros_like(model.flat)
    try:
        queue = (EmbedQueue(config.queue_capacity, config.embed_dim, n_classes)
                 if selection else None)
    except MemoryError as exc:
        raise TrainerError("queue_capacity", str(exc)) from exc
    scratch = Scratch()
    thresholds = selector.ThresholdState(n_classes)

    history: list[EpochRecord] = []

    def result():
        return FitResult(history, model.snapshot(),
                         model.views(teacher_flat.copy()))

    try:
        for epoch in range(1, config.epochs + 1):
            warmup_mode = epoch <= config.warmup_epochs or not selection
            lr = _lr_at(config, epoch)
            shuffle_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 1, epoch]))
            perm = shuffle_rng.permutation(n)
            codes_epoch = np.zeros(n, dtype=np.int64)
            sums = np.zeros(len(LossBreakdown._fields))
            n_batches = 0

            for b_start in range(0, n, config.batch_size):
                idx = perm[b_start:b_start + config.batch_size]
                x_b = train.x[idx]
                y_b = train.observed_labels[idx]
                ids_b = train.ids[idx]
                nb = idx.size
                aug_rng = np.random.default_rng(np.random.SeedSequence(
                    [config.seed, 2, epoch, n_batches]))
                v, v2 = augment_views(x_b, aug_rng, config.jitter_sigma,
                                      config.mask_rate)

                _, p1, emb_q = model.forward(
                    v, projection=fcon and not warmup_mode)
                _, p2, _ = model.forward(v2, projection=False)
                if selection:
                    _, teacher_keys = forward_arrays(teacher, model_config, v2,
                                                     classifier=False)

                y_smooth = lsr_matrix(y_b, n_classes, config.epsilon)
                p1_np, p2_np = p1.data, p2.data
                p_clean = 1.0 - js_divergence_rows(p1_np, y_smooth)
                p_ood = js_divergence_rows(p1_np, p2_np)

                if warmup_mode:
                    codes = np.full(nb, selector.CLEAN, dtype=np.int64)
                    l_cls, l_s, l_n, l_f = (cross_entropy_loss(p1, y_smooth),
                                            None, None, None)
                else:
                    # neighbors for the rows that read them: all rows under
                    # neighbor consistency, else those failing their own test
                    asked = (np.ones(nb, dtype=bool) if ncon else
                             selector.fails_own_test(p_clean, y_b, thresholds))
                    knn = (queue.knn_batch(teacher_keys[asked], config.knn_k,
                                           ids_b[asked], out=scratch)
                           if asked.any() else None)
                    codes = robust_codes(knn, asked, p_clean, p_ood, y_b,
                                         thresholds)
                    # the teacher's predictions, read at ID and OOD rows
                    teacher_probs = (forward_arrays(teacher, model_config, x_b,
                                                    projection=False)[0]
                                     if (codes != selector.CLEAN).any()
                                     else None)
                    pos_targets, neg_targets = robust_targets(
                        codes, y_smooth, teacher_probs, config)
                    rho = (codes != selector.OOD).astype(np.float64)
                    l_cls = classification_loss(p1, pos_targets, rho,
                                                neg_targets, 1.0 - rho)
                    l_s = self_consistency_loss(p1, p2, rho) if scon else None
                    # under neighbor consistency every row was asked; a row
                    # without K neighbors holds zero predictions, so its
                    # mixture is zero
                    l_n = (neighbor_consistency_loss(
                        p1, neighbor_mixture(knn.similarities, knn.preds),
                        rho * knn.found) if ncon else None)
                    l_f = (feature_consistency_loss(
                        emb_q, teacher_keys, queue.key_views(), config.t_ssl,
                        weight=config.gamma, out=scratch) if fcon else None)
                total, breakdown = total_loss(l_cls, l_s, l_n, l_f, config.alpha,
                                              config.beta, config.gamma)

                if not np.isfinite(breakdown.train_loss):
                    raise DiffMathError("non-finite loss")

                # momentum SGD; zero grad and velocity move no unreached bit
                model.zero_grad()
                total.backward()
                velocity *= config.momentum
                velocity += model.grad
                model.flat -= lr * velocity
                ema_update(teacher_flat, model.flat, config.ema_omega)
                # before a forward pass (a step's, the evaluation's) reads them
                finite = np.isfinite(model.flat)
                if not finite.all():
                    raise DiffMathError("non-finite parameter " + model.name_at(
                        int(np.argmin(finite))))

                thresholds.accumulate_batch(p_clean, p_ood, y_b)
                if selection:
                    queue.enqueue(teacher_keys, y_b, p_clean, p1_np, ids_b)

                # TrainingSet ids are unique, so one valid code per row is a
                # sound partition of the batch
                selector.check_codes(codes, nb)
                codes_epoch[idx] = codes
                if step_hook is not None:
                    step_hook(epoch, ids_b, selector.Partition(
                        *(set(ids_b[codes == c].tolist()) for c in
                          (selector.CLEAN, selector.ID, selector.OOD))))

                sums += breakdown
                n_batches += 1

            thresholds.roll(config.tau_omega_warmup if warmup_mode
                            else config.tau_omega_main)
            test_probs, _ = forward_arrays(model.arrays, model_config, test_x,
                                           projection=False)
            test_acc = float((test_probs.argmax(axis=1) == test_y).mean())
            history.append(EpochRecord(
                epoch=epoch, test_acc=test_acc,
                losses=LossBreakdown(*(sums / n_batches).tolist()),
                mean_tau_clean=float(thresholds.tau_clean.mean()),
                mean_tau_ood=float(thresholds.tau_ood.mean()),
                partition_codes=codes_epoch))
    except DiffMathError as exc:
        # a non-finite loss, weight or activation in any step or evaluation
        raise TrainingDiverged(f"numeric overflow at epoch {epoch}: {exc}",
                               result()) from exc

    return result()
