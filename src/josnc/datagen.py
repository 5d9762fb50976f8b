"""Seeded synthetic blob datasets with symmetric / asymmetric / open-set noise.

The generator mirrors the open-set benchmark construction: a handful of
"known" classes plus extra classes whose samples are mixed into training with
labels drawn from the known label space. Hidden ground-truth tags (true label,
noise kind) live in a separate structure so the training path physically never
sees them. It takes no training setting; `harness` checks per_class > knn_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

CLEAN = 0
ID_NOISY = 1
OOD_NOISY = 2


class DataGenError(ValueError):
    """An invalid generator argument: key names it, detail says why."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"{key} {detail}")
        self.key, self.detail = key, detail


@dataclass
class NoiseSpec:
    kind: str                 # "symmetric" | "asymmetric"
    rate_id: float            # in-distribution corruption rate

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise DataGenError("kind", "must be 'symmetric' or 'asymmetric', "
                               f"got {self.kind!r}")
        # rate 0 is the documented no-op; rates >= 1 or < 0 are rejected
        if not (0.0 <= self.rate_id < 1.0):
            raise DataGenError("rate_id", f"must be in [0, 1), got {self.rate_id}")


@dataclass
class TrainingSet:
    """The fields the trainer is allowed to see."""
    x: np.ndarray               # (N, D) float64
    observed_labels: np.ndarray  # (N,) int64, in [0, C_id)
    ids: np.ndarray              # (N,) int64, unique


@dataclass
class TagTable:
    """Hidden evaluation-only tags, row for row with the TrainingSet."""
    true_labels: np.ndarray   # over the full label space incl. OOD classes
    noise_kinds: np.ndarray   # CLEAN / ID_NOISY / OOD_NOISY


@dataclass
class BlobDataset:
    train: TrainingSet
    tags: TagTable
    test_x: np.ndarray
    test_y: np.ndarray
    n_id_classes: int
    centroids: np.ndarray = field(repr=False)


def make_blobs(n_id_classes: int, n_ood_classes: int, per_class: int, dim: int,
               spread: float, seed: int, test_per_class: int = 100) -> BlobDataset:
    """Gaussian blob classes; OOD classes appear only in the training split.

    Deterministic for a fixed seed. The held-out test set is drawn from ID
    classes only and carries true labels.
    """
    for key, value, least in (
            ("n_id_classes", n_id_classes, 2), ("n_ood_classes", n_ood_classes, 0),
            ("per_class", per_class, 1), ("test_per_class", test_per_class, 1),
            ("dim", dim, 2), ("seed", seed, 0)):
        if value < least:
            raise DataGenError(key, f"must be >= {least}, got {value}")
    if spread < 0:
        raise DataGenError("spread", f"must be non-negative, got {spread}")

    n_total_classes = n_id_classes + n_ood_classes
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB10B]))
    centroids = rng.normal(0.0, 1.0, size=(n_total_classes, dim))

    x = _blob_points(centroids, per_class, spread, rng)
    true_labels = np.repeat(np.arange(n_total_classes, dtype=np.int64),
                            per_class)
    n = x.shape[0]
    ids = np.arange(n, dtype=np.int64)

    is_ood = true_labels >= n_id_classes
    observed = true_labels.copy()
    # OOD samples get placeholder ID-space labels; inject_noise redraws them
    observed[is_ood] = rng.integers(0, n_id_classes, size=int(is_ood.sum()))
    noise_kinds = np.where(is_ood, OOD_NOISY, CLEAN).astype(np.int64)
    test_x = _blob_points(centroids[:n_id_classes], test_per_class, spread,
                          rng)

    return BlobDataset(
        train=TrainingSet(x=x, observed_labels=observed, ids=ids),
        tags=TagTable(true_labels=true_labels, noise_kinds=noise_kinds),
        test_x=test_x,
        test_y=np.repeat(np.arange(n_id_classes, dtype=np.int64),
                         test_per_class),
        n_id_classes=n_id_classes,
        centroids=centroids,
    )


def _blob_points(centroids: np.ndarray, per_class: int, spread: float,
                 rng: np.random.Generator) -> np.ndarray:
    """per_class points around each centroid in turn, drawn class by class
    into one array."""
    x = np.empty((len(centroids) * per_class, centroids.shape[1]))
    for c, rows in enumerate(np.split(x, len(centroids))):
        rows[...] = centroids[c] + spread * rng.normal(size=rows.shape)
    return x


def inject_noise(dataset: BlobDataset, spec: NoiseSpec, seed: int) -> BlobDataset:
    """Corrupt observed labels in place of the clean construction.

    Symmetric: corrupted labels are uniform over the other C_id - 1 classes.
    Asymmetric: class c maps to its circular successor (c + 1) mod C_id.
    OOD samples always get labels drawn uniformly from the ID label space and
    keep their OOD_NOISY tag regardless of the assigned label.
    """
    if seed < 0:
        raise DataGenError("seed", f"must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x4015E]))
    c_id = dataset.n_id_classes
    true_labels = dataset.tags.true_labels
    observed = dataset.train.observed_labels.copy()
    noise_kinds = dataset.tags.noise_kinds.copy()

    is_ood = true_labels >= c_id
    observed[is_ood] = rng.integers(0, c_id, size=int(is_ood.sum()))
    noise_kinds[is_ood] = OOD_NOISY

    id_idx = np.flatnonzero(~is_ood)
    observed[id_idx] = true_labels[id_idx]
    noise_kinds[id_idx] = CLEAN
    n_corrupt = int(round(spec.rate_id * id_idx.size))
    if n_corrupt > 0:
        victims = rng.choice(id_idx, size=n_corrupt, replace=False)
        if spec.kind == "symmetric":
            # uniform over the C_id - 1 non-original classes
            shift = rng.integers(1, c_id, size=n_corrupt)
            observed[victims] = (true_labels[victims] + shift) % c_id
        else:
            observed[victims] = (true_labels[victims] + 1) % c_id
        noise_kinds[victims] = ID_NOISY

    return replace(
        dataset,
        train=replace(dataset.train, observed_labels=observed),
        tags=replace(dataset.tags, noise_kinds=noise_kinds))


def augment_views(x: np.ndarray, rng: np.random.Generator,
                  jitter_sigma: float, mask_rate: float):
    """Two independent stochastic views of a sample batch.

    Each view is additive isotropic Gaussian jitter followed by independent
    coordinate masking (zeroing). Works on a single vector or an (N, D) batch.
    """
    v = _augment_one(x, rng, jitter_sigma, mask_rate)
    v_prime = _augment_one(x, rng, jitter_sigma, mask_rate)
    return v, v_prime


def _augment_one(x, rng, jitter_sigma, mask_rate):
    x = np.asarray(x, dtype=np.float64)
    v = x + jitter_sigma * rng.normal(size=x.shape) if jitter_sigma > 0 else x.copy()
    if mask_rate > 0:
        v = np.where(rng.random(size=x.shape) < mask_rate, 0.0, v)
    return v
