import numpy as np
import pytest

from josnc.datagen import (CLEAN, ID_NOISY, OOD_NOISY, DataGenError,
                           NoiseSpec, augment_views, inject_noise, make_blobs)


def small_dataset(seed=3, n_ood=2, per_class=40):
    return make_blobs(n_id_classes=4, n_ood_classes=n_ood, per_class=per_class,
                      dim=8, spread=0.5, seed=seed)


# construction ----------------------------------------------------------------

def test_make_blobs_shapes_and_alignment():
    ds = small_dataset()
    n = 6 * 40
    assert ds.train.x.shape == (n, 8)
    assert ds.train.observed_labels.shape == (n,)
    assert len(np.unique(ds.train.ids)) == n
    assert ds.test_x.shape == (4 * 100, 8)
    # test split covers ID classes only
    assert ds.test_y.max() == 3


def test_make_blobs_determinism():
    a = small_dataset(seed=11)
    b = small_dataset(seed=11)
    c = small_dataset(seed=12)
    np.testing.assert_array_equal(a.train.x, b.train.x)
    np.testing.assert_array_equal(a.tags.true_labels, b.tags.true_labels)
    assert not np.array_equal(a.train.x, c.train.x)


def test_make_blobs_observed_labels_in_id_space():
    ds = small_dataset()
    assert ds.train.observed_labels.min() >= 0
    assert ds.train.observed_labels.max() < 4
    # OOD samples tagged regardless of assigned label
    is_ood = ds.tags.true_labels >= 4
    np.testing.assert_array_equal(ds.tags.noise_kinds[is_ood], OOD_NOISY)
    np.testing.assert_array_equal(ds.tags.noise_kinds[~is_ood], CLEAN)


def test_make_blobs_rejections():
    with pytest.raises(DataGenError):
        make_blobs(1, 0, 40, 8, 0.5, 0)
    with pytest.raises(DataGenError):
        make_blobs(4, 0, 40, 1, 0.5, 0)
    with pytest.raises(DataGenError):
        make_blobs(4, 0, 40, 8, -0.1, 0)
    with pytest.raises(DataGenError, match="must be >= 0, got -1") as exc:
        make_blobs(4, 0, 40, 8, 0.5, -1)
    assert exc.value.key == "seed"


def test_blobs_separable_at_tiny_spread():
    # nearest-centroid is a perfect classifier when spread -> 0
    ds = make_blobs(5, 0, 40, 8, 1e-3, seed=2)
    d = ((ds.test_x[:, None, :] - ds.centroids[None, :5, :]) ** 2).sum(-1)
    pred = d.argmin(axis=1)
    assert (pred == ds.test_y).mean() == 1.0


# noise injection --------------------------------------------------------------

def test_noise_spec_validation():
    NoiseSpec("symmetric", 0.0)  # documented no-op
    with pytest.raises(DataGenError):
        NoiseSpec("symmetric", 1.0)
    with pytest.raises(DataGenError):
        NoiseSpec("symmetric", -0.1)
    with pytest.raises(DataGenError):
        NoiseSpec("uniform", 0.2)


def test_inject_symmetric_exact_count_and_kinds():
    ds = small_dataset(per_class=100)
    rate = 0.37
    noisy = inject_noise(ds, NoiseSpec("symmetric", rate), seed=5)
    n_id = 4 * 100
    expected = int(round(rate * n_id))
    id_mask = noisy.tags.true_labels < 4
    flipped = (noisy.train.observed_labels[id_mask]
               != noisy.tags.true_labels[id_mask])
    assert flipped.sum() == expected
    assert (noisy.tags.noise_kinds == ID_NOISY).sum() == expected
    # corrupted labels never equal the true label
    kinds = noisy.tags.noise_kinds
    bad = kinds == ID_NOISY
    assert np.all(noisy.train.observed_labels[bad] != noisy.tags.true_labels[bad])


def test_inject_symmetric_flips_roughly_uniform():
    # with many flips from class 0, each wrong class gets ~1/3 of them
    ds = make_blobs(4, 0, 3000, 4, 0.5, seed=9)
    noisy = inject_noise(ds, NoiseSpec("symmetric", 0.5), seed=1)
    src0 = (noisy.tags.true_labels == 0) & (noisy.tags.noise_kinds == ID_NOISY)
    dests = noisy.train.observed_labels[src0]
    counts = np.bincount(dests, minlength=4).astype(float)
    assert counts[0] == 0
    frac = counts[1:] / counts[1:].sum()
    # chi-square style check: each within 10% of uniform
    assert np.all(np.abs(frac - 1 / 3) < 0.0333)


def test_inject_asymmetric_successor_map():
    ds = small_dataset(n_ood=0, per_class=200)
    noisy = inject_noise(ds, NoiseSpec("asymmetric", 0.4), seed=8)
    bad = noisy.tags.noise_kinds == ID_NOISY
    np.testing.assert_array_equal(
        noisy.train.observed_labels[bad],
        (noisy.tags.true_labels[bad] + 1) % 4)


def test_inject_ood_labels_uniform_over_id_space():
    ds = make_blobs(4, 4, 2000, 4, 0.5, seed=13)
    noisy = inject_noise(ds, NoiseSpec("symmetric", 0.2), seed=3)
    ood = noisy.tags.noise_kinds == OOD_NOISY
    assert ood.sum() == 4 * 2000
    counts = np.bincount(noisy.train.observed_labels[ood], minlength=4)
    frac = counts / counts.sum()
    assert np.all(np.abs(frac - 0.25) < 0.025)


def test_inject_rejects_negative_seed():
    ds = small_dataset(n_ood=2)
    with pytest.raises(DataGenError, match="must be >= 0, got -1") as exc:
        inject_noise(ds, NoiseSpec("symmetric", 0.2), seed=-1)
    assert exc.value.key == "seed"


def test_inject_determinism_and_rate_zero():
    ds = small_dataset(n_ood=0)
    a = inject_noise(ds, NoiseSpec("symmetric", 0.3), seed=4)
    b = inject_noise(ds, NoiseSpec("symmetric", 0.3), seed=4)
    np.testing.assert_array_equal(a.train.observed_labels, b.train.observed_labels)
    zero = inject_noise(ds, NoiseSpec("symmetric", 0.0), seed=4)
    np.testing.assert_array_equal(zero.train.observed_labels, ds.tags.true_labels)
    assert np.all(zero.tags.noise_kinds == CLEAN)


# augmentation ------------------------------------------------------------------

def test_augment_views_distinct_and_seeded():
    x = np.random.default_rng(0).normal(size=(50, 8))
    v, vp = augment_views(x, np.random.default_rng(7), 0.1, 0.1)
    v2, vp2 = augment_views(x, np.random.default_rng(7), 0.1, 0.1)
    np.testing.assert_array_equal(v, v2)
    np.testing.assert_array_equal(vp, vp2)
    assert not np.array_equal(v, vp)


def test_augment_jitter_statistics():
    # Monte-Carlo oracle: mean ~ x, residual std ~ sigma on unmasked coords
    x = np.zeros((20000, 4))
    v, _ = augment_views(x, np.random.default_rng(3), 0.5, 0.0)
    assert abs(v.mean()) < 0.01
    assert abs(v.std() - 0.5) < 0.01


def test_augment_mask_rate():
    x = np.ones((20000, 4))
    v, _ = augment_views(x, np.random.default_rng(3), 0.0, 0.1)
    masked = (v == 0.0).mean()
    assert abs(masked - 0.1) < 0.01
    # unmasked coords untouched when jitter is off
    assert np.all((v == 0.0) | (v == 1.0))


def test_augment_noop():
    x = np.random.default_rng(1).normal(size=(10, 4))
    v, vp = augment_views(x, np.random.default_rng(2), 0.0, 0.0)
    np.testing.assert_array_equal(v, x)
    np.testing.assert_array_equal(vp, x)
    assert v is not x
