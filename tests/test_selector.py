import numpy as np
import pytest

from josnc.diffmath import js_divergence_rows
from josnc.embedqueue import KnnBatch
from josnc.labeler import lsr_matrix
from josnc.selector import (CLEAN, ID, OOD, Partition, SelectorError,
                            ThresholdState, check_codes, classify_sample,
                            fails_own_test)
from josnc.trainer import robust_codes

from oracles import js_oracle


# scoring: the trainer's p_clean = 1 - JS(p, y), p_ood = JS(p, p') -----------

def test_score_sample_against_oracle():
    p = [0.5, 0.5]
    y = [0.9, 0.1]
    p2 = [0.75, 0.25]
    p_clean = 1.0 - js_divergence_rows(p, y)[0]
    p_ood = js_divergence_rows(p, p2)[0]
    assert p_clean == pytest.approx(1.0 - js_oracle(p, y), abs=1e-12)
    assert p_ood == pytest.approx(js_oracle(p, p2), abs=1e-12)
    # frozen oracle values
    assert p_clean == pytest.approx(0.85321, abs=1e-5)


def test_score_perfect_prediction():
    y = lsr_matrix([1], 4, 0.6)
    assert 1.0 - js_divergence_rows(y, y)[0] == pytest.approx(1.0, abs=1e-12)
    assert js_divergence_rows(y, y)[0] == 0.0


def test_score_neighbor_fields():
    # the robust step's neighbor fields: the mean enqueue-time p_clean of the
    # K neighbors and whether all K share the observed label; row 0's mean is
    # 0.9 with unanimous labels, row 1 has a dissenting neighbor
    t = make_thresholds(0.85, 0.5)
    knn = KnnBatch(similarities=np.ones((2, 3)),
                   observed_labels=np.array([[2, 2, 2], [2, 1, 2]]),
                   p_clean=np.array([[0.8, 0.9, 1.0], [0.8, 0.9, 1.0]]),
                   preds=np.full((2, 3, 3), 1 / 3), sample_ids=np.zeros((2, 3)),
                   found=np.array([True, True]))
    y_b = np.array([2, 2])

    def codes():
        return robust_codes(knn, np.ones(2, dtype=bool), np.zeros(2),
                            np.ones(2), y_b, t).tolist()

    assert codes() == [CLEAN, OOD]
    t.tau_clean[:] = 0.95   # the mean must clear the bar
    assert codes() == [OOD, OOD]


# classification ------------------------------------------------------------------

def make_thresholds(tau_clean, tau_ood, n_classes=3):
    t = ThresholdState(n_classes)
    t.tau_clean[:] = tau_clean
    t.tau_ood[:] = tau_ood
    return t


def test_classify_clean_by_own_score():
    t = make_thresholds(0.6, 0.5)
    assert classify_sample(0.61, 0.9, 0.0, False, 0, t) == CLEAN


def test_fails_own_test_is_the_negated_own_score_criterion():
    t = make_thresholds(0.6, 0.5)
    t.tau_clean[1] = 0.2
    p_clean = np.array([0.61, 0.6, 0.59, 0.21, np.nan])
    y = np.array([0, 0, 0, 1, 0])
    np.testing.assert_array_equal(fails_own_test(p_clean, y, t),
                                  [False, True, True, False, True])
    # a row that passes is CLEAN whatever its neighbors say
    passes = ~fails_own_test(p_clean, y, t)
    for share in (False, True):
        codes = classify_sample(p_clean, np.ones(5), np.zeros(5),
                                np.full(5, share), y, t)
        assert (codes[passes] == CLEAN).all()


def test_check_codes():
    check_codes(np.array([CLEAN, ID, OOD, ID]), 4)
    for codes, n in ((np.array([CLEAN, ID]), 3),
                     (np.array([CLEAN, 3]), 2),
                     (np.array([-1, CLEAN]), 2),
                     (np.array([[CLEAN, ID]]), 2)):
        with pytest.raises(SelectorError, match="exactly one of"):
            check_codes(codes, n)


def test_classify_clean_boundary_is_strict():
    t = make_thresholds(0.6, 0.5)
    assert classify_sample(0.6, 0.4, 0.0, False, 0, t) == ID
    # strict inequality on both
    assert classify_sample(0.6, 0.5, 0.0, False, 0, t) == ID
    assert classify_sample(0.6, 0.50001, 0.0, False, 0, t) == OOD


def test_classify_clean_by_neighbor_rescue():
    t = make_thresholds(0.6, 0.5)
    assert classify_sample(0.2, 0.9, 0.7, True, 0, t) == CLEAN
    # rescue requires both unanimity and the mean clearing the bar
    assert classify_sample(0.2, 0.9, 0.7, False, 0, t) == OOD
    assert classify_sample(0.2, 0.9, 0.55, True, 0, t) == OOD


def test_classify_uses_per_class_thresholds():
    t = ThresholdState(2)
    t.tau_clean[:] = [0.9, 0.1]
    t.tau_ood[:] = [0.5, 0.5]
    assert classify_sample(0.5, 0.1, 0.0, False, 0, t) == ID
    assert classify_sample(0.5, 0.1, 0.0, False, 1, t) == CLEAN


# partition soundness --------------------------------------------------------------

def test_partition_sound():
    Partition({1, 2}, {3}, {4}).check_sound([1, 2, 3, 4])


def test_partition_overlap_rejected():
    with pytest.raises(SelectorError):
        Partition({1, 2}, {2}, {3}).check_sound([1, 2, 3])


def test_partition_coverage_rejected():
    with pytest.raises(SelectorError):
        Partition({1}, {2}, set()).check_sound([1, 2, 3])
    with pytest.raises(SelectorError):
        Partition({1}, {2}, {9}).check_sound([1, 2])


# thresholds ------------------------------------------------------------------------

def test_accumulate_batch_matches_scalar(rng):
    a = ThresholdState(5)
    p_clean = rng.random(200)
    p_ood = rng.random(200)
    labels = rng.integers(0, 5, size=200)
    a.accumulate_batch(p_clean, p_ood, labels)
    # scalar reference: one sample at a time into plain per-class sums
    sum_clean, sum_ood, counts = np.zeros(5), np.zeros(5), np.zeros(5, int)
    for pc, po, lab in zip(p_clean, p_ood, labels):
        sum_clean[lab] += pc
        sum_ood[lab] += po
        counts[lab] += 1
    seen = np.maximum(counts, 1)
    np.testing.assert_allclose(a.epoch_means()[0], sum_clean / seen, atol=1e-12)
    np.testing.assert_allclose(a.epoch_means()[1], sum_ood / seen, atol=1e-12)
    np.testing.assert_array_equal(a._count, counts)


def test_roll_closed_form_constant_mean():
    # constant epoch mean m, tau0 = 0: |tau_t - m| == omega^t * |tau0 - m|
    t = ThresholdState(1)
    m, omega = 0.8, 0.75
    for step in range(1, 12):
        t.accumulate_batch([m], [m], [0])
        t.roll(omega)
        expected_gap = omega ** step * m
        assert abs((m - t.tau_clean[0]) - expected_gap) < 1e-9
        assert abs((m - t.tau_ood[0]) - expected_gap) < 1e-9


def test_roll_unseen_class_carries_forward():
    t = ThresholdState(3)
    t.accumulate_batch([0.5, 0.7], [0.2, 0.4], [0, 0])
    t.roll(0.5)
    assert t.tau_clean[0] == pytest.approx(0.3)   # 0.5*0 + 0.5*0.6
    assert t.tau_clean[1] == 0.0
    prev = t.tau_clean[0]
    t.accumulate_batch([0.9], [0.1], [1])
    t.roll(0.5)
    assert t.tau_clean[0] == prev                  # unseen: unchanged
    assert t.tau_clean[1] == pytest.approx(0.45)


def test_roll_clears_accumulators():
    t = ThresholdState(2)
    t.accumulate_batch([0.5], [0.5], [0])
    t.roll(0.9)
    assert t._count.sum() == 0
    means = t.epoch_means()
    np.testing.assert_array_equal(means[0], np.zeros(2))


def test_roll_replay_oracle(rng):
    """Multi-epoch replay against a list-based reimplementation."""
    t = ThresholdState(3)
    tau = np.zeros(3)
    omega = 0.9
    for _ in range(6):
        sums = np.zeros(3)
        counts = np.zeros(3)
        for _ in range(4):
            pc = rng.random(20)
            labels = rng.integers(0, 3, size=20)
            t.accumulate_batch(pc, pc, labels)
            for v, l in zip(pc, labels):
                sums[l] += v
                counts[l] += 1
        t.roll(omega)
        seen = counts > 0
        tau[seen] = omega * tau[seen] + (1 - omega) * (sums[seen] / counts[seen])
        np.testing.assert_allclose(t.tau_clean, tau, atol=1e-12)
