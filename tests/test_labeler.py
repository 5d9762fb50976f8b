import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from josnc.labeler import lsr_matrix, make_negative_target, make_pll_target


# label smoothing ---------------------------------------------------------------

def test_lsr_exact_values():
    dist = lsr_matrix([2], 5, 0.6)[0]
    np.testing.assert_allclose(dist, [0.15, 0.15, 0.4, 0.15, 0.15], atol=1e-15)


def test_lsr_zero_epsilon_is_onehot():
    np.testing.assert_array_equal(lsr_matrix([1], 3, 0.0)[0], [0.0, 1.0, 0.0])


def test_lsr_sums_to_one(rng):
    for _ in range(50):
        c = int(rng.integers(2, 20))
        eps = float(rng.random() * 0.99)
        lab = int(rng.integers(0, c))
        dist = lsr_matrix([lab], c, eps)[0]
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist[lab] == pytest.approx(1.0 - eps, abs=1e-12)
        off = np.delete(dist, lab)
        np.testing.assert_allclose(off, eps / (c - 1), atol=1e-12)


def test_lsr_matrix_matches_scalar(rng):
    labels = rng.integers(0, 6, size=40)
    mat = lsr_matrix(labels, 6, 0.6)
    for i, lab in enumerate(labels):
        row = np.full(6, 0.6 / 5)
        row[lab] = 0.4
        np.testing.assert_allclose(mat[i], row)


# partial-label targets -----------------------------------------------------------

def pll_oracle(pred, kappa, t_in=0.1, t_out=1.0):
    """Term-by-term reimplementation with python floats."""
    pred = list(pred)
    c = len(pred)
    order = sorted(range(c), key=lambda i: (-pred[i], i))
    omega = set(order[:kappa])
    scaled = [pred[i] / (t_in if i in omega else t_out) for i in range(c)]
    mx = max(scaled)
    es = [math.exp(s - mx) for s in scaled]
    z = sum(es)
    return [e / z for e in es], omega


def candidates(in_set):
    """The partial-label candidate set of a one-row target, as class ids."""
    return frozenset(np.flatnonzero(in_set).tolist())


def test_pll_frozen_example():
    pred = [0.7, 0.2, 0.05, 0.05]
    dist, in_set = make_pll_target(pred, kappa=2)
    expect, omega = pll_oracle(pred, 2)
    assert candidates(in_set) == frozenset(omega) == frozenset({0, 1})
    np.testing.assert_allclose(dist, expect, atol=1e-12)
    # frozen oracle values: softmax of [7.0, 2.0, 0.05, 0.05]
    np.testing.assert_allclose(
        dist, [0.99142, 0.00668, 0.00095, 0.00095], atol=1e-5)


def test_pll_tie_goes_to_lower_index():
    pred = [0.25, 0.25, 0.25, 0.25]
    _, in_set = make_pll_target(pred, kappa=2)
    assert candidates(in_set) == frozenset({0, 1})


def test_pll_candidate_set_and_distribution(rng):
    for _ in range(50):
        c = int(rng.integers(3, 12))
        pred = rng.dirichlet(np.ones(c))
        kappa = int(rng.integers(1, c))
        dist, in_set = make_pll_target(pred, kappa)
        # candidate set holds exactly the kappa largest teacher predictions
        assert candidates(in_set) == frozenset(np.argsort(-pred)[:kappa].tolist())
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(dist)) in candidates(in_set)


def test_pll_kappa_full_set():
    pred = [0.5, 0.3, 0.2]
    dist, in_set = make_pll_target(pred, kappa=3)
    assert candidates(in_set) == frozenset({0, 1, 2})
    expect, _ = pll_oracle(pred, 3)
    np.testing.assert_allclose(dist, expect, atol=1e-12)


@given(st.integers(3, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_pll_matches_oracle_random(c, seed):
    pred = np.random.default_rng(seed).dirichlet(np.ones(c))
    kappa = min(5, c)
    dist, in_set = make_pll_target(pred, kappa)
    expect, omega = pll_oracle(pred, kappa)
    assert candidates(in_set) == frozenset(omega)
    np.testing.assert_allclose(dist, expect, atol=1e-10)


# negative targets -----------------------------------------------------------------

def test_negative_target_argmin():
    dist = make_negative_target([0.1, 0.6, 0.05, 0.25])
    np.testing.assert_array_equal(dist, [0.0, 0.0, 1.0, 0.0])


def test_negative_target_tie_to_lower_index():
    dist = make_negative_target([0.2, 0.2, 0.6])
    np.testing.assert_array_equal(dist, [1.0, 0.0, 0.0])
