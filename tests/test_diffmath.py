import contextlib
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from josnc.datagen import NoiseSpec, inject_noise, make_blobs
from josnc.diffmath import (DiffMathError, Scratch, Tensor,
                            js_divergence_rows, softmax)
from josnc.objective import neighbor_consistency_loss
from josnc.trainer import METHODS, TrainConfig, fit

from conftest import central_diff_grads, rel_error
from oracles import TapeTensor, check_prob_vec, js_oracle, kl_oracle


def dirichlet_pair(rng, c):
    return rng.dirichlet(np.ones(c)), rng.dirichlet(np.ones(c))


# softmax -------------------------------------------------------------------

def test_softmax_uniform_on_equal_logits():
    np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.ones(3) / 3)


def test_softmax_shift_invariance():
    x, c = 3.7, 1.9
    a = softmax([x, x + c, x + 2 * c])
    b = softmax([0.0, c, 2 * c])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_leaves_its_argument_unchanged():
    logits = np.random.default_rng(0).normal(size=(5, 4)) * 30.0
    before = logits.copy()
    probs = softmax(logits)
    assert logits.tobytes() == before.tobytes()
    assert not np.shares_memory(probs, logits)


def test_softmax_two_logits():
    # exp-normalize by hand: e^1 / (e^1 + e^2), e^2 / (e^1 + e^2)
    e1, e2 = math.exp(1.0), math.exp(2.0)
    expected = [e1 / (e1 + e2), e2 / (e1 + e2)]
    np.testing.assert_allclose(softmax([1.0, 2.0]), expected, atol=1e-12)
    np.testing.assert_allclose(softmax([1.0, 2.0]), [0.26894, 0.73106], atol=1e-5)


def test_softmax_rejects_nonfinite():
    with pytest.raises(DiffMathError):
        softmax([1.0, np.nan])
    with pytest.raises(DiffMathError):
        softmax([1.0, float("inf")])


# kl: the trainer's KL term, neighbor_consistency_loss on one row, mask 1 ---

def kl_divergence(p, q):
    return neighbor_consistency_loss(Tensor(np.atleast_2d(p)),
                                     np.atleast_2d(q), np.ones(1)).item()


def js(p, q):
    return float(js_divergence_rows(p, q)[0])


def test_kl_identity_exact_zero(rng):
    for c in (2, 5, 17):
        p = rng.dirichlet(np.ones(c))
        assert kl_divergence(p, p) == 0.0


def test_kl_positive_for_distinct():
    s = 0.01
    p = [1 - s, s]
    assert kl_divergence(p, [0.5, 0.5]) > 0


def test_kl_base2_example():
    expected = kl_oracle([0.5, 0.5], [0.75, 0.25])
    got = kl_divergence([0.5, 0.5], [0.75, 0.25])
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.20752, abs=1e-5)


def test_kl_nonnegative_random(rng):
    for _ in range(200):
        c = int(rng.integers(2, 30))
        p, q = dirichlet_pair(rng, c)
        assert kl_divergence(p, q) >= 0.0


# js: js_divergence_rows, on one row unless said otherwise -----------------

def test_js_identity_and_maximum():
    assert js([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert js([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_js_halfway_example():
    expected = js_oracle([0.5, 0.5], [1.0, 0.0])
    assert js([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.31128, abs=1e-5)


def test_js_bounded_and_symmetric_random(rng):
    for _ in range(500):
        c = int(rng.integers(2, 101))
        p, q = dirichlet_pair(rng, c)
        a = js(p, q)
        b = js(q, p)
        assert 0.0 <= a <= 1.0
        assert abs(a - b) <= 1e-12


def test_js_rows_matches_scalar(rng):
    p = rng.dirichlet(np.ones(6), size=20)
    q = rng.dirichlet(np.ones(6), size=20)
    rows = js_divergence_rows(p, q)
    for i in range(20):
        assert rows[i] == pytest.approx(js_oracle(p[i], q[i]), abs=1e-12)


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_js_zero_iff_equal(weights):
    p = np.asarray(weights) / np.sum(weights)
    assert js(p, p) == 0.0


def test_check_prob_vec_rejects():
    with pytest.raises(DiffMathError):
        check_prob_vec([0.5, 0.6])
    with pytest.raises(DiffMathError):
        check_prob_vec([-0.1, 1.1])
    with pytest.raises(DiffMathError):
        check_prob_vec([np.nan, 1.0])


# the reusable scratch buffer ---------------------------------------------------

def test_scratch_grows_to_its_largest_view_and_never_shrinks():
    scratch = Scratch()
    assert scratch.buffer.size == 0
    sizes = []
    for shape in [(3, 4), (2, 5), (4, 4), (1, 2), (0, 7)]:
        view = scratch.view(shape)
        assert view.shape == shape and view.dtype == np.float64
        assert view.flags.c_contiguous and view.flags.writeable
        sizes.append(scratch.buffer.size)
        assert np.shares_memory(view, scratch.buffer) or view.size == 0
    assert sizes == [12, 12, 16, 16, 16]
    first = scratch.buffer
    scratch.view((2, 8))
    assert scratch.buffer is first   # no reallocation within its size


def test_scratch_views_of_single_precision_share_its_bytes():
    scratch = Scratch()
    single = scratch.view((3, 5), Scratch.SINGLE)
    assert single.shape == (3, 5) and single.dtype == np.float32
    assert single.flags.c_contiguous and single.flags.writeable
    assert scratch.buffer.size == 8   # 60 bytes, in whole float64 slots
    double = scratch.view((2, 4))
    assert scratch.buffer.size == 8 and np.shares_memory(single, double)


# the generic tape (tests/oracles.py) -------------------------------------------

def test_backward_sum_is_ones():
    w = TapeTensor([1.0, 2.0, 3.0])
    w.sum().backward()
    np.testing.assert_array_equal(w.grad, np.ones(3))


def test_backward_dot_quadratic():
    w = TapeTensor([1.0, 2.0])
    (w * w).sum().backward()
    np.testing.assert_allclose(w.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar():
    w = TapeTensor([1.0, 2.0])
    with pytest.raises(DiffMathError):
        (w * 2.0).backward()


def test_backward_matmul_softmax_log_chain(rng):
    x = rng.normal(size=(4, 3))
    w = TapeTensor(rng.normal(size=(3, 5)))
    b = TapeTensor(rng.normal(size=5))
    target = rng.dirichlet(np.ones(5), size=4)

    def loss_value():
        probs = softmax(x @ w.data + b.data)
        return float(-(target * np.log(np.maximum(probs, 1e-12))).sum() / 4)

    logits = TapeTensor(x) @ w + b
    loss = -(logits.softmax().log() * target).sum() / 4
    loss.backward()

    fd = central_diff_grads(loss_value, {"w": w.data, "b": b.data})
    assert rel_error(w.grad, fd["w"]) < 1e-4
    assert rel_error(b.grad, fd["b"]) < 1e-4


def test_backward_relu_and_l2norm(rng):
    x = rng.normal(size=(3, 4))
    w = TapeTensor(rng.normal(size=(4, 4)))
    anchor = rng.normal(size=(3, 4))

    def loss_value():
        h = np.maximum(x @ w.data, 0.0)
        n = h / np.maximum(np.sqrt((h ** 2).sum(-1, keepdims=True)), 1e-12)
        return float((n * anchor).sum())

    out = ((TapeTensor(x) @ w).relu().l2_normalize() * anchor).sum()
    out.backward()
    fd = central_diff_grads(loss_value, {"w": w.data})
    assert rel_error(w.grad, fd["w"]) < 1e-4


def test_grad_accumulates_across_reuse():
    w = TapeTensor([2.0])
    # w appears twice: d/dw (w*w + 3w) = 2w + 3 = 7
    loss = (w * w).sum() + (w * 3.0).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, [7.0])


def test_temperature_softmax_gradient(rng):
    w = TapeTensor(rng.normal(size=(2, 4)))
    target = rng.dirichlet(np.ones(4), size=2)

    def loss_value():
        p = softmax(w.data / 0.5)
        return float(-(target * np.log(np.maximum(p, 1e-12))).sum())

    loss = -(w.softmax(temperature=0.5).log() * target).sum()
    loss.backward()
    fd = central_diff_grads(loss_value, {"w": w.data})
    assert rel_error(w.grad, fd["w"]) < 1e-4


# the graph the trainer builds -------------------------------------------------

def tiny_fit(method, step_hook=None, hidden_dims=(16, 16)):
    """Three epochs (two robust) of a tiny fit of `method`."""
    ds = make_blobs(3, 1, 30, 6, 0.6, seed=3)
    ds = inject_noise(ds, NoiseSpec("symmetric", 0.3), seed=3)
    cfg = TrainConfig(epochs=3, warmup_epochs=1, batch_size=32,
                      hidden_dims=hidden_dims, embed_dim=8, queue_capacity=64,
                      knn_k=3, kappa=2, seed=1, method=method)
    return fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes,
               step_hook=step_hook)


@contextlib.contextmanager
def cycle_collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_backward_frees_the_graph_without_the_cycle_collector(monkeypatch):
    # every backward closure a step builds (Tensor has __slots__ and no
    # weakref slot; functions have one) is freed by reference counting
    closures = []
    init = Tensor.__init__

    def tracked(self, data, parents=(), backward_fn=None, grad=None):
        if backward_fn is not None:
            closures.append(weakref.ref(backward_fn))
        init(self, data, parents, backward_fn, grad)

    monkeypatch.setattr(Tensor, "__init__", tracked)
    for method in ("STANDARD", "JOSNC"):
        closures.clear()
        with cycle_collector_off():
            tiny_fit(method)
            assert closures
            assert all(r() is None for r in closures), method
            assert gc.collect() == 0, method


@pytest.mark.parametrize("method", sorted(METHODS))
def test_fit_builds_only_nodes_on_the_graph(monkeypatch, method):
    # a loss term that the method leaves out is not built, and no node is a
    # constant: every node a fit creates has parents and a backward, or is
    # a parameter leaf whose grad is preset to its view of the model's. A
    # linear model builds no encoder node on its input.
    init = Tensor.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.grad is not None:
            leaves.append(self.data.shape)
        elif not (self._parents and self._backward_fn is not None):
            constants.append(self.data.shape)

    monkeypatch.setattr(Tensor, "__init__", tracked)
    # W and b of each hidden layer and of the two heads
    for hidden_dims, n_leaves in (((16, 16), 8), ((), 4)):
        leaves, constants = [], []
        tiny_fit(method, hidden_dims=hidden_dims)
        assert len(leaves) == n_leaves, hidden_dims
        assert constants == [], hidden_dims
