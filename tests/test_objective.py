import math

import numpy as np
import pytest

from josnc.diffmath import (LOG2, LOG_FLOOR, DiffMathError, Scratch, Tensor,
                            softmax)
from josnc.labeler import lsr_matrix
from josnc.network import Model, ModelConfig, forward_arrays
from josnc.objective import (classification_loss, cross_entropy_loss,
                             feature_consistency_loss, neighbor_consistency_loss,
                             neighbor_mixture, self_consistency_loss,
                             total_loss)
from josnc.trainer import METHODS

from conftest import central_diff_grads, rel_error
from oracles import (TapeTensor, kl_oracle, on_tape,
                     single_feature_consistency_loss,
                     tape_classification_loss, tape_cross_entropy_loss,
                     tape_feature_consistency_loss, tape_forward,
                     tape_neighbor_consistency_loss, tape_params,
                     tape_self_consistency_loss, tape_total_loss)

N, D, C, E = 6, 8, 3, 4


def micro_model(rng):
    return Model(ModelConfig(D, C, hidden_dims=(10,), embed_dim=E), rng)


def np_forward(m, x):
    """Plain-numpy mirror of the model forward for finite differences."""
    h = np.maximum(x @ m.params["encoder.0.W"].data + m.params["encoder.0.b"].data, 0.0)
    logits = h @ m.params["classifier.W"].data + m.params["classifier.b"].data
    probs = softmax(logits)
    emb = h @ m.params["projection.W"].data + m.params["projection.b"].data
    emb = emb / np.maximum(np.sqrt((emb ** 2).sum(-1, keepdims=True)), 1e-12)
    return probs, emb


def check_grads(m, tape_loss_fn, np_loss_fn, tol=1e-4):
    loss = tape_loss_fn()
    loss.backward()
    arrays = {k: t.data for k, t in m.params.items()}
    fd = central_diff_grads(np_loss_fn, arrays)
    for k, t in m.params.items():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert rel_error(grad, fd[k]) < tol, k


# values ------------------------------------------------------------------------

def test_cross_entropy_value(rng):
    probs = rng.dirichlet(np.ones(C), size=N)
    targets = rng.dirichlet(np.ones(C), size=N)
    oracle = -sum(float(t @ np.log(p)) for p, t in zip(probs, targets)) / N
    got = cross_entropy_loss(Tensor(probs), targets).item()
    assert got == pytest.approx(oracle, abs=1e-12)


def test_classification_decomposes_into_pos_and_neg(rng):
    probs = rng.dirichlet(np.ones(C), size=N)
    pos_t = rng.dirichlet(np.ones(C), size=N)
    neg_t = np.zeros((N, C))
    neg_t[np.arange(N), rng.integers(0, C, N)] = 1.0
    pos_mask = np.array([1, 1, 1, 0, 0, 0], dtype=np.float64)
    neg_mask = 1.0 - pos_mask

    got = classification_loss(Tensor(probs), pos_t, pos_mask, neg_t, neg_mask).item()
    oracle = 0.0
    for i in range(N):
        if pos_mask[i]:
            oracle += -float(pos_t[i] @ np.log(probs[i]))
        else:
            c = int(neg_t[i].argmax())
            oracle += -math.log(1.0 - probs[i, c])
    assert got == pytest.approx(oracle / N, abs=1e-12)


def test_self_consistency_symmetric_and_zero(rng):
    p = rng.dirichlet(np.ones(C), size=N)
    q = rng.dirichlet(np.ones(C), size=N)
    mask = np.ones(N)
    a = self_consistency_loss(Tensor(p), Tensor(q), mask).item()
    b = self_consistency_loss(Tensor(q), Tensor(p), mask).item()
    assert a == pytest.approx(b, abs=1e-12)
    assert a > 0
    zero = self_consistency_loss(Tensor(p), Tensor(p.copy()), mask).item()
    assert abs(zero) < 1e-12
    # identity check: sum of the two directed KLs, base 2
    oracle = sum(kl_oracle(p[i], q[i]) + kl_oracle(q[i], p[i])
                 for i in range(N)) / N
    assert a == pytest.approx(oracle, abs=1e-10)


def test_self_consistency_mask(rng):
    p = rng.dirichlet(np.ones(C), size=N)
    q = rng.dirichlet(np.ones(C), size=N)
    mask = np.zeros(N)
    assert self_consistency_loss(Tensor(p), Tensor(q), mask).item() == 0.0


def test_neighbor_mixture_weights(rng):
    sims = np.array([0.5, -0.2, 0.5])
    preds = rng.dirichlet(np.ones(C), size=3)
    mix = neighbor_mixture(sims, preds)
    oracle = 0.5 * preds[0] + 0.5 * preds[2]   # negative sim clipped out
    np.testing.assert_allclose(mix, oracle, atol=1e-12)
    # all-nonpositive similarities fall back to uniform
    mix2 = neighbor_mixture(np.array([-0.1, -0.3]), preds[:2])
    np.testing.assert_allclose(mix2, preds[:2].mean(axis=0), atol=1e-12)


def test_neighbor_consistency_value(rng):
    p = rng.dirichlet(np.ones(C), size=N)
    mix = rng.dirichlet(np.ones(C), size=N)
    mask = np.ones(N)
    got = neighbor_consistency_loss(Tensor(p), mix, mask).item()
    oracle = sum(float((p[i] * (np.log(p[i]) - np.log(mix[i]))).sum())
                 for i in range(N)) / (N * LOG2)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got >= 0


def test_feature_consistency_value(rng):
    q = rng.normal(size=(N, E))
    q /= np.sqrt((q ** 2).sum(-1, keepdims=True))
    keys = rng.normal(size=(N, E))
    keys /= np.sqrt((keys ** 2).sum(-1, keepdims=True))
    pool_extra = rng.normal(size=(5, E))
    pool_extra /= np.sqrt((pool_extra ** 2).sum(-1, keepdims=True))
    t_ssl = 0.1
    got = feature_consistency_loss(Tensor(q), keys, pool_extra, t_ssl).item()
    # the node's float32 steps: the scaled query and the pool are cast, and
    # the logits and their softmax are float32; the log is float64
    pool = np.concatenate([keys, pool_extra]).astype(np.float32)
    all_logits = (q * (1.0 / t_ssl)).astype(np.float32) @ pool.T
    oracle = 0.0
    for i in range(N):
        logits = all_logits[i]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        oracle += -np.log(max(float(p[i]), LOG_FLOOR))
    assert got == pytest.approx(oracle / N, abs=1e-10)


def infonce_against(reference, t_ssl):
    """([gradient, reference's gradient], [value, reference's value]) of
    the InfoNCE node and a reference at upstream gamma, over one 128-row
    batch and a 4,096-key queue that hold the edge cases."""
    rng = np.random.default_rng(2024)
    n, q, e, gamma = 128, 4096, 16, 0.01

    def unit(rows):
        return rows / np.sqrt((rows ** 2).sum(-1, keepdims=True))

    query = unit(rng.normal(size=(n, e)))
    keys = unit(query + 0.3 * rng.normal(size=(n, e)))
    keys[0] = -query[0]            # a positive that underflows the log floor
    queue = unit(rng.normal(size=(q, e)))
    queue[: q // 4] = np.eye(e)[0]  # dead-row keys pinned to one unit vector

    grads, losses = [], []
    for build in (lambda *a: feature_consistency_loss(*a, weight=gamma),
                  reference):
        emb = TapeTensor(query.copy())
        loss = build(emb, keys, queue, t_ssl)
        (on_tape(loss) * gamma).backward()   # upstream gamma, as in total_loss
        grads.append(emb.grad)
        losses.append(loss.item())
    return grads, losses


@pytest.mark.parametrize("t_ssl", [0.07, 0.1, 0.5, 1.0])
def test_feature_consistency_bit_exact_against_tape_chain(t_ssl):
    # the oracle takes the node's float32 steps in one (N, N + Q) product
    grads, losses = infonce_against(single_feature_consistency_loss, t_ssl)
    assert np.array_equal(grads[0], grads[1])
    assert abs(losses[0] - losses[1]) <= 1e-12


@pytest.mark.parametrize("t_ssl", [0.07, 0.1, 0.5, 1.0])
def test_feature_consistency_close_to_float64_chain(t_ssl):
    # single precision moves the value and the gradient only by its
    # rounding: the float64 tape chain is the reference
    (got, want), (value, want_value) = infonce_against(
        tape_feature_consistency_loss, t_ssl)
    assert abs(value - want_value) <= 1e-6 * abs(want_value)
    assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [8, 32, 40, 128])
def test_blocked_feature_consistency_equals_one_shot(n):
    # BLOCK_ROWS rows at a time, the gradient and the value have the bits
    # of the float32 oracle's one (N, N + Q) product, across block
    # boundaries (32, 40) and within one block (8)
    rng = np.random.default_rng(n)
    q, e, gamma, t_ssl = 4096, 32, 0.01, 0.5

    def unit(rows):
        return rows / np.sqrt((rows ** 2).sum(-1, keepdims=True))

    query = unit(rng.normal(size=(n, e)))
    keys = unit(query + 0.3 * rng.normal(size=(n, e)))
    queue = unit(rng.normal(size=(q, e)))
    emb = Tensor(query)
    loss = feature_consistency_loss(emb, keys, queue, t_ssl, weight=gamma,
                                    out=Scratch())
    (on_tape(loss) * gamma).backward()
    want = TapeTensor(query.copy())
    want_loss = single_feature_consistency_loss(want, keys, queue, t_ssl)
    (on_tape(want_loss) * gamma).backward()
    assert emb.grad.tobytes() == want.grad.tobytes()
    assert loss.data.tobytes() == want_loss.data.tobytes()


def test_feature_consistency_rejects_an_upstream_it_was_not_built_for(rng):
    # the gradient is computed in the forward for one upstream weight
    keys = np.eye(E)[np.arange(N) % E]
    for weight, upstream in ((1.0, 0.01), (0.01, 1.0), (0.01, 0.02)):
        emb = Tensor(rng.normal(size=(N, E)))
        loss = feature_consistency_loss(emb, keys, keys, 0.1, weight=weight)
        with pytest.raises(DiffMathError, match="upstream"):
            (on_tape(loss) * upstream).backward()
        assert emb.grad is None
    # a root backward passes 1.0, the default weight
    emb = Tensor(rng.normal(size=(N, E)))
    feature_consistency_loss(emb, keys, keys, 0.1).backward()
    assert emb.grad is not None


def test_feature_consistency_rejects_nonfinite(rng):
    q = rng.normal(size=(N, E))
    keys = np.eye(E)[np.arange(N) % E]
    for bad in (np.nan, np.inf):
        q[2, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(DiffMathError):
            feature_consistency_loss(Tensor(q), keys, keys, 0.1)
    # a -inf logit beside finite ones: every row's max stays finite
    pool = np.ones((3, E))
    pool[1, 0] = -np.inf
    with pytest.raises(DiffMathError):
        feature_consistency_loss(Tensor(rng.random((3, E)) + 1.0), pool, pool,
                                 0.1)


def test_total_loss_weighting(rng):
    parts = [Tensor(np.array(v)) for v in (1.0, 2.0, 3.0, 4.0)]
    total, br = total_loss(*parts, alpha=0.3, beta=0.1, gamma=1e-4)
    assert total.item() == pytest.approx(1.0 + 0.6 + 0.3 + 4e-4, abs=1e-12)
    assert (br.l_cls, br.l_con_s, br.l_con_n, br.l_con_f) == (1.0, 2.0, 3.0, 4.0)
    assert br.train_loss == total.item()
    # a term left out is None: it reads 0.0 and adds nothing, so a total of
    # l_cls alone has l_cls's bits
    l_cls = Tensor(np.array(0.1 + 0.2))
    total, br = total_loss(l_cls, None, None, None, 0.3, 0.1, 1e-4)
    assert total.data.tobytes() == l_cls.data.tobytes()
    assert (br.l_con_s, br.l_con_n, br.l_con_f, br.train_loss) == (
        0.0, 0.0, 0.0, l_cls.item())
    total, br = total_loss(l_cls, parts[1], parts[2], None, 0.3, 0.1, 1e-4)
    assert (total.item() == br.train_loss
            == l_cls.item() + 2.0 * 0.3 + 3.0 * 0.1)
    assert (br.l_con_s, br.l_con_n, br.l_con_f) == (2.0, 3.0, 0.0)


# gradients through a micro-network ----------------------------------------------

def test_grad_classification_loss(rng):
    m = micro_model(rng)
    x = rng.normal(size=(N, D))
    pos_t = rng.dirichlet(np.ones(C), size=N)
    neg_t = np.zeros((N, C))
    neg_t[np.arange(N), rng.integers(0, C, N)] = 1.0
    pos_mask = np.array([1, 0, 1, 0, 1, 0], dtype=np.float64)
    neg_mask = 1.0 - pos_mask

    def tape():
        _, probs, _ = m.forward(x)
        return classification_loss(probs, pos_t, pos_mask, neg_t, neg_mask)

    def plain():
        probs, _ = np_forward(m, x)
        pos = (pos_t * pos_mask[:, None] * np.log(probs)).sum()
        neg = (neg_t * neg_mask[:, None] * np.log(1.0 - probs)).sum()
        return float(-(pos + neg) / N)

    check_grads(m, tape, plain)


def test_grad_self_consistency(rng):
    m = micro_model(rng)
    x1 = rng.normal(size=(N, D))
    x2 = x1 + 0.1 * rng.normal(size=(N, D))
    mask = np.array([1, 1, 0, 1, 0, 1], dtype=np.float64)

    def tape():
        _, p1, _ = m.forward(x1)
        _, p2, _ = m.forward(x2)
        return self_consistency_loss(p1, p2, mask)

    def plain():
        p1, _ = np_forward(m, x1)
        p2, _ = np_forward(m, x2)
        term = ((p1 - p2) * (np.log(p1) - np.log(p2))).sum(axis=1)
        return float((term * mask).sum() / (N * LOG2))

    check_grads(m, tape, plain)


def test_grad_neighbor_consistency(rng):
    m = micro_model(rng)
    x = rng.normal(size=(N, D))
    mix = rng.dirichlet(np.ones(C), size=N)
    mask = np.ones(N)

    def tape():
        _, probs, _ = m.forward(x)
        return neighbor_consistency_loss(probs, mix, mask)

    def plain():
        probs, _ = np_forward(m, x)
        term = (probs * (np.log(probs) - np.log(mix))).sum(axis=1)
        return float((term * mask).sum() / (N * LOG2))

    check_grads(m, tape, plain)


def test_grad_feature_consistency(rng):
    m = micro_model(rng)
    x = rng.normal(size=(N, D))
    keys = rng.normal(size=(N, E))
    keys /= np.sqrt((keys ** 2).sum(-1, keepdims=True))
    queue = rng.normal(size=(7, E))
    queue /= np.sqrt((queue ** 2).sum(-1, keepdims=True))
    t_ssl = 0.1

    def tape():
        _, _, emb = m.forward(x)
        return feature_consistency_loss(emb, keys, queue, t_ssl)

    def plain():
        _, emb = np_forward(m, x)
        pool = np.concatenate([keys, queue])
        logits = (emb @ pool.T) / t_ssl
        logits = logits - logits.max(axis=1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(N), np.arange(N)].sum() / N)

    check_grads(m, tape, plain)


def test_grad_total_joint(rng):
    m = micro_model(rng)
    x1 = rng.normal(size=(N, D))
    x2 = x1 + 0.1 * rng.normal(size=(N, D))
    pos_t = rng.dirichlet(np.ones(C), size=N)
    neg_t = np.zeros((N, C))
    neg_t[np.arange(N), rng.integers(0, C, N)] = 1.0
    pos_mask = np.array([1, 1, 1, 1, 0, 0], dtype=np.float64)
    neg_mask = 1.0 - pos_mask
    mix = rng.dirichlet(np.ones(C), size=N)
    keys = rng.normal(size=(N, E))
    keys /= np.sqrt((keys ** 2).sum(-1, keepdims=True))
    alpha, beta, gamma = 0.3, 0.1, 1e-4

    def tape():
        _, p1, emb = m.forward(x1)
        _, p2, _ = m.forward(x2)
        l_cls = classification_loss(p1, pos_t, pos_mask, neg_t, neg_mask)
        l_s = self_consistency_loss(p1, p2, pos_mask)
        l_n = neighbor_consistency_loss(p1, mix, pos_mask)
        l_f = feature_consistency_loss(emb, keys, None, 0.1, weight=gamma)
        total, _ = total_loss(l_cls, l_s, l_n, l_f, alpha, beta, gamma)
        return total

    def plain():
        p1, emb = np_forward(m, x1)
        p2, _ = np_forward(m, x2)
        cls = -(pos_t * pos_mask[:, None] * np.log(p1)).sum()
        cls += -(neg_t * neg_mask[:, None] * np.log(1.0 - p1)).sum()
        cls /= N
        s = (((p1 - p2) * (np.log(p1) - np.log(p2))).sum(axis=1)
             * pos_mask).sum() / (N * LOG2)
        nn = ((p1 * (np.log(p1) - np.log(mix))).sum(axis=1)
              * pos_mask).sum() / (N * LOG2)
        logits = (emb @ keys.T) / 0.1
        logits = logits - logits.max(axis=1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        f = -logp[np.arange(N), np.arange(N)].sum() / N
        return float(cls + alpha * s + beta * nn + gamma * f)

    check_grads(m, tape, plain)


def test_neighbor_preds_receive_no_gradient(rng):
    # mixtures enter as plain arrays: perturbing model params changes the loss,
    # but the mixture array itself must stay untouched by backward
    m = micro_model(rng)
    x = rng.normal(size=(N, D))
    mix = rng.dirichlet(np.ones(C), size=N)
    before = mix.copy()
    _, probs, _ = m.forward(x)
    neighbor_consistency_loss(probs, mix, np.ones(N)).backward()
    np.testing.assert_array_equal(mix, before)


# the coarse graph against the generic op-by-op tape ----------------------------

WEIGHTS = {"alpha": 0.3, "beta": 0.1, "gamma": 0.01}


def edge_case_batch(seed, hidden_dims=(16, 12)):
    """A model and a two-view batch that hold the gradient's edge cases.

    Row 0 is all zeros, so every ReLU of its path sits at exactly 0 and its
    projection is the dead row; encoder units 0-3 never fire (when there is
    an encoder); rows 1-6 are scaled until some probabilities fall under the
    1e-12 log floor and some reach 1.0 (so 1 - p is floored too, where the
    OOD rows 1-3 put their complementary label); rows 7-12 are OOD; about a
    third of the ncon mask is zero.
    """
    rng = np.random.default_rng(seed)
    n, d, c, e, q = 40, 7, 5, 6, 30
    model = Model(ModelConfig(d, c, hidden_dims=hidden_dims, embed_dim=e),
                  rng)
    if hidden_dims:
        model.params["encoder.0.b"].data[:4] = -50.0
    x1 = rng.normal(size=(n, d))
    x1[1:7] *= 200.0
    x2 = x1 + 0.3 * rng.normal(size=(n, d))
    x1[0] = x2[0] = 0.0
    p1 = forward_arrays(model.arrays, model.config, x1)[0]
    rho = np.ones(n)
    rho[1:4] = rho[7:13] = 0.0
    neg_t = np.eye(c)[rng.integers(0, c, n)]
    neg_t[1:4] = np.eye(c)[p1[1:4].argmax(axis=1)]
    keys = rng.normal(size=(n, e))
    queue = rng.normal(size=(q, e))
    batch = {
        "x1": x1, "x2": x2, "rho": rho, "neg_t": neg_t,
        "y_smooth": lsr_matrix(rng.integers(0, c, n), c, 0.1),
        "pos_t": rng.dirichlet(np.ones(c), size=n),
        "mix": rng.dirichlet(np.ones(c), size=n),
        "ncon_mask": rho * (rng.random(n) < 0.6),
        "keys": keys / np.sqrt((keys ** 2).sum(-1, keepdims=True)),
        "queue": queue / np.sqrt((queue ** 2).sum(-1, keepdims=True)),
    }
    return model, batch


def step_loss(method, b, forward, zero, ce, cls, scon, ncon, fcon, total):
    """(the trainer's loss for `method`, the first view's probabilities),
    built from the given functions."""
    use_sel, use_s, use_n, use_f = METHODS[method]
    _, p1, emb = forward(b["x1"])
    _, p2, _ = forward(b["x2"])
    if not use_sel:
        return total(ce(p1, b["y_smooth"]), zero, zero, zero, 0.0, 0.0, 0.0), p1
    return total(
        cls(p1, b["pos_t"], b["rho"], b["neg_t"], 1.0 - b["rho"]),
        scon(p1, p2, b["rho"]) if use_s else zero,
        ncon(p1, b["mix"], b["ncon_mask"]) if use_n else zero,
        fcon(emb, b["keys"], b["queue"], 0.5) if use_f else zero,
        WEIGHTS["alpha"] if use_s else 0.0, WEIGHTS["beta"] if use_n else 0.0,
        WEIGHTS["gamma"] if use_f else 0.0), p1


def coarse_loss(model, method, b):
    # a term the method leaves out is None, as in trainer.fit
    return step_loss(
        method, b, model.forward, None, cross_entropy_loss,
        classification_loss, self_consistency_loss, neighbor_consistency_loss,
        lambda *a: feature_consistency_loss(*a, weight=WEIGHTS["gamma"]),
        lambda *a: total_loss(*a)[0])


def tape_loss(params, config, method, b):
    return step_loss(
        method, b, lambda x: tape_forward(params, config, x), TapeTensor(0.0),
        tape_cross_entropy_loss, tape_classification_loss,
        tape_self_consistency_loss, tape_neighbor_consistency_loss,
        single_feature_consistency_loss, tape_total_loss)


def check_step_gradient_against_tape(model, b, method):
    params = tape_params(model.snapshot())
    _, probs, emb = tape_forward(params, model.config, b["x1"])
    # the batch reaches the edge cases it is built for
    assert (probs.data[1:7] < LOG_FLOOR).any()
    assert (1.0 - probs.data[1:4] < LOG_FLOOR).any()
    assert emb.data[0].tolist() == [1.0] + [0.0] * (emb.data.shape[1] - 1)

    loss, _ = coarse_loss(model, method, b)
    # a stale gradient, which zero_grad must reset to +0.0
    model.grad[:] = np.nan
    model.zero_grad()
    loss.backward()
    want, _ = tape_loss(params, model.config, method, b)
    want.backward()
    assert loss.item() == want.item()
    for name, param in model.params.items():
        # tobytes: the sign of every zero agrees too; the projection head
        # gets no gradient on the tape without the feature term, and its
        # view of the flat gradient stays at +0.0
        got, expected = param.grad, params[name].grad
        if expected is None:
            expected = np.zeros_like(got)
        assert got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_gradient_bit_identical_to_generic_tape(method, seed):
    check_step_gradient_against_tape(*edge_case_batch(seed), method)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_linear_model_step_gradient_bit_identical_to_generic_tape(method):
    # hidden_dims () passes config validation: there is then no encoder
    # node, and both heads read the input directly
    check_step_gradient_against_tape(*edge_case_batch(0, hidden_dims=()),
                                     method)


def test_p1_partials_arrive_in_the_tapes_order(monkeypatch):
    # The tape adds the classification term's two partials into the first
    # view's probabilities, then view consistency's two, then neighbor
    # consistency's two; the coarse graph must add the same six in turn.
    model, b = edge_case_batch(0)
    received = []
    accum = Tensor._accum

    def recording(self, grad):
        received.append((self, np.array(grad)))
        accum(self, grad)

    monkeypatch.setattr(Tensor, "_accum", recording)

    def into_p1(loss_and_p1):
        loss, p1 = loss_and_p1
        received.clear()
        loss.backward()
        return [g for node, g in received if node is p1]

    def tape(method):
        return into_p1(tape_loss(tape_params(model.snapshot()), model.config,
                                 method, b))

    def same(a, b):
        # by value: the coarse backward skips the tape's `0 + g` copies, so
        # a zero inside a partial may carry the other sign (it cannot reach
        # the sum, which starts from +0.0)
        return len(a) == len(b) and all(map(np.array_equal, a, b))

    whole = tape("JOSNC")
    assert len(whole) == 6
    assert same(whole[:2], tape("SELECT_ONLY"))
    assert same(whole[:4], tape("SCON"))
    assert same(whole, tape("SCON_NCON"))
    assert same(into_p1(coarse_loss(model, "JOSNC", b)), whole)
