"""Acceptance gate: nine go/no-go checks printing one pass/fail line each.

The end-to-end scenario (the openset-sym40 preset: 8 known classes + 2
outlier classes, 500 points per class, 32 dims, 40% symmetric label noise on
the known classes, 60 epochs) is shared between the paired-baseline check
and the ablation ordering check. tools/scenario.py builds it and runs its
13 fits concurrently, in a pool of spawned worker processes, the first time
either check asks for one; each fit times itself in its worker.
"""

import os
import sys
import time

import numpy as np
import pytest

from josnc.datagen import NoiseSpec, inject_noise, make_blobs
from josnc.diffmath import LOG2, Tensor, js_divergence_rows
from josnc.embedqueue import EmbedQueue
from josnc.harness import (build_dataset, build_train_config,
                           evaluate_selection, run)
from josnc.labeler import lsr_matrix, make_negative_target, make_pll_target
from josnc.network import Model, ModelConfig
from josnc.objective import (classification_loss, feature_consistency_loss,
                             neighbor_consistency_loss, self_consistency_loss)
from josnc.selector import ThresholdState
from josnc.trainer import fit

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from conftest import central_diff_grads, rel_error
from oracles import knn
from scenario import run_pool, scenario_config


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# shared end-to-end scenario (criteria 6 and 9)
# ---------------------------------------------------------------------------

# (method, seed) of every fit behind criteria 6 and 9, longest first
_SCENARIO_FITS = ([(m, seed) for m in ("JOSNC", "SCON_NCON", "SCON",
                                       "SELECT_ONLY")
                   for seed in (7, 8, 9)] + [("STANDARD", 7)])


def scenario_fit(method, seed):
    """One scenario fit, run in a pool worker; wall_s is its own wall time."""
    t0 = time.time()
    cfg = scenario_config(method, seed)
    ds = build_dataset(cfg)
    res = fit(build_train_config(cfg), ds.train, ds.test_x, ds.test_y,
              ds.n_id_classes)
    last = res.history[-1]
    sel = evaluate_selection(last.partition_codes, ds.tags.noise_kinds)
    return {
        "test_acc": last.test_acc,
        "clean_f1": sel["clean_f1"],
        "ood_f1": sel["ood_f1"],
        "ood_frac": float((ds.tags.noise_kinds == 2).mean()),
        "wall_s": time.time() - t0,
    }


@pytest.fixture(scope="module")
def scenario():
    """(method, seed) -> result of every fit, all run the first time asked."""
    return run_pool(scenario_fit, _SCENARIO_FITS)


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients of every loss term vs finite differences
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    n, d, c, e = 6, 8, 3, 4
    model = Model(ModelConfig(d, c, hidden_dims=(10,), embed_dim=e), rng)
    x1 = rng.normal(size=(n, d))
    x2 = x1 + 0.1 * rng.normal(size=(n, d))
    pos_t = rng.dirichlet(np.ones(c), size=n)
    neg_t = np.zeros((n, c))
    neg_t[np.arange(n), rng.integers(0, c, n)] = 1.0
    pos_mask = np.array([1, 1, 1, 1, 0, 0], dtype=np.float64)
    neg_mask = 1.0 - pos_mask
    mix = rng.dirichlet(np.ones(c), size=n)
    keys = rng.normal(size=(n, e))
    keys /= np.sqrt((keys ** 2).sum(-1, keepdims=True))
    queue = rng.normal(size=(5, e))
    queue /= np.sqrt((queue ** 2).sum(-1, keepdims=True))

    def np_forward(x):
        p = model.params
        h = np.maximum(x @ p["encoder.0.W"].data + p["encoder.0.b"].data, 0.0)
        logits = h @ p["classifier.W"].data + p["classifier.b"].data
        logits = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        emb = h @ p["projection.W"].data + p["projection.b"].data
        emb = emb / np.maximum(np.sqrt((emb ** 2).sum(-1, keepdims=True)), 1e-12)
        return probs, emb

    losses = {
        "classification": (
            lambda p1, p2, emb: classification_loss(p1, pos_t, pos_mask,
                                                    neg_t, neg_mask),
            lambda p1, p2, emb: float(
                (-(pos_t * pos_mask[:, None] * np.log(p1)).sum()
                 - (neg_t * neg_mask[:, None] * np.log(1.0 - p1)).sum()) / n)),
        "view-consistency": (
            lambda p1, p2, emb: self_consistency_loss(p1, p2, pos_mask),
            lambda p1, p2, emb: float(
                (((p1 - p2) * (np.log(p1) - np.log(p2))).sum(axis=1)
                 * pos_mask).sum() / (n * LOG2))),
        "neighbor-consistency": (
            lambda p1, p2, emb: neighbor_consistency_loss(p1, mix, pos_mask),
            lambda p1, p2, emb: float(
                ((p1 * (np.log(p1) - np.log(mix))).sum(axis=1)
                 * pos_mask).sum() / (n * LOG2))),
        "feature-consistency": (
            lambda p1, p2, emb: feature_consistency_loss(emb, keys, queue, 0.1),
            lambda p1, p2, emb: _info_nce_value(emb, keys, queue, 0.1)),
    }

    worst = 0.0
    for name, (tape_fn, np_fn) in losses.items():
        model.zero_grad()
        _, p1, emb = model.forward(x1)
        _, p2, _ = model.forward(x2)
        tape_fn(p1, p2, emb).backward()

        def scalar():
            q1, em = np_forward(x1)
            q2, _ = np_forward(x2)
            return np_fn(q1, q2, em)

        fd = central_diff_grads(scalar, {k: t.data
                                         for k, t in model.params.items()})
        for k, t in model.params.items():
            grad = t.grad if t.grad is not None else np.zeros_like(t.data)
            err = rel_error(grad, fd[k])
            worst = max(worst, err)
            assert err < 1e-4, f"{name} / {k}: rel err {err:.2e}"

    elapsed = time.time() - t0
    report(1, worst < 1e-4 and elapsed < 30.0,
           f"all loss-term gradients match finite differences "
           f"(worst rel err {worst:.2e}, {elapsed:.1f}s < 30s)")


def _info_nce_value(emb, keys, queue, t_ssl):
    n = emb.shape[0]
    pool = np.concatenate([keys, queue])
    logits = (emb @ pool.T) / t_ssl
    logits = logits - logits.max(axis=1, keepdims=True)
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(n), np.arange(n)].sum() / n)


# ---------------------------------------------------------------------------
# criterion 2: divergence properties over 10^4 random pairs
# ---------------------------------------------------------------------------

def test_criterion_2_divergence_properties():
    t0 = time.time()
    rng = np.random.default_rng(202)
    one = np.ones(1)
    for _ in range(10_000):
        c = int(rng.integers(2, 21))
        p = rng.dirichlet(np.ones(c))
        q = rng.dirichlet(np.ones(c))
        a = js_divergence_rows(p, q)[0]
        b = js_divergence_rows(q, p)[0]
        assert 0.0 <= a <= 1.0
        assert abs(a - b) <= 1e-12
        assert js_divergence_rows(p, p)[0] <= 1e-12
        assert a > 1e-12  # distinct continuous draws are never equal
        # KL as the trainer computes it: the neighbor term on one row
        assert neighbor_consistency_loss(Tensor(p[None]), q[None],
                                         one).item() >= 0.0
    elapsed = time.time() - t0
    report(2, elapsed < 10.0,
           f"10^4 pairs: JS in [0,1], symmetric, zero iff equal, KL >= 0 "
           f"({elapsed:.1f}s < 10s)")


# ---------------------------------------------------------------------------
# criterion 3: queue knn equals brute force exactly
# ---------------------------------------------------------------------------

def test_criterion_3_knn_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(303)
    n_entries, n_queries, k, dim = 1000, 100, 10, 16
    q = EmbedQueue(n_entries, dim, 4)
    emb = rng.normal(size=(n_entries, dim))
    emb /= np.sqrt((emb ** 2).sum(-1, keepdims=True))
    ids = np.arange(n_entries)
    q.enqueue(emb, rng.integers(0, 4, n_entries), rng.random(n_entries),
              rng.dirichlet(np.ones(4), n_entries), ids)
    queries = rng.normal(size=(n_queries, dim))
    queries /= np.sqrt((queries ** 2).sum(-1, keepdims=True))
    batch = q.knn_batch(queries, k, np.full(n_queries, -1))
    for query, res_batch in zip(queries, batch):
        res = knn(q, query, k)
        sims = emb @ query
        brute = np.argsort(-sims, kind="stable")[:k]
        np.testing.assert_array_equal(res.sample_ids, ids[brute])
        np.testing.assert_array_equal(res.similarities, sims[brute])
        # knn_batch is the path the trainer runs (one matmul for all queries)
        np.testing.assert_array_equal(res_batch.sample_ids, ids[brute])
        np.testing.assert_allclose(res_batch.similarities, sims[brute],
                                   rtol=0.0, atol=1e-12)
    elapsed = time.time() - t0
    report(3, elapsed < 5.0,
           f"knn and knn_batch == brute force on 100 queries x 1000 entries, "
           f"exact ({elapsed:.1f}s < 5s)")


# ---------------------------------------------------------------------------
# criterion 4: threshold EMA closed form
# ---------------------------------------------------------------------------

def test_criterion_4_threshold_ema_closed_form():
    worst = 0.0
    for omega, m in ((0.75, 0.8), (0.975, 0.3), (0.5, 0.55)):
        state = ThresholdState(1)
        for t in range(1, 41):
            state.accumulate_batch([m], [m], [0])
            state.roll(omega)
            gap = abs(state.tau_clean[0] - m)
            expected = (omega ** t) * abs(0.0 - m)
            worst = max(worst, abs(gap - expected))
    report(4, worst < 1e-9,
           f"|tau^t - m| == omega^t * |tau0 - m| (worst dev {worst:.2e} < 1e-9)")


# ---------------------------------------------------------------------------
# criterion 5: partition soundness at every training step
# ---------------------------------------------------------------------------

def test_criterion_5_partition_soundness():
    ds = make_blobs(4, 1, 60, 8, 1.2, seed=11)
    ds = inject_noise(ds, NoiseSpec("symmetric", 0.4), seed=11)
    from josnc.trainer import TrainConfig
    cfg = TrainConfig(epochs=10, warmup_epochs=3, batch_size=32,
                      learning_rate=0.1, epsilon=0.1, hidden_dims=(16,),
                      embed_dim=8, queue_capacity=512, knn_k=5, kappa=2, seed=4)
    checks = [0]

    def hook(epoch, batch_ids, part):
        part.check_sound(batch_ids)   # raises on any violation
        checks[0] += 1

    fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes, step_hook=hook)
    n_steps = 10 * -(-ds.train.x.shape[0] // 32)
    report(5, checks[0] == n_steps,
           f"partition disjoint + exhaustive at all {checks[0]} steps, "
           f"zero violations")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end open-set scenario vs the plain baseline
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_scenario(scenario):
    ours = scenario["JOSNC", 7]
    std = scenario["STANDARD", 7]
    # the two fits' own walls: the pool runs them ahead of this test
    elapsed = ours["wall_s"] + std["wall_s"]
    gap_pp = (ours["test_acc"] - std["test_acc"]) * 100.0
    # predicting OOD for everything scores F1 = 2f/(1+f) at OOD fraction f
    f = ours["ood_frac"]
    all_ood_f1 = 2 * f / (1 + f)
    ok = (gap_pp >= 5.0 and ours["clean_f1"] >= 0.85
          and ours["ood_f1"] > all_ood_f1 and elapsed < 300.0)
    report(6, ok,
           f"acc {ours['test_acc']:.4f} vs baseline {std['test_acc']:.4f} "
           f"(+{gap_pp:.1f}pp >= 5pp); clean F1 {ours['clean_f1']:.3f} >= 0.85; "
           f"OOD F1 {ours['ood_f1']:.3f} > {all_ood_f1:.3f}; "
           f"{elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# criterion 7: byte-identical metrics across same-seed runs
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    import json
    cfg = {
        "dataset": {"n_id_classes": 4, "n_ood_classes": 1, "per_class": 40,
                    "dim": 8, "spread": 1.0, "seed": 3, "test_per_class": 20,
                    "noise": {"kind": "symmetric", "rate_id": 0.4}},
        "model": {"hidden_dims": [16], "embed_dim": 8},
        "train": {"seed": 3, "epochs": 6, "warmup_epochs": 2, "batch_size": 32,
                  "knn_k": 5, "kappa": 2, "queue_capacity": 256},
        "method": "JOSNC",
        "output_dir": "unused",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run(str(cfg_path), output_dir_override=out_a)
    run(str(cfg_path), output_dir_override=out_b)
    a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    report(7, a == b,
           f"metrics.csv byte-identical across two same-seed runs "
           f"({len(a)} bytes)")


# ---------------------------------------------------------------------------
# criterion 8: label construction exactness
# ---------------------------------------------------------------------------

def test_criterion_8_label_construction():
    lsr = lsr_matrix([2], 5, 0.6)[0]
    lsr_ok = np.abs(lsr - np.array([0.15, 0.15, 0.4, 0.15, 0.15])).max() < 1e-12

    pred = [0.7, 0.2, 0.05, 0.05]
    pll, pll_set = make_pll_target(pred, kappa=2)
    # independent softmax of the scaled vector [7.0, 2.0, 0.05, 0.05]
    scaled = np.array([0.7 / 0.1, 0.2 / 0.1, 0.05, 0.05])
    e = np.exp(scaled - scaled.max())
    expect = e / e.sum()
    pll_ok = (np.flatnonzero(pll_set).tolist() == [0, 1]
              and np.abs(pll - expect).max() < 1e-12)
    _, tie_set = make_pll_target([0.25, 0.25, 0.25, 0.25], kappa=2)
    pll_ok = pll_ok and np.flatnonzero(tie_set).tolist() == [0, 1]

    neg = make_negative_target([0.1, 0.6, 0.05, 0.25])
    neg_ok = np.array_equal(neg, [0.0, 0.0, 1.0, 0.0])
    neg_tie = make_negative_target([0.2, 0.2, 0.6])
    neg_ok = neg_ok and np.array_equal(neg_tie, [1.0, 0.0, 0.0])

    report(8, lsr_ok and pll_ok and neg_ok,
           "smoothed labels exact to 1e-12; partial-label sharpening and "
           "complementary argmin match their oracles (ties to lower index)")


# ---------------------------------------------------------------------------
# criterion 9: ablation ordering across 3 seeds (majority vote)
# ---------------------------------------------------------------------------

def test_criterion_9_ablation_ordering(scenario):
    methods = ["SELECT_ONLY", "SCON", "SCON_NCON", "JOSNC"]
    votes_full, votes_scon = 0, 0
    details = []
    for seed in (7, 8, 9):
        accs = {m: scenario[m, seed]["test_acc"] for m in methods}
        # "attains the highest": ties at the top count as attaining it
        full_highest = accs["JOSNC"] >= max(accs.values())
        scon_not_worse = accs["SCON"] >= accs["SELECT_ONLY"]
        votes_full += int(full_highest)
        votes_scon += int(scon_not_worse)
        details.append(f"seed {seed}: " + " ".join(
            f"{m}={accs[m]:.4f}" for m in methods))
    ok = votes_full >= 2 and votes_scon >= 2
    report(9, ok,
           f"full config highest in {votes_full}/3 seeds, view-consistency "
           f"not worse than selection-only in {votes_scon}/3 seeds; "
           + "; ".join(details))
