import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from josnc import trainer
from josnc.datagen import NoiseSpec, inject_noise, make_blobs
from josnc.diffmath import DiffMathError
from josnc.embedqueue import EmbedQueue
from josnc.labeler import lsr_matrix
from josnc.selector import CLEAN, ID, OOD, ThresholdState
from josnc.trainer import (TrainConfig, TrainerError, TrainingDiverged, _lr_at,
                           fit, robust_targets)

from oracles import robust_step_loop


def tiny_data(seed=3, n_ood=1):
    ds = make_blobs(n_id_classes=3, n_ood_classes=n_ood, per_class=40, dim=6,
                    spread=0.6, seed=seed)
    return inject_noise(ds, NoiseSpec("symmetric", 0.3, n_ood), seed=seed)


def tiny_config(**kw):
    base = dict(epochs=6, warmup_epochs=2, batch_size=32, learning_rate=0.05,
                hidden_dims=(16,), embed_dim=8, queue_capacity=256,
                knn_k=5, kappa=2, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def run_tiny(config=None, data=None):
    ds = data or tiny_data()
    cfg = config or tiny_config()
    return fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)


def test_config_validation():
    with pytest.raises(TrainerError):
        tiny_config(warmup_epochs=0)
    with pytest.raises(TrainerError):
        tiny_config(warmup_epochs=6)
    with pytest.raises(TrainerError):
        tiny_config(learning_rate=0.0)
    with pytest.raises(TrainerError):
        tiny_config(optimizer="rmsprop")
    with pytest.raises(TrainerError):
        tiny_config(epsilon=1.0)
    with pytest.raises(TrainerError):
        tiny_config(ema_omega=1.5)


def test_lr_schedule():
    cfg = tiny_config(epochs=10, warmup_epochs=2, learning_rate=0.1)
    assert _lr_at(cfg, 1) == 0.1
    assert _lr_at(cfg, 2) == 0.1
    assert _lr_at(cfg, 3) == pytest.approx(0.1)   # cosine starts at full rate
    assert _lr_at(cfg, 10) > 0.0
    vals = [_lr_at(cfg, e) for e in range(3, 11)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_fit_deterministic():
    a = run_tiny()
    b = run_tiny()
    for ra, rb in zip(a.history, b.history):
        assert ra.total == rb.total
        assert ra.test_acc == rb.test_acc
        np.testing.assert_array_equal(ra.partition_codes, rb.partition_codes)
    for k in a.student:
        np.testing.assert_array_equal(a.student[k], b.student[k])
        np.testing.assert_array_equal(a.teacher[k], b.teacher[k])


def test_fit_seed_changes_trajectory():
    a = run_tiny(tiny_config(seed=1))
    b = run_tiny(tiny_config(seed=2))
    assert a.history[-1].total != b.history[-1].total


def test_warmup_epochs_are_all_clean_and_conless():
    res = run_tiny()
    for rec in res.history[:2]:
        assert np.all(rec.partition_codes == CLEAN)
        assert rec.l_con_s == 0.0 and rec.l_con_n == 0.0 and rec.l_con_f == 0.0


def test_robust_epochs_produce_mixed_partition():
    # sharp targets (small epsilon) make noisy samples separable from clean
    ds = make_blobs(5, 1, 40, 6, 0.3, seed=3)
    ds = inject_noise(ds, NoiseSpec("symmetric", 0.3, 1), seed=3)
    cfg = tiny_config(epochs=14, warmup_epochs=4, learning_rate=0.1,
                      epsilon=0.1)
    res = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    later = np.concatenate([r.partition_codes for r in res.history[4:]])
    assert set(np.unique(later).tolist()) == {0, 1, 2}


def count_calls(monkeypatch, owner, name, calls):
    """Wrap owner.name so that every call appends its args to calls."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_selection_off_stays_in_warmup_mode(monkeypatch):
    # nothing reads the teacher or the queue, so neither is computed
    enqueues, knns, forwards = [], [], []
    count_calls(monkeypatch, EmbedQueue, "enqueue", enqueues)
    count_calls(monkeypatch, EmbedQueue, "knn_batch", knns)
    count_calls(monkeypatch, trainer, "forward_arrays", forwards)
    ds = tiny_data()
    res = run_tiny(tiny_config(use_selection=False), ds)
    for rec in res.history:
        assert np.all(rec.partition_codes == CLEAN)
        assert rec.l_con_s == 0.0 and rec.l_con_n == 0.0 and rec.l_con_f == 0.0
    assert enqueues == [] and knns == []
    # one evaluation forward per epoch, no teacher forward
    assert len(forwards) == 6
    assert all(x is ds.test_x for _, _, x in forwards)


def test_ablation_flags_zero_their_terms():
    res = run_tiny(tiny_config(use_scon=False, use_ncon=False, use_fcon=False))
    for rec in res.history[2:]:
        assert rec.l_con_s == 0.0
        assert rec.l_con_n == 0.0
        assert rec.l_con_f == 0.0
    full = run_tiny()
    assert any(r.l_con_s > 0 for r in full.history[2:])
    assert any(r.l_con_f > 0 for r in full.history[2:])


def test_partition_sound_every_step():
    seen = []

    def hook(epoch, batch_ids, part):
        part.check_sound(batch_ids)   # raises on violation
        seen.append((epoch, len(batch_ids)))

    ds = tiny_data()
    fit(tiny_config(), ds.train, ds.test_x, ds.test_y, ds.n_id_classes,
        step_hook=hook)
    n = ds.train.x.shape[0]
    batches_per_epoch = -(-n // 32)
    assert len(seen) == 6 * batches_per_epoch


def test_queue_fills_during_warmup(monkeypatch):
    # every warmup step enqueues, so robust epochs start with neighbor evidence
    events = []
    enqueue, knn_batch = EmbedQueue.enqueue, EmbedQueue.knn_batch

    def spy_enqueue(self, embeddings, *args, **kwargs):
        events.append(("enqueue", len(embeddings)))
        return enqueue(self, embeddings, *args, **kwargs)

    def spy_knn_batch(self, *args, **kwargs):
        events.append(("knn", len(self)))
        return knn_batch(self, *args, **kwargs)

    def hook(epoch, batch_ids, part):
        events.append(("step", epoch, len(batch_ids)))

    monkeypatch.setattr(EmbedQueue, "enqueue", spy_enqueue)
    monkeypatch.setattr(EmbedQueue, "knn_batch", spy_knn_batch)
    ds = tiny_data()
    n = ds.train.x.shape[0]
    for capacity in (100, 1000):   # below and above the warmup row count
        events.clear()
        cfg = tiny_config(queue_capacity=capacity)
        fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes,
            step_hook=hook)
        steps = [i for i, e in enumerate(events) if e[0] == "step"]
        warmup = [i for i in steps if events[i][1] <= cfg.warmup_epochs]
        assert len(warmup) == cfg.warmup_epochs * -(-n // cfg.batch_size)
        prev = -1
        for i in warmup:
            # exactly one enqueue of the step's whole batch, and no lookup
            assert events[prev + 1:i] == [("enqueue", events[i][2])]
            prev = i
        first_knn = next(e for e in events if e[0] == "knn")
        assert events.index(first_knn) == warmup[-1] + 1
        assert first_knn[1] == min(capacity, cfg.warmup_epochs * n)


def test_thresholds_move_into_unit_interval():
    res = run_tiny()
    for rec in res.history:
        assert 0.0 <= rec.mean_tau_clean <= 1.0
        assert 0.0 <= rec.mean_tau_ood <= 1.0
    assert res.history[-1].mean_tau_clean > 0.0


def test_training_reduces_loss_and_learns():
    ds = make_blobs(3, 0, 40, 6, 0.3, seed=3)
    ds = inject_noise(ds, NoiseSpec("symmetric", 0.3, 0), seed=3)
    cfg = tiny_config(epochs=12, warmup_epochs=3, epsilon=0.1,
                      learning_rate=0.1)
    res = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert res.history[-1].l_cls < res.history[0].l_cls
    assert res.history[-1].test_acc > 0.8


def test_divergence_aborts_with_artifacts():
    ds = tiny_data()
    # lr large enough that the first update overflows the next forward pass
    cfg = tiny_config(learning_rate=1e160, optimizer="sgd")
    with pytest.raises(TrainingDiverged) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert isinstance(exc.value.history, list)
    assert isinstance(exc.value.student, dict)
    assert isinstance(exc.value.teacher, dict)


def test_teacher_forward_overflow_in_robust_step_aborts(monkeypatch):
    # the first forward_arrays call after the last warmup evaluation is the
    # teacher forward of the first robust step
    ds = tiny_data()
    cfg = tiny_config()
    forward_arrays, evals = trainer.forward_arrays, []

    def overflowing(params, config, x):
        if x is ds.test_x:
            evals.append(x)
        elif len(evals) == cfg.warmup_epochs:
            raise DiffMathError("inf logits")
        return forward_arrays(params, config, x)

    monkeypatch.setattr(trainer, "forward_arrays", overflowing)
    with pytest.raises(TrainingDiverged, match="epoch 3: inf logits") as exc:
        fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert [r.epoch for r in exc.value.history] == [1, 2]
    student, teacher = exc.value.student, exc.value.teacher
    assert student and set(student) == set(teacher)
    for params in (student, teacher):
        assert all(np.isfinite(a).all() for a in params.values())


def test_adam_optimizer_runs():
    res = run_tiny(tiny_config(optimizer="adam", learning_rate=0.01))
    assert np.isfinite(res.history[-1].total)


# the batched robust step against the per-row loop ----------------------------

def robust_step_inputs(seed, nb=64, c=4, d=5, k=3):
    """A queue and batch that hold every case of the robust step.

    Rows 0-15 score clean, 16-31 ID-like and 32-47 OOD-like; 48-63 are
    random. Rows 16-19 and 32-35 sit on a cluster of label-1 keys with high
    stored p_clean (neighbor rescue), rows 24-27 and 40-43 exclude the id
    that fills the queue (no neighbors), and rows 28-29 and 44-45 face away
    from every key (all similarities <= 0: uniform mixture weights).
    """
    rng = np.random.default_rng(seed)
    m = 40
    keys = rng.normal(size=(m, d))
    keys[:, 0] = np.abs(keys[:, 0])
    keys[:6] = np.eye(d)[0] + 0.05 * rng.normal(size=(6, d))
    keys /= np.sqrt((keys ** 2).sum(axis=1, keepdims=True))
    labels = rng.integers(0, c, size=m)
    labels[:6] = 1
    stored_p_clean = rng.random(m)
    stored_p_clean[:6] = rng.uniform(0.8, 1.0, size=6)
    ids = np.full(m, 7)
    ids[-2:] = [8, 9]             # id 7 holds m - 2 >= m - k + 1 entries
    queue = EmbedQueue(m, d, c)
    queue.enqueue(keys, labels, stored_p_clean,
                  rng.dirichlet(np.ones(c), size=m), ids)

    queries = rng.normal(size=(nb, d))
    y_b = rng.integers(0, c, size=nb)
    exclude = rng.choice([8, 9, 1000 + seed % 7], size=nb)
    for rows in (slice(16, 20), slice(32, 36)):
        queries[rows] = np.eye(d)[0] + 0.05 * rng.normal(size=(4, d))
        y_b[rows] = 1
    for rows in (slice(24, 28), slice(40, 44)):
        exclude[rows] = 7
    for rows in (slice(28, 30), slice(44, 46)):
        queries[rows] = -np.eye(d)[0]   # keys all have a non-negative x0
    queries /= np.sqrt((queries ** 2).sum(axis=1, keepdims=True))

    tau = 0.5
    p_clean = rng.random(nb)
    p_clean[:16] = rng.uniform(tau + 1e-3, 1.0, size=16)
    p_clean[16:48] = rng.uniform(0.0, tau, size=32)
    p_clean[16] = tau              # strict inequality: not clean by itself
    p_ood = rng.random(nb)
    p_ood[16:32] = rng.uniform(0.0, tau, size=16)
    p_ood[32:48] = rng.uniform(tau + 1e-3, 1.0, size=16)
    thresholds = ThresholdState(c)
    thresholds.tau_clean[:] = tau
    thresholds.tau_ood[:] = tau

    teacher_probs = rng.dirichlet(np.ones(c), size=nb)
    teacher_probs[20] = 1.0 / c                  # PLL candidate tie
    teacher_probs[36] = [0.1, 0.1, 0.4, 0.4]     # negative-target tie
    y_smooth = lsr_matrix(y_b, c, 0.1)
    knn = queue.knn_batch(queries, k, exclude)
    return knn, (p_clean, p_ood, y_b, y_smooth, teacher_probs, thresholds)


def check_against_loop(seed):
    config = TrainConfig(knn_k=3, kappa=2, t_pll_in=0.1, t_pll_out=1.0)
    knn, args = robust_step_inputs(seed)
    got = robust_targets(knn, *args, config)
    want = robust_step_loop(list(knn), *args, config.kappa,
                            config.t_pll_in, config.t_pll_out)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert np.array_equal(knn.found.astype(np.float64), want[4])
    return knn, args, got


def test_robust_targets_bit_identical_to_per_row_loop():
    knn, (p_clean, _, _, _, _, _), (codes, pos, neg, mix) = \
        check_against_loop(0)
    # the batch covers every case of the step
    assert {CLEAN, ID, OOD} <= set(codes.tolist())
    rescued = (codes == CLEAN) & (p_clean <= 0.5)
    assert rescued[16:20].all() and rescued[32:36].all()
    assert not knn.found[24:28].any() and not knn.found[40:44].any()
    assert (mix[24:28] == 0).all()
    away = knn.similarities[[28, 29, 44, 45]]
    assert knn.found[[28, 29, 44, 45]].all() and (away <= 0).all()
    assert (codes[16:48] == ID).sum() > 0 and (codes[16:48] == OOD).sum() > 0
    assert (neg.sum(axis=1) == (codes == OOD)).all()
    assert (pos[codes == OOD] == 0).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_robust_targets_match_per_row_loop_random(seed):
    check_against_loop(seed)
