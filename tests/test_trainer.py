import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from josnc import harness, selector, trainer
from josnc.datagen import (NoiseSpec, TrainingSet, inject_noise,
                           make_blobs)
from josnc.diffmath import (BLOCK_ROWS, DiffMathError, Scratch, Tensor,
                            js_divergence_rows)
from josnc.embedqueue import EmbedQueue
from josnc.labeler import lsr_matrix
from josnc.network import forward_arrays
from josnc.objective import neighbor_mixture
from josnc.selector import CLEAN, ID, OOD, ThresholdState, fails_own_test
from josnc.trainer import (FitResult, TrainConfig, TrainerError,
                           TrainingDiverged, _lr_at, fit, robust_codes,
                           robust_targets)

from oracles import robust_step_loop


def tiny_data(seed=3, n_ood=1):
    ds = make_blobs(n_id_classes=3, n_ood_classes=n_ood, per_class=40, dim=6,
                    spread=0.6, seed=seed)
    return inject_noise(ds, NoiseSpec("symmetric", 0.3), seed=seed)


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
    # each value is rejected here, where it enters, and nowhere downstream
    for key, value in [
            ("warmup_epochs", 0), ("warmup_epochs", 6), ("learning_rate", 0.0),
            ("epsilon", 1.0), ("ema_omega", 1.5), ("kappa", 0),
            ("t_ssl", 0.0), ("t_ssl", 1e-320), ("t_pll_in", 1e-320),
            ("t_pll_out", 1e-320), ("tau_omega_warmup", -0.1),
            ("tau_omega_main", 1.2), ("queue_capacity", 0), ("embed_dim", 0),
            ("hidden_dims", (16, 0)), ("hidden_dims", (1.5, 64.9)),
            ("alpha", -5.0), ("beta", -0.1), ("gamma", -1.0),
            ("jitter_sigma", -0.1), ("alpha", float("nan")),
            ("queue_capacity", 4)]:   # below knn_k = 5
        with pytest.raises(TrainerError) as exc:
            tiny_config(**{key: value})
        assert exc.value.key == key
    assert tiny_config(hidden_dims=(16.0, np.int64(8))).hidden_dims == (16, 8)


@pytest.mark.parametrize("key, kappa, first_label, n_classes", [
    ("kappa", 4, None, 3), ("observed_labels", 2, -1, 3),
    ("observed_labels", 2, 3, 3), ("n_classes", 1, None, 1),
    ("test_x", 2, None, 3), ("test_y", 2, None, 3)])
def test_fit_checks_its_inputs_before_its_first_step(key, kappa, first_label,
                                                     n_classes):
    # tiny_data has 3 classes: kappa 4 and labels -1 and 3 are out of range,
    # and a 1-class fit has nothing to smooth a label over
    ds = tiny_data()
    assert ds.n_id_classes == 3
    labels = ds.train.observed_labels.copy()
    if first_label is not None:
        labels[0] = first_label
    test_x, test_y = ds.test_x, ds.test_y
    if key == "test_x":
        test_x = test_x[:, :-1]   # one feature fewer than the training rows
    elif key == "test_y":
        test_y = test_y[:1]       # would broadcast against every prediction
    steps = []
    with pytest.raises(TrainerError) as exc:
        fit(tiny_config(kappa=kappa), TrainingSet(ds.train.x, labels,
                                                  ds.train.ids),
            test_x, test_y, n_classes,
            step_hook=lambda *args: steps.append(args))
    assert exc.value.key == key and steps == []


@pytest.mark.parametrize("key", ["train", "test_x"])
def test_fit_rejects_an_empty_split_before_its_first_step(key):
    # an empty split has no epoch mean to record: every metric would be NaN
    ds = tiny_data()
    train, test_x, test_y = ds.train, ds.test_x, ds.test_y
    if key == "train":
        train = TrainingSet(train.x[:0], train.observed_labels[:0],
                            train.ids[:0])
    else:
        test_x, test_y = test_x[:0], test_y[:0]
    steps = []
    with pytest.raises(TrainerError) as exc:
        fit(tiny_config(), train, test_x, test_y, ds.n_id_classes,
            step_hook=lambda *args: steps.append(args))
    assert exc.value.key == key and steps == []


def test_fit_names_a_queue_numpy_cannot_allocate():
    # TrainConfig cannot know the memory a queue needs; numpy refuses a
    # 10**12-key queue without touching memory, and fit names the key
    with pytest.raises(TrainerError, match="^queue_capacity Unable to "
                       "allocate ") as exc:
        run_tiny(tiny_config(queue_capacity=10**12))
    assert exc.value.key == "queue_capacity"
    assert isinstance(exc.value.__cause__, MemoryError)


def test_unknown_method_rejected_by_train_config():
    with pytest.raises(TrainerError, match="must be one of") as exc:
        tiny_config(method="MAGIC")
    assert exc.value.key == "method"


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
        assert ra.losses.train_loss == rb.losses.train_loss
        assert ra.test_acc == rb.test_acc
        np.testing.assert_array_equal(ra.partition_codes, rb.partition_codes)
    for k in a.student:
        np.testing.assert_array_equal(a.student[k], b.student[k])
        np.testing.assert_array_equal(a.teacher[k], b.teacher[k])


def test_fit_seed_changes_trajectory():
    a = run_tiny(tiny_config(seed=1))
    b = run_tiny(tiny_config(seed=2))
    assert (a.history[-1].losses.train_loss
            != b.history[-1].losses.train_loss)


def test_warmup_epochs_are_all_clean_and_conless():
    res = run_tiny()
    for rec in res.history[:2]:
        assert np.all(rec.partition_codes == CLEAN)
        assert rec.losses[2:] == (0.0, 0.0, 0.0)   # l_con_s, _n, _f


def test_robust_epochs_produce_mixed_partition():
    # sharp targets (small epsilon) make noisy samples separable from clean
    ds = make_blobs(5, 1, 40, 6, 0.3, seed=3)
    ds = inject_noise(ds, NoiseSpec("symmetric", 0.3), seed=3)
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
    res = run_tiny(tiny_config(method="STANDARD"), ds)
    for rec in res.history:
        assert np.all(rec.partition_codes == CLEAN)
        assert rec.losses[2:] == (0.0, 0.0, 0.0)   # l_con_s, _n, _f
    assert enqueues == [] and knns == []
    # one evaluation forward per epoch, no teacher forward
    assert len(forwards) == 6
    assert all(x is ds.test_x for _, _, x in forwards)


@pytest.mark.parametrize("method", trainer.METHODS)
def test_thresholds_roll_with_the_warmup_omega_then_the_main_one(monkeypatch,
                                                                method):
    # a selection method leaves warmup after warmup_epochs (2 of 6); without
    # selection every epoch is a warmup epoch
    rolls = []
    count_calls(monkeypatch, ThresholdState, "roll", rolls)
    run_tiny(tiny_config(method=method, tau_omega_warmup=0.5,
                         tau_omega_main=0.25))
    warmup = 2 if trainer.METHODS[method][0] else 6
    omegas = [omega for _, omega in rolls]
    assert omegas == [0.5] * warmup + [0.25] * (6 - warmup)


def test_ablation_flags_zero_their_terms():
    res = run_tiny(tiny_config(method="SELECT_ONLY"))
    for rec in res.history[2:]:
        assert rec.losses.l_con_s == 0.0
        assert rec.losses.l_con_n == 0.0
        assert rec.losses.l_con_f == 0.0
    full = run_tiny()
    assert any(r.losses.l_con_s > 0 for r in full.history[2:])
    assert any(r.losses.l_con_f > 0 for r in full.history[2:])


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


# a robust step reads neighbors and teacher predictions of some rows only ----

NO_NCON = ["SCON", "SELECT_ONLY"]


def evidence_config(method):
    """A tiny fit whose thresholds start at the warmup's mean score, so
    some rows fail their own test from the first robust step on."""
    return tiny_config(tau_omega_warmup=0.0, method=method)


def train_row_ids(ds, x):
    """Ids of x's rows if each is a row of the training matrix, else None
    (augmented views never are)."""
    index = {row.tobytes(): i for row, i in zip(ds.train.x, ds.train.ids)}
    ids = [index.get(row.tobytes()) for row in x]
    return None if None in ids else ids


def fit_artifacts(path, cfg, ds):
    """(metrics.csv bytes, per-epoch codes) of one fit."""
    res = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    harness.write_metrics_csv(
        str(path), harness.metrics_rows(res.history, ds.tags.noise_kinds))
    return (path.read_bytes(),
            np.stack([r.partition_codes for r in res.history]).tobytes())


@pytest.mark.parametrize("method", NO_NCON)
def test_neighbors_of_every_row_change_no_byte(tmp_path, monkeypatch, method):
    cfg, ds = evidence_config(method), tiny_data()
    calls = []
    count_calls(monkeypatch, EmbedQueue, "knn_batch", calls)
    lean = fit_artifacts(tmp_path / "lean.csv", cfg, ds)
    n_lean = sum(len(queries) for _, queries, *_ in calls)
    calls.clear()
    monkeypatch.setattr(selector, "fails_own_test",
                        lambda p_clean, *_: np.ones(p_clean.shape, dtype=bool))
    assert fit_artifacts(tmp_path / "all.csv", cfg, ds) == lean
    n_all = sum(len(queries) for _, queries, *_ in calls)
    assert 0 < n_lean < n_all


@pytest.mark.parametrize("method", NO_NCON + ["JOSNC"])
def test_lookups_and_teacher_rows_are_the_ones_read(monkeypatch, method):
    # without neighbor consistency, knn_batch gets exactly the rows that
    # fail their own test, and no call when none does; the teacher predicts
    # the whole batch in a step with an ID or OOD row, and nothing otherwise
    cfg, ds = evidence_config(method), tiny_data()
    events = []
    knn_batch, forward, codes_of = (EmbedQueue.knn_batch,
                                    trainer.forward_arrays, trainer.robust_codes)

    def spy_knn(self, queries, k, exclude_ids, out=None):
        events.append(("knn", list(exclude_ids)))
        return knn_batch(self, queries, k, exclude_ids, out=out)

    def spy_forward(params, config, x, **heads):
        ids = train_row_ids(ds, x)
        if ids is not None:
            events.append(("teacher", ids))
        return forward(params, config, x, **heads)

    def spy_codes(knn, asked, p_clean, p_ood, y_b, thresholds):
        fails = ~(p_clean > thresholds.tau_clean[y_b])
        events.append(("fails", fails))
        return codes_of(knn, asked, p_clean, p_ood, y_b, thresholds)

    def hook(epoch, batch_ids, part):
        events.append(("step", epoch, list(batch_ids), part))

    monkeypatch.setattr(EmbedQueue, "knn_batch", spy_knn)
    monkeypatch.setattr(trainer, "forward_arrays", spy_forward)
    monkeypatch.setattr(trainer, "robust_codes", spy_codes)
    fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes, step_hook=hook)
    step, seen = [], Counter()
    for event in events:
        if event[0] != "step":
            step.append(event)
            continue
        _, epoch, ids, part = event
        if epoch <= cfg.warmup_epochs:
            assert step == []
        else:
            got = dict(step)
            fails = got["fails"]
            asked = (np.ones(len(ids), dtype=bool) if method == "JOSNC"
                     else fails)
            want_knn = [i for i, a in zip(ids, asked) if a]
            assert got.get("knn", []) == want_knn
            seen["some asked"] += 0 < len(want_knn) < len(ids)
            noisy = part.id_ids | part.ood_ids
            seen["teacher"] += bool(noisy)
            assert got.get("teacher") == (ids if noisy else None)
            assert part.id_ids | part.ood_ids <= {
                i for i, f in zip(ids, fails) if f}
        step = []
    assert seen["teacher"] > 0
    assert (seen["some asked"] > 0) == (method != "JOSNC")


@pytest.mark.parametrize("method", NO_NCON + ["JOSNC"])
def test_clean_step_looks_up_nothing_it_does_not_read(monkeypatch, method):
    # thresholds below every score: each row passes its own test, so no
    # row is ID or OOD
    roll = selector.ThresholdState.roll

    def low_roll(self, omega_tau):
        roll(self, omega_tau)
        self.tau_clean[:] = -1.0

    monkeypatch.setattr(selector.ThresholdState, "roll", low_roll)
    knns, forwards = [], []
    count_calls(monkeypatch, EmbedQueue, "knn_batch", knns)
    count_calls(monkeypatch, trainer, "forward_arrays", forwards)
    cfg, ds = tiny_config(method=method), tiny_data()
    res = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert all((r.partition_codes == CLEAN).all() for r in res.history)
    assert not any(train_row_ids(ds, x) for _, _, x in forwards)
    robust_steps = (cfg.epochs - cfg.warmup_epochs) * -(-len(ds.train.x)
                                                        // cfg.batch_size)
    # neighbor consistency reads every row's neighbors all the same
    assert len(knns) == (robust_steps if method == "JOSNC" else 0)


def test_robust_step_builds_a_coarse_graph(monkeypatch):
    # one node per forward stage read (encoder and classifier per view, the
    # first view's projection under feature consistency), one for
    # classification, one per consistency term the method builds and one
    # for their weighted sum
    built, counts = [0], []
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def hook(epoch, batch_ids, part):
        counts.append((epoch, built[0]))

    monkeypatch.setattr(Tensor, "__init__", counted)
    ds = tiny_data()
    for method, nodes in [("SELECT_ONLY", 6), ("SCON", 7), ("SCON_NCON", 8),
                          ("JOSNC", 10)]:
        counts.clear()
        cfg = tiny_config(method=method)
        fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes,
            step_hook=hook)
        robust = {b - a for (_, a), (epoch, b) in zip(counts, counts[1:])
                  if epoch > cfg.warmup_epochs}
        assert robust == {nodes}, method


def test_thresholds_move_into_unit_interval():
    res = run_tiny()
    for rec in res.history:
        assert 0.0 <= rec.mean_tau_clean <= 1.0
        assert 0.0 <= rec.mean_tau_ood <= 1.0
    assert res.history[-1].mean_tau_clean > 0.0


def test_mean_taus_are_the_means_of_their_own_threshold_rows(monkeypatch):
    # tau_clean rolls towards p_clean near 1 and tau_ood towards the views'
    # small disagreement, so a record that reads the wrong row shows
    taus = []
    roll = ThresholdState.roll

    def spy_roll(self, omega):
        roll(self, omega)
        taus.append(self.tau.copy())

    monkeypatch.setattr(ThresholdState, "roll", spy_roll)
    history = run_tiny().history
    assert len(taus) == len(history)
    for rec, tau in zip(history, taus):
        assert tau[0].mean() != tau[1].mean()
        assert rec.mean_tau_clean == float(tau[0].mean())
        assert rec.mean_tau_ood == float(tau[1].mean())


def test_partition_codes_hold_each_ids_code_from_the_step_hook():
    # the record is indexed by sample id (a TrainingSet's ids are its row
    # positions), not by the row's place in its shuffled batch
    ds = inject_noise(make_blobs(5, 1, 40, 6, 0.3, seed=3),
                      NoiseSpec("symmetric", 0.3), seed=3)
    n = ds.train.x.shape[0]
    assert np.array_equal(ds.train.ids, np.arange(n))
    reported = {}

    def hook(epoch, batch_ids, partition):
        codes = reported.setdefault(epoch, np.full(n, -1))
        for code, ids in ((CLEAN, partition.clean_ids), (ID, partition.id_ids),
                          (OOD, partition.ood_ids)):
            codes[list(ids)] = code

    cfg = tiny_config(epochs=8, warmup_epochs=4, learning_rate=0.1,
                      epsilon=0.1)
    history = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes,
                  step_hook=hook).history
    for rec in history:
        assert rec.partition_codes.tobytes() == reported[rec.epoch].tobytes()
    assert len(np.unique(history[-1].partition_codes)) == 3


@pytest.mark.parametrize("method", ["SELECT_ONLY", "JOSNC"])
def test_ids_that_are_not_positions_change_no_byte(method):
    # the queue stores and excludes sample ids, not batch positions: a
    # training set whose ids are a shuffled permutation offset by 10,000
    # fits the bytes of the same rows with ids arange(n)
    ds = tiny_data()
    n = ds.train.x.shape[0]
    assert np.array_equal(ds.train.ids, np.arange(n))
    ids = np.random.default_rng(0).permutation(n) + 10_000
    cfg = evidence_config(method)
    want, got = (fit(cfg, train, ds.test_x, ds.test_y, ds.n_id_classes)
                 for train in (ds.train, TrainingSet(
                     ds.train.x, ds.train.observed_labels, ids)))
    assert len(got.history) == len(want.history) == cfg.epochs

    def numbers(rec):
        return np.array([rec.test_acc, rec.mean_tau_clean, rec.mean_tau_ood,
                         *rec.losses]).tobytes()

    for g, w in zip(got.history, want.history):
        assert g.partition_codes.tobytes() == w.partition_codes.tobytes()
        assert numbers(g) == numbers(w)
    for name in ("student", "teacher"):
        g, w = getattr(got, name), getattr(want, name)
        assert all(g[k].tobytes() == w[k].tobytes() for k in w)


def test_training_reduces_loss_and_learns():
    ds = make_blobs(3, 0, 40, 6, 0.3, seed=3)
    ds = inject_noise(ds, NoiseSpec("symmetric", 0.3), seed=3)
    cfg = tiny_config(epochs=12, warmup_epochs=3, epsilon=0.1,
                      learning_rate=0.1)
    res = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert res.history[-1].losses.l_cls < res.history[0].losses.l_cls
    assert res.history[-1].test_acc > 0.8


def test_divergence_aborts_with_artifacts():
    ds = tiny_data()
    # lr large enough that the first update overflows the next forward pass
    cfg = tiny_config(learning_rate=1e160)
    with pytest.raises(TrainingDiverged) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert isinstance(exc.value.result.history, list)
    assert isinstance(exc.value.result.student, dict)
    assert isinstance(exc.value.result.teacher, dict)


def test_training_diverged_survives_pickling():
    # a process pool hands a worker's exception back pickled
    result = FitResult([], {"w": np.arange(3.0)}, {"w": np.ones(3)})
    back = pickle.loads(pickle.dumps(TrainingDiverged("at epoch 2", result)))
    assert type(back) is TrainingDiverged and str(back) == "at epoch 2"
    assert back.result.history == []
    assert back.result.student["w"].tolist() == [0.0, 1.0, 2.0]
    assert back.result.teacher["w"].tolist() == [1.0, 1.0, 1.0]


def test_infonce_overflow_aborts_with_the_warmup_epochs():
    # TrainConfig rejects a t_ssl whose reciprocal overflows; assigning the
    # field skips that check, so the first robust step's InfoNCE logits are
    # inf and the fit diverges with its two warmup epochs
    ds = tiny_data()
    cfg = tiny_config()
    cfg.t_ssl = 1e-320
    with pytest.raises(TrainingDiverged, match=r"^numeric overflow at epoch "
                       r"3: softmax input contains non-finite") as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert [r.epoch for r in exc.value.result.history] == [1, 2]
    assert isinstance(exc.value.__cause__, DiffMathError)


def test_teacher_forward_overflow_in_robust_step_aborts(monkeypatch):
    # the first teacher forward after the last warmup evaluation, of the
    # augmented view (keys) or of the batch's ID and OOD rows (predictions)
    ds = tiny_data()
    cfg = evidence_config("JOSNC")
    forward_arrays = trainer.forward_arrays
    for batch_forward in (False, True):
        evals = []

        def overflowing(params, config, x, **heads):
            if x is ds.test_x:
                evals.append(x)
            elif (len(evals) == cfg.warmup_epochs
                  and (train_row_ids(ds, x) is not None) == batch_forward):
                raise DiffMathError("inf logits")
            return forward_arrays(params, config, x, **heads)

        monkeypatch.setattr(trainer, "forward_arrays", overflowing)
        with pytest.raises(TrainingDiverged,
                           match="epoch 3: inf logits") as exc:
            fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
        assert [r.epoch for r in exc.value.result.history] == [1, 2]
        student, teacher = exc.value.result.student, exc.value.result.teacher
        assert student and set(student) == set(teacher)
        for params in (student, teacher):
            assert all(np.isfinite(a).all() for a in params.values())


def test_evaluation_overflow_aborts_with_the_completed_epochs(monkeypatch):
    # the third evaluation reads finite weights too large for its logits:
    # softmax raises, and the diverged fit keeps epochs 1 and 2
    ds = tiny_data()
    forward_arrays = trainer.forward_arrays
    evals = []

    def oversized(params, config, x, **heads):
        if x is ds.test_x:
            evals.append(x)
            if len(evals) == 3:
                params = {k: a * 1e200 for k, a in params.items()}
        return forward_arrays(params, config, x, **heads)

    monkeypatch.setattr(trainer, "forward_arrays", oversized)
    with pytest.raises(TrainingDiverged, match=r"^numeric overflow at epoch "
                       r"3: softmax input contains non-finite") as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            run_tiny(data=ds)
    assert [r.epoch for r in exc.value.result.history] == [1, 2]
    assert isinstance(exc.value.__cause__, DiffMathError)


def record_models(monkeypatch):
    """(model, copy of its initial flat weights) of every Model fit builds."""
    made = []

    class Recorded(trainer.Model):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self, self.flat.copy()))

    monkeypatch.setattr(trainer, "Model", Recorded)
    return made


def test_nonfinite_parameters_name_the_first_in_layout_order(monkeypatch):
    # a NaN written into two views by the third step's EMA update: that
    # step's check names the one that comes first in the layout
    models = record_models(monkeypatch)
    steps = []
    ema_update = trainer.ema_update

    def poisoning(teacher, student, omega):
        ema_update(teacher, student, omega)
        steps.append(None)
        if len(steps) == 3:
            params = models[0][0].params
            params["projection.W"].data[0, 1] = np.nan
            params["encoder.0.b"].data[2] = np.nan

    monkeypatch.setattr(trainer, "ema_update", poisoning)
    with pytest.raises(TrainingDiverged) as exc:
        run_tiny()
    assert str(exc.value) == ("numeric overflow at epoch 1: non-finite "
                              "parameter encoder.0.b")
    assert isinstance(exc.value.__cause__, DiffMathError)
    assert exc.value.result.history == []
    assert np.isnan(exc.value.result.student["encoder.0.b"][2])


def test_nonfinite_loss_aborts_before_its_update(monkeypatch):
    # the first step's loss reads NaN: the fit diverges in epoch 1 and that
    # step moves no weight
    models = record_models(monkeypatch)
    total_loss = trainer.total_loss

    def nan_loss(*args):
        total, breakdown = total_loss(*args)
        return total, breakdown._replace(train_loss=float("nan"))

    monkeypatch.setattr(trainer, "total_loss", nan_loss)
    with pytest.raises(TrainingDiverged) as exc:
        run_tiny()
    assert str(exc.value) == "numeric overflow at epoch 1: non-finite loss"
    assert isinstance(exc.value.__cause__, DiffMathError)
    assert exc.value.result.history == []
    model, init = models[0]
    assert model.flat.tobytes() == init.tobytes()


def head_bytes(model, flat, head="projection"):
    views = model.views(flat)
    return views[f"{head}.W"].tobytes() + views[f"{head}.b"].tobytes()


@pytest.mark.parametrize("method", ["SELECT_ONLY", "STANDARD"])
def test_head_without_gradient_keeps_its_init_bits(monkeypatch, method):
    # no loss term reaches the projection head: its zero gradient and zero
    # velocity leave every bit, and the sign of every zero, as initialised
    models = record_models(monkeypatch)
    run_tiny(tiny_config(method=method, epochs=3))
    (model, init), = models
    assert head_bytes(model, model.flat) == head_bytes(model, init)
    assert (head_bytes(model, model.flat, "classifier")
            != head_bytes(model, init, "classifier"))


def test_projection_head_keeps_its_init_bits_through_josnc_warmup(monkeypatch):
    models = record_models(monkeypatch)
    students = []
    ema_update = trainer.ema_update

    def spy(teacher, student, omega):
        ema_update(teacher, student, omega)
        students.append(student.copy())

    monkeypatch.setattr(trainer, "ema_update", spy)
    ds, cfg = tiny_data(), tiny_config(epochs=3)
    run_tiny(cfg, ds)
    (model, init), = models
    warmup_steps = cfg.warmup_epochs * -(-ds.train.x.shape[0] // cfg.batch_size)
    moved = [head_bytes(model, s) != head_bytes(model, init) for s in students]
    # the feature term moves it from the first robust step on
    assert moved == ([False] * warmup_steps
                     + [True] * (len(students) - warmup_steps))


# how a step moves the student and the teacher -------------------------------

def stepped_weights(monkeypatch, cfg):
    """A tiny fit of cfg: its model, its FitResult and, for each step, its
    epoch, the student's flat weights before and after it and its
    gradient."""
    models, steps, before = [], [], {}

    class Recorded(trainer.Model):
        def forward(self, x, **heads):
            models[:] = [self]
            before.setdefault("flat", self.flat.copy())
            return super().forward(x, **heads)

    def hook(epoch, batch_ids, partition):
        model, = models
        steps.append((epoch, before.pop("flat"), model.flat.copy(),
                      model.grad.copy()))

    monkeypatch.setattr(trainer, "Model", Recorded)
    ds = tiny_data()
    result = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes,
                 step_hook=hook)
    assert steps[-1][0] == cfg.epochs
    return models[0], steps, result


def test_each_step_moves_the_student_at_its_epochs_rate(monkeypatch):
    # without momentum a step's velocity is its gradient, so the step moves
    # the weights by -lr * gradient, lr being the rate of the step's epoch
    cfg = tiny_config(momentum=0.0)
    _, steps, _ = stepped_weights(monkeypatch, cfg)
    for epoch, before, after, grad in steps:
        assert np.array_equal(after, before - _lr_at(cfg, epoch) * grad)


def test_teacher_is_the_ema_of_the_students_steps(monkeypatch):
    # the teacher starts as the student; each step moves it to
    # omega * teacher + (1 - omega) * student at the config's omega
    cfg = tiny_config(ema_omega=0.75)
    model, steps, result = stepped_weights(monkeypatch, cfg)
    teacher = steps[0][1].copy()
    for _, _, after, _ in steps:
        teacher *= cfg.ema_omega
        teacher += (1.0 - cfg.ema_omega) * after
    for name, array in model.views(teacher).items():
        assert result.teacher[name].tobytes() == array.tobytes()


# how a robust step weighs and masks its consistency terms -------------------

def test_train_loss_weighs_each_term_by_its_own_weight():
    # alpha, beta and gamma all differ, so a weight given to the wrong term
    # moves train_loss off the sum of the same record's terms
    cfg = tiny_config(alpha=0.7, beta=0.2, gamma=0.05)
    history = run_tiny(cfg).history
    for rec in history:
        losses = rec.losses
        assert losses.train_loss == pytest.approx(
            losses.l_cls + cfg.alpha * losses.l_con_s
            + cfg.beta * losses.l_con_n + cfg.gamma * losses.l_con_f,
            rel=1e-12, abs=0.0)
    assert all(min(rec.losses) > 0.0 for rec in history[cfg.warmup_epochs:])


def test_neighbor_term_masks_ood_rows_and_rows_without_k_neighbors(
        monkeypatch):
    steps, step = [], {}
    knn_batch, ncon = EmbedQueue.knn_batch, trainer.neighbor_consistency_loss

    def spy_knn(self, *args, **kwargs):
        knn = knn_batch(self, *args, **kwargs)
        step["found"] = knn.found.copy()
        return knn

    def spy_ncon(p, mixtures, mask):
        step["mask"] = mask.copy()
        return ncon(p, mixtures, mask)

    def hook(epoch, batch_ids, partition):
        if step:   # a robust step: every row was looked up
            ood = np.isin(batch_ids, list(partition.ood_ids))
            steps.append((ood, step.pop("found"), step.pop("mask")))

    monkeypatch.setattr(EmbedQueue, "knn_batch", spy_knn)
    monkeypatch.setattr(trainer, "neighbor_consistency_loss", spy_ncon)
    # the mixed-partition scenario above, with a queue of exactly K keys: a
    # row whose own id it holds has K - 1 others, so no K neighbors
    ds = inject_noise(make_blobs(5, 1, 40, 6, 0.3, seed=3),
                      NoiseSpec("symmetric", 0.3), seed=3)
    cfg = tiny_config(epochs=8, warmup_epochs=4, learning_rate=0.1,
                      epsilon=0.1, queue_capacity=5, knn_k=5)
    fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes, step_hook=hook)
    for ood, found, mask in steps:
        assert mask.tobytes() == (~ood & found).astype(np.float64).tobytes()
    ood, found, _ = (np.concatenate(arrays) for arrays in zip(*steps))
    assert (ood & found).any() and (~ood & ~found).any()


# what a step reads and stores ------------------------------------------------

def recorded_steps(monkeypatch, method):
    """A tiny fit's model and, for each step: its epoch, its two views, the
    student's and the teacher's flat weights as the step's forward passes
    read them, the keys, labels, p_clean and predictions it passed to
    EmbedQueue.enqueue, the p_ood it passed to ThresholdState.accumulate_batch
    and, in a robust step, to robust_codes, and the positive keys it passed
    to feature_consistency_loss."""
    steps, step, models = [], {}, []
    augment, ema, enqueue, accumulate, codes, fcon = (
        trainer.augment_views, trainer.ema_update, EmbedQueue.enqueue,
        ThresholdState.accumulate_batch, trainer.robust_codes,
        trainer.feature_consistency_loss)

    class Recorded(trainer.Model):
        def forward(self, x, **heads):
            models[:] = [self]
            step.setdefault("student", self.flat.copy())
            return super().forward(x, **heads)

    def spy_augment(*args):
        views = augment(*args)
        step["views"] = [v.copy() for v in views]
        return views

    def spy_ema(teacher, student, omega):
        step["teacher"] = teacher.copy()   # before this step's update
        ema(teacher, student, omega)

    def spy_enqueue(self, keys, labels, p_clean, preds, ids):
        step.update(keys=keys.copy(), labels=labels.copy(),
                    p_clean=p_clean.copy(), preds=preds.copy())
        enqueue(self, keys, labels, p_clean, preds, ids)

    def spy_accumulate(self, p_clean, p_ood, labels):
        step["accumulated_p_ood"] = p_ood.copy()
        accumulate(self, p_clean, p_ood, labels)

    def spy_codes(knn, asked, p_clean, p_ood, *args):
        step["classified_p_ood"] = p_ood.copy()
        return codes(knn, asked, p_clean, p_ood, *args)

    def spy_fcon(query, positive_keys, *args, **kwargs):
        step["positives"] = positive_keys.copy()
        return fcon(query, positive_keys, *args, **kwargs)

    def hook(epoch, batch_ids, partition):
        steps.append({"epoch": epoch, **step})
        step.clear()

    for owner, name, spy in (
            (trainer, "Model", Recorded),
            (trainer, "augment_views", spy_augment),
            (trainer, "ema_update", spy_ema),
            (EmbedQueue, "enqueue", spy_enqueue),
            (ThresholdState, "accumulate_batch", spy_accumulate),
            (trainer, "robust_codes", spy_codes),
            (trainer, "feature_consistency_loss", spy_fcon)):
        monkeypatch.setattr(owner, name, spy)
    cfg, ds = tiny_config(method=method), tiny_data()
    fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes, step_hook=hook)
    assert any(s["epoch"] > cfg.warmup_epochs for s in steps)
    return models[0], steps


def student_probs(model, s, view):
    """The student's predictions of the step's view, at the weights the
    step's forward passes read."""
    probs, _ = forward_arrays(model.views(s["student"]), model.config,
                              s["views"][view], projection=False)
    return probs


def teacher_keys(model, s):
    """The teacher's keys of the step's second view, at the weights the
    step's forward passes read."""
    _, keys = forward_arrays(model.views(s["teacher"]), model.config,
                             s["views"][1], classifier=False)
    return keys


@pytest.mark.parametrize("method", ["SELECT_ONLY", "JOSNC"])
def test_queue_stores_the_students_predictions_of_view_1(monkeypatch, method):
    model, steps = recorded_steps(monkeypatch, method)
    for s in steps:
        assert s["preds"].tobytes() == student_probs(model, s, 0).tobytes()


@pytest.mark.parametrize("method", ["SELECT_ONLY", "JOSNC"])
def test_queue_keys_are_the_teachers_projection_of_view_2(monkeypatch,
                                                          method):
    model, steps = recorded_steps(monkeypatch, method)
    for s in steps:
        assert s["keys"].tobytes() == teacher_keys(model, s).tobytes()


@pytest.mark.parametrize("method", ["SELECT_ONLY", "JOSNC"])
def test_queue_p_clean_is_view_1s_agreement_with_the_smoothed_label(
        monkeypatch, method):
    # p_clean = 1 - JS(student's prediction of view 1, smoothed label), the
    # row's own clean score; p_ood compares the two views instead
    model, steps = recorded_steps(monkeypatch, method)
    epsilon = tiny_config().epsilon
    for s in steps:
        smoothed = lsr_matrix(s["labels"], model.config.n_classes, epsilon)
        want = 1.0 - js_divergence_rows(student_probs(model, s, 0), smoothed)
        assert s["p_clean"].tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["SELECT_ONLY", "JOSNC"])
def test_p_ood_is_the_disagreement_of_the_two_views(monkeypatch, method):
    # p_ood = JS(student's prediction of view 1, of view 2): the thresholds
    # accumulate it every step and a robust step classifies by it
    model, steps = recorded_steps(monkeypatch, method)
    robust = 0
    for s in steps:
        want = js_divergence_rows(student_probs(model, s, 0),
                                  student_probs(model, s, 1)).tobytes()
        assert s["accumulated_p_ood"].tobytes() == want
        if "classified_p_ood" in s:
            assert s["classified_p_ood"].tobytes() == want
            robust += 1
    assert robust == sum(s["epoch"] > tiny_config().warmup_epochs
                         for s in steps)


def test_infonce_positive_of_each_row_is_its_teacher_key_of_view_2(
        monkeypatch):
    # the InfoNCE pulls the student's view-1 embedding of row i towards the
    # teacher's view-2 key of the same row i, the key the queue then stores
    model, steps = recorded_steps(monkeypatch, "JOSNC")
    robust = [s for s in steps if "positives" in s]
    assert len(robust) == sum(s["epoch"] > tiny_config().warmup_epochs
                              for s in steps)
    for s in robust:
        assert s["positives"].tobytes() == teacher_keys(model, s).tobytes()


# a fit's queue-sized products share one scratch -----------------------------

def record_scratches(monkeypatch):
    """Every Scratch that fit creates, in creation order."""
    made = []

    class Recorded(Scratch):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(trainer, "Scratch", Recorded)
    return made


@pytest.mark.parametrize("method", ["JOSNC", "SCON_NCON"])
def test_scratch_reuse_changes_no_byte(tmp_path, monkeypatch, method):
    # the KNN similarities and the InfoNCE logits written into one reused
    # buffer give the bytes of a fresh array for every product
    cfg = tiny_config(method=method)
    ds = tiny_data()
    made = record_scratches(monkeypatch)
    reused = fit_artifacts(tmp_path / "reused.csv", cfg, ds)
    weights = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert len(made) == 2 and made[0].buffer.size > 0   # one per fit
    monkeypatch.setattr(Scratch, "view", lambda self, shape, dtype=np.float64:
                        np.full(shape, np.nan, dtype))
    assert fit_artifacts(tmp_path / "fresh.csv", cfg, ds) == reused
    fresh = fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    for name in ("student", "teacher"):
        want, got = getattr(weights, name), getattr(fresh, name)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_select_only_scratch_is_its_largest_product(monkeypatch):
    # a fit holds one scratch, and under SELECT_ONLY it holds one
    # BLOCK_ROWS x queue block of similarities from its first lookup on,
    # however few rows each lookup asks for
    made = record_scratches(monkeypatch)
    sizes, knn_batch = [], EmbedQueue.knn_batch

    def spy_knn(self, queries, *args, **kwargs):
        result = knn_batch(self, queries, *args, **kwargs)
        sizes.append((len(queries), made[0].buffer.size,
                      BLOCK_ROWS * len(self)))
        return result

    monkeypatch.setattr(EmbedQueue, "knn_batch", spy_knn)
    cfg, ds = evidence_config("SELECT_ONLY"), tiny_data()
    fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes)
    assert len(made) == 1
    assert all(size == block for _, size, block in sizes)
    assert min(rows for rows, _, _ in sizes) < BLOCK_ROWS


def test_robust_step_allocates_no_queue_sized_product(monkeypatch):
    # the queue-sized products are written in blocks of BLOCK_ROWS rows, so
    # every JOSNC robust step's traced allocation peak, the first one's
    # (which sizes the scratch) included, stays under one (B, M) product,
    # and every later one's under half of it; a step runs from its
    # augmentation to its hook. The first step's peak holds at least the
    # scratch it sizes, so the measurement sees the step's allocations.
    # The InfoNCE casts its (B + Q, E) pool into that scratch, so no later
    # step allocates a float64 pool either.
    ds = make_blobs(n_id_classes=4, n_ood_classes=1, per_class=210, dim=8,
                    spread=0.6, seed=3)
    ds = inject_noise(ds, NoiseSpec("symmetric", 0.3), seed=3)
    cfg = TrainConfig(epochs=6, warmup_epochs=4, kappa=2, seed=1)
    assert cfg.warmup_epochs * len(ds.train.x) >= cfg.queue_capacity
    growth, start = [], [0]
    augment_views = trainer.augment_views

    def step_start(*args):
        tracemalloc.reset_peak()
        start[0] = tracemalloc.get_traced_memory()[0]
        return augment_views(*args)

    def hook(epoch, batch_ids, part):
        if epoch > cfg.warmup_epochs:
            growth.append(tracemalloc.get_traced_memory()[1] - start[0])

    monkeypatch.setattr(trainer, "augment_views", step_start)
    tracemalloc.start()
    try:
        fit(cfg, ds.train, ds.test_x, ds.test_y, ds.n_id_classes,
            step_hook=hook)
    finally:
        tracemalloc.stop()
    product = cfg.batch_size * cfg.queue_capacity * 8
    block = BLOCK_ROWS * (cfg.batch_size + cfg.queue_capacity) * 8
    assert len(growth) > 2 and block <= growth[0] and max(growth) < product
    assert max(growth[1:]) < product / 2
    pool = (cfg.batch_size + cfg.queue_capacity) * cfg.embed_dim * 8
    assert max(growth[1:]) < pool


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
    return (queue, queries, exclude,
            (p_clean, p_ood, y_b, y_smooth, teacher_probs, thresholds))


STEP_CONFIG = TrainConfig(knn_k=3, kappa=2, t_pll_in=0.1, t_pll_out=1.0)


def batched_step(queue, queries, exclude, asked, args, config=STEP_CONFIG):
    """The trainer's robust step on arrays: neighbors of the asked rows,
    the teacher's predictions of the whole batch; (knn, codes, pos, neg)."""
    p_clean, p_ood, y_b, y_smooth, teacher_probs, thresholds = args
    knn = (queue.knn_batch(queries[asked], config.knn_k, exclude[asked])
           if asked.any() else None)
    codes = robust_codes(knn, asked, p_clean, p_ood, y_b, thresholds)
    pos, neg = robust_targets(codes, y_smooth, teacher_probs, config)
    return knn, codes, pos, neg


def loop_step(queue, queries, exclude, args, config=STEP_CONFIG):
    """The per-row loop with every row's neighbors at hand."""
    full = queue.knn_batch(queries, config.knn_k, exclude)
    return full, robust_step_loop(list(full), *args, config.kappa,
                                  config.t_pll_in, config.t_pll_out)


def check_against_loop(seed):
    # every row asked, as under neighbor consistency
    queue, queries, exclude, args = robust_step_inputs(seed)
    knn, *got = batched_step(queue, queries, exclude,
                             np.ones(len(queries), dtype=bool), args)
    got.append(neighbor_mixture(knn.similarities, knn.preds))
    _, want = loop_step(queue, queries, exclude, args)
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       failing=st.sampled_from(["none", "one", "some", "all"]))
def test_rows_that_pass_their_own_test_need_no_neighbors(seed, failing):
    # asking neighbors for the rows that fail their own test only gives the
    # codes and targets of the loop that reads every row's neighbors, and
    # each asked row gets the bits of its full-batch lookup
    queue, queries, exclude, args = robust_step_inputs(seed)
    p_clean, y_b, thresholds = args[0], args[2], args[5]
    asked = fails_own_test(p_clean, y_b, thresholds)
    if failing != "some":   # "some" keeps the designed mix of cases
        nb, rng = len(queries), np.random.default_rng(seed)
        asked = {"none": np.zeros(nb, dtype=bool),
                 "one": np.arange(nb) == rng.integers(nb),
                 "all": np.ones(nb, dtype=bool)}[failing]
        p_clean[:] = np.where(asked, rng.uniform(0.0, 0.5, nb),
                              rng.uniform(0.501, 1.0, nb))
        assert (fails_own_test(p_clean, y_b, thresholds) == asked).all()
    knn, *got = batched_step(queue, queries, exclude, asked, args)
    full, want = loop_step(queue, queries, exclude, args)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if not asked.any():
        assert knn is None
        return
    for name in ("similarities", "observed_labels", "p_clean", "preds",
                 "sample_ids", "found"):
        assert (getattr(knn, name).tobytes()
                == getattr(full, name)[asked].tobytes())
