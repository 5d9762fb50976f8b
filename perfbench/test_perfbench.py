"""Tests of the benchmark's own logic: percentile rule, self time, step
intervals, trace wrappers and the output checks.

    python3 -m pytest -q perfbench
"""

import gc
import json
import os
import sys

import pytest

import run
import stats
import tracing
import worker
from josnc import harness, selector
from workloads import END_TO_END, EPOCHS, PER_LAYER, WARMUP_EPOCHS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (99, None), (100, "90"), (999, "90"), (1000, "99"),
    (9999, "99"), (10000, "99.9"), (100000, "99.99"), (10 ** 7, "99.99"),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_percentile_threshold_is_a_parameter():
    assert stats.tail_percentile(20, min_beyond=2) == "90"
    assert stats.tail_percentile(19, min_beyond=2) is None


def test_percentile_interpolates_linearly():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([0.0, 10.0], 90) == pytest.approx(9.0)
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# ---------------------------------------------------------------------------
# step intervals: post-warmup only, never across an epoch boundary
# ---------------------------------------------------------------------------

def test_step_intervals_exclude_warmup_and_epoch_boundaries():
    hooks = [(1, 0.0), (1, 1.0),              # warmup epoch
             (2, 3.0), (2, 4.0),              # 1.0 -> 3.0 crosses an eval
             (3, 6.0), (3, 6.5), (3, 7.5)]
    got = [(h1[0], h0[1], h1[1])
           for h0, h1 in stats.step_intervals(hooks, warmup_epochs=1)]
    assert got == [(2, 3.0, 4.0), (3, 6.0, 6.5), (3, 6.5, 7.5)]


def test_step_intervals_of_a_single_step_epoch_are_empty():
    assert stats.step_intervals([(2, 0.0), (3, 1.0), (4, 2.0)], 1) == []


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children_at_every_depth():
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    t.enter("a")          # 0
    t.enter("b")          # 1
    t.enter("c")          # 2
    t.exit()              # 3: c = 1
    t.exit()              # 4: b = 3, self 2
    t.enter("d")          # 5
    t.exit()              # 6: d = 1
    t.exit()              # 10: a = 10, self 10 - 3 - 1
    self_time = {name: s for name, _, _, s in t.spans}
    assert self_time == {"c": 1, "b": 2, "d": 1, "a": 6}


def test_gc_pauses_are_their_own_span():
    t = tracing.Tracer(clock=FakeClock([0, 2, 5, 8]))
    t.enter("diffmath.backward")
    t.on_gc("start", {})
    t.on_gc("stop", {})
    t.exit()
    self_time = {name: s for name, _, _, s in t.spans}
    assert self_time == {tracing.GC_SPAN: 3, "diffmath.backward": 5}


def test_summarize_attributes_spans_to_steps_and_trainer_self_time():
    t = tracing.Tracer()
    # one warmup step, then epoch 2 with two measurable steps
    t.spans = [("embedqueue.knn", 10.0, 10.2, 0.2),      # warmup: ignored
               ("embedqueue.knn", 21.05, 21.35, 0.3),
               ("objective.fcon", 21.35, 21.45, 0.1),
               ("embedqueue.knn", 22.1, 22.5, 0.4),
               (tracing.GC_SPAN, 22.6, 22.7, 0.1),
               ("datagen.build", 0.0, 0.5, 0.5),
               ("harness.config", 0.5, 0.6, 0.1),
               ("network.eval", 15.0, 15.1, 0.1)]
    t.knn_queries, t.knn_hits = 4, 3
    hooks = [(1, 10.0, 0), (1, 11.0, 50), (2, 21.0, 60), (2, 22.0, 160),
             (2, 23.0, 300)]
    out = tracing.summarize(t, hooks, warmup_epochs=1, fit_window=(5.0, 30.0))
    assert out["embedqueue.knn_ms"] == pytest.approx(350.0)   # median(300, 400)
    assert out["embedqueue.knn_calls"] == 1.0
    assert out["objective.fcon_calls"] == 0.5
    # step 1: 1000 - 300 - 100 = 600 ms; step 2: 1000 - 400 - 100 = 500 ms
    assert out["trainer.self_ms"] == pytest.approx(550.0)
    assert out["diffmath.tape_nodes"] == 120                    # median(100, 140)
    assert out["diffmath.gc_collections"] == 1
    assert out["embedqueue.knn_hit_ratio"] == 0.75
    assert out["datagen.build_ms"] == pytest.approx(500.0)
    assert out["network.eval_ms"] == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# wrapper transparency and the output checks, on a tiny config
# ---------------------------------------------------------------------------

def tiny_config(method, seed, epochs, warmup_epochs):
    return harness.resolve_config({
        "dataset": {"n_id_classes": 3, "n_ood_classes": 1, "per_class": 40,
                    "dim": 6, "spread": 2.0, "seed": seed,
                    "test_per_class": 10,
                    "noise": {"kind": "symmetric", "rate_id": 0.4}},
        "model": {"hidden_dims": [8], "embed_dim": 4},
        "train": {"seed": seed, "epochs": epochs,
                  "warmup_epochs": warmup_epochs, "batch_size": 32,
                  "queue_capacity": 64, "knn_k": 3, "kappa": 2},
        "method": method, "output_dir": "unused",
    })


def originals():
    return [vars(owner)[attr] for owner, attr, _ in
            tracing._patches(tracing.Tracer())]


def test_trace_wrappers_are_transparent(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "scenario_config", tiny_config)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    before = originals()
    plain = worker.run_fit("JOSNC", 3, str(tmp_path / "plain"),
                           epochs=4, warmup_epochs=1, setup_repeats=2)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        traced = worker.run_fit("JOSNC", 3, str(tmp_path / "traced"), tracer,
                                epochs=4, warmup_epochs=1, setup_repeats=2)
    assert originals() == before
    assert tracer.on_gc not in gc.callbacks
    for name in ("metrics.csv", "checkpoint.bin"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes()
    assert plain["problems"] == traced["problems"] == []
    layers = traced["layers"]
    reported_by_run = {"selector.clean_frac", "selector.id_frac",
                       "selector.ood_frac", "selector.clean_f1",
                       "selector.ood_f1", "trainer.test_acc",
                       "trace_overhead_s"}
    assert set(layers) == set(PER_LAYER) - reported_by_run
    assert layers["embedqueue.knn_calls"] == 1.0
    assert layers["objective.fcon_calls"] == 1.0
    assert layers["diffmath.tape_nodes"] > 0
    assert layers["diffmath.backward_ms"] > 0


def test_standard_method_never_calls_knn_or_infonce(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "scenario_config", tiny_config)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        res = worker.run_fit("STANDARD", 3, str(tmp_path), tracer,
                             epochs=3, warmup_epochs=1, setup_repeats=1)
    assert res["layers"]["embedqueue.knn_calls"] == 0
    assert res["layers"]["objective.fcon_calls"] == 0
    assert res["partition_fracs"] == {"clean": 1.0, "id": 0.0, "ood": 0.0}


def test_partition_problem_flags_gaps_and_overlaps():
    ids = [1, 2, 3]
    ok = selector.Partition({1}, {2}, {3})
    gap = selector.Partition({1}, {2}, set())
    overlap = selector.Partition({1, 2}, {2}, {3})
    assert worker.partition_problem(ids, ok) is None
    assert worker.partition_problem(ids, gap)
    assert worker.partition_problem(ids, overlap)


def test_check_fits_fails_differing_csv_and_reported_problems():
    fits = [{"trace": 0, "csv": b"a", "problems": []},
            {"trace": 1, "csv": b"a", "problems": []},
            {"trace": 0, "csv": b"b", "problems": []},
            {"trace": 0, "csv": b"a", "problems": ["non-finite l_cls"]},
            {"trace": 0, "error": "worker exit 1: boom"}]
    run.check_fits(fits)
    assert ["error" in f for f in fits] == [False, False, True, True, True]


def test_scenario_is_the_acceptance_scenario_at_the_benchmark_epochs():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        from test_acceptance import scenario_config
    finally:
        sys.path.remove(os.path.join(ROOT, "tests"))
    for method in WORKLOADS.values():
        expected = scenario_config(method, 7)
        expected["train"].update(epochs=EPOCHS, warmup_epochs=WARMUP_EPOCHS)
        assert worker.scenario_config(method, 7) == expected


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
