"""Workloads, run sizing and the metric table shared by run.py and worker.py.

Every workload is the acceptance criterion-6 scenario with one method; why
each was chosen is in README.md and BENCHMARK.json.
"""

WORKLOADS = {
    "openset-josnc": "JOSNC",
    "openset-select": "SELECT_ONLY",
    "openset-standard": "STANDARD",
}

DEFAULT_SEED = 7  # the criterion-6 seed; README.md names a held-out seed

# 1 of 5 epochs is warmup, so robust steps dominate; the warmup epoch fills
# the 4096-key queue (40 batches of 128), so every robust step sees a full queue
EPOCHS = 5
WARMUP_EPOCHS = 1

# set-up is short next to a fit; repeat it so its median is steady
SETUP_REPEATS = 5

# end-to-end metrics, reported with tracing off: name -> unit
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "cpu_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics, reported by the traced run: name -> unit. Times are the
# median over post-warmup steps of the layer's self time in one step, except
# where the name says otherwise (see README.md).
PER_LAYER = {
    "datagen.build_ms": "ms",
    "datagen.augment_ms": "ms",
    "network.student_forward_ms": "ms",
    "network.teacher_forward_ms": "ms",
    "network.ema_ms": "ms",
    "network.eval_ms": "ms",
    "diffmath.backward_ms": "ms",
    "diffmath.js_ms": "ms",
    "diffmath.tape_nodes": "count",
    "diffmath.gc_ms": "ms",
    "diffmath.gc_collections": "count",
    "embedqueue.knn_ms": "ms",
    "embedqueue.knn_calls": "count",
    "embedqueue.knn_hit_ratio": "ratio",
    "embedqueue.enqueue_ms": "ms",
    "selector.classify_ms": "ms",
    "selector.classify_calls": "count",
    "selector.check_sound_ms": "ms",
    "selector.threshold_ms": "ms",
    "selector.clean_frac": "ratio",
    "selector.id_frac": "ratio",
    "selector.ood_frac": "ratio",
    "selector.clean_f1": "ratio",
    "selector.ood_f1": "ratio",
    "labeler.lsr_ms": "ms",
    "labeler.pll_ms": "ms",
    "labeler.negative_ms": "ms",
    "labeler.target_calls": "count",
    "objective.cls_ms": "ms",
    "objective.scon_ms": "ms",
    "objective.ncon_ms": "ms",
    "objective.fcon_ms": "ms",
    "objective.fcon_calls": "count",
    "objective.mixture_ms": "ms",
    "objective.mixture_calls": "count",
    "objective.total_ms": "ms",
    "trainer.self_ms": "ms",
    "trainer.test_acc": "ratio",
    "harness.config_ms": "ms",
    "harness.artifacts_ms": "ms",
    "trace_overhead_s": "s",
}
