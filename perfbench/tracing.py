"""Outside-in tracing of one josnc fit.

`instrumented` swaps the public functions that josnc.trainer and
josnc.harness call for timing wrappers, and restores them on exit; the
program's own files are untouched. Spans are kept in memory and reduced by
`summarize` into per-layer metrics.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import gc
import time
from collections import Counter, defaultdict

from stats import median, step_intervals

# spans that run inside training steps; each gives a `<name>_ms` metric
STEP_LAYERS = (
    "datagen.augment", "network.student_forward", "network.teacher_forward",
    "network.ema", "diffmath.backward", "diffmath.js", "embedqueue.knn",
    "embedqueue.enqueue", "selector.classify", "selector.check_sound",
    "selector.threshold", "labeler.lsr", "labeler.pll", "labeler.negative",
    "objective.cls", "objective.scon", "objective.ncon", "objective.fcon",
    "objective.mixture", "objective.total",
)

GC_SPAN = "diffmath.gc"
HOOK_SPAN = "bench.hook"   # the benchmark's own step hook, not a josnc layer


class Tracer:
    """Nested spans with self time: a span's duration minus its children's."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # (name, start, end, self seconds), in end order
        self._open = []        # [name, start, seconds covered by children]
        self.tape_nodes = 0    # Tensor constructions so far
        self.knn_queries = 0
        self.knn_hits = 0
        self.eval_x = None     # the test matrix; marks evaluation forwards

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._open.pop()
        end = self.clock()
        if self._open:
            self._open[-1][2] += end - start
        self.spans.append((name, start, end, end - start - covered))

    def wrap(self, name, fn):
        """fn inside a span; name may be a function of the call's arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name(*args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def on_gc(self, phase, info) -> None:
        if phase == "start":
            self.enter(GC_SPAN)
        else:
            self.exit()


def _patches(tracer: Tracer):
    """(owner, attribute, replacement factory) for every traced call site."""
    from josnc import diffmath, embedqueue, harness, network, selector, trainer

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    def forward_arrays(fn):
        return tracer.wrap(
            lambda params, config, x: ("network.eval" if x is tracer.eval_x
                                       else "network.teacher_forward"), fn)

    def knn_batch(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            results = fn(*args, **kwargs)
            tracer.knn_queries += len(results)
            tracer.knn_hits += sum(r is not None for r in results)
            return results
        return tracer.wrap("embedqueue.knn", counted)

    def tensor_init(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.tape_nodes += 1
            fn(*args, **kwargs)
        return counted

    return [
        (harness, "resolve_config", span("harness.config")),
        (harness, "build_train_config", span("harness.config")),
        (harness, "build_dataset", span("datagen.build")),
        (harness, "metrics_rows", span("harness.artifacts")),
        (harness, "write_metrics_csv", span("harness.artifacts")),
        (harness, "save_checkpoint", span("harness.artifacts")),
        (trainer, "augment_views", span("datagen.augment")),
        (network.Model, "forward", span("network.student_forward")),
        (trainer, "forward_arrays", forward_arrays),
        (trainer, "ema_update", span("network.ema")),
        (diffmath.Tensor, "backward", span("diffmath.backward")),
        (diffmath.Tensor, "__init__", tensor_init),
        (trainer, "js_divergence_rows", span("diffmath.js")),
        (embedqueue.EmbedQueue, "knn_batch", knn_batch),
        (embedqueue.EmbedQueue, "enqueue", span("embedqueue.enqueue")),
        (selector, "classify_sample", span("selector.classify")),
        (selector.Partition, "check_sound", span("selector.check_sound")),
        (selector.ThresholdState, "accumulate_batch", span("selector.threshold")),
        (selector.ThresholdState, "roll", span("selector.threshold")),
        (trainer, "lsr_matrix", span("labeler.lsr")),
        (trainer, "make_pll_target", span("labeler.pll")),
        (trainer, "make_negative_target", span("labeler.negative")),
        (trainer, "classification_loss", span("objective.cls")),
        (trainer, "cross_entropy_loss", span("objective.cls")),
        (trainer, "self_consistency_loss", span("objective.scon")),
        (trainer, "neighbor_consistency_loss", span("objective.ncon")),
        (trainer, "feature_consistency_loss", span("objective.fcon")),
        (trainer, "neighbor_mixture", span("objective.mixture")),
        (trainer, "total_loss", span("objective.total")),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Trace josnc calls and garbage collections while the block runs."""
    saved = []
    try:
        for owner, attr, make in _patches(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        gc.callbacks.append(tracer.on_gc)
        yield tracer
    finally:
        if tracer.on_gc in gc.callbacks:
            gc.callbacks.remove(tracer.on_gc)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(tracer: Tracer, hooks, warmup_epochs: int, fit_window) -> dict:
    """Per-layer metrics of one traced fit.

    hooks holds one (epoch, time, tape_nodes) per step-hook call. Step layer
    times are medians over post-warmup steps of the per-step sum of self
    time; *_calls are mean calls per post-warmup step. trainer.self_ms is the
    step interval minus every span that started in it, i.e. the time the
    trainer spent in its own code (optimizer, finiteness checks, per-row loop,
    Partition sets).
    """
    spans = sorted(tracer.spans, key=lambda s: s[1])
    starts = [s[1] for s in spans]
    steps = step_intervals(hooks, warmup_epochs)
    per_step = defaultdict(list)
    calls = Counter()
    trainer_self, tape = [], []
    for h0, h1 in steps:
        lo = bisect.bisect_right(starts, h0[1])
        hi = bisect.bisect_right(starts, h1[1])
        busy = defaultdict(float)
        for name, _, _, self_s in spans[lo:hi]:
            busy[name] += self_s
            calls[name] += 1
        for name in STEP_LAYERS:
            per_step[name].append(busy[name] * 1e3)
        trainer_self.append((h1[1] - h0[1] - sum(busy.values())) * 1e3)
        tape.append(h1[2] - h0[2])

    def each(name):
        return [s[3] for s in spans if s[0] == name]

    n_steps = len(steps)
    out = {f"{name}_ms": median(per_step[name]) for name in STEP_LAYERS}
    for name, metric in (("embedqueue.knn", "embedqueue.knn_calls"),
                         ("selector.classify", "selector.classify_calls"),
                         ("objective.fcon", "objective.fcon_calls"),
                         ("objective.mixture", "objective.mixture_calls")):
        out[metric] = calls[name] / n_steps
    out["labeler.target_calls"] = (
        calls["labeler.pll"] + calls["labeler.negative"]) / n_steps
    out["trainer.self_ms"] = median(trainer_self)
    out["diffmath.tape_nodes"] = median(tape)
    in_fit = [s for s in spans
              if s[0] == GC_SPAN and fit_window[0] <= s[1] <= fit_window[1]]
    out["diffmath.gc_ms"] = sum(s[3] for s in in_fit) * 1e3
    out["diffmath.gc_collections"] = len(in_fit)
    out["embedqueue.knn_hit_ratio"] = (tracer.knn_hits / tracer.knn_queries
                                       if tracer.knn_queries else 0.0)
    builds = each("datagen.build")
    out["datagen.build_ms"] = median(builds) * 1e3
    out["harness.config_ms"] = sum(each("harness.config")) / len(builds) * 1e3
    out["network.eval_ms"] = median(each("network.eval")) * 1e3
    out["harness.artifacts_ms"] = sum(each("harness.artifacts")) * 1e3
    return out
