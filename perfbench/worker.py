"""One scenario fit in a fresh process: set-up, fit, artifacts, output checks.

run.py starts one worker per fit, so the process's peak RSS is the
high-water mark of that fit alone. The worker writes metrics.csv,
checkpoint.bin and result.json into --out.

    python3 perfbench/worker.py --workload openset-select --seed 7 \
        --trace 0 --out .perfbench/fit0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from josnc import harness, trainer  # noqa: E402

import tracing  # noqa: E402
from stats import step_intervals  # noqa: E402
from workloads import EPOCHS, SETUP_REPEATS, WARMUP_EPOCHS, WORKLOADS  # noqa: E402

LOSS_COLUMNS = ("train_loss", "l_cls", "l_con_s", "l_con_n", "l_con_f")


def scenario_config(method: str, seed: int, epochs: int = EPOCHS,
                    warmup_epochs: int = WARMUP_EPOCHS) -> dict:
    """The criterion-6 scenario of the acceptance tests, at this epoch count."""
    base = harness.gen_config("openset-sym40")
    return harness.resolve_config({
        **base, "method": method,
        "dataset": {**base["dataset"], "spread": 2.0, "seed": seed},
        "train": {**base["train"], "epsilon": 0.1, "seed": seed,
                  "gamma": 0.01, "t_ssl": 0.5, "jitter_sigma": 0.5,
                  "mask_rate": 0.2, "epochs": epochs,
                  "warmup_epochs": warmup_epochs},
    })


def partition_problem(batch_ids, part):
    """Why the hook's partition fails to cover the batch exactly, or None.

    Deliberately independent of Partition.check_sound: the benchmark must not
    trust the code it measures to check its own output.
    """
    sizes = len(part.clean_ids) + len(part.id_ids) + len(part.ood_ids)
    union = part.clean_ids | part.id_ids | part.ood_ids
    if sizes != len(batch_ids) or union != {int(i) for i in batch_ids}:
        return "partition does not cover the batch exactly"
    return None


def run_fit(method: str, seed: int, out_dir: str, tracer=None,
            epochs: int = EPOCHS, warmup_epochs: int = WARMUP_EPOCHS,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up `setup_repeats` times, then fit once and write the artifacts."""
    setup_s = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        cfg = scenario_config(method, seed, epochs, warmup_epochs)
        ds = harness.build_dataset(cfg)
        train_config = harness.build_train_config(cfg)
        setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.eval_x = ds.test_x

    hooks, problems, parts = [], [], Counter()

    def check(epoch, batch_ids, part):
        problem = partition_problem(batch_ids, part)
        if problem and len(problems) < 5:
            problems.append(f"epoch {epoch}: {problem}")
        if epoch > warmup_epochs:
            parts["clean"] += len(part.clean_ids)
            parts["id"] += len(part.id_ids)
            parts["ood"] += len(part.ood_ids)

    if tracer is not None:
        check = tracer.wrap(tracing.HOOK_SPAN, check)

    def hook(epoch, batch_ids, part):
        hooks.append((epoch, time.perf_counter(),
                      tracer.tape_nodes if tracer else 0))
        check(epoch, batch_ids, part)

    cpu0, wall0 = time.process_time(), time.perf_counter()
    result = trainer.fit(train_config, ds.train, ds.test_x, ds.test_y,
                         ds.n_id_classes, step_hook=hook)
    rows = harness.metrics_rows(result.history, ds.tags.noise_kinds)
    harness.write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    harness.save_checkpoint(os.path.join(out_dir, "checkpoint.bin"),
                            result.student, result.teacher)
    wall1, cpu1 = time.perf_counter(), time.process_time()

    for row in rows:
        bad = [c for c in LOSS_COLUMNS if not math.isfinite(row[c])]
        if bad:
            problems.append(f"epoch {row['epoch']}: non-finite {bad}")
    if len(rows) != epochs:
        problems.append(f"{len(rows)} metrics rows for {epochs} epochs")

    total = sum(parts.values())
    last = rows[-1]
    out = {
        "setup_s": setup_s,
        "fit_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "step_ms": [(h1[1] - h0[1]) * 1e3
                    for h0, h1 in step_intervals(hooks, warmup_epochs)],
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_acc": last["test_acc"],
        "clean_f1": last["clean_f1"],
        "ood_f1": last["ood_f1"],
        "partition_fracs": {k: parts[k] / total for k in ("clean", "id", "ood")},
        "problems": problems,
    }
    if tracer is not None:
        out["layers"] = tracing.summarize(tracer, hooks, warmup_epochs,
                                          (wall0, wall1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with (tracing.instrumented(tracer) if tracer else contextlib.nullcontext()):
        result = run_fit(WORKLOADS[args.workload], args.seed, args.out, tracer)
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
