"""josnc benchmark: closed-loop criterion-6 scenario fits on one workload.

    python3 perfbench/run.py --workload openset-josnc --seed 7 --seconds 36 --trace 0

One process, one fit at a time: each fit runs in a fresh worker process
(worker.py) and the next starts when it ends, until --seconds is used up
(at least one fit, or one untraced + traced pair with --trace 1). Outputs are
checked; a fit fails when it raises, diverges, breaks a check, or writes a
metrics.csv that differs from the run's first fit at the same seed.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced fits. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Machine facts, per-fit lines
and the step-time tail go to the lines before it and to
.perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

from stats import median, percentile, tail_percentile
from workloads import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
STATE_DIR = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0   # every run must end within 180 s


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        describe = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        describe = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": env,
        "git_describe": describe,
        "loadavg": os.getloadavg(),
    }


def spawn_fit(workload, seed, trace, out_dir, timeout) -> dict:
    """Run one fit in a worker process; returns its result or an error."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"trace": trace,
                "error": f"worker exit {proc.returncode}: {tail[0]}"}
    with open(os.path.join(out_dir, "result.json")) as f:
        rec = json.load(f)
    with open(os.path.join(out_dir, "metrics.csv"), "rb") as f:
        rec["csv"] = f.read()
    rec["trace"] = trace
    return rec


def check_fits(fits) -> None:
    """Mark failed fits: worker errors, output-check problems, and any
    metrics.csv that differs from the first fit's (same seed, so it must be
    byte-identical; this also proves the trace wrappers are transparent)."""
    reference = next((f["csv"] for f in fits if "error" not in f), None)
    for f in fits:
        if "error" in f:
            continue
        if f["problems"]:
            f["error"] = "; ".join(f["problems"])
        elif f["csv"] != reference:
            f["error"] = "metrics.csv differs from the run's first fit"


def end_to_end(ok) -> dict:
    untraced = [f for f in ok if f["trace"] == 0]
    steps = [s for f in untraced for s in f["step_ms"]]
    return {
        "setup_s": median([s for f in untraced for s in f["setup_s"]]),
        "fit_s": median([f["fit_s"] for f in untraced]),
        "cpu_s": median([f["cpu_s"] for f in untraced]),
        "step_ms.p50": percentile(steps, 50),
        "step_ms.p90": percentile(steps, 90),
        "peak_rss_mb": median([f["peak_rss_mb"] for f in untraced]),
    }


def per_layer(ok) -> dict:
    traced = [f for f in ok if f["trace"] == 1]
    untraced = [f for f in ok if f["trace"] == 0]
    out = {name: median([f["layers"][name] for f in traced])
           for name in traced[0]["layers"]}
    for part in ("clean", "id", "ood"):
        out[f"selector.{part}_frac"] = median(
            [f["partition_fracs"][part] for f in traced])
    for score in ("clean_f1", "ood_f1"):
        out[f"selector.{score}"] = median([f[score] for f in traced])
    out["trainer.test_acc"] = median([f["test_acc"] for f in traced])
    out["trace_overhead_s"] = (median([f["fit_s"] for f in traced])
                               - median([f["fit_s"] for f in untraced]))
    return out


def describe_fit(i, f) -> str:
    if "error" in f:
        return f"fit {i} trace={f['trace']}: FAILED {f['error']}"
    return (f"fit {i} trace={f['trace']}: fit_s={f['fit_s']:.3f} "
            f"cpu_s={f['cpu_s']:.3f} step_p50={median(f['step_ms']):.3f}ms "
            f"peak_rss_mb={f['peak_rss_mb']:.1f} test_acc={f['test_acc']:.5f} "
            f"clean_f1={f['clean_f1']:.5f} ood_f1={f['ood_f1']:.5f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="josnc scenario-fit benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "josnc", "trainer.py")):
        print(f"perfbench: no josnc sources under {ROOT}/src", file=sys.stderr)
        return 2

    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    work = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    t_start = time.perf_counter()
    fits = []
    try:
        while True:
            unit_start = time.perf_counter()
            for trace in ((0, 1) if args.trace else (0,)):
                left = RUN_LIMIT_S - (time.perf_counter() - t_start)
                fits.append(spawn_fit(args.workload, args.seed, trace,
                                      os.path.join(work, f"fit{len(fits)}"),
                                      max(left, 1.0)))
            now = time.perf_counter()
            if (now - t_start) + (now - unit_start) > args.seconds \
                    or any("timed out" in f.get("error", "") for f in fits):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_fits(fits)
    for i, f in enumerate(fits):
        print(describe_fit(i, f))
    ok = [f for f in fits if "error" not in f]
    wanted = {0} | ({1} if args.trace else set())
    complete = wanted <= {f["trace"] for f in ok}
    failed = len(fits) - len(ok)
    metrics = {}
    if complete:
        values = per_layer(ok) if args.trace else end_to_end(ok)
        units = PER_LAYER if args.trace else END_TO_END
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        steps = [s for f in ok if f["trace"] == 0 for s in f["step_ms"]]
        tail = tail_percentile(len(steps))
        print(f"step_ms over {len(steps)} steps: p50={percentile(steps, 50):.3f} "
              f"p{tail}={percentile(steps, float(tail)):.3f}"
              if tail else f"step_ms: only {len(steps)} steps")

    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "machine": facts,
              "fits": [{k: v for k, v in f.items() if k not in ("csv", "step_ms")}
                       for f in fits],
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE_DIR, "results", name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": failed == 0, "attempted": len(fits),
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
