"""Measure the acceptance gate's margin: criterion 9's votes over many seeds.

Runs the acceptance gate's criterion-6 scenario, the openset-sym40 preset as
tools/scenario.py builds it, for all five methods at each of --seeds seeds
from 100 on (disjoint from the gate's 7-9 and the benchmark's held-out
1009). The fits run concurrently, one spawned process per core. Each fit's
final test accuracy, clean F1 and OOD F1 go to --out as JSON, with three
numbers over the seeds:

- full_highest: the share of seeds where JOSNC's accuracy is at least every
  ablation's (SELECT_ONLY, SCON, SCON_NCON), criterion 9's first vote;
- scon_not_worse: the share where SCON's is at least SELECT_ONLY's, its
  second vote;
- josnc_minus_standard: the mean JOSNC - STANDARD accuracy gap, in points.

Each comes with a 95% percentile bootstrap interval over the seeds (10,000
resamples from a fixed generator seed, so a file is reproducible from its
fits). Twenty seeds take about 18 CPU-minutes.

    python3 tools/seed_sweep.py --out sweep.json
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from josnc import harness, trainer  # noqa: E402
from scenario import fit_scenario, run_pool  # noqa: E402

FIRST_SEED = 100
ABLATIONS = ("SELECT_ONLY", "SCON", "SCON_NCON")
BOOTSTRAP_RESAMPLES = 10_000


def sweep_fit(method: str, seed: int) -> dict:
    """Final test accuracy, clean F1 and OOD F1 of one scenario fit."""
    ds, result = fit_scenario(method, seed)
    last = result.history[-1]
    sel = harness.evaluate_selection(last.partition_codes, ds.tags.noise_kinds)
    return {"test_acc": last.test_acc, "clean_f1": sel["clean_f1"],
            "ood_f1": sel["ood_f1"]}


def summarize(fits: dict) -> dict:
    """The three numbers, each {"value", "low", "high"}, of
    fits[method][seed]["test_acc"] over the seeds that JOSNC was fit at."""
    seeds = sorted(fits["JOSNC"])

    def acc(method):
        return np.array([fits[method][s]["test_acc"] for s in seeds])

    josnc = acc("JOSNC")
    per_seed = {
        "full_highest": josnc >= np.max([acc(m) for m in ABLATIONS], axis=0),
        "scon_not_worse": acc("SCON") >= acc("SELECT_ONLY"),
        "josnc_minus_standard": (josnc - acc("STANDARD")) * 100.0,
    }
    picks = np.random.default_rng(0).integers(
        0, len(seeds), size=(BOOTSTRAP_RESAMPLES, len(seeds)))
    summary = {}
    for name, values in per_seed.items():
        values = values.astype(np.float64)
        low, high = np.percentile(values[picks].mean(axis=1), [2.5, 97.5])
        summary[name] = {"value": float(values.mean()), "low": float(low),
                         "high": float(high)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20,
                        help=f"number of seeds, from {FIRST_SEED} on")
    parser.add_argument("--out", required=True, metavar="FILE",
                        help="JSON file for the fits and the summary")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    seeds = range(FIRST_SEED, FIRST_SEED + args.seeds)
    results = run_pool(sweep_fit, [(method, seed) for seed in seeds
                                   for method in trainer.METHODS])
    fits = {method: {seed: results[method, seed] for seed in seeds}
            for method in trainer.METHODS}
    summary = summarize(fits)
    with open(args.out, "w") as f:
        json.dump({"scenario": "openset-sym40", "seeds": list(seeds),
                   "fits": fits, "summary": summary}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    for name, s in summary.items():
        print(f"{name} {s['value']:.4f} [{s['low']:.4f}, {s['high']:.4f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
