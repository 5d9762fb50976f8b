"""Print one sha256 per method over the outputs of a scenario fit.

The scenario is the acceptance gate's criterion-6 scenario, the
openset-sym40 preset as tools/scenario.py builds it, at --seed and
--epochs. The five methods' fits run concurrently, one spawned process per
core. Each digest covers the fit's metrics.csv, its per-epoch partition
codes and the arrays of its checkpoint.bin, in that order. The arrays are
read back with harness.load_checkpoint and hashed in sorted name order,
each as its name, dtype, shape and bytes, so the digest does not depend on
the checkpoint's container format and two checkouts that store the same
arrays in different formats digest alike. To check that a change leaves
every output unchanged, save one checkout's digests and compare the other's
against them; --expect names each method whose digest differs and exits 1:

    python3 /path/to/other/checkout/tools/output_digest.py --seed 7 \\
        --epochs 60 > old.txt
    python3 tools/output_digest.py --seed 7 --epochs 60 --expect old.txt

The script imports josnc from the src/ of its own checkout. Digests are
per machine: OpenBLAS picks its kernels by CPU, so compare two checkouts
on one machine, not one checkout across machines.
"""

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from josnc import harness, trainer  # noqa: E402
from scenario import fit_scenario, run_pool  # noqa: E402


def output_digest(method: str, seed: int, epochs: int) -> str:
    """sha256 of metrics.csv, the partition codes and the checkpoint's
    arrays."""
    ds, result = fit_scenario(method, seed, epochs)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        metrics, checkpoint = (os.path.join(out, name)
                               for name in ("metrics.csv", "checkpoint.bin"))
        harness.write_metrics_csv(metrics, harness.metrics_rows(
            result.history, ds.tags.noise_kinds))
        harness.save_checkpoint(checkpoint, result.student, result.teacher)
        with open(metrics, "rb") as f:
            digest.update(f.read())
        digest.update(np.stack([r.partition_codes
                                for r in result.history]).tobytes())
        saved = harness.load_checkpoint(checkpoint)
    # student.* sorts before teacher.*, so this is sorted full-name order
    for part, arrays in zip(("student", "teacher"), saved):
        for name in sorted(arrays):
            arr = arrays[name]
            digest.update(f"{part}.{name} {arr.dtype.str} {arr.shape}\n"
                          .encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def read_digests(path: str) -> dict:
    """{method: digest} of a file of this script's output lines."""
    with open(path) as f:
        pairs = [line.split() for line in f if line.strip()]
    if not all(len(pair) == 2 for pair in pairs):
        raise ValueError(f"{path}: each line must be 'METHOD DIGEST'")
    return dict(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=60,
                        help="at least 6: the first 5 are warmup")
    parser.add_argument("--expect", metavar="FILE",
                        help="saved digests to compare against; exit 1 "
                             "naming each method that differs")
    args = parser.parse_args(argv)
    if args.epochs < 6:
        parser.error(f"--epochs must be at least 6, got {args.epochs}")
    expected = None
    if args.expect:
        try:
            expected = read_digests(args.expect)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    digests = run_pool(output_digest, [(method, args.seed, args.epochs)
                                       for method in trainer.METHODS])
    differ = []
    for (method, _, _), digest in digests.items():
        print(method, digest)
        if expected is not None and expected.get(method) != digest:
            differ.append(method)
    if differ:
        print(f"differs from {args.expect}: {' '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
