import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

from josnc import blas   # importing the package pins BLAS

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def test_import_pins_one_thread():
    assert blas.thread_count() == 1


def test_pin_that_does_not_take_raises(monkeypatch):
    monkeypatch.setattr(blas, "thread_count", lambda: 2)
    with pytest.raises(blas.BlasThreadError, match="2 threads"):
        blas.pin_one_thread()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OpenBLAS's Sandybridge kernels are x86-64 code")
def test_core_name_is_the_kernel_family_in_use():
    # OPENBLAS_CORETYPE forces a family when the library loads; Sandybridge's
    # kernels need only AVX, which every newer family's CPU also has
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": SRC}
    forced = subprocess.run(
        [sys.executable, "-c", "from josnc import blas; print(blas.core_name())"],
        env=env, check=True, capture_output=True, text=True, timeout=60)
    assert forced.stdout == "Sandybridge\n"
    assert blas.core_name() and blas.core_name().isprintable()


def _run_cli(tmp_path, cfg_path, threads):
    out = tmp_path / f"out-{threads}"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads != "unset":
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-m", "josnc.cli", "run", str(cfg_path),
                    "--output-dir", str(out)],
                   env=env, check=True, capture_output=True, timeout=120)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["blas_core"] == blas.core_name()
    return (out / "metrics.csv").read_bytes(), manifest["blas_threads"]


def test_metrics_do_not_depend_on_blas_thread_env(tmp_path):
    # criterion 7's config, scaled so that a GEMM reaches OpenBLAS's threaded
    # path: every robust epoch ends on a 12-row batch whose InfoNCE backward
    # is (12 x 4108) @ (4108 x 32), and gamma 1 keeps its last bits in the
    # weights. Unpinned, OPENBLAS_NUM_THREADS=2 changes the epoch-4 row.
    cfg = {
        "dataset": {"n_id_classes": 4, "n_ood_classes": 1, "per_class": 412,
                    "dim": 8, "spread": 1.0, "seed": 3, "test_per_class": 20,
                    "noise": {"kind": "symmetric", "rate_id": 0.4}},
        "model": {"hidden_dims": [16], "embed_dim": 32},
        "train": {"seed": 3, "epochs": 4, "warmup_epochs": 2,
                  "batch_size": 128, "knn_k": 5, "kappa": 2,
                  "queue_capacity": 4096, "gamma": 1.0},
        "method": "JOSNC",
        "output_dir": "unused",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = {t: _run_cli(tmp_path, cfg_path, t) for t in ("unset", "1", "2")}
    assert {threads for _, threads in runs.values()} == {1}
    assert runs["unset"][0] == runs["1"][0] == runs["2"][0]
