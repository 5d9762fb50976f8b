import json
import os
import subprocess
import sys

import numpy as np
import pytest

from josnc import blas, harness
from josnc.trainer import FitResult, TrainingDiverged

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import kernel_matrix  # noqa: E402
import output_digest  # noqa: E402
import scenario  # noqa: E402
import seed_sweep  # noqa: E402


@pytest.fixture
def fake_fits(monkeypatch):
    # each method's digest is its name; no fit runs
    monkeypatch.setattr(output_digest, "run_pool", lambda fn, keys: {
        key: f"digest-{key[0]}" for key in keys})


def test_expect_passes_on_equal_digests(tmp_path, capsys, fake_fits):
    assert output_digest.main(["--epochs", "6"]) == 0
    saved = tmp_path / "digests.txt"
    saved.write_text(capsys.readouterr().out)
    assert output_digest.main(["--epochs", "6", "--expect", str(saved)]) == 0
    assert capsys.readouterr().err == ""


def test_expect_names_each_method_that_differs(tmp_path, capsys, fake_fits):
    saved = tmp_path / "digests.txt"
    saved.write_text("JOSNC digest-JOSNC\nSCON other\nSTANDARD digest-STANDARD\n"
                     "SELECT_ONLY digest-SELECT_ONLY\n")
    assert output_digest.main(["--epochs", "6", "--expect", str(saved)]) == 1
    out, err = capsys.readouterr()
    # the kernel family, then every digest, still printed
    assert out.splitlines()[0] == f"blas_core {blas.core_name()}"
    assert len(out.splitlines()) == 6
    # SCON's digest differs and SCON_NCON's is missing from the file
    assert err.strip().endswith(": SCON SCON_NCON")


@pytest.mark.parametrize("text", ["JOSNC\n", "JOSNC a b\n"])
def test_expect_rejects_a_malformed_file(tmp_path, capsys, fake_fits, text):
    saved = tmp_path / "digests.txt"
    saved.write_text(text)
    with pytest.raises(SystemExit) as exc:
        output_digest.main(["--epochs", "6", "--expect", str(saved)])
    assert exc.value.code == 2
    assert "METHOD DIGEST" in capsys.readouterr().err


def test_fit_scenario_is_the_run_of_its_config(tmp_path):
    # the tools' fit is what `josnc run` fits and writes for the same config
    ds, result = scenario.fit_scenario("STANDARD", 7, epochs=6)
    assert [r.epoch for r in result.history] == [1, 2, 3, 4, 5, 6]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**scenario.scenario_config("STANDARD", 7, 6),
                                  "output_dir": str(tmp_path / "run")}))
    harness.run(str(config))
    harness.write_metrics_csv(str(tmp_path / "metrics.csv"),
                              harness.metrics_rows(result.history,
                                                   ds.tags.noise_kinds))
    assert ((tmp_path / "run" / "metrics.csv").read_bytes()
            == (tmp_path / "metrics.csv").read_bytes())


def diverge(message):
    """A pool task whose fit diverges."""
    raise TrainingDiverged(message, FitResult([], {"w": np.arange(3.0)}, {}))


def test_a_worker_divergence_reaches_the_caller():
    # the exception crosses the spawn pool with its partial result
    with pytest.raises(TrainingDiverged, match="^at epoch 2$") as exc:
        scenario.run_pool(diverge, [("at epoch 2",)])
    assert exc.value.result.student["w"].tolist() == [0.0, 1.0, 2.0]


def test_seed_sweep_summarizes_the_fits(tmp_path, capsys, monkeypatch):
    # hand-made accuracies at four seeds, one row per method; no fit runs
    accs = {"JOSNC": [0.90, 0.80, 0.70, 0.60],
            "SELECT_ONLY": [0.80, 0.85, 0.70, 0.65],
            "SCON": [0.85, 0.80, 0.65, 0.65],
            "SCON_NCON": [0.90, 0.70, 0.60, 0.50],
            "STANDARD": [0.50, 0.60, 0.40, 0.50]}
    monkeypatch.setattr(seed_sweep, "run_pool", lambda fn, keys: {
        (method, seed): {"test_acc": accs[method][seed - 100],
                         "clean_f1": 0.5, "ood_f1": 0.25}
        for method, seed in keys})
    out = tmp_path / "sweep.json"
    assert seed_sweep.main(["--seeds", "4", "--out", str(out)]) == 0
    saved = json.loads(out.read_text())
    assert saved["seeds"] == [100, 101, 102, 103]
    assert saved["fits"]["SCON"]["101"] == {"test_acc": 0.80,
                                            "clean_f1": 0.5, "ood_f1": 0.25}
    summary = saved["summary"]
    # JOSNC >= every ablation at seeds 100 and 102 (a tie counts), not at
    # 101 (SELECT_ONLY) or 103 (SELECT_ONLY, SCON)
    assert summary["full_highest"]["value"] == 0.5
    # SCON >= SELECT_ONLY at 100 and 103
    assert summary["scon_not_worse"]["value"] == 0.5
    # gaps of 40, 20, 30 and 10 points
    assert summary["josnc_minus_standard"]["value"] == pytest.approx(25.0)
    for s in summary.values():
        assert s["low"] <= s["value"] <= s["high"]
    assert summary["full_highest"]["low"] >= 0.0
    assert summary["full_highest"]["high"] <= 1.0
    assert summary["josnc_minus_standard"]["low"] >= 10.0 - 1e-9
    assert summary["josnc_minus_standard"]["high"] <= 40.0 + 1e-9
    # the bootstrap draws from a fixed generator: a rerun gives the file
    assert seed_sweep.main(["--seeds", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == saved
    assert capsys.readouterr().out.splitlines()[0].startswith(
        "full_highest 0.5000 [")


def test_kernel_matrix_reports_each_family_this_cpu_runs(capsys, monkeypatch):
    # a CPU with AVX2 but no AVX-512: SkylakeX is skipped, and Haswell and
    # Sandybridge each run Tier-1 and the digests with their family forced;
    # no subprocess runs
    calls = []

    def fake_run(command, cwd, env, capture_output, text):
        family = env["OPENBLAS_CORETYPE"]
        calls.append((family, command))
        if "pytest" in command:
            out = ({"Haswell": "F.\nFAILED tests/test_a.py::test_x[1] - "
                    "assert 1 == 2\n1 failed, 1 passed in 1.00s\n"}
                   .get(family, "..\n2 passed in 1.00s\n"))
            return subprocess.CompletedProcess(command, int("F" in out), out,
                                               "")
        return subprocess.CompletedProcess(
            command, 0, f"blas_core {family}\nJOSNC digest-{family}\n", "")

    monkeypatch.setattr(kernel_matrix, "cpu_flags",
                        lambda: {"avx", "avx2", "fma", "sse2"})
    monkeypatch.setattr(kernel_matrix.subprocess, "run", fake_run)
    assert kernel_matrix.main(["--seed", "9", "--epochs", "6"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "== SkylakeX",
        "skipped: this CPU lacks ['avx512bw', 'avx512dq', 'avx512f', "
        "'avx512vl']",
        "== Haswell",
        "tier1: 1 failed, 1 passed in 1.00s",
        "failed: tests/test_a.py::test_x[1]",
        "digest blas_core Haswell",
        "digest JOSNC digest-Haswell",
        "== Sandybridge",
        "tier1: 2 passed in 1.00s",
        "digest blas_core Sandybridge",
        "digest JOSNC digest-Sandybridge",
    ]
    assert [family for family, _ in calls] == ["Haswell"] * 2 + [
        "Sandybridge"] * 2
    digest_runs = [command for _, command in calls if "pytest" not in command]
    assert all(command[-4:] == ["--seed", "9", "--epochs", "6"]
               for command in digest_runs)
