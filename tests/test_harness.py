import dataclasses
import json
import os

import numpy as np
import pytest

from josnc import cli, harness
from josnc.datagen import CLEAN as KIND_CLEAN
from josnc.datagen import ID_NOISY, OOD_NOISY, TagTable, TrainingSet
from josnc.harness import (METRICS_COLUMNS, METHODS, OUTPUT_DIR_ENV,
                           ConfigError, compare_runs, evaluate_selection,
                           format_compare_report, gen_config, load_config,
                           metrics_rows, read_metrics_csv, resolve_config, run,
                           save_checkpoint, write_metrics_csv)
from josnc.selector import CLEAN, ID, OOD


def tiny_raw_config(out_dir, **train_overrides):
    train = {"seed": 5, "epochs": 4, "warmup_epochs": 1, "batch_size": 32,
             "learning_rate": 0.05, "knn_k": 5, "kappa": 2,
             "queue_capacity": 256}
    train.update(train_overrides)
    return {
        "dataset": {"n_id_classes": 3, "n_ood_classes": 1, "per_class": 30,
                    "dim": 6, "spread": 0.5, "seed": 5, "test_per_class": 20,
                    "noise": {"kind": "symmetric", "rate_id": 0.3}},
        "model": {"hidden_dims": [12], "embed_dim": 6},
        "train": train,
        "method": "JOSNC",
        "output_dir": out_dir,
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# config validation ---------------------------------------------------------------

def test_resolve_fills_defaults():
    cfg = resolve_config(tiny_raw_config("out"))
    assert cfg["train"]["epsilon"] == 0.6
    assert cfg["train"]["gamma"] == 0.0001
    assert cfg["dataset"]["test_per_class"] == 20
    assert cfg["checkpoint_every"] == 0
    # jitter default derives from dataset spread
    assert cfg["train"]["jitter_sigma"] == pytest.approx(0.05)


def test_unknown_key_rejected_with_dotted_path():
    raw = tiny_raw_config("out")
    raw["train"]["learning_rte"] = 0.1
    with pytest.raises(ConfigError, match=r"config\.train\.learning_rte"):
        resolve_config(raw)
    raw2 = tiny_raw_config("out")
    raw2["dataset"]["noise"]["rate"] = 0.3
    with pytest.raises(ConfigError, match=r"config\.dataset\.noise\.rate"):
        resolve_config(raw2)


def test_missing_required_key_named():
    raw = tiny_raw_config("out")
    del raw["train"]["seed"]
    with pytest.raises(ConfigError, match=r"config\.train\.seed.*missing"):
        resolve_config(raw)


def test_wrong_type_rejected():
    raw = tiny_raw_config("out")
    raw["train"]["epochs"] = "sixty"
    with pytest.raises(ConfigError, match=r"config\.train\.epochs"):
        resolve_config(raw)
    raw2 = tiny_raw_config("out")
    raw2["dataset"]["per_class"] = True   # bools are not ints here
    with pytest.raises(ConfigError, match=r"config\.dataset\.per_class"):
        resolve_config(raw2)


def test_unknown_method_rejected():
    raw = tiny_raw_config("out")
    raw["method"] = "MAGIC"
    with pytest.raises(ConfigError, match=r"config\.method"):
        resolve_config(raw)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dataset": }')
    with pytest.raises(ConfigError, match=r"bad\.json:1:13"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")


# selection evaluation --------------------------------------------------------------

def test_evaluate_selection_perfect():
    kinds = np.array([KIND_CLEAN, KIND_CLEAN, ID_NOISY, OOD_NOISY])
    codes = np.array([CLEAN, CLEAN, ID, OOD])
    m = evaluate_selection(codes, kinds)
    assert m["clean_precision"] == m["clean_recall"] == m["clean_f1"] == 1.0
    assert m["ood_precision"] == m["ood_recall"] == m["ood_f1"] == 1.0


def test_evaluate_selection_hand_counts():
    kinds = np.array([KIND_CLEAN, KIND_CLEAN, KIND_CLEAN, ID_NOISY, OOD_NOISY,
                      OOD_NOISY])
    codes = np.array([CLEAN, CLEAN, ID, CLEAN, OOD, ID])
    m = evaluate_selection(codes, kinds)
    # clean: tp=2, fp=1, fn=1
    assert m["clean_precision"] == pytest.approx(2 / 3)
    assert m["clean_recall"] == pytest.approx(2 / 3)
    assert m["clean_f1"] == pytest.approx(2 / 3)
    # ood: tp=1, fp=0, fn=1
    assert m["ood_precision"] == 1.0
    assert m["ood_recall"] == 0.5
    assert m["ood_f1"] == pytest.approx(2 / 3)


def test_evaluate_selection_degenerate():
    kinds = np.array([KIND_CLEAN, KIND_CLEAN])
    codes = np.array([ID, ID])   # nothing predicted clean, no OOD present
    m = evaluate_selection(codes, kinds)
    assert m["clean_precision"] == 0.0
    assert m["clean_f1"] == 0.0
    assert m["ood_f1"] == 0.0


def test_all_ood_baseline_f1():
    # predicting OOD for everything on a 1/3-OOD batch gives F1 = 1/2
    kinds = np.array([KIND_CLEAN, ID_NOISY, OOD_NOISY] * 10)
    codes = np.full(30, OOD)
    m = evaluate_selection(codes, kinds)
    assert m["ood_precision"] == pytest.approx(1 / 3)
    assert m["ood_recall"] == 1.0
    assert m["ood_f1"] == pytest.approx(0.5)


# metrics csv -------------------------------------------------------------------------

def test_metrics_csv_roundtrip_and_bytes(tmp_path):
    rows = [{c: (i + 1 if c == "epoch" else 0.123456789 * (i + j))
             for j, c in enumerate(METRICS_COLUMNS)} for i in range(3)]
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_metrics_csv(p1, rows)
    write_metrics_csv(p2, rows)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    cols, back = read_metrics_csv(p1)
    assert cols == METRICS_COLUMNS
    for orig, rt in zip(rows, back):
        for c in METRICS_COLUMNS:
            assert rt[c] == pytest.approx(float(orig[c]), abs=0)


def test_artifact_writes_are_atomic(tmp_path, monkeypatch):
    rows = [{c: float(i) for c in METRICS_COLUMNS} for i in range(3)]
    csv_path = str(tmp_path / "metrics.csv")
    write_metrics_csv(csv_path, rows)
    before = open(csv_path, "rb").read()
    # the third row lacks a column, so formatting raises partway
    with pytest.raises(KeyError):
        write_metrics_csv(csv_path, rows[:2] + [{"epoch": 9}])
    assert open(csv_path, "rb").read() == before

    ckpt_path = str(tmp_path / "checkpoint.bin")
    params = {"w": np.arange(6.0).reshape(2, 3)}
    save_checkpoint(ckpt_path, params, params)
    before = open(ckpt_path, "rb").read()

    def crash(src, dst):
        raise OSError("disk gone")

    # new bytes that never reach the final name leave the old file intact
    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        save_checkpoint(ckpt_path, {"w": np.zeros(9)}, params)
    assert open(ckpt_path, "rb").read() == before
    assert sorted(os.listdir(tmp_path)) == ["checkpoint.bin", "metrics.csv"]


def test_metrics_header_fixed():
    assert len(METRICS_COLUMNS) == 15
    assert METRICS_COLUMNS[0] == "epoch"
    assert METRICS_COLUMNS[-2:] == ["mean_tau_clean", "mean_tau_ood"]


# full runs ---------------------------------------------------------------------------

def test_run_produces_artifacts(tmp_path):
    out = str(tmp_path / "out")
    cfg_path = write_config(tmp_path, tiny_raw_config(out))
    result_dir = run(cfg_path)
    assert result_dir == out
    for name in ("config.resolved.json", "metrics.csv", "checkpoint.bin",
                 "run_manifest.json"):
        assert os.path.exists(os.path.join(out, name)), name
    cols, rows = read_metrics_csv(os.path.join(out, "metrics.csv"))
    assert cols == METRICS_COLUMNS
    assert len(rows) == 4
    assert [int(r["epoch"]) for r in rows] == [1, 2, 3, 4]
    manifest = json.load(open(os.path.join(out, "run_manifest.json")))
    assert manifest["method"] == "JOSNC"
    assert manifest["seed"] == 5


def test_fit_receives_no_hidden_tags(tmp_path, monkeypatch):
    built, calls = [], []
    build_dataset, fit = harness.build_dataset, harness.fit

    def spy_build(cfg):
        built.append(build_dataset(cfg))
        return built[-1]

    def spy_fit(*args, **kwargs):
        calls.append((args, kwargs))
        return fit(*args, **kwargs)

    monkeypatch.setattr(harness, "build_dataset", spy_build)
    monkeypatch.setattr(harness, "fit", spy_fit)
    run(write_config(tmp_path, tiny_raw_config(str(tmp_path / "out"))))
    (args, kwargs), = calls
    train = args[1]
    assert type(train) is TrainingSet
    assert [f.name for f in dataclasses.fields(train)] == [
        "x", "observed_labels", "ids"]
    tags = built[0].tags
    hidden = (tags.ids, tags.true_labels, tags.noise_kinds)
    for arg in [*args, *kwargs.values()]:
        held = ([getattr(arg, f.name) for f in dataclasses.fields(arg)]
                if dataclasses.is_dataclass(arg) else [])
        for value in (arg, *held):
            assert not isinstance(value, TagTable)
            if isinstance(value, np.ndarray):
                assert not any(np.shares_memory(value, h) for h in hidden)


def test_run_byte_identical_across_repeats(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run(write_config(tmp_path, tiny_raw_config(out_a), "ca.json"))
    run(write_config(tmp_path, tiny_raw_config(out_b), "cb.json"))
    a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    assert a == b


def test_standard_method_zero_consistency_columns(tmp_path):
    out = str(tmp_path / "std")
    raw = tiny_raw_config(out)
    raw["method"] = "STANDARD"
    run(write_config(tmp_path, raw))
    _, rows = read_metrics_csv(os.path.join(out, "metrics.csv"))
    for r in rows:
        assert r["l_con_s"] == 0.0
        assert r["l_con_n"] == 0.0
        assert r["l_con_f"] == 0.0
        # all-CLEAN partition recorded every epoch
        assert r["clean_recall"] == 1.0


def test_env_var_output_override(tmp_path, monkeypatch):
    out_cfg = str(tmp_path / "from_config")
    out_env = str(tmp_path / "from_env")
    monkeypatch.setenv(OUTPUT_DIR_ENV, out_env)
    run(write_config(tmp_path, tiny_raw_config(out_cfg)))
    assert os.path.exists(os.path.join(out_env, "metrics.csv"))
    assert not os.path.exists(out_cfg)


def test_explicit_override_beats_env(tmp_path, monkeypatch):
    out_env = str(tmp_path / "env")
    out_cli = str(tmp_path / "cli")
    monkeypatch.setenv(OUTPUT_DIR_ENV, out_env)
    run(write_config(tmp_path, tiny_raw_config(str(tmp_path / "cfg"))),
        output_dir_override=out_cli)
    assert os.path.exists(os.path.join(out_cli, "metrics.csv"))
    assert not os.path.exists(out_env)


# compare -----------------------------------------------------------------------------

def test_compare_run_with_itself_zero_deltas(tmp_path):
    out = str(tmp_path / "one")
    run(write_config(tmp_path, tiny_raw_config(out)))
    report = compare_runs(out, out)
    for m, d in report["last10_mean_delta"].items():
        assert d == 0.0, m
    for e, deltas in report["per_epoch_delta"].items():
        assert all(v == 0.0 for v in deltas.values())
    text = format_compare_report(report)
    assert "last-10-epoch means" in text


def test_compare_rejects_schema_mismatch(tmp_path):
    out = str(tmp_path / "one")
    run(write_config(tmp_path, tiny_raw_config(out)))
    other = tmp_path / "other"
    other.mkdir()
    (other / "metrics.csv").write_text("epoch,bogus\n1,2.0\n")
    with pytest.raises(ConfigError):
        compare_runs(out, str(other))


@pytest.mark.parametrize("text, where", [
    ("", ":1: missing header"),
    # a row cut at a field boundary
    ("epoch,train_loss\n1,0.5\n2\n", ":3: 1 fields, header has 2"),
    # a row cut inside its last field
    ("epoch,train_loss\n1,0.5\n2,\n", ":3: could not convert"),
    # a run that diverged in its first epoch writes only the header
    (",".join(METRICS_COLUMNS) + "\n", ":1: no epoch rows"),
], ids=["empty", "cut-at-field", "cut-in-field", "header-only"])
def test_cli_compare_rejects_corrupt_metrics(tmp_path, capsys, text, where):
    out = str(tmp_path / "one")
    run(write_config(tmp_path, tiny_raw_config(out)))
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "metrics.csv").write_text(text)
    assert cli.main(["compare", out, str(bad)]) == 2
    assert os.path.join(str(bad), "metrics.csv") + where in capsys.readouterr().err


# presets + cli ------------------------------------------------------------------------

def test_gen_config_presets_resolve():
    for preset in ("sym20", "sym50", "sym80", "asym40", "openset-sym40"):
        cfg = gen_config(preset)
        resolved = resolve_config(cfg)
        assert resolved["method"] == "JOSNC"
    open_set = gen_config("openset-sym40")
    assert open_set["dataset"]["n_id_classes"] == 8
    assert open_set["dataset"]["n_ood_classes"] == 2
    assert open_set["dataset"]["noise"]["rate_id"] == 0.4
    with pytest.raises(ConfigError):
        gen_config("sym99")


def test_methods_table_complete():
    assert set(METHODS) == {"JOSNC", "STANDARD", "SELECT_ONLY", "SCON",
                            "SCON_NCON"}
    assert METHODS["JOSNC"] == (True, True, True, True)
    assert METHODS["STANDARD"] == (False, False, False, False)


def test_cli_run_and_compare(tmp_path, capsys):
    out = str(tmp_path / "cli_out")
    cfg_path = write_config(tmp_path, tiny_raw_config(out))
    assert cli.main(["run", cfg_path]) == 0
    assert cli.main(["compare", out, out]) == 0
    assert cli.main(["compare", out, out, "--json"]) == 0
    captured = capsys.readouterr()
    assert "last10_mean_delta" in captured.out


def test_cli_gen_config(capsys):
    assert cli.main(["gen-config", "openset-sym40"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["dataset"]["n_ood_classes"] == 2


def test_cli_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2
    raw = tiny_raw_config(str(tmp_path / "x"))
    raw["method"] = "NOPE"
    assert cli.main(["run", write_config(tmp_path, raw, "m.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_divergence(tmp_path, capsys):
    out = str(tmp_path / "div")
    raw = tiny_raw_config(out, learning_rate=1e160)
    cfg_path = write_config(tmp_path, raw, "div.json")
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["run", cfg_path]) == 3
    assert "diverged" in capsys.readouterr().err
    # partial artifacts retained, with the run's record
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "checkpoint.bin"))
    manifest = json.load(open(os.path.join(out, "run_manifest.json")))
    assert manifest["seed"] == 5
    assert manifest["blas_threads"] == 1
    assert manifest["model_config"] == {"input_dim": 6, "n_classes": 3,
                                        "hidden_dims": [12], "embed_dim": 6}
