import dataclasses
import json
import os
import pickle
import re
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from josnc import cli, harness
from josnc.datagen import CLEAN as KIND_CLEAN
from josnc.datagen import ID_NOISY, OOD_NOISY, TagTable, TrainingSet
from josnc.harness import (METRICS_COLUMNS, OUTPUT_DIR_ENV, PRESETS,
                           ConfigError, build_dataset, build_train_config,
                           compare_runs, evaluate_selection,
                           format_compare_report, gen_config, load_checkpoint,
                           load_config, metrics_rows, read_metrics_csv,
                           resolve_config, run, save_checkpoint,
                           write_metrics_csv)
from josnc.network import Model, ModelConfig
from josnc.objective import LossBreakdown
from josnc.selector import CLEAN, ID, OOD
from josnc.trainer import METHODS, TrainConfig, TrainingDiverged, fit


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
    # jitter default derives from dataset spread
    assert cfg["train"]["jitter_sigma"] == pytest.approx(0.05)


def test_null_jitter_resolves_to_spread_default():
    # jitter_sigma is the one optional key whose default is null
    raw = tiny_raw_config("out", jitter_sigma=None)
    assert resolve_config(raw)["train"]["jitter_sigma"] == 0.1 * 0.5


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


@pytest.mark.parametrize("section, key, value, message", [
    ("train", "epochs", "sixty", "expected integer, got string"),
    ("train", "learning_rate", "fast", "expected number, got string"),
    ("train", "learning_rate", None, "expected number, got null"),
    ("model", "hidden_dims", 64, "expected array, got integer"),
    ("model", "hidden_dims", [64, 1.5], "expected an array of integers, "
                                        "got [64, 1.5]"),
    ("dataset", "per_class", True, "expected integer, got boolean"),
    ("dataset", "noise", [], "expected object, got array"),
])
def test_wrong_type_message_names_json_types(section, key, value, message):
    raw = tiny_raw_config("out")
    raw[section][key] = value
    with pytest.raises(ConfigError) as exc:
        resolve_config(raw)
    assert str(exc.value) == f"config.{section}.{key}: {message}"


def test_unknown_method_rejected(tmp_path, capsys):
    # TrainConfig alone owns the method rule; its key is the top-level one
    raw = tiny_raw_config(str(tmp_path / "out"))
    raw["method"] = "MAGIC"
    cfg = resolve_config(raw)   # its structure and types are sound
    with pytest.raises(ConfigError, match=r"config\.method"):
        build_train_config(cfg)
    assert cli.main(["run", write_config(tmp_path, raw)]) == 2
    assert (f"config error: config.method: must be one of {sorted(METHODS)}, "
            f"got 'MAGIC'") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_write_atomic_keeps_its_own_error(tmp_path):
    # a directory at the temp name is not the write's to remove: its open
    # fails, and that failure is the only error raised
    (tmp_path / "x.tmp").mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        harness.write_atomic(str(tmp_path / "x"), b"")
    assert exc.value.__context__ is None
    assert (tmp_path / "x.tmp").is_dir()
    assert not (tmp_path / "x").exists()


def test_metrics_header_fixed():
    assert len(METRICS_COLUMNS) == 15
    assert METRICS_COLUMNS[0] == "epoch"
    assert METRICS_COLUMNS[-2:] == ["mean_tau_clean", "mean_tau_ood"]
    # an epoch's losses are written as LossBreakdown holds them
    assert list(LossBreakdown._fields) == METRICS_COLUMNS[1:6]


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
    hidden = (tags.true_labels, tags.noise_kinds)
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


def test_integer_float_keys_give_the_bytes_of_floats(tmp_path):
    # a train value reaches TrainConfig as written: an integer in a float
    # key gives the bits of the same value written as a float
    ints = {"momentum": 0, "t_pll_out": 1, "ema_omega": 1, "alpha": 1,
            "t_ssl": 1}
    outputs = []
    for name, values in (("int", ints),
                         ("float", {k: float(v) for k, v in ints.items()})):
        out = tmp_path / name
        cfg_path = write_config(tmp_path, tiny_raw_config(str(out), **values),
                                f"{name}.json")
        train_config = build_train_config(load_config(cfg_path))
        assert {type(getattr(train_config, k)) for k in ints} == {
            type(v) for v in values.values()}
        run(cfg_path)
        outputs.append([(out / f).read_bytes()
                        for f in ("metrics.csv", "checkpoint.bin")])
    assert outputs[0] == outputs[1]


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
    # the engine never records a non-finite value
    ("epoch,train_loss\n1,0.5\n2,nan\n3,inf\n", ":3: non-finite value"),
    # epochs are whole numbers, one row each
    ("epoch,train_loss\n1,0.5\n2.7,0.4\n", ":3: epoch 2.7 is not an integer"),
    ("epoch,train_loss\n1,0.5\n1,0.4\n2.7,0.3\n",
     ":3: epoch 1 repeats line 2"),
    ("epoch,train_loss\n1,0.5\n2,0.4\n\n2.0,0.3\n",
     ":5: epoch 2.0 repeats line 3"),
], ids=["empty", "cut-at-field", "cut-in-field", "header-only", "non-finite",
        "fractional-epoch", "repeated-epoch", "repeated-epoch-spelled-apart"])
def test_cli_compare_rejects_corrupt_metrics(tmp_path, capsys, text, where):
    out = str(tmp_path / "one")
    run(write_config(tmp_path, tiny_raw_config(out)))
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "metrics.csv").write_text(text)
    assert cli.main(["compare", out, str(bad)]) == 2
    assert os.path.join(str(bad), "metrics.csv") + where in capsys.readouterr().err


@pytest.mark.parametrize("command, name, data", [
    ("run", "config.json", b'{"method": "\xff"}'),
    ("compare", "metrics.csv", b"epoch,train_loss\n1,0.5\xff\n"),
], ids=["config", "metrics"])
def test_cli_rejects_undecodable_files(tmp_path, capsys, command, name, data):
    # a byte that is not UTF-8 is a file the run cannot read, not a crash
    path = tmp_path / name
    path.write_bytes(data)
    argv = (["run", str(path)] if command == "run"
            else ["compare", str(tmp_path), str(tmp_path)])
    assert cli.main(argv) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


# presets + cli ------------------------------------------------------------------------

def test_gen_config_presets_resolve():
    for preset in PRESETS:
        assert resolve_config(gen_config(preset))["method"] == "JOSNC"
    open_set = gen_config("openset-sym40")
    assert open_set["dataset"]["n_id_classes"] == 8
    assert open_set["dataset"]["n_ood_classes"] == 2
    assert open_set["dataset"]["noise"]["rate_id"] == 0.4
    # the acceptance gate's scenario settings (criteria 6 and 9)
    assert open_set["dataset"]["spread"] == 2.0
    assert open_set["train"] == {"seed": 7, "epsilon": 0.1, "gamma": 0.01,
                                 "t_ssl": 0.5, "jitter_sigma": 0.5,
                                 "mask_rate": 0.2}
    # the other presets keep TrainConfig's defaults
    assert all(gen_config(preset)["train"] == {"seed": 7}
               for preset in PRESETS if preset != "openset-sym40")
    with pytest.raises(ConfigError):
        gen_config("sym99")


def test_build_dataset_holds_each_split_once():
    # make_blobs writes each split's points into one array, so building the
    # gate's dataset peaks below two copies of its train and test points
    cfg = resolve_config(gen_config("openset-sym40"))
    tracemalloc.start()
    try:
        ds = harness.build_dataset(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * (ds.train.x.nbytes + ds.test_x.nbytes)


def test_methods_table_complete():
    assert set(METHODS) == {"JOSNC", "STANDARD", "SELECT_ONLY", "SCON",
                            "SCON_NCON"}
    assert METHODS["JOSNC"] == (True, True, True, True)
    assert METHODS["STANDARD"] == (False, False, False, False)
    # the top-level method key is TrainConfig's one switch
    for method in METHODS:
        cfg = resolve_config({**tiny_raw_config("out"), "method": method})
        assert build_train_config(cfg).method == method


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
    # an output directory that cannot be created: a regular file's child
    good = write_config(tmp_path, tiny_raw_config(str(tmp_path / "y")))
    blocked = str(tmp_path / "bad.json" / "sub")
    assert cli.main(["run", good, "--output-dir", blocked]) == 2
    assert f"config error: {blocked}: " in capsys.readouterr().err
    # a temperature whose reciprocal overflows (1.0 / 1e-320 is inf)
    for key in ("t_ssl", "t_pll_in", "t_pll_out"):
        out = tmp_path / key
        raw = tiny_raw_config(str(out), **{key: 1e-320})
        assert cli.main(["run", write_config(tmp_path, raw, "t.json")]) == 2
        assert f"config error: config.train.{key}: " in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("artifact", ["config.resolved.json", "metrics.csv",
                                      "checkpoint.bin", "metrics.csv.tmp",
                                      "checkpoint.bin.tmp"])
def test_cli_unwritable_artifact_exits_2(tmp_path, capsys, monkeypatch,
                                         artifact):
    # a directory where the artifact goes, or where its atomic write's temp
    # file goes: os.replace cannot rename over it, open cannot open it, and
    # the run fails before its fit
    fits = []
    monkeypatch.setattr(harness, "fit",
                        lambda *args: fits.append(args) or fit(*args))
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    cfg_path = write_config(tmp_path, tiny_raw_config(str(out)))
    assert cli.main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {out}: " in err and artifact in err
    assert not (out / (artifact + ".tmp")).exists()
    assert fits == []


def test_earlier_outputs_are_gone_when_the_fit_starts(tmp_path, monkeypatch):
    # a stale metrics.csv or checkpoint.bin never sits beside the new
    # config.resolved.json, not even while the fit runs
    present = []

    def fit_after_check(*args):
        present.extend(name for name in ("metrics.csv", "checkpoint.bin")
                       if (out / name).exists())
        return fit(*args)

    monkeypatch.setattr(harness, "fit", fit_after_check)
    out = tmp_path / "out"
    out.mkdir()
    for name in ("metrics.csv", "checkpoint.bin"):
        (out / name).write_bytes(b"stale")
    run(write_config(tmp_path, tiny_raw_config(str(out))))
    assert present == []
    for name in ("metrics.csv", "checkpoint.bin"):
        assert (out / name).read_bytes() != b"stale"


@pytest.mark.parametrize("section, key, value", [
    ("train", "warmup_epochs", 5),     # with epochs 3 below
    ("train", "epsilon", 1.5),
    ("train", "optimizer", "rmsprop"),
    ("train", "knn_k", 0),
    ("train", "knn_k", -1),
    ("train", "queue_capacity", 0),
    ("model", "hidden_dims", [0]),
    ("model", "embed_dim", 0),
    ("train", "kappa", 0),
    ("train", "kappa", 4),             # the dataset has 3 known classes
    ("model", "hidden_dims", ["x"]),
    ("model", "hidden_dims", [1.5]),
    ("model", "hidden_dims", [True]),
    ("dataset", "per_class", 0),
    ("dataset", "per_class", 5),       # below knn_k + 1
    ("dataset", "test_per_class", 0),
    ("dataset", "dim", 0),
    ("dataset", "spread", -1.0),
    ("dataset", "n_ood_classes", -1),
    ("dataset.noise", "rate_id", 1.5),
    ("dataset.noise", "kind", "bogus"),
    ("train", "seed", -1),
    ("dataset", "seed", -1),
    ("train", "alpha", -5.0),
    ("train", "beta", -0.1),
    ("train", "gamma", -1.0),
    ("train", "jitter_sigma", -0.1),
    # 1 / 1e-39 is finite in float64 but not in the InfoNCE's float32
    ("train", "t_ssl", 1e-39),
    # null is no value for a required key ("" is the top level)
    ("train", "seed", None),
    ("dataset", "seed", None),
    ("dataset", "n_id_classes", None),
    ("dataset", "per_class", None),
    ("dataset", "spread", None),
    ("dataset.noise", "rate_id", None),
    ("", "output_dir", None),
    ("train", "queue_capacity", 4),    # below knn_k = 5
])
def test_cli_rejects_out_of_range_values(tmp_path, capsys, section, key,
                                         value):
    out = tmp_path / "out"
    raw = tiny_raw_config(str(out), epochs=3)
    node = raw
    for part in filter(None, section.split(".")):
        node = node[part]
    node[key] = value
    assert cli.main(["run", write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    path = ".".join(filter(None, ("config", section, key)))
    assert f"config error: {path}: " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("alpha", float("nan")), ("learning_rate", float("inf")),
    ("jitter_sigma", float("-inf")), ("jitter_sigma", float("nan"))])
def test_cli_rejects_non_finite_json_constants(tmp_path, capsys, key, value):
    # json.dumps writes NaN, Infinity and -Infinity, which are not JSON
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path,
                            tiny_raw_config(str(out), **{key: value}))
    assert json.dumps(value) in open(cfg_path).read()
    assert cli.main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {cfg_path}: {json.dumps(value)} " in err
    assert not out.exists()


def config_text_with(tmp_path, old, new):
    """The tiny config's JSON text with one fragment replaced."""
    text = json.dumps(tiny_raw_config(str(tmp_path / "out")))
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("make_text, message", [
    # json reads 1e400 as inf, which passes every range check
    (lambda tmp_path: config_text_with(tmp_path, '"spread": 0.5',
                                       '"spread": 1e400'),
     "1e400 does not parse to a finite number"),
    # deeper than the parser's recursion limit
    (lambda tmp_path: "[" * 200_000, "maximum recursion depth exceeded"),
    # longer than Python's limit on integer digits
    (lambda tmp_path: config_text_with(tmp_path, '"seed": 5',
                                       '"seed": ' + "9" * 5000),
     "integer string conversion"),
], ids=["number-beyond-float-range", "deep-nesting", "5000-digit-integer"])
def test_cli_rejects_unparsable_config_text(tmp_path, capsys, make_text,
                                            message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(make_text(tmp_path))
    with pytest.raises(ConfigError, match=f"^{cfg_path}: .*{message}"):
        load_config(str(cfg_path))
    assert cli.main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("dataset", "spread", 10 ** 400),
    ("dataset.noise", "rate_id", -10 ** 400),
    ("train", "learning_rate", 10 ** 400),
], ids=["dataset", "dataset.noise", "train"])
def test_cli_rejects_an_integer_beyond_float_range(tmp_path, capsys, section,
                                                   key, value):
    # json.load reads an integer of any size into a number key; one that
    # float() cannot hold is that key's config error, not an OverflowError
    out = tmp_path / "out"
    raw = tiny_raw_config(str(out))
    node = raw
    for part in section.split("."):
        node = node[part]
    node[key] = value
    message = f"config.{section}.{key}: expected a number in float range"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        resolve_config(raw)
    assert cli.main(["run", write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("dim", 10 ** 30, "Maximum allowed dimension exceeded"),
    ("per_class", 10 ** 30, "Maximum allowed dimension exceeded"),
    # each axis fits numpy's index range, their 4 * 2**62 elements do not
    ("dim", 2 ** 62, "array is too big"),
], ids=["dim", "per_class", "dim-by-classes"])
def test_cli_rejects_a_dataset_too_large_for_numpy(tmp_path, capsys, key,
                                                   value, message):
    # numpy refuses each shape before it allocates: at least 2**63 elements
    out = tmp_path / "out"
    raw = tiny_raw_config(str(out))
    raw["dataset"][key] = value
    with pytest.raises(ConfigError,
                       match=f"^config\\.dataset: {re.escape(message)}"):
        build_dataset(resolve_config(raw))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.dataset: {message}")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_rejects_a_queue_too_large_for_numpy(tmp_path, capsys):
    # numpy refuses a 10**12-key queue (233 TiB) before it touches memory;
    # fit's TrainerError names the key as build_train_config's errors do
    raw = tiny_raw_config(str(tmp_path / "out"), queue_capacity=10**12)
    assert cli.main(["run", write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.train.queue_capacity: "
                          "Unable to allocate ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["[]", '"config"'], ids=["array", "string"])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys, text):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    with pytest.raises(ConfigError, match="^config: expected an object$"):
        load_config(str(cfg_path))
    assert cli.main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config: expected an object\n"
    assert os.listdir(tmp_path) == ["config.json"]


def _other_valid_value(value):
    """A valid value that differs from a resolved tiny-config value."""
    if isinstance(value, list):
        return [v + 1 for v in value]
    return value + 1 if isinstance(value, int) else value / 2


@pytest.mark.parametrize("key", [
    f.name for f in dataclasses.fields(TrainConfig) if f.name != "method"])
def test_every_train_config_field_is_a_config_key(key):
    section = "model" if key in harness._MODEL_SCHEMA else "train"
    base = resolve_config(tiny_raw_config("out"))
    value = _other_valid_value(base[section][key])
    raw = tiny_raw_config("out")
    raw[section][key] = value
    expected = tuple(value) if isinstance(value, list) else value
    assert getattr(build_train_config(base), key) != expected
    assert getattr(build_train_config(resolve_config(raw)), key) == expected


def check_divergence_exit(tmp_path, capsys, **overrides):
    out = str(tmp_path / "div")
    raw = tiny_raw_config(out, **overrides)
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


def test_diverged_run_writes_the_partial_fit_result(tmp_path, monkeypatch):
    # the first robust step's InfoNCE overflows (as in the "infonce" case
    # below), so the run diverges with its one warmup epoch recorded
    def fit_overflowing(config, *args, **kwargs):
        config.t_ssl = 1e-320
        return fit(config, *args, **kwargs)

    monkeypatch.setattr(harness, "fit", fit_overflowing)
    out = tmp_path / "div"
    raw = tiny_raw_config(str(out))
    with pytest.raises(TrainingDiverged) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            run(write_config(tmp_path, raw))
    result = exc.value.result
    assert [r.epoch for r in result.history] == [1]
    noise_kinds = build_dataset(resolve_config(raw)).tags.noise_kinds
    expected = tmp_path / "expected"
    expected.mkdir()
    write_metrics_csv(str(expected / "metrics.csv"),
                      metrics_rows(result.history, noise_kinds))
    save_checkpoint(str(expected / "checkpoint.bin"), result.student,
                    result.teacher)
    for name in ("metrics.csv", "checkpoint.bin"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()


def test_cli_exit_code_divergence(tmp_path, capsys):
    check_divergence_exit(tmp_path, capsys, learning_rate=1e160)


@pytest.mark.parametrize("overrides, assigned", [
    # one batch per epoch: the first update's overflow reaches the
    # evaluation before any next step
    ({"learning_rate": 1e160, "batch_size": 128}, {}),
    # 1 / t_ssl is inf: the first robust step's InfoNCE logits overflow.
    # The config check rejects such a t_ssl, so it is assigned to the
    # validated TrainConfig, which skips that check.
    ({}, {"t_ssl": 1e-320}),
], ids=["evaluation", "infonce"])
def test_cli_exit_code_divergence_elsewhere(tmp_path, capsys, monkeypatch,
                                            overrides, assigned):
    def fit_assigned(config, *args, **kwargs):
        for key, value in assigned.items():
            setattr(config, key, value)
        return fit(config, *args, **kwargs)

    monkeypatch.setattr(harness, "fit", fit_assigned)
    check_divergence_exit(tmp_path, capsys, **overrides)


# checkpoint.bin -----------------------------------------------------------------

def write_npz(path, members, compress=False):
    """An .npz archive at path of {name: array, or bytes for a non-.npy
    member}."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED if compress
                         else zipfile.ZIP_STORED) as zf:
        for name, value in members.items():
            if isinstance(value, bytes):
                zf.writestr(name, value)
            else:
                with zf.open(name + ".npy", "w") as f:
                    np.lib.format.write_array(f, value)


def write_bytes(path, data):
    with open(path, "wb") as f:
        f.write(data)


def write_npy(path, array):
    with open(path, "wb") as f:
        np.save(f, array)


def flip_bit_0(path, where):
    """Flip bit 0 of the byte at where(data) of the file at path."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[where(data)] ^= 0x01
    write_bytes(path, data)


def claim_more_data(path):
    """Make the central directory record of the last member of the archive
    at path claim 1 MiB of data, more than the file holds after it."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    # the compressed and uncompressed sizes sit 20 bytes into the record
    struct.pack_into("<II", data, data.rfind(b"PK\x01\x02") + 20, 1 << 20,
                     1 << 20)
    write_bytes(path, data)


def npy_with_header(header: str) -> bytes:
    """A version 1.0 .npy file of header, padded, and 48 zero bytes."""
    text = header.encode() + b" " * (-(len(header) + 11) % 64) + b"\n"
    return (b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text
            + bytes(48))


W = np.arange(6.0).reshape(2, 3)
MEMBER = "a member is not a student. or teacher. float64 array"
PAIRS = "student and teacher differ in parameters or shapes"


@pytest.mark.parametrize("make, message", [
    (lambda p: None, "No such file or directory: '{path}'"),
    (lambda p: write_bytes(p, b""), "File is not a zip file"),
    (lambda p: write_bytes(p, b"not a checkpoint\n"),
     "File is not a zip file"),
    (lambda p: write_bytes(p, pickle.dumps({"student.w": W})),
     "File is not a zip file"),
    (lambda p: write_npy(p, W), "File is not a zip file"),
    (lambda p: (save_checkpoint(p, {"w": W}, {"w": W}),
                os.truncate(p, os.path.getsize(p) // 2)), "not a zip file"),
    # the last member's last byte sits just before the central directory,
    # whose first entry's general-purpose flags start 8 bytes in
    (lambda p: (save_checkpoint(p, {"w": W}, {"w": W}), flip_bit_0(
        p, lambda data: data.find(b"PK\x01\x02") - 1)),
     "teacher.w.npy: Bad CRC-32 for file 'teacher.w.npy'"),
    (lambda p: (save_checkpoint(p, {"w": W}, {"w": W}), flip_bit_0(
        p, lambda data: data.find(b"PK\x01\x02") + 8)),
     "student.w.npy: File 'student.w.npy' is encrypted, password required "
     "for extraction"),
    # a header cut inside its shape tuple, under a valid CRC-32
    (lambda p: write_npz(p, {name: npy_with_header(
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3")
        for name in ("student.w.npy", "teacher.w.npy")}),
     "student.w.npy: EOF in multi-line statement"),
    (lambda p: write_npz(p, {"student.w": W, "teacher.w": W}, compress=True),
     "a member is compressed"),
    (lambda p: write_npz(p, {"student.w": W, "teacher.w": W.astype("f4")}),
     MEMBER),
    (lambda p: write_npz(p, {"student.w": W, "teacher.w": W, "extra.w": W}),
     MEMBER),
    # a member that is not a .npy file, in numpy's words after its name
    (lambda p: write_npz(p, {"student.w": W, "teacher.w": W,
                             "student.notes": b"hello"}),
     "student.notes: EOF: reading magic string, expected 8 bytes got 5"),
    # zipfile raises a bare EOFError where a member's data ends early
    (lambda p: (save_checkpoint(p, {"w": W}, {"w": W}), claim_more_data(p)),
     "teacher.w.npy: its data ends early"),
    (lambda p: write_npz(p, {"student.w": W, "teacher.w": W.T.copy()}), PAIRS),
    (lambda p: write_npz(p, {"student.w": W, "teacher.v": W}), PAIRS),
    (lambda p: write_npz(p, {"student.w": W}), PAIRS),
    (lambda p: write_npz(p, {}), PAIRS),
], ids=["missing", "empty", "text", "pickle", "npy", "truncated", "bad-crc",
        "encrypted-flag", "bad-npy-header", "compressed", "float32",
        "foreign-member", "bytes-member", "ends-early", "shape-mismatch",
        "name-mismatch", "student-only", "no-members"])
def test_load_checkpoint_rejects_a_damaged_or_foreign_file(tmp_path, make,
                                                           message):
    # each message is the error's whole text after the path and any prefix
    # of the library's own, such as "[Errno 2] "
    path = str(tmp_path / "checkpoint.bin")
    make(path)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: .*"
                                          f"{re.escape(message.format(path=path))}$"):
        load_checkpoint(path)


# every reader fails typed on a damaged copy of a valid file --------------------

def tiny_checkpoint():
    """(student, teacher) arrays of a tiny model."""
    rng = np.random.default_rng(3)
    model = Model(ModelConfig(input_dim=6, n_classes=3, hidden_dims=(12,),
                              embed_dim=6), rng)
    student = model.snapshot()
    return student, {k: v + rng.normal(size=v.shape)
                     for k, v in student.items()}


def damaged_copies(data: bytes):
    """Truncated, bit-flipped and spliced copies of data."""
    n = len(data)

    def flip(bits):
        out = bytearray(data)
        for bit in bits:
            out[bit // 8] ^= 1 << bit % 8
        return bytes(out)

    return st.one_of(
        st.integers(0, n - 1).map(lambda i: data[:i]),
        st.lists(st.integers(0, 8 * n - 1), min_size=1, max_size=8).map(flip),
        # a segment cut out (j > i) or repeated (j < i)
        st.tuples(st.integers(0, n), st.integers(0, n)).map(
            lambda ij: data[:ij[0]] + data[ij[1]:]))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "file")


def read_damaged(path, write_valid, reader, data):
    """reader(path) of a damaged copy, drawn from data, of the file that
    write_valid(path) writes, or None if it raised ConfigError; any other
    exception fails the test."""
    write_valid(path)
    with open(path, "rb") as f:
        write_bytes(path, data.draw(damaged_copies(f.read())))
    try:
        return reader(path)
    except ConfigError:
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_config_fails_typed_on_a_damaged_copy(fuzz_path, data):
    read_damaged(fuzz_path, lambda path: harness._write_json(
        path, tiny_raw_config("out")), load_config, data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_metrics_csv_fails_typed_on_a_damaged_copy(fuzz_path, data):
    rows = [{c: epoch if c == "epoch" else (epoch + i) / 7.0
             for i, c in enumerate(METRICS_COLUMNS)} for epoch in (1, 2, 3)]
    read_damaged(fuzz_path, lambda path: write_metrics_csv(path, rows),
                 read_metrics_csv, data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_checkpoint_fails_typed_on_a_damaged_copy(fuzz_path, data):
    # the CRC-32 of each member covers its .npy header and array; a copy
    # whose damage it does not see loads the original arrays
    original = tiny_checkpoint()
    loaded = read_damaged(fuzz_path, lambda path: save_checkpoint(
        path, *original), load_checkpoint, data)
    if loaded is not None:
        for arrays, saved in zip(loaded, original):
            assert list(arrays) == list(saved) and all(
                arrays[k].dtype == "<f8" and arrays[k].shape == saved[k].shape
                and arrays[k].tobytes() == saved[k].tobytes() for k in saved)


# config.resolved.json loads back ------------------------------------------------

def check_resolved_config_loads_back(path, raw):
    """config.resolved.json of the config raw, as a run writes it at path,
    loads back to the resolved dict, each value as the same JSON type."""
    with open(path, "w") as f:
        json.dump(raw, f)
    cfg = load_config(path)
    harness._write_json(path, cfg)
    loaded = load_config(path)
    assert loaded == cfg and repr(loaded) == repr(cfg)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_resolved_config_of_a_preset_loads_back(tmp_path, preset):
    check_resolved_config_loads_back(str(tmp_path / "config.json"),
                                     gen_config(preset))


_JSON_VALUES = {int: st.integers(-2 ** 63, 2 ** 63),
                (int, float): st.integers(-2 ** 63, 2 ** 63)
                | st.floats(allow_nan=False, allow_infinity=False),
                str: st.text(), list: st.lists(st.integers(-2 ** 63, 2 ** 63))}


def valid_sections(schema, **nested):
    """Sections of schema: every required key and some optional ones, each
    with a value of its type, or null for an optional null default; nested
    gives the strategy of an object-valued key."""
    required, optional = {}, {}
    for key, (typ, is_required, default) in schema.items():
        drawn = nested[key] if typ is dict else _JSON_VALUES[typ]
        if is_required:
            required[key] = drawn
        else:
            optional[key] = drawn | st.none() if default is None else drawn
    return st.fixed_dictionaries(required, optional=optional)


@settings(max_examples=100, deadline=None)
@given(raw=valid_sections(
    harness._TOP_SCHEMA,
    dataset=valid_sections(harness._DATASET_SCHEMA,
                           noise=valid_sections(harness._NOISE_SCHEMA)),
    model=valid_sections(harness._MODEL_SCHEMA),
    train=valid_sections(harness._TRAIN_SCHEMA)))
def test_resolved_config_of_a_drawn_config_loads_back(fuzz_path, raw):
    check_resolved_config_loads_back(fuzz_path, raw)
