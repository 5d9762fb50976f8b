"""Experiment harness: config validation, run orchestration, selection-quality
evaluation against hidden tags, the run's files, and run comparison.

This is the only module that reads the hidden noise tags (the dataset's
TagTable); it passes the trainer only the TrainingSet. It is the one module
that touches files: it reads the config, metrics.csv and checkpoint.bin and
writes every artifact atomically; a file it cannot read, decode or write is
a ConfigError.
"""

from __future__ import annotations

import inspect
import io
import json
import math
import os
import subprocess
import sys
import tokenize
import zipfile
from dataclasses import asdict, fields

import numpy as np

from . import __version__, blas, datagen, selector
from .network import ModelConfig
from .trainer import TrainConfig, TrainerError, TrainingDiverged, fit

METRICS_COLUMNS = [
    "epoch", "train_loss", "l_cls", "l_con_s", "l_con_n", "l_con_f",
    "test_acc", "clean_precision", "clean_recall", "clean_f1",
    "ood_precision", "ood_recall", "ood_f1", "mean_tau_clean", "mean_tau_ood",
]

OUTPUT_DIR_ENV = "JOSNC_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: {key: (type, required, default)} per section
# ---------------------------------------------------------------------------

_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "tuple": list}
# JSON names of the schema's types and of the values json.load returns
_JSON_NAMES = {int: "integer", (int, float): "number", float: "number",
               bool: "boolean", str: "string", list: "array", dict: "object",
               type(None): "null"}


def _schema(callee, **rules) -> dict:
    """The keys of callee's parameters, with their types and defaults: one
    without a default is required, unless rules gives its (required,
    default)."""
    return {p.name: (_JSON_TYPES[p.annotation], *rules.get(p.name, (
        (True, None) if p.default is p.empty else (False, p.default))))
        for p in inspect.signature(callee).parameters.values()}


# The dataset keys are make_blobs's parameters plus noise, whose keys are
# NoiseSpec's fields. The train and model keys are TrainConfig's fields,
# except method, which is a top-level key; the model keys are the ones
# ModelConfig shares. _FILE_RULES gives the two keys whose config-file rule
# differs: a config must state its run's seed, and the jitter default is
# 0.1 * dataset spread, resolved in resolve_config.
_NOISE_SCHEMA = _schema(datagen.NoiseSpec)
_DATASET_SCHEMA = {**_schema(datagen.make_blobs), "noise": (dict, True, None)}
_FILE_RULES = {"seed": (True, None), "jitter_sigma": (False, None)}
_FIELD_SCHEMA = _schema(TrainConfig, **_FILE_RULES)
_MODEL_KEYS = {f.name for f in fields(ModelConfig)}
_MODEL_SCHEMA = {k: v for k, v in _FIELD_SCHEMA.items() if k in _MODEL_KEYS}
_TRAIN_SCHEMA = {k: v for k, v in _FIELD_SCHEMA.items()
                 if k not in _MODEL_KEYS | {"method"}}

_TOP_SCHEMA = {"dataset": (dict, True, None), "model": (dict, False, {}),
               "train": (dict, True, None), "method": (str, True, None),
               "output_dir": (str, True, None)}


def _validate_section(section: dict, schema: dict, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    out = {}
    for key in section:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key, (typ, required, default) in schema.items():
        if key in section:
            value = section[key]
            if isinstance(value, bool) or not isinstance(value, typ):
                # null stands for an optional key's null default
                if not (value is None and not required and default is None):
                    raise ConfigError(
                        f"{path}.{key}: expected {_JSON_NAMES[typ]}, got "
                        f"{_JSON_NAMES.get(type(value), type(value).__name__)}")
            if isinstance(value, list) and not all(type(v) is int for v in value):
                raise ConfigError(f"{path}.{key}: expected an array of "
                                  f"integers, got {json.dumps(value)}")
            # json.load reads an integer of any size, float() a bounded one
            if (typ == (int, float) and isinstance(value, int)
                    and abs(value) > sys.float_info.max):
                raise ConfigError(f"{path}.{key}: expected a number in float range")
            out[key] = value
        elif required:
            raise ConfigError(f"{path}.{key}: missing required key")
        else:   # a tuple default is the JSON array it is written and read as
            out[key] = list(default) if isinstance(default, tuple) else default
    return out


def resolve_config(raw: dict) -> dict:
    """Check a raw config dict's structure and types, not its values' ranges
    or its method, reject unknown keys, fill defaults."""
    top = _validate_section(raw, _TOP_SCHEMA, "config")
    top["dataset"] = _validate_section(top["dataset"], _DATASET_SCHEMA,
                                       "config.dataset")
    top["dataset"]["noise"] = _validate_section(
        top["dataset"]["noise"], _NOISE_SCHEMA, "config.dataset.noise")
    top["model"] = _validate_section(top["model"], _MODEL_SCHEMA, "config.model")
    top["train"] = _validate_section(top["train"], _TRAIN_SCHEMA, "config.train")
    if top["train"]["jitter_sigma"] is None:
        top["train"]["jitter_sigma"] = 0.1 * float(top["dataset"]["spread"])
    return top


def load_config(path: str) -> dict:
    """The resolved config of the JSON file at path; one that cannot be read
    or parsed raises ConfigError naming path."""
    def finite(text):
        # json.load reads NaN and Infinity, which JSON does not have, and a
        # number beyond float range, such as 1e400, as inf
        if not math.isfinite(value := float(text)):
            raise ValueError(f"{text} does not parse to a finite number")
        return value

    try:
        with open(path) as f:
            raw = json.load(f, parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return resolve_config(raw)


def build_dataset(cfg: dict) -> datagen.BlobDataset:
    """The noisy dataset of a resolved config; a value datagen rejects
    raises ConfigError naming its key, and a dataset too large for numpy to
    shape or allocate raises ConfigError naming config.dataset."""
    ds = cfg["dataset"]
    try:
        blobs = datagen.make_blobs(
            **{key: value for key, value in ds.items() if key != "noise"})
        return datagen.inject_noise(blobs, datagen.NoiseSpec(**ds["noise"]),
                                    seed=ds["seed"])
    except datagen.DataGenError as exc:
        section = "dataset.noise" if exc.key in _NOISE_SCHEMA else "dataset"
        raise ConfigError(f"config.{section}.{exc.key}: {exc.detail}") from exc
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"config.dataset: {exc}") from exc


def build_train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig of a resolved config. A value TrainConfig rejects, or
    a kappa or per_class out of bounds, raises ConfigError naming its key."""
    kappa, n_classes = cfg["train"]["kappa"], cfg["dataset"]["n_id_classes"]
    if kappa > n_classes:
        raise ConfigError(f"config.train.kappa: must be <= dataset.n_id_classes "
                          f"({n_classes}), got {kappa}")
    knn_k, per_class = cfg["train"]["knn_k"], cfg["dataset"]["per_class"]
    if per_class < knn_k + 1:
        raise ConfigError(f"config.dataset.per_class: must exceed knn_k = "
                          f"{knn_k} for K nearest neighbors, got {per_class}")
    try:
        return TrainConfig(**cfg["train"], **cfg["model"],
                           method=cfg["method"])
    except TrainerError as exc:
        raise _config_error(exc) from exc


def _config_error(exc: TrainerError) -> ConfigError:
    """The ConfigError naming the config key of a TrainConfig field."""
    section = ("" if exc.key == "method" else
               "model." if exc.key in _MODEL_SCHEMA else "train.")
    return ConfigError(f"config.{section}{exc.key}: {exc.detail}")


# ---------------------------------------------------------------------------
# selection-quality evaluation (the only tag consumer)
# ---------------------------------------------------------------------------

def _prf(predicted_pos: np.ndarray, actual_pos: np.ndarray):
    tp = int((predicted_pos & actual_pos).sum())
    fp = int((predicted_pos & ~actual_pos).sum())
    fn = int((~predicted_pos & actual_pos).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def evaluate_selection(partition_codes: np.ndarray, noise_kinds: np.ndarray) -> dict:
    """Precision / recall / F1 per noise kind: CLEAN metrics take truly clean
    samples as the positive class, OOD metrics the OOD-noisy samples."""
    codes = np.asarray(partition_codes)
    kinds = np.asarray(noise_kinds)
    cp, cr, cf = _prf(codes == selector.CLEAN, kinds == datagen.CLEAN)
    op, orc, of = _prf(codes == selector.OOD, kinds == datagen.OOD_NOISY)
    return {"clean_precision": cp, "clean_recall": cr, "clean_f1": cf,
            "ood_precision": op, "ood_recall": orc, "ood_f1": of}


# ---------------------------------------------------------------------------
# run + artifacts
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return (str(int(value)) if isinstance(value, (int, np.integer))
            else repr(float(value)))


def metrics_rows(history, noise_kinds: np.ndarray) -> list:
    return [{"epoch": rec.epoch, **rec.losses._asdict(),
             "test_acc": rec.test_acc,
             **evaluate_selection(rec.partition_codes, noise_kinds),
             "mean_tau_clean": rec.mean_tau_clean,
             "mean_tau_ood": rec.mean_tau_ood} for rec in history]


def write_metrics_csv(path: str, rows: list) -> None:
    lines = [",".join(METRICS_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in METRICS_COLUMNS) for row in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _write_json(path: str, obj: dict) -> None:
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def write_atomic(path: str, data: bytes) -> None:
    """Write data to a sibling temp file, then rename it over path: a
    reader of path sees its old contents or all of data, never a prefix."""
    tmp = path + ".tmp"
    f = open(tmp, "wb")   # when this fails, a file at tmp is not this call's
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_checkpoint(path: str, student: dict[str, np.ndarray],
                    teacher: dict[str, np.ndarray]) -> None:
    """checkpoint.bin: an uncompressed .npz archive of one little-endian f64
    member per parameter, student.<name> then teacher.<name>, each in sorted
    name order: the model's flat layout."""
    archive = io.BytesIO()
    with zipfile.ZipFile(archive, "w") as zf:
        for prefix, params in (("student", student), ("teacher", teacher)):
            for name in sorted(params):
                # a bare ZipInfo's 1980 timestamp keeps the bytes the same
                with zf.open(zipfile.ZipInfo(f"{prefix}.{name}.npy"), "w") as f:
                    np.lib.format.write_array(f, np.asarray(params[name], "<f8"))
    write_atomic(path, archive.getvalue())


def load_checkpoint(path: str):
    """Returns (student_arrays, teacher_arrays), read with the libraries
    save_checkpoint writes with. Raises ConfigError naming path, then the
    member if it was reading one: in zipfile's or numpy's words when they
    cannot read it, else when a member is compressed or not a student. or
    teacher. float64 array, or student and teacher differ in names or shapes."""
    name = ""   # the member being read
    try:
        with zipfile.ZipFile(path) as zf:
            if any(member.compress_type for member in zf.infolist()):
                raise ValueError("a member is compressed")
            arrays = {}
            for name in zf.namelist():   # ZipFile.read checks its CRC-32
                arrays[name.removesuffix(".npy")] = np.lib.format.read_array(
                    io.BytesIO(zf.read(name)), allow_pickle=False)
            name = ""
        student, teacher = ({key.removeprefix(part): arr for key, arr in
                             arrays.items() if key.startswith(part)}
                            for part in ("student.", "teacher."))
        if len(student) + len(teacher) < len(arrays) or any(
                arr.dtype != "<f8" for arr in arrays.values()):
            raise ValueError("a member is not a student. or teacher. float64 array")
        if not student or ({k: v.shape for k, v in student.items()}
                           != {k: v.shape for k, v in teacher.items()}):
            raise ValueError("student and teacher differ in parameters or shapes")
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile,
            tokenize.TokenError) as exc:
        # ZipFile.read raises a bare EOFError where a member's data ends
        # early, and a TokenError's str is its (message, position) tuple
        detail = (exc.args[0] if isinstance(exc, tokenize.TokenError)
                  else str(exc) or "its data ends early")
        raise ConfigError(f"{path}: {name and name + ': '}{detail}") from exc
    return student, teacher


def read_metrics_csv(path: str) -> tuple:
    """Returns (columns, list of row dicts with float values).

    Raises ConfigError naming path when the file cannot be read or decoded,
    and path:line when the header (first column "epoch") is missing, no
    epoch row follows it, a row's field count differs from the header's, a
    value is not a finite number (the engine never records a non-finite
    one), or an epoch is not an integer or repeats an earlier row's.
    """
    try:
        with open(path) as f:
            lines = [(n, ln) for n, ln in enumerate(f.read().splitlines(), 1)
                     if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    columns = lines[0][1].split(",") if lines else []
    if columns[:1] != ["epoch"]:
        raise ConfigError(f"{path}:1: missing header")
    if len(lines) == 1:
        raise ConfigError(f"{path}:1: no epoch rows")
    rows, lines_of = [], {}   # lines_of: epoch -> its line
    for n, ln in lines[1:]:
        vals = ln.split(",")
        if len(vals) != len(columns):
            raise ConfigError(f"{path}:{n}: {len(vals)} fields, header has "
                              f"{len(columns)}")
        try:
            row = {c: float(v) for c, v in zip(columns, vals)}
        except ValueError as exc:
            raise ConfigError(f"{path}:{n}: {exc}") from exc
        if not np.isfinite(list(row.values())).all():
            raise ConfigError(f"{path}:{n}: non-finite value")
        epoch = row["epoch"]
        if epoch != int(epoch):
            raise ConfigError(f"{path}:{n}: epoch {vals[0]} is not an integer")
        if epoch in lines_of:
            raise ConfigError(f"{path}:{n}: epoch {vals[0]} repeats line "
                              f"{lines_of[epoch]}")
        lines_of[epoch] = n
        rows.append(row)
    return columns, rows


def _git_describe() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5,
                              check=True, cwd=os.path.dirname(
                                  os.path.abspath(__file__))).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return f"josnc-{__version__}"


def run(config_path: str, output_dir_override: str = None) -> str:
    """Execute one experiment; returns the output directory.

    Writes metrics.csv and checkpoint.bin once each and removes them before
    the fit, so no earlier run's copy remains and an output it cannot write
    raises ConfigError (exit 2 upstream) before the fit. Raises
    TrainingDiverged (exit 3; partial artifacts are retained).
    """
    cfg = load_config(config_path)
    # first, so a negative spread is not reported as its jitter_sigma default
    dataset = build_dataset(cfg)
    train_config = build_train_config(cfg)
    out_dir = (output_dir_override or os.environ.get(OUTPUT_DIR_ENV)
               or cfg["output_dir"])
    n_classes = dataset.n_id_classes
    manifest = {"version": _git_describe(), "package_version": __version__,
                "seed": cfg["train"]["seed"], "method": cfg["method"],
                "dataset_seed": cfg["dataset"]["seed"],
                "model_config": asdict(train_config.model_config(
                    dataset.train.x.shape[1], n_classes)),
                "blas_threads": blas.thread_count(),
                "blas_core": blas.core_name()}
    diverged = None
    metrics, checkpoint = (os.path.join(out_dir, name)
                           for name in ("metrics.csv", "checkpoint.bin"))
    # the fit does no I/O: an OSError here is an output it cannot write
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path in (metrics, checkpoint):
            write_atomic(path, b"")
            os.remove(path)
        _write_json(os.path.join(out_dir, "config.resolved.json"), cfg)
        # written before the fit, so a diverged run keeps its record too
        _write_json(os.path.join(out_dir, "run_manifest.json"), manifest)
        try:
            result = fit(train_config, dataset.train, dataset.test_x,
                         dataset.test_y, n_classes)
        except TrainingDiverged as exc:
            result, diverged = exc.result, exc
        except TrainerError as exc:   # a queue too large to allocate
            raise _config_error(exc) from exc
        rows = metrics_rows(result.history, dataset.tags.noise_kinds)
        write_metrics_csv(metrics, rows)
        save_checkpoint(checkpoint, result.student, result.teacher)
    except OSError as exc:
        raise ConfigError(f"{out_dir}: {exc}") from exc
    if diverged is not None:
        raise diverged
    return out_dir


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def compare_runs(dir_a: str, dir_b: str) -> dict:
    """Per-metric deltas (B - A) at matching epochs plus last-10-epoch means."""
    cols_a, rows_a = read_metrics_csv(os.path.join(dir_a, "metrics.csv"))
    cols_b, rows_b = read_metrics_csv(os.path.join(dir_b, "metrics.csv"))
    if cols_a != cols_b:
        raise ConfigError("metrics schemas differ between runs")
    by_epoch_a = {int(r["epoch"]): r for r in rows_a}
    by_epoch_b = {int(r["epoch"]): r for r in rows_b}
    common = sorted(set(by_epoch_a) & set(by_epoch_b))
    metrics = [c for c in cols_a if c != "epoch"]
    deltas = {e: {m: by_epoch_b[e][m] - by_epoch_a[e][m] for m in metrics}
              for e in common}
    mean_a, mean_b = ({m: float(np.mean([r[m] for r in rows[-10:]]))
                       for m in metrics} for rows in (rows_a, rows_b))
    return {
        "run_a": dir_a, "run_b": dir_b, "epochs_compared": common,
        "per_epoch_delta": deltas,
        "last10_mean_a": mean_a, "last10_mean_b": mean_b,
        "last10_mean_delta": {m: mean_b[m] - mean_a[m] for m in metrics},
    }


def format_compare_report(report: dict) -> str:
    lines = [f"compare: {report['run_a']} vs {report['run_b']}",
             f"epochs compared: {len(report['epochs_compared'])}",
             "", "last-10-epoch means (A | B | delta):"]
    for m, d in report["last10_mean_delta"].items():
        a, b = report["last10_mean_a"][m], report["last10_mean_b"][m]
        lines.append(f"  {m:18s} {a:12.6f} | {b:12.6f} | {d:+12.6f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_BASE_DATASET = {"n_id_classes": 10, "n_ood_classes": 0, "per_class": 500,
                 "dim": 32, "spread": 1.0, "seed": 7, "test_per_class": 100}

# preset name -> (noise, dataset, train overrides). openset-sym40 is the
# acceptance gate's scenario, a desk-scale adaptation frozen after the first
# paired runs: overlapping classes so the plain baseline degrades under the
# 52% overall noise, sharp smoothed targets so the divergence score separates
# clean from noisy, strong augmentation so the consistency terms carry real
# signal, and a rescaled contrastive weight / temperature for the tiny model.
PRESETS = {
    "sym20": ({"kind": "symmetric", "rate_id": 0.2}, _BASE_DATASET, {}),
    "sym50": ({"kind": "symmetric", "rate_id": 0.5}, _BASE_DATASET, {}),
    "sym80": ({"kind": "symmetric", "rate_id": 0.8}, _BASE_DATASET, {}),
    "asym40": ({"kind": "asymmetric", "rate_id": 0.4}, _BASE_DATASET, {}),
    "openset-sym40": ({"kind": "symmetric", "rate_id": 0.4},
                      {**_BASE_DATASET, "n_id_classes": 8, "n_ood_classes": 2,
                       "spread": 2.0},
                      {"epsilon": 0.1, "gamma": 0.01, "t_ssl": 0.5,
                       "jitter_sigma": 0.5, "mask_rate": 0.2}),
}


def gen_config(preset: str) -> dict:
    """A ready-to-run config of one of the PRESETS."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    noise, dataset, train = PRESETS[preset]
    return {
        "dataset": {**dataset, "noise": {**noise}},
        "model": _validate_section({}, _MODEL_SCHEMA, "config.model"),
        "train": {"seed": 7, **train},
        "method": "JOSNC",
        "output_dir": f"runs/{preset}",
    }
