"""Experiment harness: config validation, run orchestration, selection-quality
evaluation against hidden tags, metrics CSV, and run comparison.

This is the only module that reads the hidden noise tags (the dataset's
TagTable); it passes the trainer only the TrainingSet. Every artifact file is
written atomically.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import asdict

import numpy as np

from . import __version__, blas, datagen, selector
from .network import save_checkpoint, write_atomic
from .trainer import TrainConfig, TrainingDiverged, fit

METRICS_COLUMNS = [
    "epoch", "train_loss", "l_cls", "l_con_s", "l_con_n", "l_con_f",
    "test_acc", "clean_precision", "clean_recall", "clean_f1",
    "ood_precision", "ood_recall", "ood_f1", "mean_tau_clean", "mean_tau_ood",
]

METHODS = {
    # method -> (use_selection, use_scon, use_ncon, use_fcon)
    "JOSNC": (True, True, True, True),
    "STANDARD": (False, False, False, False),
    "SELECT_ONLY": (True, False, False, False),
    "SCON": (True, True, False, False),
    "SCON_NCON": (True, True, True, False),
}

OUTPUT_DIR_ENV = "JOSNC_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: {key: (type, required, default)} per section
# ---------------------------------------------------------------------------

_NOISE_SCHEMA = {
    "kind": (str, True, None),
    "rate_id": ((int, float), True, None),
}

_DATASET_SCHEMA = {
    "n_id_classes": (int, True, None),
    "n_ood_classes": (int, True, None),
    "per_class": (int, True, None),
    "dim": (int, True, None),
    "spread": ((int, float), True, None),
    "seed": (int, True, None),
    "test_per_class": (int, False, 100),
    "noise": (dict, True, None),
}

_MODEL_SCHEMA = {
    "hidden_dims": (list, False, [64, 64]),
    "embed_dim": (int, False, 32),
}

_TRAIN_SCHEMA = {
    "seed": (int, True, None),
    "epochs": (int, False, 60),
    "warmup_epochs": (int, False, 5),
    "batch_size": (int, False, 128),
    "learning_rate": ((int, float), False, 0.05),
    "momentum": ((int, float), False, 0.9),
    "optimizer": (str, False, "sgd"),
    "epsilon": ((int, float), False, 0.6),
    "kappa": (int, False, 5),
    "knn_k": (int, False, 10),
    "alpha": ((int, float), False, 0.3),
    "beta": ((int, float), False, 0.1),
    "gamma": ((int, float), False, 0.0001),
    "ema_omega": ((int, float), False, 0.99),
    "tau_omega_warmup": ((int, float), False, 0.75),
    "tau_omega_main": ((int, float), False, 0.975),
    "t_pll_in": ((int, float), False, 0.1),
    "t_pll_out": ((int, float), False, 1.0),
    "t_ssl": ((int, float), False, 0.1),
    "queue_capacity": (int, False, 4096),
    # default jitter is 0.1 * dataset spread, resolved at run time
    "jitter_sigma": ((int, float), False, None),
    "mask_rate": ((int, float), False, 0.1),
}

_TOP_SCHEMA = {
    "dataset": (dict, True, None),
    "model": (dict, False, {}),
    "train": (dict, True, None),
    "method": (str, True, None),
    "output_dir": (str, True, None),
    "checkpoint_every": (int, False, 0),   # 0: final checkpoint only
}


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
                if not (value is None and default is None):
                    raise ConfigError(
                        f"{path}.{key}: expected {typ}, got {type(value).__name__}")
            out[key] = value
        elif required:
            raise ConfigError(f"{path}.{key}: missing required key")
        else:
            out[key] = default
    return out


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict, reject unknown keys, fill defaults."""
    top = _validate_section(raw, _TOP_SCHEMA, "config")
    top["dataset"] = _validate_section(top["dataset"], _DATASET_SCHEMA,
                                       "config.dataset")
    top["dataset"]["noise"] = _validate_section(
        top["dataset"]["noise"], _NOISE_SCHEMA, "config.dataset.noise")
    top["model"] = _validate_section(top["model"], _MODEL_SCHEMA, "config.model")
    top["train"] = _validate_section(top["train"], _TRAIN_SCHEMA, "config.train")
    if top["method"] not in METHODS:
        raise ConfigError(
            f"config.method: must be one of {sorted(METHODS)}, got {top['method']!r}")
    if top["train"]["jitter_sigma"] is None:
        top["train"]["jitter_sigma"] = 0.1 * float(top["dataset"]["spread"])
    return top


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return resolve_config(raw)


def build_dataset(cfg: dict) -> datagen.BlobDataset:
    ds = cfg["dataset"]
    blobs = datagen.make_blobs(
        n_id_classes=ds["n_id_classes"], n_ood_classes=ds["n_ood_classes"],
        per_class=ds["per_class"], dim=ds["dim"], spread=float(ds["spread"]),
        seed=ds["seed"], test_per_class=ds["test_per_class"],
        knn_k=cfg["train"]["knn_k"])
    spec = datagen.NoiseSpec(kind=ds["noise"]["kind"],
                             rate_id=float(ds["noise"]["rate_id"]),
                             ood_class_count=ds["n_ood_classes"])
    return datagen.inject_noise(blobs, spec, seed=ds["seed"])


def build_train_config(cfg: dict) -> TrainConfig:
    use_sel, use_s, use_n, use_f = METHODS[cfg["method"]]
    t = cfg["train"]
    return TrainConfig(
        epochs=t["epochs"], warmup_epochs=t["warmup_epochs"],
        batch_size=t["batch_size"], learning_rate=float(t["learning_rate"]),
        momentum=float(t["momentum"]), optimizer=t["optimizer"],
        epsilon=float(t["epsilon"]), kappa=t["kappa"], knn_k=t["knn_k"],
        alpha=float(t["alpha"]), beta=float(t["beta"]), gamma=float(t["gamma"]),
        ema_omega=float(t["ema_omega"]),
        tau_omega_warmup=float(t["tau_omega_warmup"]),
        tau_omega_main=float(t["tau_omega_main"]),
        t_pll_in=float(t["t_pll_in"]), t_pll_out=float(t["t_pll_out"]),
        t_ssl=float(t["t_ssl"]), queue_capacity=t["queue_capacity"],
        hidden_dims=tuple(cfg["model"]["hidden_dims"]),
        embed_dim=cfg["model"]["embed_dim"],
        jitter_sigma=float(t["jitter_sigma"]), mask_rate=float(t["mask_rate"]),
        seed=t["seed"], use_selection=use_sel, use_scon=use_s,
        use_ncon=use_n, use_fcon=use_f)


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
    """Precision / recall / F1 per noise kind.

    CLEAN metrics treat truly clean samples as the positive class; OOD metrics
    treat OOD-noisy samples as the positive class.
    """
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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def metrics_rows(history, noise_kinds: np.ndarray) -> list:
    rows = []
    for rec in history:
        sel = evaluate_selection(rec.partition_codes, noise_kinds)
        rows.append({
            "epoch": rec.epoch, "train_loss": rec.total, "l_cls": rec.l_cls,
            "l_con_s": rec.l_con_s, "l_con_n": rec.l_con_n,
            "l_con_f": rec.l_con_f, "test_acc": rec.test_acc,
            **sel,
            "mean_tau_clean": rec.mean_tau_clean,
            "mean_tau_ood": rec.mean_tau_ood,
        })
    return rows


def write_metrics_csv(path: str, rows: list) -> None:
    lines = [",".join(METRICS_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in METRICS_COLUMNS) for row in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _write_json(path: str, obj: dict) -> None:
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def read_metrics_csv(path: str) -> tuple:
    """Returns (columns, list of row dicts with float values).

    Raises ConfigError naming path:line when the file cannot be read, the
    header (first column "epoch") is missing, no epoch row follows it, a
    row's field count differs from the header's, or a value is not a number.
    """
    try:
        with open(path) as f:
            lines = [(n, ln) for n, ln in enumerate(f.read().splitlines(), 1)
                     if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    columns = lines[0][1].split(",") if lines else []
    if columns[:1] != ["epoch"]:
        raise ConfigError(f"{path}:1: missing header")
    if len(lines) == 1:
        raise ConfigError(f"{path}:1: no epoch rows")
    rows = []
    for n, ln in lines[1:]:
        vals = ln.split(",")
        if len(vals) != len(columns):
            raise ConfigError(f"{path}:{n}: {len(vals)} fields, header has "
                              f"{len(columns)}")
        try:
            rows.append({c: float(v) for c, v in zip(columns, vals)})
        except ValueError as exc:
            raise ConfigError(f"{path}:{n}: {exc}") from exc
    return columns, rows


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"josnc-{__version__}"


def run(config_path: str, output_dir_override: str = None) -> str:
    """Execute one experiment; returns the output directory.

    Raises ConfigError (exit 2 upstream) or TrainingDiverged (exit 3; partial
    artifacts are retained).
    """
    cfg = load_config(config_path)
    out_dir = (output_dir_override or os.environ.get(OUTPUT_DIR_ENV)
               or cfg["output_dir"])
    os.makedirs(out_dir, exist_ok=True)

    _write_json(os.path.join(out_dir, "config.resolved.json"), cfg)

    dataset = build_dataset(cfg)
    train_config = build_train_config(cfg)
    n_classes = dataset.n_id_classes
    # written before the fit, so a diverged run keeps its record too
    manifest = {
        "version": _git_describe(),
        "package_version": __version__,
        "seed": cfg["train"]["seed"],
        "dataset_seed": cfg["dataset"]["seed"],
        "method": cfg["method"],
        "model_config": asdict(train_config.model_config(
            dataset.train.x.shape[1], n_classes)),
        "blas_threads": blas.thread_count(),
    }
    _write_json(os.path.join(out_dir, "run_manifest.json"), manifest)

    try:
        result = fit(train_config, dataset.train, dataset.test_x,
                     dataset.test_y, n_classes)
    except TrainingDiverged as exc:
        rows = metrics_rows(exc.history, dataset.tags.noise_kinds)
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
        save_checkpoint(os.path.join(out_dir, "checkpoint.bin"),
                        exc.student, exc.teacher)
        raise

    rows = metrics_rows(result.history, dataset.tags.noise_kinds)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"),
                    result.student, result.teacher)
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

    def last10_mean(rows):
        tail = rows[-10:]
        return {m: float(np.mean([r[m] for r in tail])) for m in metrics}

    mean_a, mean_b = last10_mean(rows_a), last10_mean(rows_b)
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
        a = report["last10_mean_a"][m]
        b = report["last10_mean_b"][m]
        lines.append(f"  {m:18s} {a:12.6f} | {b:12.6f} | {d:+12.6f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def gen_config(preset: str) -> dict:
    """Ready-to-run configs for the standard noise scenarios."""
    base_dataset = {"n_id_classes": 10, "n_ood_classes": 0, "per_class": 500,
                    "dim": 32, "spread": 1.0, "seed": 7, "test_per_class": 100}
    presets = {
        "sym20": ({"kind": "symmetric", "rate_id": 0.2}, base_dataset),
        "sym50": ({"kind": "symmetric", "rate_id": 0.5}, base_dataset),
        "sym80": ({"kind": "symmetric", "rate_id": 0.8}, base_dataset),
        "asym40": ({"kind": "asymmetric", "rate_id": 0.4}, base_dataset),
        "openset-sym40": ({"kind": "symmetric", "rate_id": 0.4},
                          {**base_dataset, "n_id_classes": 8,
                           "n_ood_classes": 2}),
    }
    if preset not in presets:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(presets)}")
    noise, dataset = presets[preset]
    return {
        "dataset": {**dataset, "noise": noise},
        "model": {"hidden_dims": [64, 64], "embed_dim": 32},
        "train": {"seed": 7},
        "method": "JOSNC",
        "output_dir": f"runs/{preset}",
    }
