"""Student MLP (encoder + classifier head + projection head) and its
mean-teacher shadow.

The student's parameters are autodiff Tensors; the teacher is a plain dict of
numpy arrays and is therefore never on the tape. The teacher tracks the
student by exponential moving average, one update per optimizer step.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .diffmath import Tensor


class NetworkError(ValueError):
    pass


@dataclass
class ModelConfig:
    input_dim: int
    n_classes: int
    hidden_dims: tuple = (64, 64)
    embed_dim: int = 32

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if self.input_dim < 1 or self.n_classes < 2 or self.embed_dim < 1:
            raise NetworkError("invalid model dimensions")


class Model:
    """Encoder -> {classifier logits, L2-normalized projection embedding}."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.params: dict[str, Tensor] = {}
        dims = [config.input_dim, *config.hidden_dims]
        for i in range(len(dims) - 1):
            self._add_layer(f"encoder.{i}", dims[i], dims[i + 1], rng)
        feat = dims[-1]
        self._add_layer("classifier", feat, config.n_classes, rng)
        self._add_layer("projection", feat, config.embed_dim, rng)

    def _add_layer(self, name, fan_in, fan_out, rng):
        # He init for the ReLU stack; heads share the same scheme
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        self.params[f"{name}.W"] = Tensor(w, requires_grad=True)
        self.params[f"{name}.b"] = Tensor(np.zeros(fan_out), requires_grad=True)

    def forward(self, x: np.ndarray):
        """Returns (logits, probs, embeddings) as tape Tensors.

        probs is softmax(logits, T=1); embeddings are unit-norm rows.
        """
        return _forward(self.params, self.config, x)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Detached copy of all parameters (teacher initialization)."""
        return {k: v.data.copy() for k, v in self.params.items()}

    def snapshot_view(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}


def forward_arrays(params: dict[str, np.ndarray], config: ModelConfig,
                   x: np.ndarray):
    """Forward pass of plain parameter arrays (the teacher, evaluation).

    The arrays enter the shared forward as Tensors that need no gradient,
    so no graph is recorded. Returns (probs, embeddings) as arrays.
    """
    _, probs, emb = _forward(params, config, x)
    return probs.data, emb.data


def _forward(params: dict, config: ModelConfig, x: np.ndarray):
    """(logits, probs, embeddings) Tensors; params holds Tensors or arrays."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != config.input_dim:
        raise NetworkError(
            f"input dim {x.shape[1]} != expected {config.input_dim}")
    h = Tensor(x)
    for i in range(len(config.hidden_dims)):
        h = (h @ params[f"encoder.{i}.W"] + params[f"encoder.{i}.b"]).relu()
    logits = h @ params["classifier.W"] + params["classifier.b"]
    emb = h @ params["projection.W"] + params["projection.b"]
    return logits, logits.softmax(), emb.l2_normalize()


def ema_update(teacher: dict[str, np.ndarray], model: Model, omega: float) -> None:
    """teacher <- omega * teacher + (1 - omega) * student, elementwise."""
    if not (0.0 <= omega <= 1.0):
        raise NetworkError(f"omega must be in [0, 1], got {omega}")
    if set(teacher) != set(model.params):
        raise NetworkError("teacher/student parameter sets differ")
    for name, tensor in model.params.items():
        if teacher[name].shape != tensor.data.shape:
            raise NetworkError(f"shape mismatch for {name}")
        teacher[name] *= omega
        teacher[name] += (1.0 - omega) * tensor.data


# ---------------------------------------------------------------------------
# artifact files, written atomically; checkpoints are one flat f64 blob +
# a JSON manifest of (name, shape, offset)
# ---------------------------------------------------------------------------

def write_atomic(path: str, data: bytes) -> None:
    """Write data to a sibling temp file, then rename it over path.

    A reader of path sees its old contents or all of data, never a prefix.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path: str, student: dict[str, np.ndarray],
                    teacher: dict[str, np.ndarray]) -> None:
    entries = []
    blob = bytearray()
    for prefix, params in (("student", student), ("teacher", teacher)):
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            entries.append({"name": f"{prefix}.{name}",
                            "shape": list(arr.shape),
                            "offset": len(blob)})
            blob.extend(arr.tobytes())
    manifest = json.dumps({"entries": entries}, sort_keys=True).encode()
    write_atomic(path, struct.pack("<I", len(manifest)) + manifest + bytes(blob))


def load_checkpoint(path: str):
    """Returns (student_arrays, teacher_arrays)."""
    with open(path, "rb") as f:
        (mlen,) = struct.unpack("<I", f.read(4))
        manifest = json.loads(f.read(mlen))
        blob = f.read()
    student, teacher = {}, {}
    for e in manifest["entries"]:
        shape = tuple(e["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count,
                            offset=e["offset"]).reshape(shape).copy()
        prefix, name = e["name"].split(".", 1)
        (student if prefix == "student" else teacher)[name] = arr
    return student, teacher
