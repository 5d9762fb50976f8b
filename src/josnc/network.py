"""Student MLP (encoder + classifier head + projection head) and its
mean-teacher shadow, as array code only: `harness` owns checkpoint.bin, and
`trainer.fit` checks its inputs' width, so a forward pass checks no shape.

There is one forward pass, on plain arrays; it computes each layer in one
array, keeps only each layer's input for a backward, and computes only the
heads its caller asks for (keywords `classifier` and `projection`). The
teacher and evaluation call it through `forward_arrays` and build no graph.
`Model.forward` wraps the same pass as three graph nodes (encoder output,
classifier head + softmax, projection head + L2-normalize; the first left
out for a linear model, the last without `projection`) whose backwards are
explicit array code. The weights live in one flat float64 buffer,
`Model.flat`, and their gradients in another, `Model.grad`, laid out by
`Model.layout` (name -> shape, in checkpoint.bin's sorted-name order); the
leaf Tensors of `Model.params` view both. The teacher and the SGD velocity
are flat arrays of the same layout, so SGD, the teacher's EMA
(`diffmath.ema_update`) and the finiteness check are one array op each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffmath import DiffMathError, Tensor, softmax


@dataclass
class ModelConfig:
    input_dim: int
    n_classes: int
    hidden_dims: tuple
    embed_dim: int


class Model:
    """Encoder -> {classifier logits, L2-normalized projection embedding}."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        dims = [config.input_dim, *config.hidden_dims]
        init = {}
        for name, fan_in, fan_out in (
                [(f"encoder.{i}", dims[i], dims[i + 1])
                 for i in range(len(dims) - 1)]
                + [("classifier", dims[-1], config.n_classes),
                   ("projection", dims[-1], config.embed_dim)]):
            # He init for the ReLU stack; heads share the same scheme
            init[f"{name}.W"] = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                           size=(fan_in, fan_out))
            init[f"{name}.b"] = np.zeros(fan_out)
        self.layout = {name: init[name].shape for name in sorted(init)}
        self._ends = np.cumsum([math.prod(s) for s in self.layout.values()])
        self.flat = np.concatenate([init[name].ravel() for name in self.layout])
        self.grad = np.zeros_like(self.flat)
        self.arrays = self.views(self.flat)   # name -> weight view
        grads = self.views(self.grad)
        self.params = {name: Tensor(data, grad=grads[name])
                       for name, data in self.arrays.items()}

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of flat, an array of the layout."""
        return {name: part.reshape(shape) for (name, shape), part
                in zip(self.layout.items(), np.split(flat, self._ends[:-1]))}

    def name_at(self, index: int) -> str:
        """The parameter whose view of a flat array holds element index."""
        return list(self.layout)[np.searchsorted(self._ends, index, "right")]

    def zero_grad(self) -> None:
        self.grad[:] = 0.0   # +0.0, the start of a summed gradient

    def forward(self, x: np.ndarray, *, projection: bool = True):
        """Returns (h, probs, embeddings) as graph nodes.

        h is the encoder output, or None for a linear model (no hidden
        layer), whose heads read the input and pass it no gradient; probs
        is softmax(logits, T=1); embeddings are unit-norm rows, or None
        without `projection`.
        """
        p = self.params
        layers, h, probs, emb, norms, dead = _forward(
            self.arrays, self.config, x, classifier=True,
            projection=projection)
        encoder = [(p[f"encoder.{i}.W"], p[f"encoder.{i}.b"])
                   for i in range(len(layers))]

        def encoder_backward(g):
            # relu -> bias add -> matmul per layer, last layer first; the
            # input needs no gradient
            out = h
            for i in reversed(range(len(layers))):
                (w, b), inp = encoder[i], layers[i]
                g = g * (out > 0)
                b._accum(g.sum(axis=0))
                w._accum(inp.T @ g)
                if i:
                    g = g @ w.data.T
                out = inp

        h_node = (Tensor(h, tuple(t for wb in encoder for t in wb),
                         encoder_backward) if layers else None)

        def head(name, y, output_backward):
            w, b = p[f"{name}.W"], p[f"{name}.b"]

            def backward(g):
                dz = output_backward(g)
                b._accum(dz.sum(axis=0))
                if h_node is not None:
                    h_node._accum(dz @ w.data.T)
                w._accum(h.T @ dz)
            return Tensor(y, (w, b) if h_node is None else (h_node, w, b),
                          backward)

        def l2_normalize_backward(g):
            gx = (g - emb * (g * emb).sum(axis=-1, keepdims=True)) / norms
            gx[dead] = 0.0
            return gx

        return (h_node,
                head("classifier", probs, lambda g: probs * (
                    g - (g * probs).sum(axis=-1, keepdims=True))),
                head("projection", emb, l2_normalize_backward)
                if projection else None)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Name views of a detached copy of the parameters."""
        return self.views(self.flat.copy())


def forward_arrays(params: dict[str, np.ndarray], config: ModelConfig,
                   x: np.ndarray, *, classifier: bool = True,
                   projection: bool = True):
    """Forward pass of plain parameter arrays (the teacher, evaluation).

    Builds no graph. Returns (probs, embeddings) as arrays; a head its
    caller does not ask for is None. Callers pass whole batches, so no
    row's bits are compared across calls.
    """
    _, _, probs, emb, _, _ = _forward(params, config, x, classifier=classifier,
                                      projection=projection)
    return probs, emb


def _forward(params: dict[str, np.ndarray], config: ModelConfig,
             x: np.ndarray, *, classifier: bool, projection: bool):
    """(layers, h, probs, embeddings, norms, dead) on plain arrays.

    Each layer is computed in one array, its ReLU output written over its
    pre-activation. layers holds each encoder layer's input; a backward
    masks with the layer's output, since relu(z) > 0 exactly where z > 0
    (NaN and +-0 included). norms and dead are the L2-normalize's clamped
    row norms and dead-row mask: a (near-)zero row, e.g. from a dead ReLU
    path, maps to the first basis vector and receives zero gradient. The
    classifier head's outputs are None without `classifier`, the
    projection's without `projection`. The softmax raises DiffMathError on
    non-finite logits, the projection on non-finite row norms.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    layers, h = [], x
    for i in range(len(config.hidden_dims)):
        layers.append(h)
        h = h @ params[f"encoder.{i}.W"]
        h += params[f"encoder.{i}.b"]
        np.maximum(h, 0.0, out=h)
    probs = emb = norms = dead = None
    if classifier:
        logits = h @ params["classifier.W"]
        logits += params["classifier.b"]
        probs = softmax(logits)
    if not projection:
        return layers, h, probs, emb, norms, dead
    emb = h @ params["projection.W"]
    emb += params["projection.b"]
    norms = np.sqrt((emb ** 2).sum(axis=-1, keepdims=True))
    if not np.isfinite(norms).all():
        raise DiffMathError("projection row norms contain non-finite values")
    dead = norms[:, 0] < 1e-12
    norms = np.maximum(norms, 1e-12)
    emb /= norms
    if dead.any():
        emb[dead] = 0.0
        emb[dead, 0] = 1.0
    return layers, h, probs, emb, norms, dead

