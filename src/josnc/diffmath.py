"""Divergence primitives, the EMA rule and the node type of a coarse graph.

Everything runs on float64 numpy arrays, but for the InfoNCE's pool, logits
and softmax, which are float32 views of a `Scratch`
(`objective.feature_consistency_loss`). A training step's graph has one
`Tensor` per forward stage (`network.Model.forward`) and one per loss term
(`objective`), at most ten in all, above the parameter leaves; there are no
constant nodes. Each node's backward is explicit array code that repeats, in
order, the float operations of the generic op-by-op tape kept as the
reference in `tests/oracles.py`; where partials meet, the depth-first sweep
adds them in that tape's order, so parameter gradients are bit-identical to
it when the reference's InfoNCE takes the node's float32 steps. The tape's
`0 + g` copy at each intermediate op is not repeated: it only turns -0.0
into +0.0, no backward divides by a gradient, and a summed gradient starts
from +0.0 (in `_accum` or `Model.zero_grad`), so a zero's sign never reaches
a weight. backward() tears a graph down.

Divergences use base-2 logarithms throughout so that the Jensen-Shannon
divergence is bounded in [0, 1]; the selection thresholds rely on that bound.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)

# Numerical guard inside logarithms. Upstream label smoothing is the semantic
# fix for zero entries; this floor only protects against float underflow.
LOG_FLOOR = 1e-12


class DiffMathError(ValueError):
    """Raised on invalid inputs to tensor or divergence operations."""


# ---------------------------------------------------------------------------
# probability-vector helpers (plain numpy, no tape)
# ---------------------------------------------------------------------------

def softmax(logits, out=None) -> np.ndarray:
    """Softmax over the last axis: in float64 into a new array, logits left
    unchanged, or into out in its dtype (out may be logits itself). Rejects
    non-finite input."""
    x = np.asarray(logits, dtype=np.float64 if out is None else out.dtype)
    # a NaN or +inf reaches its row's max, a -inf the least element (0.0
    # stands in for an empty x): no mask of x's shape is needed
    row_max = x.max(axis=-1, keepdims=True)
    if not (np.isfinite(row_max).all() and math.isfinite(x.min(initial=0.0))):
        raise DiffMathError("softmax input contains non-finite values")
    e = np.subtract(x, row_max, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def js_divergence_rows(p, q) -> np.ndarray:
    """Row-wise base-2 JS divergence for (N, C) batches; a (C,) pair is one
    row. No tape."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DiffMathError(f"shape mismatch: {p.shape} vs {q.shape}")
    p, q = np.atleast_2d(p, q)
    m = 0.5 * (p + q)
    log_m = np.log(np.maximum(m, LOG_FLOOR))
    kl_pm = np.sum(p * (np.log(np.maximum(p, LOG_FLOOR)) - log_m), axis=-1)
    kl_qm = np.sum(q * (np.log(np.maximum(q, LOG_FLOOR)) - log_m), axis=-1)
    js = 0.5 * (kl_pm + kl_qm) / LOG2
    return np.clip(js, 0.0, 1.0)


def ema_update(average: np.ndarray, value, omega: float) -> None:
    """average <- omega * average + (1 - omega) * value, in place."""
    average *= omega
    average += (1.0 - omega) * value


# query rows per block of a queue-sized product (the KNN similarities, the
# InfoNCE logits): each is written a block at a time, into a caller's Scratch
# when one is given, and a block is gathered or reduced before the next one
# is written, so no (B, M) array is built and the scratch is free again when
# the call returns
BLOCK_ROWS = 32


class Scratch:
    """One flat buffer that successive products are written into.

    view(shape, dtype) returns a C-contiguous view of dtype over the
    buffer's first bytes. The buffer is allocated on the first call and
    grows, never shrinks, to the largest view asked for; a view is valid
    until the next call, which may overwrite or replace its memory. A fit's
    one scratch holds either a whole M x BLOCK_ROWS block of float64 KNN
    similarities, however few rows a lookup asks for, or the InfoNCE's
    float32 (SINGLE) pool and block of logits, (N + Q) x E + BLOCK_ROWS x
    (N + Q) values (about 1.1 MB either way for a 128-row batch, a
    4,096-key queue and embed 32).
    """

    # the InfoNCE's pool, logits and softmax; all else is float64
    SINGLE = np.float32

    def __init__(self):
        self.buffer = np.empty(0)

    def view(self, shape, dtype=np.float64) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes > self.buffer.nbytes:
            self.buffer = np.empty(0)   # free the old one before allocating
            self.buffer = np.empty(-(-nbytes // 8))   # whole float64 slots
        return self.buffer.view(np.uint8)[:nbytes].view(dtype).reshape(shape)


# ---------------------------------------------------------------------------
# coarse reverse-mode graph
# ---------------------------------------------------------------------------

class Tensor:
    """A float64 array node of a reverse-mode graph.

    A fresh graph is built for every training step and torn down by
    backward(). Every node is on the graph: a node without parents is a
    leaf, and parameters are leaves whose grad is preset to their view of
    `network.Model.grad`. backward_fn(grad) receives the node's gradient and
    passes partials to the parents with _accum. It never refers to the node
    itself, so a node and its closure form no reference cycle, and a graph
    is freed by reference counting whether or not it is backpropagated.
    """

    __slots__ = ("data", "grad", "_parents", "_backward_fn")

    def __init__(self, data, parents: tuple = (), backward_fn=None,
                 grad: np.ndarray | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = grad
        self._parents = parents
        self._backward_fn = backward_fn

    def _accum(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        A graph is backpropagated once: each node drops its backward closure
        and its parents after running them, so the arrays the closures hold
        are freed as the sweep goes.
        """
        if self.data.size != 1:
            raise DiffMathError(
                f"backward requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
            node._backward_fn = None
            node._parents = ()

    def item(self) -> float:
        return float(self.data)
