"""Dense tensor arithmetic with reverse-mode autodiff, plus divergence primitives.

Everything runs on float64 numpy arrays. The autodiff tape is deliberately
minimal: it supports exactly the operations the training objective needs
(matmul, add, relu, softmax, log, elementwise mul, sum, L2-normalize).
One node is built outside this module: the fused InfoNCE node of
`objective.feature_consistency_loss`, whose backward repeats the float steps
of the equivalent log/softmax/matmul chain so its gradient is bit-identical.
A graph is backpropagated once; backward() tears it down as it goes.

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

def check_prob_vec(v, tol: float = 1e-9) -> np.ndarray:
    """Validate that v is a discrete probability distribution.

    Accepts a 1-D vector or a 2-D batch of row distributions. Entries must be
    non-negative and each row must sum to 1 within tol.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise DiffMathError(f"expected 1-D or 2-D probability array, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise DiffMathError("probability vector contains non-finite entries")
    if (v < 0).any():
        raise DiffMathError("probability vector contains negative entries")
    sums = v.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=tol):
        raise DiffMathError(f"probability vector does not sum to 1 (sums={sums})")
    return v


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis. Rejects non-finite input."""
    x = np.asarray(logits, dtype=np.float64)
    if temperature <= 0:
        raise DiffMathError(f"temperature must be positive, got {temperature}")
    if not np.isfinite(x).all():
        raise DiffMathError("softmax input contains non-finite values")
    z = x / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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


# ---------------------------------------------------------------------------
# reverse-mode autodiff tape
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce grad back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 array node on an (implicit) reverse-mode tape.

    Tensors are value-like; a fresh graph is built for every training step and
    torn down by backward(). Parameters are Tensors with requires_grad=True.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        # a result that needs no gradient is not on the tape: no graph links
        self._parents = _parents if self.requires_grad else ()
        self._backward_fn = None

    # -- plumbing ----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def _record(self, backward_fn) -> "Tensor":
        """Attach backward_fn if this node is on the tape; returns self.

        A node that requires no gradient keeps no closure, so it forms no
        node <-> closure cycle and is freed by reference counting.
        """
        if self.requires_grad:
            self._backward_fn = backward_fn
        return self

    def zero_grad(self) -> None:
        self.grad = None

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        A graph is backpropagated once: each node drops its backward closure
        and its parents after running them, which breaks the node <-> closure
        reference cycles so a dead graph is freed by reference counting
        rather than waiting for the cyclic garbage collector.
        """
        if self.data.size != 1:
            raise DiffMathError(f"backward requires a scalar, got shape {self.shape}")
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
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.requires_grad:
                node._backward_fn()
            node._backward_fn = None
            node._parents = ()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = Tensor(self.data + other.data, _parents=(self, other))

        def bw():
            if self.requires_grad:
                self._accum(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(out.grad, other.shape))
        return out._record(bw)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        out = Tensor(self.data * other.data, _parents=(self, other))

        def bw():
            if self.requires_grad:
                self._accum(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(out.grad * self.data, other.shape))
        return out._record(bw)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise DiffMathError("tensor/tensor division is not on the op menu")
        return self * (1.0 / float(scalar))

    def matmul(self, other):
        other = self._coerce(other)
        out = Tensor(self.data @ other.data, _parents=(self, other))

        def bw():
            if self.requires_grad:
                self._accum(out.grad @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ out.grad)
        return out._record(bw)

    __matmul__ = matmul

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), _parents=(self,))

        def bw():
            if self.requires_grad:
                self._accum(out.grad * (self.data > 0))
        return out._record(bw)

    def log(self):
        """Natural log with the 1e-12 floor guard."""
        floored = np.maximum(self.data, LOG_FLOOR)
        out = Tensor(np.log(floored), _parents=(self,))

        def bw():
            if self.requires_grad:
                self._accum(out.grad / floored)
        return out._record(bw)

    def softmax(self, temperature: float = 1.0):
        """Row-wise temperature softmax over the last axis."""
        y = softmax(self.data, temperature)
        out = Tensor(y, _parents=(self,))

        def bw():
            if self.requires_grad:
                g = out.grad
                dz = y * (g - (g * y).sum(axis=-1, keepdims=True))
                self._accum(dz / temperature)
        return out._record(bw)

    def sum(self):
        out = Tensor(self.data.sum(), _parents=(self,))

        def bw():
            if self.requires_grad:
                self._accum(np.full_like(self.data, float(out.grad)))
        return out._record(bw)

    def l2_normalize(self, eps: float = 1e-12):
        """Normalize each row of a (N, D) tensor to unit L2 norm.

        Rows with (near-)zero norm, e.g. from a dead ReLU path, map to the
        first basis vector and receive zero gradient.
        """
        norms = np.sqrt((self.data ** 2).sum(axis=-1, keepdims=True))
        dead = norms[..., 0] < eps
        norms = np.maximum(norms, eps)
        y = self.data / norms
        if dead.any():
            y = y.copy()
            y[dead] = 0.0
            y[dead, ..., 0] = 1.0

        out = Tensor(y, _parents=(self,))

        def bw():
            if self.requires_grad:
                g = out.grad
                gx = (g - y * (g * y).sum(axis=-1, keepdims=True)) / norms
                if dead.any():
                    gx = gx.copy()
                    gx[dead] = 0.0
                self._accum(gx)
        return out._record(bw)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"
