"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Every op in this module is dual-dispatch: called on plain numpy inputs it
returns plain numpy (so evaluation code pays no graph overhead), called with
at least one Tensor it builds a graph node. Forward formulas are shared with
numerics.py where they exist, so the two paths cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .errors import DegenerateFeatureError

LOG_FLOOR = 1e-12


class Tensor:
    """A value in the computation graph. Leaves with requires_grad accumulate grads."""

    __slots__ = ("value", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(self, value, parents=(), backward_fn=None, requires_grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents  # every op passes a tuple of Tensors
        self.backward_fn = backward_fn
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in self.parents)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    def accumulate(self, g) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # the bits of zeros + g, -0.0 -> +0.0 included, in a fresh array
            self.grad = np.add(g, 0.0, out=np.empty_like(self.value))
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar output, filling .grad on reachable leaves."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar output")
        order = _topo_order(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node.backward_fn is not None and node.grad is not None:
                node.backward_fn(node.grad)

    def __float__(self) -> float:
        if self.value.ndim != 0:
            raise TypeError("only scalar tensors convert to float")
        return float(self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    return order


def is_tensor(x) -> bool:
    return isinstance(x, Tensor)


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape of the operand it belongs to."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    if not (is_tensor(a) or is_tensor(b)):
        return value_of(a) + value_of(b)
    a, b = _lift(a), _lift(b)
    out = Tensor(a.value + b.value, parents=(a, b))

    def backward_fn(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(g, b.value.shape))

    out.backward_fn = backward_fn
    return out


def sub(a, b):
    if not (is_tensor(a) or is_tensor(b)):
        return value_of(a) - value_of(b)
    a, b = _lift(a), _lift(b)
    out = Tensor(a.value - b.value, parents=(a, b))

    def backward_fn(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(-g, b.value.shape))

    out.backward_fn = backward_fn
    return out


def neg(a):
    if not is_tensor(a):
        return -value_of(a)
    out = Tensor(-a.value, parents=(a,))
    out.backward_fn = lambda g: a.accumulate(-g)
    return out


def mul(a, b):
    if not (is_tensor(a) or is_tensor(b)):
        return value_of(a) * value_of(b)
    a, b = _lift(a), _lift(b)
    out = Tensor(a.value * b.value, parents=(a, b))

    def backward_fn(g):
        a.accumulate(_unbroadcast(g * b.value, a.value.shape))
        b.accumulate(_unbroadcast(g * a.value, b.value.shape))

    out.backward_fn = backward_fn
    return out


def scale(a, c: float):
    """Multiply by a plain python constant."""
    c = float(c)
    if not is_tensor(a):
        return value_of(a) * c
    out = Tensor(a.value * c, parents=(a,))
    out.backward_fn = lambda g: a.accumulate(g * c)
    return out


def matmul(a, b, transpose_b: bool = False):
    if not (is_tensor(a) or is_tensor(b)):
        bv = value_of(b)
        return value_of(a) @ (bv.T if transpose_b else bv)
    a, b = _lift(a), _lift(b)
    bv = b.value.T if transpose_b else b.value
    out = Tensor(a.value @ bv, parents=(a, b))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g @ b.value if transpose_b else g @ b.value.T)
        if b.requires_grad:
            b.accumulate(g.T @ a.value if transpose_b else a.value.T @ g)

    out.backward_fn = backward_fn
    return out


def tanh(a):
    if not is_tensor(a):
        return np.tanh(value_of(a))
    y = np.tanh(a.value)
    out = Tensor(y, parents=(a,))
    out.backward_fn = lambda g: a.accumulate(g * (1.0 - y * y))
    return out


def log_clamped(a, floor: float = LOG_FLOOR):
    """Elementwise log with the argument clamped below at floor.

    The derivative is zero wherever the clamp is active, matching the locally
    constant forward value there.
    """
    if not is_tensor(a):
        return np.log(np.maximum(value_of(a), floor))
    out = Tensor(np.log(np.maximum(a.value, floor)), parents=(a,))

    def backward_fn(g):
        active = a.value > floor
        a.accumulate(g * np.where(active, 1.0 / np.maximum(a.value, floor), 0.0))

    out.backward_fn = backward_fn
    return out


def sum_all(a):
    if not is_tensor(a):
        return np.asarray(value_of(a).sum())
    out = Tensor(a.value.sum(), parents=(a,))
    out.backward_fn = lambda g: a.accumulate(np.broadcast_to(g, a.value.shape).copy())
    return out


def mean_all(a):
    if not is_tensor(a):
        return np.asarray(value_of(a).mean())
    n = a.value.size
    out = Tensor(a.value.mean(), parents=(a,))
    out.backward_fn = lambda g: a.accumulate(
        np.broadcast_to(g / n, a.value.shape).copy()
    )
    return out


def softmax_rows(a, temperature: float):
    """Temperature softmax along the last axis (1-D vector or rows of a matrix)."""
    t = float(temperature)
    if not t > 0:
        raise ValueError("temperature must be positive")
    if not is_tensor(a):
        return numerics.softmax_last(value_of(a), t)
    y = numerics.softmax_last(a.value, t)
    out = Tensor(y, parents=(a,))

    def backward_fn(g):
        inner = np.sum(g * y, axis=-1, keepdims=True)
        a.accumulate(y * (g - inner) / t)

    out.backward_fn = backward_fn
    return out


def normalize_rows(a):
    """l2-normalize along the last axis; degenerate rows raise."""
    if not is_tensor(a):
        return numerics.normalize_last(value_of(a))
    norms = numerics.norm_last(a.value)
    if np.any(norms < numerics.NORM_EPS):
        raise DegenerateFeatureError(
            f"cannot normalize vector with norm below {numerics.NORM_EPS}"
        )
    y = a.value / norms
    out = Tensor(y, parents=(a,))

    def backward_fn(g):
        inner = np.sum(g * y, axis=-1, keepdims=True)
        a.accumulate((g - inner * y) / norms)

    out.backward_fn = backward_fn
    return out


def logsumexp_rows(a):
    """log(sum(exp(.))) along the last axis: (n, d) gives (n,)."""
    if not is_tensor(a):
        return numerics.logsumexp_last(value_of(a))
    out = Tensor(numerics.logsumexp_last(a.value), parents=(a,))

    def backward_fn(g):
        soft = numerics.softmax_last(a.value, 1.0)
        a.accumulate(soft * np.expand_dims(g, -1))

    out.backward_fn = backward_fn
    return out


def rowwise_dot(a, b):
    """Dot product along the last axis: (n, d) rows give (n,); a 1-D operand
    broadcasts against every row."""
    if not (is_tensor(a) or is_tensor(b)):
        return np.sum(value_of(a) * value_of(b), axis=-1)
    a, b = _lift(a), _lift(b)
    out = Tensor(np.sum(a.value * b.value, axis=-1), parents=(a, b))

    def backward_fn(g):
        ge = np.expand_dims(g, -1)
        if a.requires_grad:
            a.accumulate(_unbroadcast(ge * b.value, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(ge * a.value, b.value.shape))

    out.backward_fn = backward_fn
    return out


def pick_per_row(p, idx):
    """Gather one entry per row: (n,K) with (n,) int labels gives (n,)."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(value_of(p).shape[0])
    if not is_tensor(p):
        return value_of(p)[rows, idx]
    out = Tensor(p.value[rows, idx], parents=(p,))

    def backward_fn(g):
        z = np.zeros_like(p.value)
        np.add.at(z, (rows, idx), g)
        p.accumulate(z)

    out.backward_fn = backward_fn
    return out


def hstack_cols(parts):
    """Concatenate along the last axis; 1-D parts of shape (n,) become (n,1) columns."""
    promoted = []
    for part in parts:
        v = value_of(part)
        promoted.append(v.reshape(-1, 1) if v.ndim == 1 else v)
    if not any(is_tensor(p) for p in parts):
        return np.concatenate(promoted, axis=1)
    tensors = [_lift(p) for p in parts]
    widths = [p.shape[1] for p in promoted]
    out = Tensor(np.concatenate(promoted, axis=1), parents=tuple(tensors))

    def backward_fn(g):
        offset = 0
        for tensor, width in zip(tensors, widths):
            if tensor.requires_grad:
                piece = g[:, offset : offset + width]
                if tensor.value.ndim == 1:
                    piece = piece.reshape(-1)
                tensor.accumulate(piece)
            offset += width

    out.backward_fn = backward_fn
    return out


def take_rows(a, idx):
    """Select rows by index (repeats allowed; gradients accumulate)."""
    idx = np.asarray(idx, dtype=np.int64)
    if not is_tensor(a):
        return value_of(a)[idx]
    out = Tensor(a.value[idx], parents=(a,))

    def backward_fn(g):
        z = np.zeros_like(a.value)
        np.add.at(z, idx, g)
        a.accumulate(z)

    out.backward_fn = backward_fn
    return out


def detach(a):
    """Stop gradients: the value flows forward, nothing flows back."""
    if not is_tensor(a):
        return value_of(a)
    return Tensor(a.value, requires_grad=False)
