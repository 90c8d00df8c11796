"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Every op in this module is dual-dispatch and computes its output value once,
from the values of its inputs. Called on plain numpy inputs it returns that
value (so evaluation code pays no graph overhead); called with at least one
Tensor it wraps the same value in a graph node. The numpy path, which the
finite-difference oracle runs, and the graph path, which training
differentiates, therefore share one forward formula.

The numpy path also takes a leading stack axis: when an input is a (B, ...)
stack of its usual values (a vector that broadcasts against every row is
stacked as (B, 1, d)), entry b of the result has the bits of the call on
entry b alone, and an input without the axis is shared by every entry. The
finite-difference oracle uses it to evaluate every perturbed parameter
vector in one call. The graph path takes unstacked values only.
"""

from __future__ import annotations

import numpy as np

from . import numerics

LOG_FLOOR = 1e-12


class Tensor:
    """A value in the computation graph. Leaves with requires_grad accumulate grads."""

    __slots__ = ("value", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(self, value, parents=(), backward_fn=None, requires_grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents  # every op passes a tuple of Tensors
        self.backward_fn = backward_fn
        if requires_grad is None:
            requires_grad = False
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = bool(requires_grad)
        self.grad = None

    def accumulate(self, g) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # the bits of zeros + g, -0.0 -> +0.0 included, in a fresh array of
            # the value's shape (g may broadcast to it)
            self.grad = np.add(g, 0.0, out=np.empty(self.value.shape))
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar output, filling .grad on reachable leaves."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar output")
        order = _topo_order(self)
        self.grad = np.array(1.0)
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
    """Depth-first post-order over the nodes that require a gradient. A
    parameter with several consumers sums its gradients in this order, so
    the order is part of every result's bits."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)] if root.requires_grad else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad:
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
        g = np.add.reduce(g, axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    y = value_of(a) + value_of(b)
    if not (is_tensor(a) or is_tensor(b)):
        return y
    a, b = _lift(a), _lift(b)

    def backward_fn(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(g, b.value.shape))

    return Tensor(y, (a, b), backward_fn)


def sub(a, b):
    y = value_of(a) - value_of(b)
    if not (is_tensor(a) or is_tensor(b)):
        return y
    a, b = _lift(a), _lift(b)

    def backward_fn(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(-g, b.value.shape))

    return Tensor(y, (a, b), backward_fn)


def neg(a):
    y = -value_of(a)
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(-g))


def scale(a, c: float):
    """Multiply by a plain python constant."""
    c = float(c)
    y = value_of(a) * c
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(g * c))


def matmul(a, b, transpose_b: bool = False):
    bv = value_of(b)
    y = value_of(a) @ (bv.mT if transpose_b else bv)
    if not (is_tensor(a) or is_tensor(b)):
        return y
    a, b = _lift(a), _lift(b)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g @ b.value if transpose_b else g @ b.value.T)
        if b.requires_grad:
            b.accumulate(g.T @ a.value if transpose_b else a.value.T @ g)

    return Tensor(y, (a, b), backward_fn)


def tanh(a):
    y = np.tanh(value_of(a))
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(g * (1.0 - y * y)))


def log_clamped(a, floor: float = LOG_FLOOR):
    """Elementwise log with the argument clamped below at floor.

    The derivative is zero wherever the clamp is active, matching the locally
    constant forward value there.
    """
    y = np.log(np.maximum(value_of(a), floor))
    if not is_tensor(a):
        return y

    def backward_fn(g):
        active = a.value > floor
        a.accumulate(g * np.where(active, 1.0 / np.maximum(a.value, floor), 0.0))

    return Tensor(y, (a,), backward_fn)


def mean_last(a):
    """Mean along the last axis: (n,) gives a scalar, (B, n) gives (B,)."""
    v = value_of(a)
    n = v.shape[-1]
    # the ufunc loop and the division ndarray.mean runs, without its wrapper
    y = np.asarray(np.add.reduce(v, axis=-1) / n)
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate((g / n)[..., None]))


def softmax_rows(a, temperature: float):
    """Temperature softmax along the last axis (1-D vector or rows of a matrix)."""
    t = float(temperature)
    if not t > 0:
        raise ValueError("temperature must be positive")
    y = numerics.softmax_last(value_of(a), t)
    if not is_tensor(a):
        return y

    def backward_fn(g):
        inner = np.add.reduce(g * y, axis=-1, keepdims=True)
        a.accumulate(y * (g - inner) / t)

    return Tensor(y, (a,), backward_fn)


def normalize_rows(a):
    """l2-normalize along the last axis; degenerate rows raise."""
    y, norms = numerics.unit_last(value_of(a))
    if not is_tensor(a):
        return y

    def backward_fn(g):
        inner = np.add.reduce(g * y, axis=-1, keepdims=True)
        a.accumulate((g - inner * y) / norms)

    return Tensor(y, (a,), backward_fn)


def logsumexp_rows(a):
    """log(sum(exp(.))) along the last axis: (n, d) gives (n,)."""
    y = numerics.logsumexp_last(value_of(a))
    if not is_tensor(a):
        return y

    def backward_fn(g):
        soft = numerics.softmax_last(a.value, 1.0)
        a.accumulate(soft * g[..., None])

    return Tensor(y, (a,), backward_fn)


def rowwise_dot(a, b):
    """Dot product along the last axis: (n, d) rows give (n,); a 1-D operand
    broadcasts against every row."""
    y = np.add.reduce(value_of(a) * value_of(b), axis=-1)
    if not (is_tensor(a) or is_tensor(b)):
        return y
    a, b = _lift(a), _lift(b)

    def backward_fn(g):
        ge = g[..., None]
        if a.requires_grad:
            a.accumulate(_unbroadcast(ge * b.value, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(ge * a.value, b.value.shape))

    return Tensor(y, (a, b), backward_fn)


def pick_per_row(p, idx):
    """Gather one entry per row: (n,K) with (n,) int labels gives (n,)."""
    idx = np.asarray(idx, dtype=np.int64)
    pv = value_of(p)
    rows = np.arange(pv.shape[-2])
    y = pv[..., rows, idx]
    if not is_tensor(p):
        return y

    def backward_fn(g):
        z = np.zeros(p.value.shape)
        np.add.at(z, (rows, idx), g)
        p.accumulate(z)

    return Tensor(y, (p,), backward_fn)


def hstack_cols(parts):
    """Concatenate along the last axis; a part one axis short of the widest,
    such as (n,) beside (n, m), becomes a column of width 1."""
    values = [value_of(part) for part in parts]
    ndim = max(v.ndim for v in values)
    promoted = [v[..., None] if v.ndim < ndim else v for v in values]
    y = np.concatenate(promoted, axis=-1)
    if not any(is_tensor(p) for p in parts):
        return y
    tensors = [_lift(p) for p in parts]
    widths = [p.shape[-1] for p in promoted]

    def backward_fn(g):
        offset = 0
        for tensor, width in zip(tensors, widths):
            if tensor.requires_grad:
                piece = g[:, offset : offset + width]
                if tensor.value.ndim == 1:
                    piece = piece.reshape(-1)
                tensor.accumulate(piece)
            offset += width

    return Tensor(y, tuple(tensors), backward_fn)


def take_rows(a, idx):
    """Select rows by index (repeats allowed; gradients accumulate)."""
    idx = np.asarray(idx, dtype=np.int64)
    y = value_of(a)[..., idx, :]
    if not is_tensor(a):
        return y

    def backward_fn(g):
        z = np.zeros(a.value.shape)
        np.add.at(z, idx, g)
        a.accumulate(z)

    return Tensor(y, (a,), backward_fn)


def detach(a):
    """Stop gradients: the value flows forward, nothing flows back."""
    if not is_tensor(a):
        return value_of(a)
    return Tensor(a.value, requires_grad=False)
