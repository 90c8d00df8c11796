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


def lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


# Backward formulas of softmax_rows and normalize_rows. The fused nodes of the
# cosine heads (model.probs_of, losses.re_represent_batch) replay those ops'
# chains with them, so a fused node keeps the chain's bits.

def positive_temperature(temperature) -> float:
    t = float(temperature)
    if not t > 0:
        raise ValueError("temperature must be positive")
    return t


def softmax_grad(g, y, t: float) -> np.ndarray:
    """What softmax_rows passes to its input when its output y gets g."""
    inner = np.add.reduce(g * y, axis=-1, keepdims=True)
    return y * (g - inner) / t


def normalize_grad(g, y, norms) -> np.ndarray:
    """What normalize_rows passes to its input when its output y, the rows
    divided by norms, gets g."""
    inner = np.add.reduce(g * y, axis=-1, keepdims=True)
    return (g - inner * y) / norms


def first_grad(g: np.ndarray) -> np.ndarray:
    """g + 0.0, in place: the bits of a node's gradient after its first
    accumulate (-0.0 becomes +0.0). g must be a fresh array of the node's
    shape."""
    return np.add(g, 0.0, out=g)


def row_block(x: np.ndarray, idx) -> np.ndarray:
    """The rows idx of x (an index array or a slice), contiguous. On a
    (B, N, d) stack an index copy lays the row axis out outermost, and
    numpy's sums over those rows then run in another order than on one entry;
    the contiguous block gives entry b the bits of the unstacked call."""
    rows = x[..., idx, :]
    return rows if rows.ndim == 2 else np.ascontiguousarray(rows)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape of the operand it belongs to."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g.reshape(shape)


# add, matmul, tanh, softmax_rows, take_rows and detach: the fused nodes
# replay their chains (model.features_of, model.probs_of,
# losses.re_represent_batch, losses.contrastive_branch), and only the tests'
# reference chains call them.

def add(a, b):
    y = value_of(a) + value_of(b)
    if not (is_tensor(a) or is_tensor(b)):
        return y
    a, b = lift(a), lift(b)

    def backward_fn(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(g, b.value.shape))

    return Tensor(y, (a, b), backward_fn)


def weighted_sum(pairs):
    """Sum of w * x over (x, w) pairs, x a term and w a plain python
    constant, accumulated left to right; x gets g * w."""
    pairs = [(x, float(w)) for x, w in pairs]
    y = value_of(pairs[0][0]) * pairs[0][1]
    for x, w in pairs[1:]:
        y = y + value_of(x) * w
    if not any(is_tensor(x) for x, _ in pairs):
        return y
    pairs = [(lift(x), w) for x, w in pairs]

    def backward_fn(g):
        for x, w in pairs:
            x.accumulate(g * w)

    return Tensor(y, tuple(x for x, _ in pairs), backward_fn)


def matmul(a, b, transpose_b: bool = False):
    bv = value_of(b)
    y = value_of(a) @ (bv.mT if transpose_b else bv)
    if not (is_tensor(a) or is_tensor(b)):
        return y
    a, b = lift(a), lift(b)

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


def softmax_rows(a, temperature: float):
    """Temperature softmax along the last axis (1-D vector or rows of a matrix)."""
    t = positive_temperature(temperature)
    y = numerics.softmax_last(value_of(a), t)
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(softmax_grad(g, y, t)))


def normalize_rows(a):
    """l2-normalize along the last axis; degenerate rows raise."""
    y, norms = numerics.unit_last(value_of(a))
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(normalize_grad(g, y, norms)))


def take_rows(a, idx):
    """Select rows by index (repeats allowed; gradients accumulate)."""
    idx = np.asarray(idx, dtype=np.int64)
    y = row_block(value_of(a), idx)
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
