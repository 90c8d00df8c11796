"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

A Tensor is a parameter leaf (model.lift_params) or an op node over other
Tensors. A training step builds one node over the parameter leaves, whose
backward runs the step's whole chain written out once
(trainer.step_objective). The ops whose chain it replays (add, matmul,
tanh, softmax_rows, take_rows, detach, weighted_sum) live in
tests/oracles.py; normalize_rows, like the single loss heads, returns a
plain value on arrays, stacked ones included, and a node on a Tensor.
"""

from __future__ import annotations

import numpy as np

from . import numerics


class Tensor:
    """A value in the computation graph: a parameter leaf (no parents), whose
    .grad sums what its consumers pass it, or an op node over other Tensors."""

    __slots__ = ("value", "grad", "parents", "backward_fn")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents  # every op passes a tuple of Tensors
        self.backward_fn = backward_fn
        self.grad = None

    def accumulate(self, g) -> None:
        if self.grad is None:
            # the bits of zeros + g, -0.0 -> +0.0 included, in a fresh array of
            # the value's shape (g may broadcast to it)
            self.grad = np.add(g, 0.0, out=np.empty(self.value.shape))
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar output into .grad of reachable leaves;
        the op nodes under it start from none, so roots may share them."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar output")
        order = _topo_order(self)
        for node in order:
            node.grad = None
        self.grad = np.array(1.0)
        for node in reversed(order):
            if node.backward_fn is not None and node.grad is not None:
                node.backward_fn(node.grad)

    def __float__(self) -> float:
        if self.value.ndim != 0:
            raise TypeError("only scalar tensors convert to float")
        return float(self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.value.shape}, parents={len(self.parents)})"


def _topo_order(root: Tensor) -> list[Tensor]:
    """Depth-first post-order over root and the op nodes under it. A
    parameter with several consumers sums its gradients in this order, so
    the order is part of every result's bits.

    A leaf (a node without parents) is never pushed: it has no backward
    function, and it gets its gradient from its consumers' ``accumulate``
    calls, which run in the order of those consumers. A leaf pushed among a
    node's parents would come off the stack, be emitted and push nothing, so
    leaving it out keeps every op node's position in the order, for any
    graph. The root is kept, leaf or not."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
            if parent.parents:
                stack.append((parent, False))
    return order


def is_tensor(x) -> bool:
    return isinstance(x, Tensor)


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


# Backward formulas of a row softmax and of normalize_rows. The gradients of
# the cosine heads (model.probs_vjp, losses.re_represent_batch) replay those
# ops' chains with them, so they keep the chain's bits.

def softmax_grad(g, y, t: float) -> np.ndarray:
    """What a temperature-t softmax over the last axis passes to its input
    when its output y gets g."""
    inner = np.add.reduce(g * y, axis=-1, keepdims=True)
    return y * (g - inner) / t


def normalize_grad(g, y, norms) -> np.ndarray:
    """What normalize_rows passes to its input when its output y, the rows
    divided by norms, gets g."""
    inner = np.add.reduce(g * y, axis=-1, keepdims=True)
    return (g - inner * y) / norms


def row_block(x: np.ndarray, idx) -> np.ndarray:
    """The rows idx of x (an index array or a slice), contiguous. On a
    (B, N, d) stack an index copy lays the row axis out outermost, and
    numpy's sums over those rows then run in another order than on one entry;
    the contiguous block gives entry b the bits of the unstacked call."""
    rows = x[..., idx, :]
    return rows if rows.ndim == 2 else np.ascontiguousarray(rows)


def normalize_rows(a):
    """l2-normalize along the last axis; degenerate rows raise."""
    y, norms = numerics.unit_last(value_of(a))
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(normalize_grad(g, y, norms)))
