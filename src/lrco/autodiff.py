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

The unfused ops whose chains training runs as one node each (add, matmul,
tanh, softmax_rows, take_rows, detach) live in tests/oracles.py.
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


# Backward formulas of a row softmax and of normalize_rows. The fused nodes of
# the cosine heads (model.probs_of, losses.re_represent_batch) replay those
# ops' chains with them, so a fused node keeps the chain's bits.

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


def weighted_sum(pairs):
    """Sum of w * x over (x, w) pairs, x a term and w a plain python
    constant, accumulated left to right; x gets g * w. A graph node when
    any term is a Tensor, and then every term must be one."""
    pairs = [(x, float(w)) for x, w in pairs]
    y = value_of(pairs[0][0]) * pairs[0][1]
    for x, w in pairs[1:]:
        y = y + value_of(x) * w
    if not any(is_tensor(x) for x, _ in pairs):
        return y

    def backward_fn(g):
        for x, w in pairs:
            x.accumulate(g * w)

    return Tensor(y, tuple(x for x, _ in pairs), backward_fn)


def normalize_rows(a):
    """l2-normalize along the last axis; degenerate rows raise."""
    y, norms = numerics.unit_last(value_of(a))
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(normalize_grad(g, y, norms)))
