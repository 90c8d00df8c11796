"""Reference kernel that rescales CPU times to a fixed host speed.

The shared host this benchmark runs on changes speed in phases that last
seconds to minutes: in a slow phase the same training step takes up to twice
the CPU time it takes in a fast one. A run cannot average that out, so the
timing metrics divide CPU times by the CPU time of this kernel, measured
next to them, and multiply by ``NOMINAL_S``: the result is the time at a
fixed reference speed. During training the kernel runs after every
``EVERY``-th step, outside the step's clock reads, and each block of
``BLOCK`` steps is rescaled by the median kernel time measured within it.

The kernel is independent of lrco, so a change to lrco cannot change it. It
mimics a training step's mix of interpreter work and small numpy calls: a
tiny reverse-mode autodiff (one Python object and one closure per node)
trains a softmax MLP, 32 rows, 8 -> 16 -> 5, by one gradient step.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

NOMINAL_S = 2e-4  # one kernel call's CPU seconds at the reference speed
EVERY = 4         # steps between kernel calls
BLOCK = 64        # steps rescaled by one median kernel time

_X = np.linspace(-1.0, 1.0, 32 * 8).reshape(32, 8)
_Y = np.eye(5)[np.arange(32) % 5]


class _Node:
    __slots__ = ("value", "grad", "parents", "backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.backward = backward

    def add_grad(self, g):
        self.grad = g if self.grad is None else self.grad + g


def _matmul(a, b):
    out = _Node(a.value @ b.value, (a, b))

    def backward(g):
        a.add_grad(g @ b.value.T)
        b.add_grad(a.value.T @ g)
    out.backward = backward
    return out


def _add(a, b):
    out = _Node(a.value + b.value, (a, b))

    def backward(g):
        a.add_grad(g)
        b.add_grad(np.sum(g, axis=0) if b.value.ndim < g.ndim else g)
    out.backward = backward
    return out


def _relu(a):
    mask = a.value > 0.0
    out = _Node(a.value * mask, (a,))
    out.backward = lambda g: a.add_grad(g * mask)
    return out


def _softmax_ce(a, y):
    z = a.value - np.max(a.value, axis=1, keepdims=True)
    p = np.exp(z)
    p /= np.sum(p, axis=1, keepdims=True)
    out = _Node(-np.mean(np.sum(y * np.log(p + 1e-12), axis=1)), (a,))
    out.backward = lambda g: a.add_grad(g * (p - y) / len(y))
    return out


def _backward(loss):
    order, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        stack.extend(node.parents)
    loss.grad = 1.0
    for node in order:
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)


_PARAMS = {
    "w1": np.linspace(-0.5, 0.5, 8 * 16).reshape(8, 16), "b1": np.zeros(16),
    "w2": np.linspace(0.5, -0.5, 16 * 5).reshape(16, 5), "b2": np.zeros(5),
}


def kernel() -> float:
    """One gradient step of the reference MLP on two views of the batch."""
    params = {k: _Node(v) for k, v in _PARAMS.items()}
    total = 0.0
    for view in (_X, _X[::-1]):
        h = _relu(_add(_matmul(_Node(view), params["w1"]), params["b1"]))
        loss = _softmax_ce(_add(_matmul(h, params["w2"]), params["b2"]), _Y)
        _backward(loss)
        total += float(loss.value)
    for k, node in params.items():
        _PARAMS[k] = _PARAMS[k] - 1e-9 * node.grad
    return total


def kernel_s() -> float:
    """CPU seconds of one kernel call."""
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0


def median_kernel_s(calls: int) -> float:
    """Median CPU seconds of one kernel call over `calls` calls."""
    return statistics.median(kernel_s() for _ in range(calls))


def reference_times(step_s, kernel_at) -> list[float]:
    """Step CPU times rescaled to the reference speed. `kernel_at` holds
    (steps completed, kernel CPU seconds) pairs; each block of BLOCK steps is
    scaled by the median of the kernel times measured within it, or by the
    median of all of them if none was."""
    overall = statistics.median(k for _, k in kernel_at)
    blocks = defaultdict(list)
    for n, k in kernel_at:
        blocks[(n - 1) // BLOCK].append(k)
    out = []
    for start in range(0, len(step_s), BLOCK):
        inside = blocks.get(start // BLOCK)
        scale = NOMINAL_S / (statistics.median(inside) if inside else overall)
        out += [scale * s for s in step_s[start:start + BLOCK]]
    return out


def reference_span_s(cpu_s: float, kernel_at, first: int, last: int) -> float:
    """CPU seconds of a span that ran steps first+1 .. last, less the kernel
    calls made within it, rescaled by their median kernel time (or by the
    median of all kernel times if it made none)."""
    inside = [k for n, k in kernel_at if first < n <= last]
    scale = NOMINAL_S / statistics.median(inside or [k for _, k in kernel_at])
    return (cpu_s - sum(inside)) * scale
