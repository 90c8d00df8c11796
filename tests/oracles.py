"""Reference code that only the tests run.

The unfused autodiff ops add, matmul, tanh, softmax_rows, take_rows and
detach: training runs each chain of them as one fused node
(model.features_of, model.probs_of, losses.re_represent_batch,
losses.contrastive_branch), and the tests check every fused node, bit for
bit, against the chain it replaced. Each op is dual-dispatch, as the
package's own ops are: on plain numpy inputs it returns the value, leading
stack axis included, and with at least one Tensor it wraps the same value in
a graph node.

The package builds no constant node: a training step's graph holds only
parameter leaves and op nodes. The chains here lift their constant operands
into parentless Tensors (lift, detach); such a constant gets a gradient like
any leaf, and no test reads it.

Also the helpers that several test modules share.
"""

import numpy as np

from lrco import numerics
from lrco.autodiff import Tensor, is_tensor, row_block, softmax_grad, value_of
from lrco.model import state_arrays


def lift(x) -> Tensor:
    """x as a graph operand: a Tensor as it is, an array as a parentless
    Tensor (a constant, whose gradient nothing reads)."""
    return x if is_tensor(x) else Tensor(x)


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
    a, b = lift(a), lift(b)

    def backward_fn(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(g, b.value.shape))

    return Tensor(y, (a, b), backward_fn)


def matmul(a, b, transpose_b: bool = False):
    bv = value_of(b)
    y = value_of(a) @ (bv.mT if transpose_b else bv)
    if not (is_tensor(a) or is_tensor(b)):
        return y
    a, b = lift(a), lift(b)

    def backward_fn(g):
        a.accumulate(g @ b.value if transpose_b else g @ b.value.T)
        b.accumulate(g.T @ a.value if transpose_b else a.value.T @ g)

    return Tensor(y, (a, b), backward_fn)


def tanh(a):
    y = np.tanh(value_of(a))
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(g * (1.0 - y * y)))


def softmax_rows(a, temperature: float):
    """Temperature softmax along the last axis (1-D vector or rows of a matrix)."""
    t = float(temperature)
    if not t > 0:
        raise ValueError("temperature must be positive")
    y = numerics.softmax_last(value_of(a), t)
    if not is_tensor(a):
        return y
    return Tensor(y, (a,), lambda g: a.accumulate(softmax_grad(g, y, t)))


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
    """Stop gradients: the value flows forward as a parentless Tensor, and
    nothing flows back."""
    if not is_tensor(a):
        return value_of(a)
    return Tensor(a.value)


def unit_rows(rng, n, d):
    """n random unit rows of width d, drawn from rng's normal."""
    raw = np.asarray(rng.normal(size=(n, d)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def states_allclose(a, b) -> bool:
    """Whether two states have equal shapes and equal values."""
    x, y = state_arrays(a), state_arrays(b)
    return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)

