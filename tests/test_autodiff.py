from types import SimpleNamespace

import numpy as np
import oracles
import pytest

from lrco import autodiff as ad
from lrco import numerics
from lrco.errors import DegenerateFeatureError
from lrco.losses import entropy_alignment, re_represent_batch
from lrco.model import ModelConfig, features_of, features_vjp, init_model, probs_of, state_arrays
from lrco.numerics import SeededRng, finite_diff_grad, relative_grad_error
from oracles import probe_sum, same_bits
from test_chains import entry


def check_op_gradient(build, *shapes, seed=0, tol=1e-6):
    """Generic probe: scalar = probe_sum(op(inputs), weights) with normal
    weights, or a 0-d op output as it is; FD each input. Each of ``shapes``
    is a shape to draw a normal input of."""
    rng = SeededRng(seed)
    inputs = [np.asarray(rng.normal(size=s)) * 0.7 for s in shapes]
    probe_shape = np.shape(ad.value_of(build(*inputs)))
    weights = np.asarray(rng.normal(size=probe_shape)) if probe_shape else None

    def probe(out):
        return out if weights is None else probe_sum(out, weights)

    def scalar_of(arrays):
        return float(probe(build(*arrays)))

    tensors = [ad.Tensor(x.copy()) for x in inputs]
    probe(build(*tensors)).backward()

    for i, t in enumerate(tensors):
        def f(stack, i=i):
            values = []
            for flat in stack:  # scalar_of takes one input set at a time
                arrays = [x.copy() for x in inputs]
                arrays[i] = flat.reshape(inputs[i].shape)
                values.append(scalar_of(arrays))
            return np.array(values)

        numeric = finite_diff_grad(f, inputs[i].ravel(), h=1e-6)
        analytic = t.grad.ravel()
        err = relative_grad_error(analytic, numeric)
        assert err < tol, f"input {i}: rel err {err}"


def test_add_broadcast_bias():
    check_op_gradient(lambda a, b: oracles.add(a, b), (3, 4), (4,))


def test_weighted_sum():
    check_op_gradient(lambda a, b: oracles.weighted_sum(((a, 0.3), (b, -2.5))), (2, 5), (2, 5))
    check_op_gradient(lambda a, b, c: oracles.weighted_sum(((a, 1.0), (b, 0.5), (c, 4.0))),
                      (), (), ())


def test_weighted_sum_adds_left_to_right():
    # the bits of (x0 w0 + x1 w1) + x2 w2; another grouping rounds otherwise
    x = [np.float64(0.1), np.float64(1e16), np.float64(-1e16)]
    w = [1.0, 0.3, 0.3]
    assert oracles.weighted_sum(zip(x, w)) == (x[0] * w[0] + x[1] * w[1]) + x[2] * w[2]


def test_matmul_plain_and_transposed():
    check_op_gradient(lambda a, b: oracles.matmul(a, b), (3, 4), (4, 5))
    check_op_gradient(lambda a, b: oracles.matmul(a, b, transpose_b=True), (3, 4), (5, 4))


def test_tanh():
    check_op_gradient(lambda a: oracles.tanh(a), (4, 4))


def test_softmax_rows_with_temperature():
    check_op_gradient(lambda a: oracles.softmax_rows(a, 0.7), (4, 6))


def test_normalize_rows():
    check_op_gradient(lambda a: ad.normalize_rows(a), (5, 3))


def test_normalize_rows_rejects_zero_row():
    bad = np.zeros((2, 3))
    bad[0] = [1.0, 0.0, 0.0]
    with pytest.raises(DegenerateFeatureError):
        ad.normalize_rows(bad)


def test_take_rows_repeated_indices_accumulate():
    # repeated rows must add their gradients, not overwrite
    idx = np.array([1, 1, 0])
    t = ad.Tensor(np.arange(6, dtype=np.float64).reshape(3, 2))
    out = probe_sum(oracles.take_rows(t, idx), 1.0 / 6)
    out.backward()
    # each of the 6 selected entries carries 1/6
    np.testing.assert_allclose(t.grad, np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]) / 6)
    check_op_gradient(lambda a: oracles.take_rows(a, idx), (3, 4))


def test_detach_blocks_gradient():
    t = ad.Tensor(np.array([[1.0, 2.0]]))
    out = probe_sum(oracles.matmul(oracles.detach(t), t, transpose_b=True), 1.0)
    out.backward()
    # d/dt (c . t) with c = detach(t) frozen at [1, 2]
    np.testing.assert_allclose(t.grad, [[1.0, 2.0]])


def test_array_inputs_stay_plain_numpy():
    a = np.ones((2, 2))
    out = oracles.matmul(oracles.tanh(a), a)
    assert isinstance(out, np.ndarray)


def test_diamond_graph_accumulates():
    t = ad.Tensor(np.array([[3.0]]))
    four = np.array([[4.0]])
    y = oracles.add(oracles.matmul(t, t, transpose_b=True), oracles.matmul(t, four))  # t^2 + 4t
    probe_sum(y, 1.0).backward()
    np.testing.assert_allclose(t.grad, [[10.0]])  # 2t + 4


def test_first_gradient_is_a_fresh_array():
    t = ad.Tensor(np.zeros(3))
    g = np.array([1.0, -0.0, 2.0])
    t.accumulate(g)
    assert not np.shares_memory(t.grad, g)
    assert not np.signbit(t.grad[1])  # -0.0 becomes +0.0, as zeros + g gives
    g[0] = 5.0
    t.accumulate(np.ones(3))
    np.testing.assert_array_equal(t.grad, [2.0, 1.0, 3.0])
    np.testing.assert_array_equal(g, [5.0, -0.0, 2.0])


def test_constant_operands_get_no_gradient():
    w = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    bank = np.array([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]])
    sims = oracles.matmul(w, bank, transpose_b=True)
    probe_sum(sims, 0.125).backward()
    # d/dw of (w @ bank.T) summed and weighted by 1/8: the bank's column
    # sums over 8 in every row
    np.testing.assert_array_equal(w.grad, np.tile(bank.sum(axis=0) / 8, (2, 1)))


def test_backward_requires_scalar():
    t = ad.Tensor(np.ones((2, 2)))
    out = oracles.tanh(t)
    with pytest.raises(ValueError):
        out.backward()


def test_second_backward_on_fresh_graph_matches():
    # building the same graph twice gives identical gradients (no state leak)
    def run():
        t = ad.Tensor(np.array([[0.3, -0.2], [0.1, 0.9]]))
        weights = np.array([[1.0, -1.0], [2.0, 0.5]])
        loss = probe_sum(oracles.softmax_rows(t, 0.5), weights)
        loss.backward()
        return t.grad.copy()

    assert np.array_equal(run(), run())


def test_composite_network_gradient():
    # a miniature end-to-end graph resembling the real forward path
    rng = SeededRng(5)
    x = np.asarray(rng.normal(size=(6, 3)))

    def build(w1, b1, w2):
        h = oracles.tanh(oracles.add(oracles.matmul(x, w1), b1))
        logits = oracles.matmul(ad.normalize_rows(h), ad.normalize_rows(w2), transpose_b=True)
        probs = oracles.softmax_rows(logits, 0.4)
        return entropy_alignment(probs)

    check_op_gradient(build, (3, 4), (4,), (5, 4), seed=6, tol=1e-5)


# The chain comparisons of the ops, the MLP forward and the cosine heads run
# from the one table in test_chains.py, under the ids they had before it.
test_fused_head_equals_its_op_chain_on_plain_arrays = entry(
    "test_fused_head_equals_its_op_chain_on_plain_arrays")
test_fused_head_equals_its_op_chain_in_the_graph = entry(
    "test_fused_head_equals_its_op_chain_in_the_graph")
test_numpy_call_equals_graph_value = entry("test_numpy_call_equals_graph_value")
test_numpy_path_accepts_a_stack_axis = entry("test_numpy_path_accepts_a_stack_axis")


def test_features_vjp_gives_the_features_and_a_gradient_per_weight_and_bias():
    cfg = ModelConfig(input_dim=3, hidden_dims=(6, 4), feature_dim=5, n_classes=4,
                      t_ce=0.05, t_re=0.3)
    m, x = init_model(cfg, SeededRng(34)), np.asarray(SeededRng(35).normal(size=(7, 3)))
    feats, grad = features_vjp(m, x)
    assert same_bits(feats, features_of(m, x))
    grads = grad(np.asarray(SeededRng(35).normal(size=feats.shape)))
    assert [g.shape for g in grads] == [a.shape for a in list(state_arrays(m).values())[:-1]]


def test_probs_of_gradient_reaches_features_and_classifier():
    def probs(f, w):
        if ad.is_tensor(f):
            return oracles.probs_node(SimpleNamespace(classifier=w, t_ce=0.4), f)
        return probs_of(SimpleNamespace(classifier=w, t_ce=0.4), f)

    check_op_gradient(probs, (6, 5), (4, 5), seed=34)


def test_re_represent_gradient_reaches_the_features_only():
    w = np.asarray(SeededRng(35).normal(size=(4, 5)))
    check_op_gradient(lambda f: re_represent_batch(f, w, 0.3), (6, 5), seed=36)
    f = ad.Tensor(np.asarray(SeededRng(37).normal(size=(6, 5))))
    w_leaf = ad.Tensor(w)
    node = re_represent_batch(f, w_leaf, 0.3)
    assert node.parents == (f,)
    probe_sum(node, 1.0).backward()
    assert w_leaf.grad is None and np.any(f.grad != 0.0)


def test_stacked_operand_meets_an_unstacked_one():
    # the stacked finite-difference pass multiplies fixed inputs by stacked
    # weights, and stacked queries by a fixed bank
    rng = SeededRng(14)
    x, w = np.asarray(rng.normal(size=(4, 3))), np.asarray(rng.normal(size=(2, 3, 5)))
    q, bank = np.asarray(rng.normal(size=(2, 4, 3))), np.asarray(rng.normal(size=(6, 3)))
    for b in range(2):
        assert oracles.matmul(x, w)[b].tobytes() == oracles.matmul(x, w[b]).tobytes()
        assert (oracles.matmul(q, bank, transpose_b=True)[b].tobytes()
                == oracles.matmul(q[b], bank, transpose_b=True).tobytes())


# The row functions and backward closures call numpy's ufunc loops directly
# (np.add.reduce for np.sum and ndarray.mean, np.maximum.reduce for np.max,
# an index for np.expand_dims and np.squeeze). Each must keep the bits of the
# wrapper formula it replaced, written out here, on 1-D, (n, K) and stacked
# (B, n, K) input; the stacked case is the finite-difference path.

def _wrapper_inputs(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(6, 13)) * rng.choice([1e-3, 1.0, 40.0], size=(6, 1))
    rows[1, :4] = -0.0
    rows[2] = rows[2, 0]  # a row of ties
    stacked = rng.normal(size=(3, 6, 13)) * 7.0
    return {"1d": rows[0], "2d": rows, "2d-fortran": np.asfortranarray(rows),
            "stacked": stacked}


def _old_unbroadcast(g, shape):
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _grad_through(op, x, g, *rest):
    """The gradient the leaf x receives when op's node gets g."""
    leaf = ad.Tensor(x)
    op(leaf, *rest).backward_fn(g)
    return leaf.grad


@pytest.mark.parametrize("kind", ["1d", "2d", "2d-fortran", "stacked"])
def test_row_functions_keep_the_wrapper_formula_bits(kind):
    v = _wrapper_inputs(21)[kind]
    z = v / 0.3
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    assert same_bits(numerics.softmax_last(v, 0.3), e / np.sum(e, axis=-1, keepdims=True))
    m = np.max(v, axis=-1, keepdims=True)
    lse, e_lse, s_lse = numerics.logsumexp_last(v)
    assert same_bits(lse, np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(v - m), axis=-1)))
    # the contrastive heads' backward reads its softmax from these parts
    assert same_bits(e_lse / s_lse, numerics.softmax_last(v, 1.0))
    assert same_bits(numerics.norm_last(v), np.sqrt(np.sum(v * v, axis=-1, keepdims=True)))


@pytest.mark.parametrize("kind", ["1d", "2d", "2d-fortran", "stacked"])
def test_backward_closures_keep_the_wrapper_formula_bits(kind):
    v = _wrapper_inputs(23)[kind]
    rng = np.random.default_rng(25)
    g_full = rng.normal(size=v.shape)

    y = numerics.softmax_last(v, 0.3)
    inner = np.sum(g_full * y, axis=-1, keepdims=True)
    assert same_bits(_grad_through(oracles.softmax_rows, v, g_full, 0.3),
                      y * (g_full - inner) / 0.3 + 0.0)

    unit, norms = numerics.unit_last(v)
    inner = np.sum(g_full * unit, axis=-1, keepdims=True)
    assert same_bits(_grad_through(ad.normalize_rows, v, g_full),
                      (g_full - inner * unit) / norms + 0.0)


@pytest.mark.parametrize("g_shape,shape", [
    ((4, 5), (5,)), ((4, 5), (1, 5)), ((4, 5), (4, 1)), ((4, 5), (1, 1)),
    ((3, 4, 5), (5,)), ((3, 4, 5), (4, 1)), ((3, 4, 5), (3, 1, 5)), ((4, 5), (4, 5)),
    ((), ()),
])
def test_unbroadcast_keeps_the_wrapper_formula_bits(g_shape, shape):
    g = np.random.default_rng(26).normal(size=g_shape) * 1e3
    assert same_bits(oracles._unbroadcast(g, shape), _old_unbroadcast(g, shape))
