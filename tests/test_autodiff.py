import numpy as np
import pytest

from lrco import autodiff as ad
from lrco import numerics
from lrco.errors import DegenerateFeatureError
from lrco.numerics import SeededRng, finite_diff_grad, relative_grad_error


def check_op_gradient(build, *shapes, seed=0, tol=1e-6):
    """Generic probe: scalar = mean_last(rowwise_dot(op(inputs), weights)) for
    a matrix output, rowwise_dot(op(inputs), weights) for a vector output, or a
    0-d op output as it is; FD each input. Each of ``shapes`` is a shape to
    draw a normal input of, or an array to use as the input."""
    rng = SeededRng(seed)
    inputs = [np.array(s, dtype=np.float64) if isinstance(s, np.ndarray)
              else np.asarray(rng.normal(size=s)) * 0.7 for s in shapes]
    probe_shape = np.shape(ad.value_of(build(*inputs)))
    weights = np.asarray(rng.normal(size=probe_shape)) if probe_shape else None

    def probe(out):
        if weights is None:
            return out
        dots = ad.rowwise_dot(out, weights)
        return ad.mean_last(dots) if len(probe_shape) == 2 else dots

    def scalar_of(arrays):
        return float(probe(build(*arrays)))

    tensors = [ad.Tensor(x.copy(), requires_grad=True) for x in inputs]
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
    check_op_gradient(lambda a, b: ad.add(a, b), (3, 4), (4,))


def test_sub_and_neg():
    check_op_gradient(lambda a, b: ad.sub(a, b), (2, 5), (2, 5))
    check_op_gradient(lambda a: ad.neg(a), (7,))


def test_scale_constant():
    check_op_gradient(lambda a: ad.scale(a, -2.5), (6,))


def test_matmul_plain_and_transposed():
    check_op_gradient(lambda a, b: ad.matmul(a, b), (3, 4), (4, 5))
    check_op_gradient(lambda a, b: ad.matmul(a, b, transpose_b=True), (3, 4), (5, 4))


def test_tanh():
    check_op_gradient(lambda a: ad.tanh(a), (4, 4))


def test_log_clamped_smooth_region():
    rng = SeededRng(1)
    x = np.asarray(rng.uniform(size=(3, 3))) + 0.5  # well above the clamp
    assert np.all(x - 1e-6 > ad.LOG_FLOOR)  # every finite-difference point too
    check_op_gradient(lambda a: ad.log_clamped(a), x, seed=2)


def test_log_clamped_at_floor_has_zero_grad():
    t = ad.Tensor(np.array([1e-15, 0.5]), requires_grad=True)
    out = ad.mean_last(ad.log_clamped(t))
    out.backward()
    assert t.grad[0] == 0.0  # clamped coordinate: locally constant
    assert abs(t.grad[1] - 1.0) < 1e-12  # (1/2) * (1/0.5)


def test_mean_last():
    check_op_gradient(lambda a: ad.mean_last(a), (3, 5))
    check_op_gradient(lambda a: ad.mean_last(a), (5,))


def test_softmax_rows_with_temperature():
    check_op_gradient(lambda a: ad.softmax_rows(a, 0.7), (4, 6))


def test_normalize_rows():
    check_op_gradient(lambda a: ad.normalize_rows(a), (5, 3))


def test_normalize_rows_rejects_zero_row():
    bad = np.zeros((2, 3))
    bad[0] = [1.0, 0.0, 0.0]
    with pytest.raises(DegenerateFeatureError):
        ad.normalize_rows(bad)


def test_logsumexp_rows():
    check_op_gradient(lambda a: ad.logsumexp_rows(a), (4, 7))


def test_rowwise_dot():
    check_op_gradient(lambda a, b: ad.rowwise_dot(a, b), (5, 4), (5, 4))
    # a vector operand broadcasts against every row, on either side
    check_op_gradient(lambda a, b: ad.rowwise_dot(a, b), (4,), (5, 4))
    check_op_gradient(lambda a, b: ad.rowwise_dot(a, b), (5, 4), (4,))


def test_pick_per_row():
    idx = np.array([2, 0, 1, 2])
    check_op_gradient(lambda a: ad.pick_per_row(a, idx), (4, 3))


def test_take_rows_repeated_indices_accumulate():
    # repeated rows must add their gradients, not overwrite
    idx = np.array([1, 1, 0])
    t = ad.Tensor(np.arange(6, dtype=np.float64).reshape(3, 2), requires_grad=True)
    out = ad.mean_last(ad.mean_last(ad.take_rows(t, idx)))
    out.backward()
    # each of the 6 selected entries carries 1/6
    np.testing.assert_allclose(t.grad, np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]) / 6)
    check_op_gradient(lambda a: ad.take_rows(a, idx), (3, 4))


def test_hstack_cols():
    def build(a, b):
        return ad.hstack_cols([a, b])

    check_op_gradient(build, (4,), (4, 3))


def test_detach_blocks_gradient():
    t = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = ad.rowwise_dot(ad.detach(t), t)
    out.backward()
    # d/dt (c . t) with c = detach(t) frozen at [1, 2]
    np.testing.assert_allclose(t.grad, [1.0, 2.0])


def test_array_inputs_stay_plain_numpy():
    a = np.ones((2, 2))
    out = ad.matmul(ad.tanh(a), a)
    assert isinstance(out, np.ndarray)


def test_diamond_graph_accumulates():
    t = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.add(ad.rowwise_dot(t, t), ad.scale(t, 4.0))  # t^2 + 4t -> grad 2t+4 = 10
    ad.mean_last(y).backward()
    np.testing.assert_allclose(t.grad, [10.0])


def test_first_gradient_is_a_fresh_array():
    t = ad.Tensor(np.zeros(3), requires_grad=True)
    g = np.array([1.0, -0.0, 2.0])
    t.accumulate(g)
    assert not np.shares_memory(t.grad, g)
    assert not np.signbit(t.grad[1])  # -0.0 becomes +0.0, as zeros + g gives
    g[0] = 5.0
    t.accumulate(np.ones(3))
    np.testing.assert_array_equal(t.grad, [2.0, 1.0, 3.0])
    np.testing.assert_array_equal(g, [5.0, -0.0, 2.0])


def test_constant_operands_get_no_gradient():
    w = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    bank = np.array([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]])
    keys = np.array([[1.0, 0.0], [0.0, 1.0]])
    sims = ad.hstack_cols([ad.rowwise_dot(w, keys), ad.matmul(w, bank, transpose_b=True)])
    ad.mean_last(ad.mean_last(sims)).backward()
    # d/dw of the mean of (w . keys) and (w @ bank.T): keys + the bank's
    # column sums, over the 8 entries of sims
    np.testing.assert_array_equal(w.grad, (keys + bank.sum(axis=0)) / 8)


def test_backward_requires_scalar():
    t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    out = ad.scale(t, 2.0)
    with pytest.raises(ValueError):
        out.backward()


def test_second_backward_on_fresh_graph_matches():
    # building the same graph twice gives identical gradients (no state leak)
    def run():
        t = ad.Tensor(np.array([[0.3, -0.2], [0.1, 0.9]]), requires_grad=True)
        weights = np.array([[1.0, -1.0], [2.0, 0.5]])
        loss = ad.mean_last(ad.rowwise_dot(ad.softmax_rows(t, 0.5), weights))
        loss.backward()
        return t.grad.copy()

    assert np.array_equal(run(), run())


def test_composite_network_gradient():
    # a miniature end-to-end graph resembling the real forward path
    rng = SeededRng(5)
    x = np.asarray(rng.normal(size=(6, 3)))

    def build(w1, b1, w2):
        h = ad.tanh(ad.add(ad.matmul(x, w1), b1))
        logits = ad.matmul(ad.normalize_rows(h), ad.normalize_rows(w2), transpose_b=True)
        probs = ad.softmax_rows(logits, 0.4)
        return ad.mean_last(ad.mean_last(ad.log_clamped(probs)))

    check_op_gradient(build, (3, 4), (4,), (5, 4), seed=6, tol=1e-5)


# Every op, called on arrays and on Tensors, with the variants of each: the
# numpy path must return a plain array with exactly the bits of the graph
# node's value.
DUAL_DISPATCH_CASES = {
    "add": (ad.add, (3, 4), (4,)),
    "sub": (ad.sub, (2, 5), (2, 5)),
    "neg": (ad.neg, (7,)),
    "scale": (lambda a: ad.scale(a, -2.5), (6,)),
    "matmul": (ad.matmul, (3, 4), (4, 5)),
    "matmul-transpose_b": (lambda a, b: ad.matmul(a, b, transpose_b=True), (3, 4), (5, 4)),
    "tanh": (ad.tanh, (4, 4)),
    "log_clamped": (ad.log_clamped, (3, 3)),
    "mean_last": (ad.mean_last, (3, 5)),
    "softmax_rows": (lambda a: ad.softmax_rows(a, 0.7), (4, 6)),
    "normalize_rows": (ad.normalize_rows, (5, 3)),
    "logsumexp_rows": (ad.logsumexp_rows, (4, 7)),
    "rowwise_dot": (ad.rowwise_dot, (5, 4), (5, 4)),
    "rowwise_dot-1d_left": (ad.rowwise_dot, (4,), (5, 4)),
    "rowwise_dot-1d_right": (ad.rowwise_dot, (5, 4), (4,)),
    "pick_per_row-repeated": (lambda a: ad.pick_per_row(a, [2, 2, 0, 2]), (4, 3)),
    "hstack_cols-1d_part": (lambda a, b: ad.hstack_cols([a, b]), (4,), (4, 3)),
    "take_rows-repeated": (lambda a: ad.take_rows(a, [1, 1, 0, 1]), (3, 4)),
    "detach": (ad.detach, (2, 3)),
}


@pytest.mark.parametrize("case", sorted(DUAL_DISPATCH_CASES))
def test_numpy_call_equals_graph_value(case):
    build, *shapes = DUAL_DISPATCH_CASES[case]
    rng = SeededRng(11)
    inputs = [np.asarray(rng.normal(size=s)) for s in shapes]
    plain = build(*inputs)
    assert isinstance(plain, np.ndarray)  # a Tensor is no ndarray
    all_lifted = [ad.Tensor(x, requires_grad=True) for x in inputs]
    first_lifted = all_lifted[:1] + inputs[1:]
    for args in (all_lifted, first_lifted):
        node = build(*args)
        assert isinstance(node, ad.Tensor)
        assert plain.shape == node.value.shape and plain.dtype == node.value.dtype
        assert np.array_equal(plain, node.value)


# The numpy path with a leading stack axis of 3 on every input: entry b of
# the stacked call must have the bits of the call on entry b alone.
STACKED_CASES = {
    "add-bias_row": (ad.add, (4, 5), (1, 5)),
    "matmul": (ad.matmul, (4, 3), (3, 5)),
    "matmul-transpose_b": (lambda a, b: ad.matmul(a, b, transpose_b=True), (4, 3), (5, 3)),
    "tanh": (ad.tanh, (4, 4)),
    "log_clamped": (ad.log_clamped, (3, 3)),
    "mean_last": (ad.mean_last, (6,)),
    "softmax_rows": (lambda a: ad.softmax_rows(a, 0.7), (4, 6)),
    "normalize_rows": (ad.normalize_rows, (5, 3)),
    "logsumexp_rows": (ad.logsumexp_rows, (4, 7)),
    "rowwise_dot": (ad.rowwise_dot, (5, 4), (5, 4)),
    "pick_per_row": (lambda a: ad.pick_per_row(a, [2, 2, 0, 2]), (4, 3)),
    "hstack_cols-1d_part": (lambda a, b: ad.hstack_cols([a, b]), (4,), (4, 3)),
    "take_rows": (lambda a: ad.take_rows(a, [1, 1, 0, 1]), (3, 4)),
}


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_numpy_path_accepts_a_stack_axis(case):
    build, *shapes = STACKED_CASES[case]
    rng = SeededRng(13)
    stacks = [np.asarray(rng.normal(size=(3,) + s)) for s in shapes]
    stacked = build(*stacks)
    for b in range(3):
        single = build(*[s[b] for s in stacks])
        assert stacked[b].shape == single.shape
        assert stacked[b].tobytes() == single.tobytes()


def test_stacked_operand_meets_an_unstacked_one():
    # the stacked finite-difference pass multiplies fixed inputs by stacked
    # weights, and stacked queries by a fixed bank
    rng = SeededRng(14)
    x, w = np.asarray(rng.normal(size=(4, 3))), np.asarray(rng.normal(size=(2, 3, 5)))
    q, bank = np.asarray(rng.normal(size=(2, 4, 3))), np.asarray(rng.normal(size=(6, 3)))
    for b in range(2):
        assert ad.matmul(x, w)[b].tobytes() == ad.matmul(x, w[b]).tobytes()
        assert (ad.matmul(q, bank, transpose_b=True)[b].tobytes()
                == ad.matmul(q[b], bank, transpose_b=True).tobytes())


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


def _same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return (ours.shape == theirs.shape and ours.dtype == theirs.dtype
            and ours.tobytes() == theirs.tobytes())


def _grad_through(op, x, g, *rest):
    """The gradient the leaf x receives when op's node gets g."""
    leaf = ad.Tensor(x, requires_grad=True)
    op(leaf, *rest).backward_fn(g)
    return leaf.grad


@pytest.mark.parametrize("kind", ["1d", "2d", "2d-fortran", "stacked"])
def test_row_functions_keep_the_wrapper_formula_bits(kind):
    v = _wrapper_inputs(21)[kind]
    z = v / 0.3
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    assert _same_bits(numerics.softmax_last(v, 0.3), e / np.sum(e, axis=-1, keepdims=True))
    m = np.max(v, axis=-1, keepdims=True)
    assert _same_bits(numerics.logsumexp_last(v),
                      np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(v - m), axis=-1)))
    assert _same_bits(numerics.norm_last(v), np.sqrt(np.sum(v * v, axis=-1, keepdims=True)))
    assert _same_bits(ad.mean_last(v), np.asarray(v.mean(axis=-1)))
    w = _wrapper_inputs(22)[kind]
    assert _same_bits(ad.rowwise_dot(v, w), np.sum(v * w, axis=-1))
    row = w.reshape(-1, w.shape[-1])[0]  # a 1-D operand meets every row
    assert _same_bits(ad.rowwise_dot(v, row), np.sum(v * row, axis=-1))


@pytest.mark.parametrize("kind", ["1d", "2d", "2d-fortran", "stacked"])
def test_backward_closures_keep_the_wrapper_formula_bits(kind):
    v, w = _wrapper_inputs(23)[kind], _wrapper_inputs(24)[kind]
    rng = np.random.default_rng(25)
    g_row = rng.normal(size=v.shape[:-1])  # the gradient of a per-row output
    g_full = rng.normal(size=v.shape)
    n = v.shape[-1]

    old_mean = np.broadcast_to((g_row / n)[..., None], v.shape).copy()
    assert _same_bits(_grad_through(ad.mean_last, v, g_row), old_mean + 0.0)

    ge = np.expand_dims(g_row, -1)
    assert _same_bits(_grad_through(ad.rowwise_dot, v, g_row, w),
                      _old_unbroadcast(ge * w, v.shape) + 0.0)
    row = w.reshape(-1, w.shape[-1])[0]
    leaf = ad.Tensor(row, requires_grad=True)
    ad.rowwise_dot(v, leaf).backward_fn(g_row)
    assert _same_bits(leaf.grad, _old_unbroadcast(ge * v, row.shape) + 0.0)

    soft = numerics.softmax_last(v, 1.0)
    assert _same_bits(_grad_through(ad.logsumexp_rows, v, g_row), soft * ge + 0.0)

    y = numerics.softmax_last(v, 0.3)
    inner = np.sum(g_full * y, axis=-1, keepdims=True)
    assert _same_bits(_grad_through(ad.softmax_rows, v, g_full, 0.3),
                      y * (g_full - inner) / 0.3 + 0.0)

    unit, norms = numerics.unit_last(v)
    inner = np.sum(g_full * unit, axis=-1, keepdims=True)
    assert _same_bits(_grad_through(ad.normalize_rows, v, g_full),
                      (g_full - inner * unit) / norms + 0.0)


@pytest.mark.parametrize("g_shape,shape", [
    ((4, 5), (5,)), ((4, 5), (1, 5)), ((4, 5), (4, 1)), ((4, 5), (1, 1)),
    ((3, 4, 5), (5,)), ((3, 4, 5), (4, 1)), ((3, 4, 5), (3, 1, 5)), ((4, 5), (4, 5)),
    ((), ()),
])
def test_unbroadcast_keeps_the_wrapper_formula_bits(g_shape, shape):
    g = np.random.default_rng(26).normal(size=g_shape) * 1e3
    assert _same_bits(ad._unbroadcast(g, shape), _old_unbroadcast(g, shape))
