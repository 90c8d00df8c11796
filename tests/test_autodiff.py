from types import SimpleNamespace

import numpy as np
import oracles
import pytest

from lrco import autodiff as ad
from lrco import numerics
from lrco.errors import DegenerateFeatureError
from lrco.losses import entropy_alignment, re_represent_batch
from lrco.model import (
    ModelConfig, features_of, features_vjp, get_param_vector, init_model, lift_params,
    probs_of, probs_vjp, state_arrays, tape_from, with_param_vector,
)
from lrco.numerics import SeededRng, finite_diff_grad, relative_grad_error


def probe_sum(x, weights):
    """A test-local scalar node: the sum of x * weights over every entry, so
    x gets g * weights."""
    w = np.asarray(weights, dtype=np.float64)
    y = np.add.reduce((ad.value_of(x) * w).ravel())
    if not ad.is_tensor(x):
        return y
    return ad.Tensor(y, (x,), lambda g: x.accumulate(g * w))


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


# The MLP forward and the cosine heads: each must equal, bit for bit, the op
# chain it replaces: its value on plain arrays, on the numpy stack axis and in
# the graph, and the gradient of every leaf behind it. In the graph, the MLP
# and the class probabilities run as nodes built on their gradient functions,
# as the step's node calls them.

def features_node(params, x_rows):
    """model.features_vjp on a lifted state as one node on its weight and
    bias leaves, which gets their gradients as the step's node gets them."""
    feats, grad = features_vjp(params.state, x_rows)
    leaves = params.leaves[:-1]

    def backward_fn(g):
        for leaf, g_leaf in zip(leaves, grad(g)):
            leaf.accumulate(g_leaf)

    return ad.Tensor(feats, leaves, backward_fn)


def probs_node(classifier, t_ce, feature_rows):
    """model.probs_vjp as one node on the feature rows and the classifier
    leaf, which get their gradients as the step's node passes them."""
    y, grad = probs_vjp(SimpleNamespace(classifier=classifier.value, t_ce=t_ce),
                        feature_rows.value)

    def backward_fn(g):
        g_w, g_f = grad(g)
        feature_rows.accumulate(g_f)
        classifier.accumulate(g_w)

    return ad.Tensor(y, (feature_rows, classifier), backward_fn)


def _rerep(m, f):
    return re_represent_batch(f, m.classifier, m.t_re)


def re_represent_chain(f_rows, classifier, t_re):
    w = oracles.detach(classifier)
    attention = oracles.softmax_rows(
        oracles.matmul(ad.normalize_rows(f_rows), ad.normalize_rows(w), transpose_b=True), t_re)
    return ad.normalize_rows(oracles.matmul(attention, w))


# head -> (its numpy value, its graph node, the chain)
HEADS = {
    "features_of": (features_of, features_node, oracles.features_chain),
    "probs_of": (probs_of, lambda p, f: probs_node(p.classifier, p.t_ce, f),
                 oracles.probs_chain),
    "re_represent_batch": (_rerep, _rerep,
                           lambda m, f: re_represent_chain(f, m.classifier, m.t_re)),
}
HEAD_HIDDEN_DIMS = ((), (6,), (6, 4))


def _head_setup(seed, hidden_dims):
    cfg = ModelConfig(input_dim=3, hidden_dims=hidden_dims, feature_dim=5, n_classes=4,
                      t_ce=0.05, t_re=0.3)
    m = init_model(cfg, SeededRng(seed))
    x = np.asarray(SeededRng(seed + 1).normal(size=(7, 3)))
    return m, x


def _head_input(head, m, x):
    """What the head reads: the input rows for features_of, the features of
    m for a cosine head."""
    return x if head == "features_of" else features_of(m, x)


@pytest.mark.parametrize("head", sorted(HEADS))
def test_fused_head_equals_its_op_chain_on_plain_arrays(head):
    fused, _, chain = HEADS[head]
    for hidden_dims in HEAD_HIDDEN_DIMS:
        m, x = _head_setup(30, hidden_dims)
        inputs = _head_input(head, m, x)
        assert _same_bits(fused(m, inputs), chain(m, inputs)), hidden_dims
        # the numpy stack axis: stacked parameters, and stacked inputs
        # against shared parameters
        stack = get_param_vector(m) + np.asarray(SeededRng(31).normal(size=(3, 1))) * 0.1
        stacked = with_param_vector(m, stack)
        stacked_in = _head_input(head, stacked, x)
        if head == "features_of":  # the input rows are shared; stack them too
            stacked_rows = x + np.asarray(SeededRng(32).normal(size=(3, 1, 1))) * 0.1
        else:
            stacked_rows = stacked_in
        assert _same_bits(fused(stacked, stacked_in), chain(stacked, stacked_in)), hidden_dims
        assert _same_bits(fused(m, stacked_rows), chain(m, stacked_rows)), hidden_dims
        for b in range(3):
            single = with_param_vector(m, stack[b])
            assert _same_bits(fused(stacked, stacked_in)[b],
                              fused(single, _head_input(head, single, x))), hidden_dims
            assert _same_bits(fused(m, stacked_rows)[b], fused(m, stacked_rows[b])), hidden_dims


@pytest.mark.parametrize("head", sorted(HEADS))
def test_fused_head_equals_its_op_chain_in_the_graph(head):
    # the feature rows feed a cosine head twice, through two row selections,
    # and a third consumer, so their gradient sums in the order the chain
    # gave it; for features_of, the head under test makes those rows
    _, fused, chain = HEADS[head]
    idx = np.array([0, 2, 3, 3, 6])
    weights = np.asarray(SeededRng(33).normal(size=(12, 5 if head == "re_represent_batch" else 4)))
    for hidden_dims in HEAD_HIDDEN_DIMS:
        m, x = _head_setup(32, hidden_dims)

        def run(build):
            params = lift_params(m)
            if head == "features_of":
                feats, cosine_head = build(params, x), HEADS["probs_of"][1]
            else:
                feats, cosine_head = features_node(params, x), build
            out = cosine_head(params, feats)
            picked = cosine_head(params, oracles.take_rows(feats, idx))
            loss = oracles.weighted_sum(((probe_sum(out, weights[:7]), 1.0),
                                         (probe_sum(picked, weights[7:]), 0.5),
                                         (probe_sum(feats, 0.01), 1.0)))
            loss.backward()
            return feats, out, state_arrays(with_param_vector(m, tape_from(params)))

        feats_f, out_f, grads_f = run(fused)
        feats_c, out_c, grads_c = run(chain)
        assert _same_bits(feats_f.value, feats_c.value), hidden_dims
        assert _same_bits(out_f.value, out_c.value), hidden_dims
        assert list(grads_f) == list(grads_c)
        for name in grads_f:
            assert _same_bits(grads_f[name], grads_c[name]), (hidden_dims, name)
        if head == "re_represent_batch":
            assert not np.any(grads_f["classifier"])


def test_features_vjp_gives_the_features_and_a_gradient_per_weight_and_bias():
    m, x = _head_setup(34, (6, 4))
    feats, grad = features_vjp(m, x)
    assert _same_bits(feats, features_of(m, x))
    grads = grad(np.asarray(SeededRng(35).normal(size=feats.shape)))
    assert [g.shape for g in grads] == [a.shape for a in list(state_arrays(m).values())[:-1]]


def test_probs_of_gradient_reaches_features_and_classifier():
    def probs(f, w):
        if ad.is_tensor(f):
            return probs_node(w, 0.4, f)
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


# Every op, called on arrays and on Tensors, with the variants of each: the
# numpy path must return a plain array with exactly the bits of the graph
# node's value.
DUAL_DISPATCH_CASES = {
    "add": (oracles.add, (3, 4), (4,)),
    "weighted_sum": (lambda a, b: oracles.weighted_sum(((a, 0.3), (b, -2.5))), (2, 5), (2, 5)),
    "matmul": (oracles.matmul, (3, 4), (4, 5)),
    "matmul-transpose_b": (lambda a, b: oracles.matmul(a, b, transpose_b=True), (3, 4), (5, 4)),
    "tanh": (oracles.tanh, (4, 4)),
    "softmax_rows": (lambda a: oracles.softmax_rows(a, 0.7), (4, 6)),
    "normalize_rows": (ad.normalize_rows, (5, 3)),
    "take_rows-repeated": (lambda a: oracles.take_rows(a, [1, 1, 0, 1]), (3, 4)),
    "detach": (oracles.detach, (2, 3)),
}


@pytest.mark.parametrize("case", sorted(DUAL_DISPATCH_CASES))
def test_numpy_call_equals_graph_value(case):
    build, *shapes = DUAL_DISPATCH_CASES[case]
    rng = SeededRng(11)
    inputs = [np.asarray(rng.normal(size=s)) for s in shapes]
    plain = build(*inputs)
    assert isinstance(plain, np.ndarray)  # a Tensor is no ndarray
    all_lifted = [ad.Tensor(x) for x in inputs]
    first_lifted = all_lifted[:1] + inputs[1:]
    for args in (all_lifted, first_lifted):
        node = build(*args)
        assert isinstance(node, ad.Tensor)
        assert plain.shape == node.value.shape and plain.dtype == node.value.dtype
        assert np.array_equal(plain, node.value)


# The numpy path with a leading stack axis of 3 on every input: entry b of
# the stacked call must have the bits of the call on entry b alone.
STACKED_CASES = {
    "add-bias_row": (oracles.add, (4, 5), (1, 5)),
    "matmul": (oracles.matmul, (4, 3), (3, 5)),
    "matmul-transpose_b": (lambda a, b: oracles.matmul(a, b, transpose_b=True), (4, 3), (5, 3)),
    "tanh": (oracles.tanh, (4, 4)),
    "weighted_sum": (lambda a, b: oracles.weighted_sum(((a, 0.3), (b, -2.5))), (2, 5), (2, 5)),
    "softmax_rows": (lambda a: oracles.softmax_rows(a, 0.7), (4, 6)),
    "normalize_rows": (ad.normalize_rows, (5, 3)),
    "take_rows": (lambda a: oracles.take_rows(a, [1, 1, 0, 1]), (3, 4)),
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


def _same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return (ours.shape == theirs.shape and ours.dtype == theirs.dtype
            and ours.tobytes() == theirs.tobytes())


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
    assert _same_bits(numerics.softmax_last(v, 0.3), e / np.sum(e, axis=-1, keepdims=True))
    m = np.max(v, axis=-1, keepdims=True)
    lse, e_lse, s_lse = numerics.logsumexp_last(v)
    assert _same_bits(lse, np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(v - m), axis=-1)))
    # the contrastive heads' backward reads its softmax from these parts
    assert _same_bits(e_lse / s_lse, numerics.softmax_last(v, 1.0))
    assert _same_bits(numerics.norm_last(v), np.sqrt(np.sum(v * v, axis=-1, keepdims=True)))


@pytest.mark.parametrize("kind", ["1d", "2d", "2d-fortran", "stacked"])
def test_backward_closures_keep_the_wrapper_formula_bits(kind):
    v = _wrapper_inputs(23)[kind]
    rng = np.random.default_rng(25)
    g_full = rng.normal(size=v.shape)

    y = numerics.softmax_last(v, 0.3)
    inner = np.sum(g_full * y, axis=-1, keepdims=True)
    assert _same_bits(_grad_through(oracles.softmax_rows, v, g_full, 0.3),
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
    assert _same_bits(oracles._unbroadcast(g, shape), _old_unbroadcast(g, shape))
