"""Reference code that only the tests run.

The unfused autodiff ops add, matmul, tanh, softmax_rows, take_rows, detach
and weighted_sum, and the chains built from them and the single loss heads:
features_chain, probs_chain, re_represent_chain, class_chain, branch_chain
and chain_step_objective are the chains the package's fused functions
replaced, and test_chains.py checks each function and the step against its
chain, bit for bit. Each op is dual-dispatch, as the package's own ops are:
on plain numpy inputs it returns the value, leading stack axis included, and
with at least one Tensor it wraps the same value in a graph node.

No command builds a graph. The graph views of the fused functions
(features_node, probs_node, class_nodes, branch_node, step_nodes) wrap their
values in nodes whose backward calls the function's own gradient, so the
tests walk them beside their chains.

The package builds no constant node: a graph over parameter leaves holds
only those leaves and op nodes. The chains here lift their constant operands
into parentless Tensors (lift, detach); such a constant gets a gradient like
any leaf, and no test reads it.

Also the helpers that several test modules share.
"""

from types import SimpleNamespace

import numpy as np

from lrco import numerics, trainer
from lrco.autodiff import Tensor, is_tensor, normalize_rows, row_block, softmax_grad, value_of
from lrco.data import AugmentSpec, weak_augment
from lrco.losses import (
    class_terms_batch, contrast_rows, contrastive_batch, contrastive_branch, cross_entropy_batch,
    entropy_alignment, kld_uniform_batch, mixlrco_batch,
)
from lrco.membank import MemoryBank
from lrco.model import (
    ModelConfig, clone_state, features_of, features_vjp, init_model, probs_of, probs_vjp,
    state_arrays,
)
from lrco.numerics import SeededRng


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


def detach(a):
    """Stop gradients: the value flows forward as a parentless Tensor, and
    nothing flows back."""
    if not is_tensor(a):
        return value_of(a)
    return Tensor(a.value)


def graph_value(op, n_lifted=None):
    """op with its first n_lifted arguments (every one for None) lifted into
    Tensors, as the value of the graph node it returns: the reference of a
    dual-dispatch op's or loss head's numpy call."""
    def value(*args):
        n = len(args) if n_lifted is None else n_lifted
        return op(*map(lift, args[:n]), *args[n:]).value

    return value


def probe_sum(x, weights):
    """A scalar node: the sum of x * weights over every entry, so x gets g *
    weights."""
    w = np.asarray(weights, dtype=np.float64)
    y = np.add.reduce((value_of(x) * w).ravel())
    if not is_tensor(x):
        return y
    return Tensor(y, (x,), lambda g: x.accumulate(g * w))


def features_chain(model_like, x_rows):
    """The MLP forward as the op chain matmul, add, tanh, layer by layer: the
    reference of model.features_vjp."""
    h = x_rows  # the first matmul lifts it into a constant node
    last = len(model_like.weights) - 1
    for i, (w, b) in enumerate(zip(model_like.weights, model_like.biases)):
        h = add(matmul(h, w), b)
        if i < last:
            h = tanh(h)
    return h


def probs_chain(model_like, feature_rows):
    """The cosine head as the op chain normalize_rows (features and
    classifier), matmul(transpose_b), softmax_rows: the reference of
    model.probs_vjp."""
    w_norm = normalize_rows(model_like.classifier)
    logits = matmul(normalize_rows(feature_rows), w_norm, transpose_b=True)
    return softmax_rows(logits, model_like.t_ce)


def re_represent_chain(model_like, feature_rows):
    """Re-representation through the detached classifier as the op chain
    normalize_rows, matmul(transpose_b), softmax_rows, matmul,
    normalize_rows: the reference of losses.re_represent_batch."""
    w = detach(model_like.classifier)
    attention = softmax_rows(
        matmul(normalize_rows(feature_rows), normalize_rows(w), transpose_b=True),
        model_like.t_re)
    return normalize_rows(matmul(attention, w))


def class_chain(p, labeled, labels, unlabeled, high, pseudo, weights):
    """(total, terms) of take_rows of each row block, the single heads and
    weighted_sum on probability rows p (plain, a stack or a Tensor): the
    reference of losses.class_terms_batch."""
    lab = take_rows(p, np.arange(labeled.start, labeled.stop))
    unl = take_rows(p, np.arange(unlabeled.start, unlabeled.stop))
    n_l, n_u = labeled.stop - labeled.start, unlabeled.stop - unlabeled.start
    terms = {"ce": cross_entropy_batch(lab, labels),
             "align": weighted_sum(((entropy_alignment(lab), n_l / (n_l + n_u)),
                                    (entropy_alignment(unl), n_u / (n_l + n_u))))}
    if len(high) > 0:
        rows = take_rows(p, high)
        terms["fixmatch"] = cross_entropy_batch(rows, pseudo)
        terms["kld"] = kld_uniform_batch(rows)
    pairs = [(terms[t], weights[t]) for t in ("ce", "align", "fixmatch", "kld")
             if t in terms and weights[t] > 0]
    return (pairs[0][0] if len(pairs) == 1 else weighted_sum(pairs)), terms


def branch_chain(f, rows, classifier, t_re, mode, k_pos, k_den, bank, t_co, w_unit=None):
    """take_rows of the query rows, contrast_rows and the loss head: the
    reference of losses.contrastive_branch, whose w_unit changes no bit."""
    queries = contrast_rows(take_rows(f, rows), classifier, t_re, mode)
    if len(k_den) == 1:
        return contrastive_batch(queries, k_pos, bank, t_co)
    return mixlrco_batch(queries, k_pos, *k_den, bank, t_co)


def chain_step_objective(model_like, sb, cfg, frozen_classifier=None):
    """The chain trainer.step_objective replaced, built from the reference
    ops and heads alone: the MLP and the class probabilities as op chains,
    the latter on a take_rows node of the rows before the mixes, take_rows
    of each row block, the single heads, the queries by contrast_rows on a
    take_rows node, and one weighted_sum over every term. The step's values
    and its backward keep its bits."""
    reads = trainer.METHOD_TERMS[cfg.method]
    terms = dict.fromkeys(trainer.LOSS_KEYS[1:], 0.0)
    feats = features_chain(model_like, sb.x)
    rows = {name: np.arange(len(sb.x))[r] for name, r in sb.rows.items()}
    probs = probs_chain(model_like, feats if "mix" not in rows
                        else take_rows(feats, np.arange(rows["mix"][0])))
    probs_lab = probs if len(rows) == 1 else take_rows(probs, rows["labeled"])
    terms["ce"] = cross_entropy_batch(probs_lab, sb.labeled_y)
    weighted = [(terms["ce"], 1.0)]
    if "align" in reads:
        n_l, n_u = len(rows["labeled"]), len(rows["unlabeled_weak"])
        ent_l = entropy_alignment(probs_lab)
        ent_u = entropy_alignment(take_rows(probs, rows["unlabeled_weak"]))
        terms["align"] = weighted_sum(((ent_l, n_l / (n_l + n_u)), (ent_u, n_u / (n_l + n_u))))
        if cfg.lambda_align > 0:
            weighted.append((terms["align"], cfg.lambda_align))
    strong = rows.get("unlabeled_strong")
    if "fixmatch" in reads and len(sb.high_idx) > 0:
        probs_high = take_rows(probs, strong[sb.high_idx])
        terms["fixmatch"] = cross_entropy_batch(probs_high, sb.pseudo[sb.high_idx])
        terms["kld"] = kld_uniform_batch(probs_high)
        weighted.append((terms["fixmatch"], 1.0))
        if cfg.lambda_kld > 0:
            weighted.append((terms["kld"], cfg.lambda_kld))

    classifier = model_like.classifier if frozen_classifier is None else frozen_classifier

    def queries(f_rows):
        return contrast_rows(f_rows, classifier, model_like.t_re, cfg.rerep_mode)

    if ("bank" in reads and cfg.lambda_co > 0 and len(sb.sel_idx) > 0
            and len(sb.bank_snapshot) > 0):
        terms["contrastive"] = contrastive_batch(
            queries(take_rows(feats, strong[sb.sel_idx])), sb.keys_sel, sb.bank_snapshot,
            cfg.t_co)
        weighted.append((terms["contrastive"], cfg.lambda_co))
    if "mix" in rows:
        terms["contrastive"] = mixlrco_batch(
            queries(take_rows(feats, rows["mix"])), sb.k_pos, *sb.k_den, sb.bank_snapshot,
            cfg.t_co)
        weighted.append((terms["contrastive"], cfg.lambda_co))
    return terms["ce"] if len(weighted) == 1 else weighted_sum(weighted), terms


# The graph views of the fused functions: each wraps the function's values
# in nodes whose backward passes its leaves the function's own gradient.

def features_node(params, x_rows):
    """model.features_vjp on lifted parameters as one node on their weight
    and bias leaves."""
    feats, grad = features_vjp(params.state, x_rows)
    leaves = params.leaves[:-1]

    def backward_fn(g):
        for leaf, g_leaf in zip(leaves, grad(g)):
            leaf.accumulate(g_leaf)

    return Tensor(feats, leaves, backward_fn)


def probs_node(params, feature_rows):
    """model.probs_vjp as one node on the feature rows and the classifier
    leaf (params.classifier, at temperature params.t_ce)."""
    classifier = params.classifier
    y, grad = probs_vjp(SimpleNamespace(classifier=classifier.value, t_ce=params.t_ce),
                        feature_rows.value)

    def backward_fn(g):
        g_w, g_f = grad(g)
        feature_rows.accumulate(g_f)
        classifier.accumulate(g_w)

    return Tensor(y, (feature_rows, classifier), backward_fn)


def class_nodes(p, *args):
    """losses.class_terms_batch on a probability-row leaf p: (total, terms),
    each one node on p, whose backward passes p the gradient of its own key
    (the total's by default)."""
    total, terms, grad = class_terms_batch(p.value, *args)

    def node(value, *weights):
        return Tensor(value, (p,), lambda g: p.accumulate(grad(g, *weights)))

    return node(total), {t: node(value, {t: 1.0}) for t, value in terms.items()}


def branch_node(f, rows, *args):
    """losses.contrastive_branch on a feature-row leaf f as one node on f,
    whose backward adds the gradient of the query rows into those rows of
    zeros, as the step's backward adds it."""
    value, grad = contrastive_branch(f.value, rows, *args)

    def backward_fn(g):
        g_f = np.zeros(f.value.shape)
        g_f[rows] += grad(g)
        f.accumulate(g_f)

    return Tensor(value, (f,), backward_fn)


def step_nodes(params, sb, cfg, **kw):
    """A step's graph view: trainer.step_objective on params.state, its total
    and each term one node over params.leaves, whose backward is the step's
    backward(key, params.grad, g). A term the step does not build is a node
    whose backward adds nothing."""
    total, terms, backward = trainer.step_objective(params.state, sb, cfg, with_grad=True, **kw)

    def node(key, value):
        return Tensor(value, params.leaves, lambda g: backward(key, params.grad, g))

    return node("total", total), {key: node(key, value) for key, value in terms.items()}


def all_nodes_topo_order(root):
    """The traversal that pushes every parent and skips those without a
    gradient when popped: the order the golden digests were recorded with."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node.parents)
    return order


def unit_rows(rng, n, d):
    """n random unit rows of width d, drawn from rng's normal."""
    raw = np.asarray(rng.normal(size=(n, d)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def probability_rows(rng, n, k):
    """n random probability rows over k classes: a softmax of rng's normal
    logits."""
    logits = np.asarray(rng.normal(size=(n, k))) * 1.5
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def same_bits(ours, theirs) -> bool:
    """Whether two values (arrays, scalars or Tensors) have equal shapes,
    dtypes and bytes."""
    ours, theirs = (np.asarray(x.value if is_tensor(x) else x) for x in (ours, theirs))
    return (ours.shape == theirs.shape and ours.dtype == theirs.dtype
            and ours.tobytes() == theirs.tobytes())


def tiny_setup(method="mixlrco", seed=0, **overrides):
    """(cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x): a run's
    parts at 8 labeled and 8 unlabeled rows of width 2, an empty bank, and a
    teacher equal to the student."""
    cfg = trainer.TrainConfig(method=method, seed=seed, batch_labeled=8,
                              batch_unlabeled=8, total_steps=10, **overrides)
    model_cfg = ModelConfig(input_dim=2, hidden_dims=(6,), feature_dim=5,
                            n_classes=3, t_ce=cfg.t_ce, t_re=cfg.resolved_t_re())
    student = init_model(model_cfg, SeededRng(seed).substream("init"))
    teacher = clone_state(student)
    bank = MemoryBank(cfg.bank_capacity)
    rng = SeededRng(seed + 100)
    lab_x = np.asarray(rng.normal(size=(8, 2)))
    lab_y = np.asarray(rng.integers(0, 3, size=8))
    lab_src = np.ones(8, dtype=bool)
    unl_x = np.asarray(rng.normal(size=(8, 2)))
    return cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x


def teacher_probs_at_step_1(cfg, teacher, unl_x):
    """The teacher's probabilities on step 1's weak view, drawn again from
    the same substream: the oracle of the pseudo-labels and the split."""
    weak = weak_augment(unl_x, AugmentSpec(),
                        SeededRng(cfg.seed).substream("augment-unlabeled-weak-1"))
    return np.asarray(probs_of(teacher, features_of(teacher, weak)))


def states_allclose(a, b) -> bool:
    """Whether two states have equal shapes and equal values."""
    x, y = state_arrays(a), state_arrays(b)
    return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)

