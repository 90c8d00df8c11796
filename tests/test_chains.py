"""The bit-for-bit chain comparisons, as one table.

Every fused function of the package replaced a chain of reference ops and
heads (oracles.py), and keeps its bits. A row of CHAINS names the function,
its chain, a seeded builder of its cases, and the paths it is checked on,
each with the test that runs it; check(row, path) runs one pair:

- plain: on plain arrays, the function and its chain give equal bytes, shape
  and dtype for the value and every term, and the function no Tensor.
- stacked: the same with arguments stacked 3 deep, and entry b has the bits
  of the call on entry b alone.
- graph: the function's graph view and its chain run on a lifted first
  argument, and each scalar key, the total and every term, is walked alone,
  in the order of a walk over every node. The leaves' gradients have the
  same bytes; a key the chain does not build gets 0.

A dual-dispatch op or loss head has its own graph node's value as its chain.
The test modules of the functions keep the ids these checks had before the
table: entry(name) is the test of that name.
"""

import collections
import functools
import importlib

import numpy as np
import oracles
import pytest

from lrco import autodiff as ad
from lrco.data import AugmentSpec
from lrco.losses import (
    class_terms_batch, contrastive_batch, contrastive_branch, cross_entropy_batch,
    entropy_alignment, kld_uniform_batch, mixlrco_batch, re_represent_batch,
)
from lrco.model import (
    ModelConfig, ModelState, features_of, init_model, lift_params, probs_of, with_param_vector,
)
from lrco.numerics import SeededRng, StepStreams, unit_last
from lrco.trainer import METHODS, init_velocities, prepare_step, step_objective, train_step

# A row of the table; graph is (the function's graph view, its chain's) for
# the graph path.
Row = collections.namedtuple("Row", "fn chain build paths graph", defaults=(None,))
# A case of a row's builder: the plain call's arguments, and the stacked
# calls, each {position: a stack of 3 for that argument} (for a state, of
# its parameter vectors).
Case = collections.namedtuple("Case", "args stacks")


def _parts(out):
    """(value, terms) of a function's or chain's result: a value, or a tuple
    of the value and, if any, a dict of the terms."""
    if not isinstance(out, tuple):
        return out, {}
    return out[0], next((x for x in out[1:] if isinstance(x, dict)), {})


def _assert_same(ours, theirs, where):
    (value, terms), (want, want_terms) = _parts(ours), _parts(theirs)
    assert list(terms) == list(want_terms), where
    for key, x in {"total": value, **terms}.items():
        assert oracles.same_bits(x, want if key == "total" else want_terms[key]), (where, key)


def _calls(args, stack):
    """The arguments with those at stack's positions stacked, and those of
    each entry b alone."""
    def put(arg, value):
        return with_param_vector(arg, value) if isinstance(arg, ModelState) else value

    def at(pick):
        return tuple(put(a, pick(stack[i])) if i in stack else a for i, a in enumerate(args))

    return at(lambda s: s), [at(lambda s, b=b: s[b]) for b in range(3)]


def _walks(form, args):
    """Every key of ``form`` on the arguments with the first one lifted, and
    the first one's gradients after the walk of each scalar key alone."""
    first = lift_params(args[0]) if isinstance(args[0], ModelState) else ad.Tensor(args[0])
    value, terms = _parts(form(first, *args[1:]))
    outs, grads = {"total": value, **terms}, {}
    for key, out in outs.items():
        if ad.is_tensor(out) and out.value.ndim == 0:
            assert ([id(n) for n in ad._topo_order(out)]
                    == [id(n) for n in oracles.all_nodes_topo_order(out) if n.parents]), key
            out.backward()
            if ad.is_tensor(first):
                grads[key] = np.zeros(first.value.shape) if first.grad is None else first.grad
                first.grad = None
            else:
                grads[key] = first.grad.copy()
                first.grad.fill(0.0)
    return outs, grads


@functools.cache
def _cases(row_id):
    """A row's cases, built once for all its paths: no path writes into them."""
    return CHAINS[row_id].build()


def check(row_id, path):
    """Run one (row, path) pair of CHAINS on every case of the row."""
    row = CHAINS[row_id]
    for i, case in enumerate(_cases(row_id)):
        where = (row_id, path, i)
        if path == "plain":
            value, terms = _parts(row.fn(*case.args))
            assert not any(map(ad.is_tensor, (value, *terms.values()))), where
            _assert_same((value, terms), row.chain(*case.args), where)
        elif path == "stacked":
            for stack in case.stacks:
                stacked, entries = _calls(case.args, stack)
                value, terms = _parts(row.fn(*stacked))
                _assert_same((value, terms), row.chain(*stacked), where)
                for b, entry in enumerate(entries):  # a term the step leaves at 0 is 0 in each
                    _assert_same((value[b], {k: t[b] if np.ndim(t) else t for k, t in
                                             terms.items()}), row.fn(*entry), (where, b))
        else:
            (outs, grads), (want, want_grads) = (_walks(form, case.args) for form in row.graph)
            _assert_same((outs.pop("total"), outs), (want.pop("total"), want), where)
            assert set(want_grads) <= set(grads), where
            for key, got in grads.items():
                want = want_grads.get(key, np.zeros(got.shape))
                assert got.tobytes() == want.tobytes(), (where, key)


def entry(name):
    """The test ``name``: it runs the pairs of CHAINS whose path names it,
    under the parameter id that path gives."""
    pairs = collections.defaultdict(list)
    for row_id, row in CHAINS.items():
        for path, test_id in row.paths.items():
            test, _, param = test_id.partition("[")
            if test == name:
                pairs[param.removesuffix("]")].append((row_id, path))
    assert pairs, name

    def run(param):
        for row_id, path in pairs[param]:
            check(row_id, path)

    if list(pairs) == [""]:
        return lambda: run("")
    return pytest.mark.parametrize("param", sorted(pairs))(run)


# --- the ops and the single loss heads -------------------------------------------------

def _normal_cases(*shapes):
    rng = SeededRng(11)
    args = tuple(np.asarray(rng.normal(size=s)) for s in shapes)
    return [Case(args, [{i: np.asarray(rng.normal(size=(3, *s))) for i, s in enumerate(shapes)}])]


def _op(op, *shapes, plain=None, stacked=None, n_lifted=None):
    paths = {"plain": f"test_numpy_call_equals_graph_value[{plain}]" if plain else None,
             "stacked": f"test_numpy_path_accepts_a_stack_axis[{stacked}]" if stacked else None}
    return Row(op, oracles.graph_value(op, n_lifted), functools.partial(_normal_cases, *shapes),
               {path: test_id for path, test_id in paths.items() if test_id})


def _weighted(a, b):
    return oracles.weighted_sum(((a, 0.3), (b, -2.5)))


_TRANSPOSED = functools.partial(oracles.matmul, transpose_b=True)


def loss_head_args(bank_rows=5):
    """head -> its arguments, the first one the probability rows or unit
    queries it is differentiated in; test_losses.py's finite-difference
    tests read them too."""
    rng = SeededRng(30)
    p = oracles.probability_rows(rng, 4, 3)
    q, keys, k_t, k_s = (oracles.unit_rows(rng, 4, 5) for _ in range(4))
    lam = 0.5 + 0.5 * np.asarray(rng.uniform(size=(4, 1)))
    bank = oracles.unit_rows(rng, bank_rows, 5) if bank_rows else np.zeros((0, 5))
    return {cross_entropy_batch: (p, np.array([2, 0, 0, 1])), entropy_alignment: (p,),
            kld_uniform_batch: (p,), contrastive_batch: (q, keys, bank, 0.3),
            mixlrco_batch: (q, lam * k_t + (1.0 - lam) * k_s, k_t, k_s, bank, 0.3)}


def _loss_head_cases(head):
    args, rng = loss_head_args()[head], SeededRng(31)
    draw = (oracles.unit_rows if head in (contrastive_batch, mixlrco_batch)
            else oracles.probability_rows)
    return [Case(args, [{0: np.stack([draw(rng, *args[0].shape) for _ in range(3)])}])]


def _loss_head(head):
    return Row(head, oracles.graph_value(head, 1), functools.partial(_loss_head_cases, head),
               {"plain": f"test_head_numpy_call_equals_graph_value[{head.__name__}]",
                "stacked": f"test_head_numpy_path_accepts_a_stack_axis[{head.__name__}]"})


# --- the MLP forward and the cosine heads ----------------------------------------------

def _rerep(m, feature_rows):
    return re_represent_batch(feature_rows, m.classifier, m.t_re)


_MODEL_HEADS = {  # head -> (the function, its chain, its graph view) on feature rows
    "features_of": (features_of, oracles.features_chain, oracles.features_node),
    "probs_of": (probs_of, oracles.probs_chain, oracles.probs_node),
    "re_represent_batch": (_rerep, oracles.re_represent_chain, _rerep),
}


def _on_input_rows(head, form, mlp):
    """``form`` of the head on the features ``mlp`` gives of input rows x."""
    return form if head == "features_of" else lambda m, x: form(m, mlp(m, x))


def _in_a_graph(head, form):
    """(params, x) -> the scalar of a graph where the feature rows have three
    consumers, the cosine head on them, on take_rows of them and a probe, so
    their gradient sums in the walk's order; for features_of, ``form`` makes
    those rows and probs_node reads them, else features_node makes them."""
    def run(params, x):
        if head == "features_of":
            feats, cosine = form(params, x), oracles.probs_node
        else:
            feats, cosine = oracles.features_node(params, x), form
        out = cosine(params, feats)
        picked = cosine(params, oracles.take_rows(feats, [0, 2, 3, 3, 6]))
        w = np.asarray(SeededRng(33).normal(size=(12, out.value.shape[1])))
        return oracles.weighted_sum(((oracles.probe_sum(out, w[:7]), 1.0),
                                     (oracles.probe_sum(picked, w[7:]), 0.5),
                                     (oracles.probe_sum(feats, 0.01), 1.0))), {
            "features": feats, "head": out}

    return run


def _model_head_cases(hidden_dims):
    """7 input rows through a state with ``hidden_dims``: plain, under a stack
    of 3 states, and stacked 3 deep under the one state."""
    cfg = ModelConfig(input_dim=3, hidden_dims=hidden_dims, feature_dim=5, n_classes=4,
                      t_ce=0.05, t_re=0.3)
    m, x = init_model(cfg, SeededRng(30)), np.asarray(SeededRng(31).normal(size=(7, 3)))
    params = m.params + np.asarray(SeededRng(31).normal(size=(3, 1))) * 0.1
    rows = x + np.asarray(SeededRng(32).normal(size=(3, 1, 1))) * 0.1
    return [Case((m, x), [{0: params}, {1: rows}])]


def _model_head(head, hidden_dims):
    fn, chain, view = _MODEL_HEADS[head]
    return Row(_on_input_rows(head, fn, features_of),
               _on_input_rows(head, chain, oracles.features_chain),
               functools.partial(_model_head_cases, hidden_dims),
               {"plain": f"test_fused_head_equals_its_op_chain_on_plain_arrays[{head}]",
                "stacked": f"test_fused_head_equals_its_op_chain_on_plain_arrays[{head}]",
                "graph": f"test_fused_head_equals_its_op_chain_in_the_graph[{head}]"},
               (_in_a_graph(head, view), _in_a_graph(head, chain)))


# --- the class terms and the contrastive branch ----------------------------------------

def _class_cases(n_high=9, floor=False, sizes=(9, 10, 12), **weights):
    """Probability rows stacked as the trainer stacks them (labeled, unlabeled
    weak and strong rows, in ``sizes``) and the other arguments of
    class_terms_batch. By default every block has 8 rows or more, where
    numpy's sums depend on the memory layout of what they add."""
    rng = SeededRng(40)
    (n_lab, n_unl, n_strong), k = sizes, 3
    p = oracles.probability_rows(rng, n_lab + n_unl + n_strong, k)
    labels = np.asarray(rng.integers(0, k, size=n_lab), dtype=np.int64)
    high = n_lab + n_unl + np.sort(np.asarray(rng.permutation(n_strong))[:n_high])
    pseudo = p[high].argmax(axis=1)
    if floor:  # a picked entry, an entropy entry and a high entry at or below LOG_FLOOR
        p[[0, 5, high[0]], [labels[0], 1, pseudo[0]]] = [0.0, 1e-15, 1e-13]
    rng = SeededRng(41)
    stack = np.stack([p, *(oracles.probability_rows(rng, *p.shape) for _ in range(2))])
    return [Case((p, slice(0, n_lab), labels, slice(n_lab, n_lab + n_unl), high, pseudo,
                  {"ce": 1.0, "align": 0.1, "fixmatch": 1.0, "kld": 0.37, **weights}),
                 [{0: stack}])]


def _class_terms(case, kw, small):
    if small:  # blocks of fewer than 8 rows, as in the gradcheck instances
        kw = {**kw, "sizes": (4, 6, 6), "n_high": min(kw.get("n_high", 3), 6)}
    return Row(class_terms_batch, oracles.class_chain, functools.partial(_class_cases, **kw),
               {"plain": "test_class_head_gives_plain_terms_and_the_totals_gradient_by_default",
                "stacked": f"test_class_head_numpy_path_takes_a_stack_axis[{case}-{small}]",
                "graph": f"test_class_head_equals_the_chain_bit_for_bit[{case}]"},
               (oracles.class_nodes, oracles.class_chain))


def branch_cases(head, mode, bank_rows):
    """Feature rows and the other arguments of contrastive_branch, without
    and with the classifier's unit rows. The query rows are unique and out
    of order; the rows no query reads get 0, as the chain's take_rows gives
    them. test_losses.py reads the first case too."""
    rng = SeededRng(60)
    f, rows = np.asarray(rng.normal(size=(20, 5))), np.asarray(rng.permutation(20))[:9]
    classifier = np.asarray(rng.normal(size=(3, 5)))
    if head == "contrastive":
        keys = oracles.unit_rows(rng, 9, 5)
        k_pos, k_den = keys, (keys,)
    else:
        k_t, k_s = oracles.unit_rows(rng, 9, 5), oracles.unit_rows(rng, 9, 5)
        lam = np.asarray(rng.uniform(0.5, 1.0, size=(9, 1)))
        k_pos, k_den = lam * k_t + (1.0 - lam) * k_s, (k_t, k_s)
    bank = oracles.unit_rows(rng, bank_rows, 5) if bank_rows else np.zeros((0, 5))
    stack = np.stack([f, *(np.asarray(rng.normal(size=f.shape)) for _ in range(2))])
    return [Case((f, rows, classifier, 0.4, mode, k_pos, k_den, bank, 0.3, w_unit), [{0: stack}])
            for w_unit in (None, unit_last(classifier)[0])]


def _branch(head, mode, bank_rows):
    test_id = f"test_contrastive_branch_equals_the_chain_bit_for_bit[{head}-{mode}-{bank_rows}]"
    return Row(contrastive_branch, oracles.branch_chain,
               functools.partial(branch_cases, head, mode, bank_rows),
               dict.fromkeys(("plain", "stacked", "graph"), test_id),
               (oracles.branch_node, oracles.branch_chain))


# --- the step --------------------------------------------------------------------------

def _step(m, sb, cfg, frozen_classifier):
    return step_objective(m, sb, cfg, frozen_classifier=frozen_classifier)


def _step_nodes(params, sb, cfg, frozen_classifier):
    return oracles.step_nodes(params, sb, cfg, frozen_classifier=frozen_classifier)


def step_cases(method, tau=None, target_rows=False, second_step=False, **overrides):
    """Step 1 of oracles.tiny_setup with a bank of 3 rows, at ``tau`` (None:
    the median teacher confidence), every other labeled row from the target
    domain for ``target_rows``; for ``second_step``, step 2 at tau 0.999 after
    a training step from an empty bank. Each with the model's classifier, and
    with the finite-difference harness's frozen one. test_trainer.py's
    split_step is the first case of the default."""
    cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x = oracles.tiny_setup(
        method=method, **overrides)

    def prepared(tau, step):
        return prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x, cfg,
                            AugmentSpec(), tau, step, streams=StepStreams(cfg.seed, step))

    if second_step:
        train_step(student, teacher, bank, init_velocities(student), prepared(0.999, 1), cfg, 1)
        sb = prepared(0.999, 2)
    else:
        bank.push_batch(np.eye(5)[:3])
        if target_rows:
            lab_src = np.arange(len(lab_src)) % 2 == 0
        sb = prepared(float(np.median(oracles.teacher_probs_at_step_1(cfg, teacher, unl_x)
                                      .max(axis=1))) if tau is None else tau, 1)
    rng = SeededRng(7)
    stack = student.params + 1e-3 * np.asarray(rng.normal(size=(3, student.params.size)))
    frozen = student.classifier + 1e-3 * np.asarray(rng.normal(size=student.classifier.shape))
    return [Case((student, sb, cfg, frozen_classifier), [{0: stack}])
            for frozen_classifier in (None, frozen)]


def _step_row(method, kw, test_id, graph_test_id=None):
    paths = {"plain": test_id, "stacked": test_id, "graph": graph_test_id or test_id}
    return Row(_step, oracles.chain_step_objective, functools.partial(step_cases, method, **kw),
               paths, (_step_nodes, oracles.chain_step_objective))


_CLASS_CASES = {
    "every term": {},
    "no high-confidence rows": {"n_high": 0},
    "every strong row high": {"n_high": 12},
    "lambda_align=0": {"align": 0.0},
    "lambda_kld=0": {"kld": 0.0},
    "ce alone in the total": {"n_high": 0, "align": 0.0},
    "entries at the log floor": {"floor": True},
}
_STEP_CASES = {
    "split": {},
    "no high-confidence rows": {"tau": 1.0},
    "every row high": {"tau": 0.0},
    "lambda_align=0": {"lambda_align": 0.0},
    "lambda_kld=0": {"lambda_kld": 0.0},
    "labeled target rows": {"target_rows": True},
    "raw queries": {"rerep_mode": "raw"},
    "high selection": {"sample_selection": "high"},
    "all selection": {"sample_selection": "all"},
    "raw queries, high selection": {"rerep_mode": "raw", "sample_selection": "high"},
    "raw queries, all selection": {"rerep_mode": "raw", "sample_selection": "all"},
}
CHAINS = {
    "add": _op(oracles.add, (3, 4), (4,), plain="add"),
    "add, first operand lifted": _op(oracles.add, (3, 4), (4,), plain="add", n_lifted=1),
    "add, bias row": _op(oracles.add, (4, 5), (1, 5), stacked="add-bias_row"),
    "weighted_sum": _op(_weighted, (2, 5), (2, 5), plain="weighted_sum", stacked="weighted_sum"),
    "weighted_sum, first operand lifted": _op(_weighted, (2, 5), (2, 5), plain="weighted_sum",
                                              n_lifted=1),
    "matmul": _op(oracles.matmul, (4, 3), (3, 5), plain="matmul", stacked="matmul"),
    "matmul, first operand lifted": _op(oracles.matmul, (4, 3), (3, 5), plain="matmul",
                                        n_lifted=1),
    "matmul, transpose_b": _op(_TRANSPOSED, (4, 3), (5, 3), plain="matmul-transpose_b",
                               stacked="matmul-transpose_b"),
    "matmul, transpose_b, first operand lifted": _op(_TRANSPOSED, (4, 3), (5, 3), n_lifted=1,
                                                     plain="matmul-transpose_b"),
    "tanh": _op(oracles.tanh, (4, 4), plain="tanh", stacked="tanh"),
    "softmax_rows": _op(functools.partial(oracles.softmax_rows, temperature=0.7), (4, 6),
                        plain="softmax_rows", stacked="softmax_rows"),
    "normalize_rows": _op(ad.normalize_rows, (5, 3), plain="normalize_rows",
                          stacked="normalize_rows"),
    "take_rows": _op(functools.partial(oracles.take_rows, idx=[1, 1, 0, 1]), (3, 4),
                     plain="take_rows-repeated", stacked="take_rows"),
    "detach": _op(oracles.detach, (2, 3), plain="detach"),
    **{head.__name__: _loss_head(head) for head in (
        cross_entropy_batch, entropy_alignment, kld_uniform_batch, contrastive_batch,
        mixlrco_batch)},
    **{f"{head}, hidden layers {dims}": _model_head(head, dims)
       for head in _MODEL_HEADS for dims in ((), (6,), (6, 4))},
    **{f"class_terms_batch: {case}{', small blocks' if small else ''}":
       _class_terms(case, kw, small)
       for case, kw in _CLASS_CASES.items() for small in (False, True)},
    **{f"contrastive_branch: {head}, {mode}, bank of {n}": _branch(head, mode, n)
       for head in ("contrastive", "mix") for mode in ("rerep", "raw") for n in (6, 0)},
    **{f"step_objective: {method}, {case}": _step_row(
        method, kw, f"test_objective_equals_the_single_head_chain_bit_for_bit[{method}-{case}]",
        f"test_graph_view_nodes_backpropagate_the_step_backward[{method}]" if case == "split"
        else None)
       for method in METHODS for case, kw in _STEP_CASES.items()},
    **{f"step_objective: {method}, second step": _step_row(
        method, {"second_step": True},
        f"test_topo_order_is_the_order_of_a_walk_over_every_node[{method}]")
       for method in METHODS},
}


def test_every_pair_runs_under_one_test():
    # each path names a test that one test module of the functions defines
    # with entry; the harnesses before the table checked 280 of these
    # pairs, and the table adds the small class blocks' plain and graph
    # paths and the second step's plain and stacked ones
    modules = [importlib.import_module(m) for m in ("test_autodiff", "test_losses",
                                                     "test_trainer")]
    tests = {test_id.partition("[")[0] for row in CHAINS.values() for test_id in row.paths.values()}
    assert [name for name in sorted(tests)
            if sum(hasattr(module, name) for module in modules) != 1] == []
    assert sum(len(row.paths) for row in CHAINS.values()) == 304
