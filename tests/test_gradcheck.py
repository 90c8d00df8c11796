import functools
from collections import Counter

import numpy as np

from lrco import gradcheck
from lrco import losses as L
from lrco.gradcheck import (
    CHECKS, TERM_NAMES, _build_instance, _split_tau, check_instance, run_gradient_suite,
    values_at,
)
from lrco.model import get_param_vector
from lrco.numerics import finite_diff_grad, relative_grad_error
from lrco.trainer import METHOD_TERMS, PSEUDO_LABEL_METHODS, step_objective


def test_split_tau_separates_groups():
    assert _split_tau(np.array([0.2, 0.9])) == 0.55
    assert _split_tau(np.array([0.7, 0.7])) == 0.5  # flat: fallback


def test_instances_cover_the_size_grid():
    sizes = set()
    for index in range(4):
        inst = _build_instance(index, seed=0)
        sizes.add((inst["student"].n_classes, inst["student"].feature_dim))
    assert sizes == {(2, 3), (2, 8), (5, 3), (5, 8)}


def test_tau_is_picked_once_per_prepared_step(monkeypatch):
    # the checks prepare three distinct steps (strong and rerep share step 1),
    # and the teacher pass that picks a step's tau runs once for each
    calls = []
    features_of = gradcheck.features_of

    def counted(*args, **kwargs):
        calls.append(1)
        return features_of(*args, **kwargs)

    monkeypatch.setattr(gradcheck, "features_of", counted)
    _build_instance(0, seed=0)
    assert len(calls) == 3


def test_every_term_checked_per_instance():
    result = check_instance(0, seed=0)
    assert set(result.errors) == set(TERM_NAMES)


def test_one_finite_difference_pass_per_prepared_step(monkeypatch):
    # the checks on one prepared step share one pass, whose function returns
    # one column per CHECKS entry of that step, steps in order of first
    # appearance in CHECKS
    widths = []
    finite_diff_grad = gradcheck.finite_diff_grad

    def counted(f, p, *args, **kwargs):
        def recorded(vecs):
            values = f(vecs)
            widths.append(values.shape[1:])
            return values
        return finite_diff_grad(recorded, p, *args, **kwargs)

    monkeypatch.setattr(gradcheck, "finite_diff_grad", counted)
    result = check_instance(0, seed=0)
    per_step = Counter(step for step, _ in CHECKS.values())
    assert widths == [(n,) for n in per_step.values()] == [(5,), (2,), (1,), (2,)]
    assert list(result.errors) == list(TERM_NAMES)


def test_one_backward_forward_pass_per_prepared_step(monkeypatch):
    # the checks on one prepared step share one forward pass with its
    # backward, which each check calls into its own zeroed vector: the
    # errors are those of a fresh backward of each check's key alone
    passes = []
    objective = gradcheck.step_objective

    def counted(m, sb, cfg, **kwargs):
        if kwargs.get("with_grad"):
            passes.append((id(m), id(sb)))
        return objective(m, sb, cfg, **kwargs)

    monkeypatch.setattr(gradcheck, "step_objective", counted)
    result = check_instance(0, seed=0)
    steps = list(dict.fromkeys(step for step, _ in CHECKS.values()))
    assert len(passes) == len(set(passes)) == len(steps) == 4
    monkeypatch.undo()
    inst = _build_instance(0, seed=0)
    student = inst["student"]
    for name, (step, key) in CHECKS.items():
        alone = np.zeros(student.params.shape)
        step_objective(student, inst["batches"][step], inst["cfgs"][step],
                       frozen_classifier=inst["frozen_classifier"], with_grad=True)[2](key, alone)
        numeric = finite_diff_grad(functools.partial(values_at, inst, step, (key,)),
                                   get_param_vector(student))[:, 0]
        assert relative_grad_error(alone, numeric) == result.errors[name], name


# The step_objective keys that carry each METHOD_TERMS term.
TERM_KEYS = {"ce": ("ce",), "align": ("align",), "fixmatch": ("fixmatch", "kld"),
             "bank": ("contrastive",), "mix": ("contrastive",)}


def test_checks_cover_every_method_term_and_pseudo_label_total():
    # (method, key) for every key a CHECKS entry differentiates, under the
    # method of the entry's config
    cfgs = _build_instance(0, seed=0)["cfgs"]
    checked = {(cfgs[step].method, key) for step, key in CHECKS.values()}
    assert set(TERM_KEYS) == {t for terms in METHOD_TERMS.values() for t in terms}
    for term, keys in TERM_KEYS.items():
        for key in keys:
            assert any((m, key) in checked for m, terms in METHOD_TERMS.items()
                       if term in terms), (term, key)
    for method in PSEUDO_LABEL_METHODS:
        assert (method, "total") in checked, method


def test_gradients_match_finite_differences():
    # a slice of the acceptance suite: every term on a few instances
    for index in range(4):
        result = check_instance(index, seed=0)
        for name, err in result.errors.items():
            assert err < 1e-4, f"instance {index} term {name}: {err}"


def test_suite_reports_worst_errors():
    worst = run_gradient_suite(seed=0, n_instances=2)
    assert set(worst) == set(TERM_NAMES)
    assert all(np.isfinite(v) for v in worst.values())
    assert all(v < 1e-4 for v in worst.values())


def test_alignment_check_sees_the_trainers_weighting(monkeypatch):
    # the alignment term the trainer optimizes weights the labeled and the
    # unlabeled rows' entropies by their shares of the rows (4 and 6 in the
    # gradcheck instances); a backward that drops those weights must fail its
    # check. class_terms_batch passes each block's share in the g it gives
    # _entropy_grad, so dividing it back out drops it.
    sb = _build_instance(0, seed=0)["batches"]["rerep"]
    n_lab, n_unl = (len(sb.x[sb.rows[v]]) for v in ("labeled", "unlabeled_weak"))
    n_rows = n_lab + n_unl
    assert n_lab != n_unl
    entropy_grad = L._entropy_grad

    def entropy_grad_without_the_share(g, p, log_p):
        return entropy_grad(g * n_rows / p.shape[-2], p, log_p)

    monkeypatch.setattr(L, "_entropy_grad", entropy_grad_without_the_share)
    assert check_instance(0, seed=0).errors["alignment_entropy"] > 1e-4


def test_frozen_classifier_objective_matches_production_at_base_point():
    # the finite-difference harness swaps in a frozen classifier copy; at the
    # unperturbed parameters that function must equal the production objective
    # in both value and gradient
    inst = _build_instance(1, seed=0)
    student = inst["student"]
    frozen = inst["frozen_classifier"]
    for key in ("rerep", "mix"):
        sb = inst["batches"][key]
        cfg = inst["cfgs"][key]
        plain_total, plain_terms = step_objective(student, sb, cfg)
        harness_total, harness_terms = step_objective(
            student, sb, cfg, frozen_classifier=frozen)
        assert float(plain_total) == float(harness_total)
        for term in plain_terms:
            assert float(plain_terms[term]) == float(harness_terms[term])

        # the total's gradient from the backward train_step calls, every
        # parameter array included
        grads = []
        for frozen_classifier in (None, frozen):
            backward = step_objective(student, sb, cfg, frozen_classifier=frozen_classifier,
                                      with_grad=True)[2]
            grads.append(np.zeros(student.params.shape))
            backward("total", grads[-1])
        assert grads[0].tobytes() == grads[1].tobytes()


def test_mix_instance_exercises_mix_branch():
    # step 3 of every instance must actually build a mix (bank pre-seeded and
    # the split threshold guarantees low-confidence rows)
    built = 0
    for index in range(4):
        inst = _build_instance(index, seed=0)
        if "mix" in inst["batches"]["mix"].rows:
            built += 1
    assert built >= 3  # nearly always present; never all missing


def test_every_prepared_batch_has_both_groups_and_its_contrastive_term():
    # a term zero on both sides passes its check vacuously: each batch of the
    # suite's instances splits into high and low rows at the tau picked from
    # the weak view tau_for draws, which must be the view the step stacks
    for seed in (0, 1):
        for index in range(20):
            batches = _build_instance(index, seed=seed)["batches"]
            for key, sb in batches.items():
                assert len(sb.high_idx) > 0 and len(sb.low_idx) > 0, (seed, index, key)
                if key != "strong":
                    assert sb.query_rows is not None, (seed, index, key)
            assert "mix" in batches["mix"].rows, (seed, index)


def test_masked_strong_view_instances_complete():
    # with zero initial biases, these instances met a fully masked strong view
    # whose zero feature could not be normalized
    for index, seed in ((0, 24), (3, 5)):
        result = check_instance(index, seed=seed)
        assert max(result.errors.values()) < 1e-4


def test_stacked_values_equal_a_per_vector_loop():
    # the one stacked call finite_diff_grad makes must give, row by row, the
    # bits of evaluating each perturbed vector on its own
    h = 1e-5
    for index in range(4):
        inst = _build_instance(index, seed=0)
        base = get_param_vector(inst["student"])
        n = base.size
        stack = np.tile(base, (2 * n, 1))
        stack[np.arange(n), np.arange(n)] += h
        stack[n + np.arange(n), np.arange(n)] -= h
        for step in inst["batches"]:
            keys = [key for s, key in CHECKS.values() if s == step]
            stacked = values_at(inst, step, keys, stack)
            loop = np.array([values_at(inst, step, keys, vec) for vec in stack])
            assert stacked.shape == loop.shape == (2 * n, len(keys))
            assert stacked.tobytes() == loop.tobytes(), (index, step)
