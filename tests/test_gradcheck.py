import numpy as np

from lrco import autodiff as ad
from lrco.gradcheck import (
    _CHECKS, TERM_NAMES, _build_instance, _split_tau, check_instance, run_gradient_suite,
    values_at,
)
from lrco.model import get_param_vector, lift_params
from lrco.trainer import METHOD_TERMS, PSEUDO_LABEL_METHODS, step_objective


def test_split_tau_separates_groups():
    assert _split_tau(np.array([0.2, 0.9])) == 0.55
    assert _split_tau(np.array([0.7, 0.7])) == 0.5  # flat: fallback


def test_instances_cover_the_size_grid():
    sizes = set()
    for index in range(4):
        inst = _build_instance(index, seed=0)
        sizes.add((inst["n_classes"], inst["feature_dim"]))
    assert sizes == {(2, 3), (2, 8), (5, 3), (5, 8)}


def test_every_term_checked_per_instance():
    result = check_instance(0, seed=0)
    assert set(result.errors) == set(TERM_NAMES)


# The step_objective keys that carry each METHOD_TERMS term.
TERM_KEYS = {"ce": ("ce",), "align": ("align",), "fixmatch": ("fixmatch", "kld"),
             "bank": ("contrastive",), "mix": ("contrastive",)}


def test_checks_cover_every_method_term_and_pseudo_label_total():
    # (method, key) for every key a _CHECKS entry differentiates, under the
    # method of the entry's config
    cfgs = _build_instance(0, seed=0)["cfgs"]
    checked = {(cfgs[cfg_key].method, key) for cfg_key, _, terms in _CHECKS
               for _, key in terms}
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
    # the alignment term the trainer optimizes is a weighted sum built with
    # ad.weighted_sum; a backward that drops the weights must fail its check
    weighted_sum = ad.weighted_sum

    def weighted_sum_with_unweighted_backward(pairs):
        out = weighted_sum(pairs)
        if ad.is_tensor(out):
            parents = out.parents
            out.backward_fn = lambda g: [x.accumulate(g) for x in parents]
        return out

    monkeypatch.setattr(ad, "weighted_sum", weighted_sum_with_unweighted_backward)
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

        params_a = lift_params(student)
        step_objective(params_a, sb, cfg)[0].backward()
        params_b = lift_params(student)
        step_objective(params_b, sb, cfg, frozen_classifier=frozen)[0].backward()
        for ta, tb in zip(params_a.weights, params_b.weights):
            np.testing.assert_array_equal(ta.grad, tb.grad)
        ga = params_a.classifier.grad
        gb = params_b.classifier.grad
        np.testing.assert_array_equal(
            ga if ga is not None else np.zeros_like(ad.value_of(params_a.classifier)),
            gb if gb is not None else np.zeros_like(ad.value_of(params_b.classifier)),
        )


def test_mix_instance_exercises_mix_branch():
    # step 3 of every instance must actually build a mix (bank pre-seeded and
    # the split threshold guarantees low-confidence rows)
    built = 0
    for index in range(4):
        inst = _build_instance(index, seed=0)
        if inst["batches"]["mix"].mix is not None:
            built += 1
    assert built >= 3  # nearly always present; never all missing


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
        for check in _CHECKS:
            stacked = values_at(inst, check, stack)
            loop = np.array([values_at(inst, check, vec) for vec in stack])
            assert stacked.shape == loop.shape == (2 * n, len(check[2]))
            assert stacked.tobytes() == loop.tobytes(), (index, check[:2])
