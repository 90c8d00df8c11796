import dataclasses
import inspect
import itertools
import os
import sys
import tempfile

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import trajectory_digest
from lrco import autodiff as ad
from lrco import losses as L
from lrco import membank, numerics, trainer
from lrco.data import AugmentSpec, BenchmarkSpec, generate_shift_benchmark, weak_augment
from lrco.errors import ConfigError, ShapeMismatchError, TrainingDivergedError
from lrco.membank import MemoryBank
from lrco.model import (
    ModelConfig, clone_state, ema_update, features_of, init_model, probs_of,
    state_arrays, state_from_arrays, with_param_vector,
)
from lrco.numerics import SeededRng, StepStreams
from lrco.trainer import (
    LOSS_KEYS, METHODS, PSEUDO_LABEL_METHODS, REREP_MODES, Checkpoint, TrainConfig,
    _EpochCycler, adjust_tau,
    evaluate, fit, init_velocities, lift_params, load_checkpoint, metric_record_line,
    metrics_header_lines, prepare_step, save_checkpoint, sgd_step, step_objective,
    train_step,
)
from oracles import states_allclose, teacher_probs_at_step_1, tiny_setup
from test_chains import entry, step_cases

AUG = AugmentSpec()


def view_of(sb, name):
    """The rows of a prepared step's stacked input that hold one view."""
    return sb.x[sb.rows[name]]


def redrawn_mix(cfg, sb, lab_src, step=1):
    """(partners, target weights) of a step's mixes, drawn again from the
    step's mix substream: the oracle of what prepare_step drew."""
    rng = SeededRng(cfg.seed).substream(f"mix-{step}")
    pool = lab_src.nonzero()[0]
    partners = pool[np.asarray(rng.integers(0, len(pool), size=len(sb.low_idx)))]
    lam_prime = L.draw_mix(cfg.alpha, rng, len(sb.low_idx),
                           dominant=cfg.mixup_mode != "no_dominance")
    return partners, lam_prime


def small_benchmark(seed=0, **kw):
    spec = BenchmarkSpec(n_classes=3, input_dim=2, n_per_class_source=12,
                         n_per_class_target=12, noise_sigma=0.15, seed=seed, **kw)
    return generate_shift_benchmark(spec)


# --- config ------------------------------------------------------------------------

def test_default_hyperparameters_are_stable():
    cfg = TrainConfig()
    assert cfg.t_co == 0.3
    assert cfg.bank_capacity == 512
    assert cfg.lambda_co == 0.5
    assert cfg.lambda_kld == 0.1
    assert cfg.alpha == 1.0
    assert cfg.ema_decay == 0.99
    assert cfg.tau == 0.9
    assert cfg.resolved_t_re() == cfg.t_ce == 0.05
    cfg.validate()


def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        TrainConfig(method="mystery").validate()
    with pytest.raises(ConfigError):
        TrainConfig(tau=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(ema_decay=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lambda_co=-0.1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(t_co=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(tau_band=(0.8, 0.6)).validate()
    with pytest.raises(ConfigError):
        TrainConfig(sample_selection="medium").validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_labeled=0).validate()
    for method in ("source_only", "baseline"):  # they read no tau
        with pytest.raises(ConfigError, match="dynamic_tau needs a method"):
            TrainConfig(method=method, dynamic_tau=True).validate()


def test_t_re_override():
    assert TrainConfig(t_re=0.2).resolved_t_re() == 0.2


# --- prepare_step --------------------------------------------------------------------

def test_prepare_step_deterministic():
    cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x = tiny_setup()
    a = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                     cfg, AUG, cfg.tau, step=1, streams=StepStreams(cfg.seed, 1))
    b = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                     cfg, AUG, cfg.tau, step=1, streams=StepStreams(cfg.seed, 1))
    np.testing.assert_array_equal(a.x, b.x)
    assert a.rows == b.rows
    np.testing.assert_array_equal(a.sel_idx, b.sel_idx)
    c = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                     cfg, AUG, cfg.tau, step=2, streams=StepStreams(cfg.seed, 2))
    assert not np.array_equal(view_of(a, "labeled"), view_of(c, "labeled"))


def test_prepare_step_confidence_partition():
    cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x = tiny_setup()
    probs = teacher_probs_at_step_1(cfg, teacher, unl_x)
    n = unl_x.shape[0]
    for tau in (cfg.tau, float(np.median(probs.max(axis=1)))):
        sb = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                          cfg, AUG, tau, step=1, streams=StepStreams(cfg.seed, 1))
        assert sb.pseudo.dtype == np.int64 and sb.pseudo.shape == (n,)
        np.testing.assert_array_equal(sb.pseudo, np.argmax(probs, axis=1))
        confident = probs.max(axis=1) > tau
        np.testing.assert_array_equal(sb.high_idx, np.flatnonzero(confident))
        np.testing.assert_array_equal(sb.low_idx, np.flatnonzero(~confident))
        np.testing.assert_array_equal(sb.sel_idx, sb.low_idx)  # default selection


def test_prepare_step_selection_modes():
    for mode in ("high", "all", "low"):
        cfg, student, teacher, bank, *rest = tiny_setup(sample_selection=mode)
        confident = teacher_probs_at_step_1(cfg, teacher, rest[-1]).max(axis=1) > 0.5
        expected = {"high": np.flatnonzero(confident), "low": np.flatnonzero(~confident),
                    "all": np.arange(len(confident))}[mode]
        sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.5, step=1,
                          streams=StepStreams(cfg.seed, 1))
        np.testing.assert_array_equal(sb.sel_idx, expected)


def test_prepare_step_keys_only_for_contrastive_methods():
    for method in ("source_only", "baseline", "strong"):
        cfg, student, teacher, bank, *rest = tiny_setup(method=method)
        sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, cfg.tau, step=1,
                          streams=StepStreams(cfg.seed, 1))
        assert sb.keys_sel.shape[0] == 0
        assert "mix" not in sb.rows and sb.query_rows is None
    cfg, student, teacher, bank, *rest = tiny_setup(method="lrco")
    sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, cfg.tau, step=1,
                      streams=StepStreams(cfg.seed, 1))
    assert sb.keys_sel.shape[0] == len(sb.sel_idx)
    np.testing.assert_allclose(np.linalg.norm(sb.keys_sel, axis=1),
                               np.ones(len(sb.sel_idx)), atol=1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_teacherless_steps_share_one_read_only_empty_plan(method):
    # a method without a teacher pass gets the same read-only empty int64
    # array for the pseudo-labels and both halves of the split on every
    # step; a teacher method gets fresh arrays on each
    cfg, student, teacher, bank, *rest = tiny_setup(method=method)
    plans = [prepare_step(student, teacher, bank, *rest, cfg, AUG, 0.999, step,
                          streams=StepStreams(cfg.seed, step)) for step in (1, 2, 3)]
    arrays = [a for sb in plans for a in (sb.pseudo, sb.high_idx, sb.low_idx)]
    if method in PSEUDO_LABEL_METHODS:
        assert len({id(a) for a in arrays}) == len(arrays)
        assert all(a is not trainer.NO_ROWS and a.flags.writeable for a in arrays)
        return
    assert all(a is trainer.NO_ROWS for a in arrays)
    empty = plans[0].pseudo
    assert empty.dtype == np.int64 and empty.shape == (0,)
    assert not empty.flags.writeable
    with pytest.raises(ValueError):
        empty[...] = 1


def test_prepare_step_mix_needs_bank_and_low_samples():
    cfg, student, teacher, bank, *rest = tiny_setup(method="mixlrco")
    sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, cfg.tau, step=1,
                      streams=StepStreams(cfg.seed, 1))
    assert "mix" not in sb.rows  # empty bank on the first step

    bank.push_batch(np.eye(5)[:3])
    sb2 = prepare_step(student, teacher, bank, *rest, cfg, AUG, cfg.tau, step=1,
                       streams=StepStreams(cfg.seed, 1))
    if len(sb2.low_idx) > 0:
        assert "mix" in sb2.rows and sb2.query_rows == sb2.rows["mix"]
        _, lam_prime = redrawn_mix(cfg, sb2, rest[2])
        assert len(view_of(sb2, "mix")) == len(sb2.low_idx)
        assert np.all(lam_prime >= 0.5)
        k_target, k_source = sb2.k_den
        np.testing.assert_allclose(
            sb2.k_pos,
            lam_prime[:, None] * k_target + (1 - lam_prime)[:, None] * k_source,
            atol=1e-15,
        )
        # mixed keys are not renormalized
        assert np.all(np.linalg.norm(sb2.k_pos, axis=1) <= 1.0 + 1e-12)


def test_prepare_step_builds_only_what_the_method_reads(monkeypatch):
    # count the views and the teacher's forward calls prepare_step makes, by
    # the array or model each call receives first, for every method, with
    # and without the contrastive weight, on an empty and a filled bank; a
    # mixlrco step that mixes still runs the teacher once. The plan it
    # records decides the contrastive term alone.
    cases = [(method, lambda_co, banked) for method in METHODS
             for lambda_co in (0.0, 0.5) for banked in (False, True)]
    for method, lambda_co, banked in cases:
        case = (method, lambda_co, banked)
        cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x = tiny_setup(
            method=method, lambda_co=lambda_co)
        if banked:
            bank.push_batch(np.eye(5)[:2])
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append((name, args[0]))
                return fn(*args, **kwargs)
            return counted

        with monkeypatch.context() as m:
            for name in ("features_of", "probs_of", "weak_augment", "strong_augment"):
                m.setattr(trainer, name, counting(name, getattr(trainer, name)))
            sb = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                              cfg, AUG, 0.999, step=1, streams=StepStreams(cfg.seed, 1))

        def n(name, first):
            return sum(1 for c, a in calls if c == name and a is first)

        reads_unlabeled = method != "source_only"
        reads_split = method in PSEUDO_LABEL_METHODS
        mixes = method == "mixlrco" and lambda_co > 0 and banked
        assert n("weak_augment", lab_x) == 1, case
        assert n("weak_augment", unl_x) == reads_unlabeled, case
        assert n("strong_augment", unl_x) == reads_split, case
        assert n("features_of", teacher) == n("probs_of", teacher) == reads_split, case
        # a mix also draws the partners' strong view
        assert len(calls) == 1 + reads_unlabeled + 3 * reads_split + mixes, (case, calls)

        # the drawn views, stacked in order, each from its own substream
        names = (["labeled"] + ["unlabeled_weak"] * reads_unlabeled
                 + ["unlabeled_strong"] * reads_split + ["mix"] * mixes)
        assert list(sb.rows) == names, case
        np.testing.assert_array_equal(
            np.concatenate([np.arange(len(sb.x))[r] for r in sb.rows.values()]),
            np.arange(len(sb.x)))
        np.testing.assert_array_equal(view_of(sb, "labeled"), weak_augment(
            lab_x, AUG, SeededRng(cfg.seed).substream("augment-labeled-1")))
        if reads_unlabeled:
            np.testing.assert_array_equal(view_of(sb, "unlabeled_weak"), weak_augment(
                unl_x, AUG, SeededRng(cfg.seed).substream("augment-unlabeled-weak-1")))
        if not reads_split:
            for idx in (sb.pseudo, sb.high_idx, sb.low_idx, sb.sel_idx):
                assert idx.dtype == np.int64 and idx.shape == (0,), case
            assert sb.keys_sel.shape == (0, teacher.feature_dim)

        # the contrastive term: lrco queries the selected strong rows, with
        # a weight and a bank, and mixlrco the mixes; none otherwise
        total, terms = step_objective(student, sb, cfg)
        class_total = terms["ce"]  # the class terms, added as class_terms_batch adds them
        for key, weight in (("align", cfg.lambda_align), ("fixmatch", 1.0),
                            ("kld", cfg.lambda_kld)):
            class_total = class_total + terms[key] * weight
        no_term = float(terms["contrastive"]) == 0.0 and float(total) == float(class_total)
        assert (sb.query_rows is None) == no_term, case
        if method == "lrco" and lambda_co > 0 and banked:
            np.testing.assert_array_equal(
                sb.query_rows, sb.rows["unlabeled_strong"].start + sb.sel_idx)
        elif mixes:
            assert sb.query_rows == sb.rows["mix"], case
        else:
            assert sb.query_rows is None, case

    # gradcheck's strong check runs on a filled bank with a contrastive
    # weight, and its batch still queries nothing
    from lrco.gradcheck import _build_instance
    assert _build_instance(0, seed=0)["batches"]["strong"].query_rows is None


@pytest.mark.parametrize("rerep_mode", REREP_MODES)
@pytest.mark.parametrize("selection", ["low", "high"])
def test_one_teacher_pass_keys_match_per_pass_references(rerep_mode, selection):
    # the teacher's one pass over the stacked weak views gives the keys of
    # a pass over each view alone, up to the rounding of the row count
    cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x = tiny_setup(
        method="mixlrco", rerep_mode=rerep_mode, sample_selection=selection)
    bank.push_batch(np.eye(5)[:2])
    sb = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                      cfg, AUG, 0.999, step=1, streams=StepStreams(cfg.seed, 1))
    assert len(sb.low_idx) > 0 and len(sb.high_idx) > 0 and "mix" in sb.rows
    partners, lam_prime = redrawn_mix(cfg, sb, lab_src)

    def keys(x, idx):
        return L.contrast_rows(features_of(teacher, x)[idx], teacher.classifier,
                               teacher.t_re, rerep_mode)

    unl_weak, lab_weak = view_of(sb, "unlabeled_weak"), view_of(sb, "labeled")
    for got, want in ((sb.keys_sel, keys(unl_weak, sb.sel_idx)),
                      (sb.k_den[0], keys(unl_weak, sb.low_idx)),
                      (sb.k_den[1], keys(lab_weak, partners))):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(sb.k_pos, L.blend(lam_prime, *sb.k_den))


def test_prepare_step_mix_skipped_when_lambda_co_zero():
    cfg, student, teacher, bank, *rest = tiny_setup(method="mixlrco", lambda_co=0.0)
    bank.push_batch(np.eye(5)[:2])
    sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, cfg.tau, step=1,
                      streams=StepStreams(cfg.seed, 1))
    assert "mix" not in sb.rows and sb.query_rows is None


def test_labeled_target_rows_enter_the_ce_batch_but_never_mix(monkeypatch):
    # with labeled target rows in the pool (shots > 0), every labeled row is
    # in the cross-entropy batch, but mix partners are drawn from source rows
    cfg, student, teacher, bank, *_ = tiny_setup(method="mixlrco")
    benchmark = small_benchmark(n_labeled_target_per_class=3)
    lab_x, lab_y, lab_src = benchmark.labeled_pool()
    unl_x = benchmark.target_unlabeled_x[:8]
    assert 0 < np.count_nonzero(~lab_src) < len(lab_src)
    bank.push_batch(np.eye(5)[:3])
    partner_rows, n_low = [], 0
    strong_augment = trainer.strong_augment

    def recording(x, *args):
        if x is not unl_x:  # the partners' strong view
            partner_rows.append(x)
        return strong_augment(x, *args)

    monkeypatch.setattr(trainer, "strong_augment", recording)
    velocities = init_velocities(student)
    for step in range(1, 7):  # tau 1: every row is low, so every row mixes
        sb = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                          cfg, AUG, 1.0, step, streams=StepStreams(cfg.seed, step))
        assert "mix" in sb.rows
        n_low += len(sb.low_idx)
        np.testing.assert_array_equal(sb.labeled_y, lab_y)
        probs = probs_of(student, features_of(student, view_of(sb, "labeled")))
        ce = step_objective(student, sb, cfg)[1]["ce"]
        np.testing.assert_allclose(ce, L.cross_entropy_batch(probs, lab_y), rtol=1e-12)
        assert ce != L.cross_entropy_batch(probs[lab_src], lab_y[lab_src])
        train_step(student, teacher, bank, velocities, sb, cfg, step)

    partners = [np.flatnonzero((lab_x == row).all(axis=1)) for row in np.concatenate(partner_rows)]
    assert len(partners) == n_low > 0
    assert all(len(p) == 1 for p in partners)
    assert lab_src[np.concatenate(partners)].all()


# --- step objective -------------------------------------------------------------------

def test_objective_terms_by_method():
    for method, active in (
        ("source_only", {"ce"}),
        ("baseline", {"ce", "align"}),
        ("strong", {"ce", "align", "fixmatch", "kld"}),
    ):
        cfg, student, teacher, bank, *rest = tiny_setup(method=method)
        sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.5, step=1,
                          streams=StepStreams(cfg.seed, 1))
        total, terms = step_objective(student, sb, cfg)
        assert float(total) > 0.0
        for key in ("ce", "align", "fixmatch", "kld", "contrastive"):
            if key in active:
                continue
            # kld/fixmatch may legitimately be nonzero only when gated samples exist
            if key == "contrastive":
                assert float(terms[key]) == 0.0


def split_step(method):
    """Step 1 of tiny_setup with a bank holding rows and tau at the median
    teacher confidence, so the high and low groups and the mixes are built:
    the split case of the step rows in test_chains.py."""
    student, sb, cfg, _ = step_cases(method)[0].args
    if method in PSEUDO_LABEL_METHODS:
        assert len(sb.high_idx) > 0 and len(sb.low_idx) > 0
    assert ("mix" in sb.rows) == (method == "mixlrco")
    return cfg, student, sb


def test_stacked_forward_rows_match_per_view_passes():
    # the one pass over the stacked input gives each view's rows the values
    # of a pass over that view alone, up to the rounding of the row count
    views = ("labeled", "unlabeled_weak", "unlabeled_strong", "mix")
    for method, n_views in (("baseline", 2), ("strong", 3), ("lrco", 3), ("mixlrco", 4)):
        cfg, student, sb = split_step(method)
        assert list(sb.rows) == list(views)[:n_views], method
        np.testing.assert_array_equal(
            np.concatenate([np.arange(len(sb.x))[r] for r in sb.rows.values()]),
            np.arange(len(sb.x)))
        feats = features_of(student, sb.x)
        probs = probs_of(student, feats)
        for name, rows in sb.rows.items():
            per_view = features_of(student, sb.x[rows])
            np.testing.assert_allclose(feats[rows], per_view, rtol=0, atol=1e-12)
            np.testing.assert_allclose(probs[rows], probs_of(student, per_view),
                                       rtol=0, atol=1e-12)


def test_objective_terms_match_one_pass_per_view():
    # the reference: each view through its own forward pass, each group of
    # rows taken from its view, as the terms are defined
    for method in ("baseline", "strong", "lrco", "mixlrco"):
        cfg, m, sb = split_step(method)

        def probs_on(x):
            return probs_of(m, features_of(m, x))

        def queries_on(x):
            return L.contrast_rows(features_of(m, x), m.classifier, m.t_re, cfg.rerep_mode)

        p_lab, p_unl = (probs_on(view_of(sb, v)) for v in ("labeled", "unlabeled_weak"))
        n_l, n_u = len(p_lab), len(p_unl)
        expected = {"ce": L.cross_entropy_batch(p_lab, sb.labeled_y),
                    "align": (n_l * L.entropy_alignment(p_lab)
                              + n_u * L.entropy_alignment(p_unl)) / (n_l + n_u)}
        if method != "baseline":
            p_high = probs_on(view_of(sb, "unlabeled_strong"))[sb.high_idx]
            expected["fixmatch"] = L.cross_entropy_batch(p_high, sb.pseudo[sb.high_idx])
            expected["kld"] = L.kld_uniform_batch(p_high)
        if method == "lrco":
            expected["contrastive"] = L.contrastive_batch(
                queries_on(view_of(sb, "unlabeled_strong")[sb.sel_idx]), sb.keys_sel,
                sb.bank_snapshot, cfg.t_co)
        if method == "mixlrco":
            expected["contrastive"] = L.mixlrco_batch(
                queries_on(view_of(sb, "mix")), sb.k_pos, *sb.k_den, sb.bank_snapshot, cfg.t_co)
        _, terms = step_objective(m, sb, cfg)
        for key in terms:
            assert abs(float(terms[key]) - float(expected.get(key, 0.0))) <= 1e-12, (method, key)


# The step's values and its backward against the chain it replaced, and its
# graph view, run from the one table in test_chains.py, under the ids they had
# before it.
test_objective_equals_the_single_head_chain_bit_for_bit = entry(
    "test_objective_equals_the_single_head_chain_bit_for_bit")
test_graph_view_nodes_backpropagate_the_step_backward = entry(
    "test_graph_view_nodes_backpropagate_the_step_backward")
test_topo_order_is_the_order_of_a_walk_over_every_node = entry(
    "test_topo_order_is_the_order_of_a_walk_over_every_node")


def test_objective_decreases_after_one_sgd_step():
    # momentum term is empty on the first step, so a small-lr update must
    # reduce the same objective
    for method in ("source_only", "baseline", "strong", "lrco", "mixlrco"):
        cfg, student, teacher, bank, *rest = tiny_setup(
            method=method, learning_rate=1e-3)
        bank.push_batch(np.eye(5)[:3])  # give the contrastive branch negatives
        sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.5, step=1,
                          streams=StepStreams(cfg.seed, 1))
        before = float(step_objective(student, sb, cfg)[0])
        velocities = init_velocities(student)
        train_step(student, teacher, bank, velocities, sb, cfg, step=1)
        after = float(step_objective(student, sb, cfg)[0])
        assert after < before, f"{method}: {after} !< {before}"


def test_contrastive_gradient_never_touches_classifier():
    cfg, student, teacher, bank, *rest = tiny_setup(method="lrco")
    bank.push_batch(np.eye(5)[:4])
    # tau just under 1 makes nearly every sample low-confidence
    sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.999999, step=1,
                      streams=StepStreams(cfg.seed, 1))
    assert len(sb.sel_idx) >= 1
    params = lift_params(student)
    _, terms = oracles.step_nodes(params, sb, cfg)
    term = terms["contrastive"]
    assert sb.query_rows is not None
    term.backward()
    grad = params.classifier.grad
    assert grad is None or np.all(grad == 0.0)
    # while the encoder does receive gradient
    assert params.weights[0].grad is not None
    assert np.any(params.weights[0].grad != 0.0)


def test_report_counts_and_loss_keys():
    cfg, student, teacher, bank, *rest = tiny_setup(method="strong")
    sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.5, step=1,
                      streams=StepStreams(cfg.seed, 1))
    losses = train_step(student, teacher, bank, init_velocities(student), sb,
                        cfg, step=1)
    assert len(sb.high_idx) + len(sb.low_idx) == 8
    assert set(losses) == set(LOSS_KEYS)


def test_ema_update_applied_after_sgd():
    cfg, student, teacher, bank, *rest = tiny_setup(method="baseline")
    teacher_before = clone_state(teacher)
    sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, cfg.tau, step=1,
                      streams=StepStreams(cfg.seed, 1))
    train_step(student, teacher, bank, init_velocities(student), sb, cfg, step=1)
    # teacher must now be the EMA of its old self with the *updated* student
    expected_w0 = 0.99 * teacher_before.weights[0] + 0.01 * student.weights[0]
    np.testing.assert_array_equal(teacher.weights[0], expected_w0)
    assert not np.array_equal(teacher.weights[0], teacher_before.weights[0])


def test_bank_pushes_only_contrastive_methods():
    for method, grows in (("source_only", False), ("baseline", False),
                          ("strong", False), ("lrco", True), ("mixlrco", True)):
        cfg, student, teacher, bank, *rest = tiny_setup(method=method)
        sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.5, step=1,
                          streams=StepStreams(cfg.seed, 1))
        train_step(student, teacher, bank, init_velocities(student), sb, cfg,
                   step=1)
        if grows:
            assert len(bank) == len(sb.sel_idx)
        else:
            assert len(bank) == 0


def test_diverged_run_raises_with_diagnostics():
    cfg, student, teacher, bank, *rest = tiny_setup(method="baseline")
    student.weights[0][0, 0] = np.nan
    sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, cfg.tau, step=1,
                      streams=StepStreams(cfg.seed, 1))
    with pytest.raises(TrainingDivergedError, match="step 1"):
        train_step(student, teacher, bank, init_velocities(student), sb, cfg,
                   step=1)


@pytest.mark.parametrize("method", ["lrco", "mixlrco"])
def test_a_nan_query_is_a_diverged_step_not_a_row_error(method):
    # the contrastive branch checks no query or key row, as the step builds
    # them unit: a NaN that reaches them is a NaN term, and the step ends as
    # a diverged run, not as an InvalidRowsError
    cfg, student, sb = split_step(method)
    student.weights[0][0, 0] = np.nan
    assert sb.query_rows is not None and np.all(np.isfinite(sb.k_pos))
    _, terms = step_objective(student, sb, cfg)
    assert np.isnan(terms["contrastive"])
    with pytest.raises(TrainingDivergedError, match="step 1"):
        train_step(student, clone_state(student), MemoryBank(cfg.bank_capacity),
                   init_velocities(student), sb, cfg, step=1)


# --- the step's hot path -----------------------------------------------------------------

# numpy's Python wrappers (np.sum, ndarray.mean, np.expand_dims, zeros_like, ...)
# run Python code before the ufunc loop they forward to; a step calls the loop
_NUMPY_WRAPPER_FILES = {inspect.unwrap(f).__code__.co_filename
                        for f in (np.sum, np.zeros_like, np.broadcast_to, np.expand_dims)}
_NUMPY_WRAPPER_FILES.add(os.path.join(
    os.path.dirname(inspect.unwrap(np.sum).__code__.co_filename), "_methods.py"))
_LRCO_DIR = os.path.dirname(trainer.__file__) + os.sep
# The draws a step makes; a stream is numpy's own generator, and what its
# draws call is left alone
_RNG_DRAWS = ("uniform", "normal", "standard_gamma", "integers", "permutation")


@pytest.mark.parametrize("method,overrides", [(m, {}) for m in METHODS]
                         + [("mixlrco", {"alpha": 0.5})])
def test_step_calls_no_numpy_python_wrapper(method, overrides, monkeypatch):
    cfg, student, teacher, bank, *rest = tiny_setup(method=method, **overrides)
    velocities = init_velocities(student)
    tau = 0.999  # both confidence groups are non-empty on every step
    calls = []
    drawing = [0]  # the draws running now

    def counted(draw):
        def wrapped(self, *args, **kwargs):
            drawing[0] += 1
            try:
                return draw(self, *args, **kwargs)
            finally:
                drawing[0] -= 1
        return wrapped

    for name in _RNG_DRAWS:
        monkeypatch.setattr(SeededRng, name, counted(getattr(np.random.Generator, name)))

    def watch(frame, event, arg):
        if (event == "call" and not drawing[0]
                and frame.f_code.co_filename in _NUMPY_WRAPPER_FILES):
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(_LRCO_DIR):
                calls.append(f"{caller.f_code.co_name}:{caller.f_lineno} -> "
                             f"{frame.f_code.co_name}")

    mixed = 0
    sys.setprofile(watch)
    try:
        for step in (1, 2, 3):
            sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau, step,
                              streams=StepStreams(cfg.seed, step))
            train_step(student, teacher, bank, velocities, sb, cfg, step)
            mixed += "mix" in sb.rows
    finally:
        sys.setprofile(None)
    assert calls == []
    assert mixed == (2 if method == "mixlrco" else 0)  # the mix path ran


@pytest.mark.parametrize("method", METHODS)
def test_nodes_per_step_are_pinned(method, tmp_path, monkeypatch):
    # pinned at none: a training step writes its gradient through
    # step_objective's backward, so a fit, fresh or resumed, constructs no
    # Tensor, walks no graph and lifts no student. tau 0.999 makes the
    # contrastive methods build their term
    calls = []

    def recorded(owner, attr):
        fn = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *args, **kw: calls.append(attr) or fn(*args, **kw))

    recorded(ad.Tensor, "__init__")
    recorded(ad, "_topo_order")
    recorded(trainer, "lift_params")
    recorded(L, "contrastive_branch")
    cfg = TrainConfig(method=method, tau=0.999, total_steps=4, batch_labeled=12,
                      batch_unlabeled=12)
    kw = dict(hidden_dims=(6,), feature_dim=5)
    fit(small_benchmark(), AUG, dataclasses.replace(cfg, total_steps=2), out_dir=str(tmp_path),
        **kw)
    resumed = fit(small_benchmark(), AUG, cfg, resume_from=str(tmp_path / "checkpoint_final.npz"),
                  **kw)
    assert resumed.steps_run == 2
    contrastive = ["contrastive_branch"] * calls.count("contrastive_branch")
    assert calls == contrastive
    assert bool(contrastive) == (method in ("lrco", "mixlrco"))


def test_leaf_with_three_consumers_sums_its_gradients_in_the_all_node_walks_order(
        monkeypatch):
    # the gradient-sum-order case: a leaf's gradient is the sum of its
    # consumers' contributions in the order the walk runs them, and with three
    # of them that order shows in the bits
    rng = SeededRng(7)
    x0, w0 = rng.normal(size=(6, 4)), rng.normal(size=(4, 4))
    contributions = []
    accumulate = ad.Tensor.accumulate

    def recorded(self, g):
        if self.parents == () and self.value.shape == x0.shape:
            contributions.append(np.array(g))
        accumulate(self, g)

    def leaf_grads():
        x, w = ad.Tensor(x0), ad.Tensor(w0)
        h, t, s = oracles.matmul(x, w), oracles.tanh(x), oracles.softmax_rows(x, 1.0)  # x's consumers
        z = oracles.weighted_sum([(oracles.tanh(h), 0.7), (t, -1.3), (s, 2.1)])
        L.cross_entropy_batch(oracles.softmax_rows(z, 0.5), np.arange(6) % 4).backward()
        return x.grad.tobytes(), w.grad.tobytes()

    with monkeypatch.context() as m:
        m.setattr(ad.Tensor, "accumulate", recorded)
        leaf_free = leaf_grads()
    # the case tells the orders apart: some other order of the three sums
    # gives other bits
    assert len(contributions) == 3
    sums = set()
    for order in itertools.permutations(contributions):
        total = order[0] + 0.0
        for g in order[1:]:
            total += g
        sums.add(total.tobytes())
    assert len(sums) > 1
    monkeypatch.setattr(ad, "_topo_order", oracles.all_nodes_topo_order)
    assert leaf_free == leaf_grads()


def test_fit_lifts_no_student_fresh_or_resumed(tmp_path, monkeypatch):
    bench = small_benchmark()
    cfg = TrainConfig(method="mixlrco", total_steps=4, batch_labeled=12, batch_unlabeled=12)
    kw = dict(hidden_dims=(6,), feature_dim=5)
    lifted = []
    lift = trainer.lift_params
    monkeypatch.setattr(trainer, "lift_params", lambda m: lifted.append(m) or lift(m))
    fresh = fit(bench, AUG, dataclasses.replace(cfg, total_steps=2), out_dir=str(tmp_path),
                **kw)
    assert fresh.steps_run == 2 and lifted == []
    resumed = fit(bench, AUG, cfg, resume_from=str(tmp_path / "checkpoint_final.npz"), **kw)
    assert resumed.steps_run == 2 and lifted == []


# --- dynamic threshold -----------------------------------------------------------------

def test_adjust_tau_static_by_default():
    cfg = TrainConfig(dynamic_tau=False)
    assert adjust_tau(0.99, 0.9, cfg) == 0.9
    assert adjust_tau(0.01, 0.9, cfg) == 0.9


def test_adjust_tau_band_logic():
    cfg = TrainConfig(dynamic_tau=True)  # band (0.6, 0.8), step 0.005
    assert adjust_tau(0.9, 0.95, cfg) == pytest.approx(0.955)   # too many -> raise
    assert adjust_tau(0.5, 0.95, cfg) == pytest.approx(0.945)   # too few -> lower
    assert adjust_tau(0.7, 0.95, cfg) == pytest.approx(0.95)    # inside band -> hold


def test_adjust_tau_clamped_to_bounds():
    cfg = TrainConfig(dynamic_tau=True)  # bounds (0.93, 0.98)
    assert adjust_tau(0.9, 0.98, cfg) == 0.98     # can't exceed the cap
    assert adjust_tau(0.1, 0.93, cfg) == 0.93     # can't drop below the floor
    assert adjust_tau(0.7, 0.5, cfg) == 0.93      # pulled up into range


# --- evaluation ------------------------------------------------------------------------

def test_evaluate_on_separable_data():
    bench = small_benchmark()
    cfg = TrainConfig(method="source_only", total_steps=60, batch_labeled=12,
                      batch_unlabeled=12, learning_rate=0.05)
    result = fit(bench, AUG, cfg, hidden_dims=(8,), feature_dim=6)
    m = evaluate(result.student, bench.source_x, bench.source_y)
    assert m.accuracy > 0.9  # source fit is easy
    assert set(m.per_class) == {0, 1, 2}
    assert 1.0 / 3.0 <= m.mean_confidence <= 1.0
    for acc in m.per_class.values():
        assert 0.0 <= acc <= 1.0


def test_evaluate_rejects_empty():
    cfg, student, *_ = tiny_setup()
    with pytest.raises(ValueError):
        evaluate(student, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


def test_per_class_accuracy_keeps_the_per_class_mean_bits(monkeypatch):
    # the per-class accuracies are counted for all classes at once; each
    # must keep the bits and the int key of the per-class mean it replaced,
    # and only the classes present in y get one
    rng = SeededRng(3, "per-class")
    probs = {}
    monkeypatch.setattr(trainer, "features_of", lambda state, x: x)
    monkeypatch.setattr(trainer, "probs_of", lambda state, feats: probs["now"])
    for _ in range(200):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(1, 300))
        classes = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        y = classes[rng.integers(0, len(classes), size=n)].astype(np.int64)
        probs["now"] = rng.dirichlet(np.ones(k), size=n)
        preds = probs["now"].argmax(axis=1)
        want = {c: float(np.mean(preds[y == c] == c)) for c in sorted(set(y.tolist()))}
        got = evaluate(None, np.zeros((n, 1)), y).per_class
        assert list(got) == list(want)
        assert all(type(c) is int for c in got)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


# --- epoch cycling ------------------------------------------------------------------------

def test_cycler_covers_each_epoch_exactly_once():
    cyc = _EpochCycler(n=10, batch_size=4, streams=StepStreams(0, 10), purpose="labeled")
    assert cyc.batches_per_epoch == 3
    seen = np.concatenate([cyc.batch_for_step(s) for s in (1, 2, 3)])
    assert sorted(seen.tolist()) == list(range(10))
    seen2 = np.concatenate([cyc.batch_for_step(s) for s in (4, 5, 6)])
    assert sorted(seen2.tolist()) == list(range(10))
    assert not np.array_equal(seen, seen2)  # reshuffled between epochs


def test_cycler_is_stateless_in_step():
    a = _EpochCycler(n=10, batch_size=4, streams=StepStreams(3, 10), purpose="unlabeled")
    b = _EpochCycler(n=10, batch_size=4, streams=StepStreams(3, 10), purpose="unlabeled")
    # query out of order; results only depend on the step number
    for step in (5, 1, 9, 2, 9):
        np.testing.assert_array_equal(a.batch_for_step(step), b.batch_for_step(step))
    c = _EpochCycler(n=10, batch_size=4, streams=StepStreams(3, 10), purpose="labeled")
    assert not np.array_equal(a.batch_for_step(1), c.batch_for_step(1))


def test_cycler_batch_size_capped_at_n():
    cyc = _EpochCycler(n=3, batch_size=8, streams=StepStreams(0, 10), purpose="labeled")
    assert cyc.batch_size == 3
    assert sorted(cyc.batch_for_step(1).tolist()) == [0, 1, 2]


def test_cycler_epoch_order_is_the_shuffle_substream_of_the_epoch(monkeypatch):
    # the oracle is the stream label fit has always shuffled with; epochs are
    # asked out of order, again, and across the table's blocks of 3
    monkeypatch.setattr(numerics, "STREAM_BLOCK", 3)
    n, batch = 7, 3
    for purpose in ("labeled", "unlabeled"):
        cyc = _EpochCycler(n=n, batch_size=batch, streams=StepStreams(5, 40), purpose=purpose)
        for epoch in (4, 0, 2, 3, 7, 2, 9, 1):
            oracle = SeededRng(5).substream(f"shuffle-{purpose}-{epoch}").permutation(n)
            order = np.concatenate([cyc.batch_for_step(epoch * cyc.batches_per_epoch + slot)
                                    for slot in (1, 2, 3)])
            assert order.tobytes() == oracle.tobytes(), (purpose, epoch)


# --- step streams -------------------------------------------------------------------------

def test_step_streams_equal_the_substream_of_purpose_and_step(monkeypatch):
    monkeypatch.setattr(numerics, "STREAM_BLOCK", 4)
    table = StepStreams(seed=7, last_step=10)
    # out of order, twice over, across blocks and past the last step
    for purpose, step in [("mix", 3), ("augment-labeled", 1), ("mix", 3), ("mix", 4),
                          ("mix", 5), ("mix", 2), ("augment-labeled", 10), ("mix", 12)]:
        oracle = SeededRng(7).substream(f"{purpose}-{step}")
        stream = table(purpose, step)
        assert stream._words == oracle._words
        assert np.array_equal(stream.normal(size=5), oracle.normal(size=5)), (purpose, step)


def test_prepare_step_refuses_streams_of_another_seed():
    cfg, student, teacher, bank, *rest = tiny_setup(seed=1)
    with pytest.raises(ValueError, match="seed 2"):
        prepare_step(student, teacher, bank, *rest, cfg, AUG, cfg.tau, 1,
                     streams=StepStreams(2, 10))


def _stream_block_fit(monkeypatch, block, resume_at=None):
    """A 10-step tiny mixlrco fit with STREAM_BLOCK set to block, straight or
    resumed from a checkpoint written at step resume_at."""
    monkeypatch.setattr(numerics, "STREAM_BLOCK", block)
    bench = small_benchmark(seed=3)
    cfg = TrainConfig(method="mixlrco", total_steps=10, batch_labeled=8,
                      batch_unlabeled=8, eval_interval=2, seed=3)
    kw = dict(hidden_dims=(6,), feature_dim=5)
    if resume_at is None:
        return fit(bench, AUG, cfg, **kw)
    with tempfile.TemporaryDirectory() as tmp:
        fit(bench, AUG, dataclasses.replace(cfg, total_steps=resume_at), out_dir=tmp, **kw)
        return fit(bench, AUG, cfg, resume_from=os.path.join(tmp, "checkpoint_final.npz"),
                   **kw)


def test_stream_block_size_never_changes_a_bit(monkeypatch):
    digests = {block: trajectory_digest(_stream_block_fit(monkeypatch, block))
               for block in (1, 4, numerics.STREAM_BLOCK)}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("resume_at", [4, 6])  # at a block boundary and inside a block
def test_resume_across_stream_blocks_is_bit_identical(monkeypatch, resume_at):
    straight = _stream_block_fit(monkeypatch, 4)
    resumed = _stream_block_fit(monkeypatch, 4, resume_at=resume_at)
    assert resumed.steps_run == 10 - resume_at
    for a, b in ((resumed.student, straight.student), (resumed.teacher, straight.teacher)):
        assert a.params.tobytes() == b.params.tobytes()
    assert resumed.bank.snapshot().tobytes() == straight.bank.snapshot().tobytes()
    assert repr(resumed.final_tau) == repr(straight.final_tau)


def test_fit_seeds_no_seed_sequence_inside_prepare_step(monkeypatch):
    # every step stream and epoch shuffle comes from the run's table, seeded
    # by seed_states; numpy's SeedSequence seeds the init stream alone
    built = {True: 0, False: 0}  # by whether prepare_step was running
    in_step = [False]
    mixed = []
    seed_sequence, prepare = np.random.SeedSequence, trainer.prepare_step

    def counting_seed_sequence(*args, **kwargs):
        built[in_step[0]] += 1
        return seed_sequence(*args, **kwargs)

    def watched_prepare(*args, **kwargs):
        in_step[0] = True
        try:
            sb = prepare(*args, **kwargs)
        finally:
            in_step[0] = False
        mixed.append("mix" in sb.rows)
        return sb

    bench = small_benchmark()  # generating it seeds streams of its own
    cfg = TrainConfig(method="mixlrco")  # the default 600 steps: 300 epochs of each pool
    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    monkeypatch.setattr(trainer, "prepare_step", watched_prepare)
    fit(bench, AUG, cfg, hidden_dims=(6,), feature_dim=5)
    assert len(mixed) == cfg.total_steps == 600 and any(mixed)  # the mix streams were drawn too
    assert built == {True: 0, False: 1}, built


@pytest.mark.parametrize("method", ["lrco", "mixlrco"])
def test_bank_rows_are_checked_once_when_pushed(monkeypatch, method):
    # the bank is the one gate for its rows: each row is checked when it is
    # pushed, and the contrastive branch checks its snapshot's shape only
    checked, steps = [], []
    check, prepare = L.check_unit_rows, trainer.prepare_step

    def recording_check(x, name):
        checked.append((ad.value_of(x), name))
        check(x, name)

    def watched_prepare(*args, **kwargs):
        steps.append(prepare(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(L, "check_unit_rows", recording_check)
    monkeypatch.setattr(membank, "check_unit_rows", recording_check)
    monkeypatch.setattr(trainer, "prepare_step", watched_prepare)
    cfg = TrainConfig(method=method, total_steps=40, batch_labeled=12, batch_unlabeled=12,
                      bank_capacity=24, seed=2)
    result = fit(small_benchmark(), AUG, cfg, hidden_dims=(6,), feature_dim=5)
    snapshots = [sb.bank_snapshot for sb in steps if len(sb.bank_snapshot)]
    assert any(sb.query_rows is not None for sb in steps)
    assert len(result.bank) == cfg.bank_capacity and len(snapshots[-1]) == cfg.bank_capacity
    assert not [name for x, name in checked
                if any(np.shares_memory(x, snap) for snap in snapshots)]
    assert "bank entries" not in {name for _, name in checked}
    pushed = sum(len(sb.keys_sel) for sb in steps)
    assert sum(len(x) for x, name in checked if name == "bank keys") == pushed > cfg.bank_capacity
    for snap in snapshots:
        assert np.all(np.abs(numerics.norm_last(snap) - 1.0) <= L.UNIT_NORM_TOL)


# --- lambda_co = 0 reduction ------------------------------------------------------------

def test_lambda_zero_matches_strong_bitwise():
    bench = small_benchmark()
    base = dict(total_steps=8, batch_labeled=12, batch_unlabeled=12, seed=1)
    ref = fit(bench, AUG, TrainConfig(method="strong", **base),
              hidden_dims=(6,), feature_dim=5)
    for method in ("lrco", "mixlrco"):
        got = fit(bench, AUG, TrainConfig(method=method, lambda_co=0.0, **base),
                  hidden_dims=(6,), feature_dim=5)
        assert states_allclose(got.student, ref.student)
        assert states_allclose(got.teacher, ref.teacher)


# --- the flat parameter vector -------------------------------------------------------------

def sgd_step_per_array(state, grads, velocities, lr, momentum):
    """The oracle of sgd_step: momentum SGD array by array, on named grads
    and velocities."""
    for name, arr in state_arrays(state).items():
        v = velocities[name]
        v[...] = momentum * v + grads[name]
        arr -= lr * v


def ema_update_per_array(teacher, student, decay):
    """The oracle of ema_update, array by array."""
    s_arrays = state_arrays(student)
    for name, t_arr in state_arrays(teacher).items():
        t_arr[...] = decay * t_arr + (1.0 - decay) * s_arrays[name]


def test_flat_sgd_and_ema_equal_the_per_array_updates_bitwise():
    _, student, teacher, *_ = tiny_setup()
    ref_student, ref_teacher = clone_state(student), clone_state(teacher)
    velocities = init_velocities(student)
    ref_velocities = {name: np.zeros_like(arr) for name, arr in state_arrays(student).items()}
    rng = SeededRng(7)
    for step in range(5):
        grads = np.asarray(rng.normal(size=student.params.shape))
        grads[step::4] = (-0.0, 0.0)[step % 2]  # signed zeros on some entries
        sgd_step(student, grads, velocities, 0.05, 0.9)
        sgd_step_per_array(ref_student, state_arrays(with_param_vector(student, grads)),
                           ref_velocities, 0.05, 0.9)
        ema_update(teacher, student, 0.99)
        ema_update_per_array(ref_teacher, ref_student, 0.99)
        assert student.params.tobytes() == ref_student.params.tobytes()
        assert teacher.params.tobytes() == ref_teacher.params.tobytes()
        assert velocities.tobytes() == np.concatenate(
            [v.ravel() for v in ref_velocities.values()]).tobytes()
    assert not states_allclose(student, teacher)


def test_each_state_array_is_a_view_of_its_own_flat_vector(tmp_path):
    cfg, student, teacher, bank, *rest = tiny_setup(method="lrco")
    velocities = init_velocities(student)
    sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.7, step=1,
                      streams=StepStreams(cfg.seed, 1))
    train_step(student, teacher, bank, velocities, sb, cfg, step=1)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, Checkpoint(student=student, teacher=teacher, velocities=velocities,
                                     bank=bank, step=1, tau=0.7, seed=cfg.seed, config_hash=""))
    ck = load_checkpoint(path)
    rebuilt = state_from_arrays(state_arrays(student), student.t_ce, student.t_re)
    # from init_model, clone_state, state_from_arrays and load_checkpoint
    states = [student, teacher, rebuilt, ck.student, ck.teacher]
    vectors = [m.params for m in states] + [velocities, ck.velocities]
    for m in states:
        for arr in state_arrays(m).values():
            assert arr.base is m.params
            assert sum(np.shares_memory(arr, vec) for vec in vectors) == 1
    assert all(vec.flags.owndata for vec in vectors)
    assert not np.shares_memory(ck.velocities, ck.student.params)


# --- checkpointing and resume ---------------------------------------------------------------

def test_checkpoint_roundtrip_bitexact(tmp_path):
    cfg, student, teacher, bank, *rest = tiny_setup(method="lrco")
    velocities = init_velocities(student)
    for step in (1, 2):
        sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.7, step=step,
                          streams=StepStreams(cfg.seed, step))
        train_step(student, teacher, bank, velocities, sb, cfg, step=step)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, Checkpoint(student=student, teacher=teacher, velocities=velocities,
                                     bank=bank, step=2, tau=0.7, seed=cfg.seed,
                                     config_hash="h123"))
    ck = load_checkpoint(path)
    assert states_allclose(ck.student, student)
    assert states_allclose(ck.teacher, teacher)
    assert ck.step == 2 and ck.tau == 0.7 and ck.config_hash == "h123"
    np.testing.assert_array_equal(ck.bank.snapshot(), bank.snapshot())
    np.testing.assert_array_equal(ck.velocities, velocities)


def test_every_checkpoint_field_survives_save_and_load(tmp_path):
    cfg, student, teacher, bank, *rest = tiny_setup(method="lrco")
    velocities = init_velocities(student)
    for step in (1, 2):
        sb = prepare_step(student, teacher, bank, *rest, cfg, AUG, tau=0.99, step=step,
                          streams=StepStreams(cfg.seed, step))
        train_step(student, teacher, bank, velocities, sb, cfg, step=step)
    assert len(bank) > 0 and not states_allclose(student, teacher)
    base = Checkpoint(student=teacher, teacher=teacher,
                      velocities=init_velocities(student), bank=MemoryBank(cfg.bank_capacity),
                      step=0, tau=0.5, seed=0, config_hash="")
    # one value per field that differs from its value in base (and any default)
    changed = {"student": student, "teacher": student, "velocities": velocities,
               "bank": bank, "step": 7, "tau": 0.7312, "seed": 11, "config_hash": "c1",
               "dynamics_hash": "d2", "spec_hash": "s3"}
    assert set(changed) == {f.name for f in dataclasses.fields(Checkpoint)}

    def same(a, b) -> bool:
        if isinstance(a, MemoryBank):
            return (a.capacity == b.capacity
                    and np.array_equal(a.snapshot(), b.snapshot()))
        if isinstance(a, np.ndarray):
            return a.shape == b.shape and np.array_equal(a, b)
        if isinstance(a, type(student)):
            return states_allclose(a, b) and (a.t_ce, a.t_re) == (b.t_ce, b.t_re)
        return type(a) is type(b) and a == b

    for name, value in changed.items():
        path = tmp_path / f"{name}.npz"
        save_checkpoint(path, dataclasses.replace(base, **{name: value}))
        ck = load_checkpoint(path)
        assert same(getattr(ck, name), value), name
        assert not same(getattr(base, name), value), name


def test_a_record_refuses_arrays_not_laid_out_like_its_student():
    # load_checkpoint checked these itself, so fit's record and replace()
    # went unchecked; each record now checks them when it is built
    cfg, student, teacher, bank, *rest = tiny_setup(method="lrco")
    fields = dict(student=student, teacher=teacher, velocities=init_velocities(student),
                  bank=bank, step=1, tau=0.7, seed=cfg.seed, config_hash="")
    base = Checkpoint(**fields)
    wide = init_model(ModelConfig(input_dim=2, hidden_dims=(7,), feature_dim=5, n_classes=3,
                                  t_ce=student.t_ce, t_re=student.t_re), SeededRng(1))
    narrow = MemoryBank(cfg.bank_capacity)
    narrow.push_batch(oracles.unit_rows(SeededRng(3), 7, student.feature_dim - 1))
    for change, error in (({"teacher": wide}, "arrays differ in shape"),
                          ({"velocities": np.zeros(student.params.size + 1)},
                           "arrays differ in shape"),
                          ({"bank": narrow}, "bank rows are 4 wide, the features 5")):
        with pytest.raises(ShapeMismatchError, match=error):
            Checkpoint(**{**fields, **change})
        with pytest.raises(ShapeMismatchError, match=error):
            dataclasses.replace(base, **change)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    cfg, student, teacher, bank, *rest = tiny_setup(method="lrco")
    ckpt = Checkpoint(student=student, teacher=teacher, velocities=init_velocities(student),
                      bank=bank, step=1, tau=0.7, seed=cfg.seed, config_hash="")
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ckpt)
    before = path.read_bytes()

    def interrupted(file, *args, **kwds):
        file.write(b"PK\x03\x04 partial")
        raise OSError("write interrupted")

    monkeypatch.setattr(np, "savez", interrupted)
    with pytest.raises(OSError, match="write interrupted"):
        save_checkpoint(path, dataclasses.replace(ckpt, step=2))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]


def test_resume_reproduces_straight_run(tmp_path):
    bench = small_benchmark(seed=2)
    kw = dict(hidden_dims=(6,), feature_dim=5)
    cfg6 = TrainConfig(method="mixlrco", total_steps=6, batch_labeled=12,
                       batch_unlabeled=12, checkpoint_interval=3, seed=2)
    straight = fit(bench, AUG, cfg6, **kw)

    ck_dir = tmp_path / "run"
    ck_dir.mkdir()
    fit(bench, AUG, dataclasses.replace(cfg6, total_steps=3),
        out_dir=str(ck_dir), **kw)
    resumed = fit(bench, AUG, cfg6,
                  resume_from=str(ck_dir / "checkpoint_final.npz"), **kw)

    assert states_allclose(resumed.student, straight.student)
    assert states_allclose(resumed.teacher, straight.teacher)
    assert resumed.final_tau == straight.final_tau
    np.testing.assert_array_equal(resumed.bank.snapshot(), straight.bank.snapshot())
    assert resumed.steps_run == 3


RESUME_STEPS = 8
_resume_benchmarks: dict[int, object] = {}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resume_at_any_step_equals_the_straight_run(data):
    # bit-exact resume over the settings that change what a checkpoint holds:
    # each method, the tau rule, labeled target rows, and a bank that wraps
    method = data.draw(st.sampled_from(METHODS), label="method")
    reads_tau = method in trainer.PSEUDO_LABEL_METHODS
    dynamic_tau = data.draw(st.booleans(), label="dynamic_tau") if reads_tau else False
    shots = data.draw(st.sampled_from([0, 2]), label="shots")
    capacity = data.draw(st.sampled_from([5, 512]), label="bank_capacity")
    resume_at = data.draw(st.integers(1, RESUME_STEPS - 1), label="resume_at")
    if shots not in _resume_benchmarks:
        _resume_benchmarks[shots] = small_benchmark(seed=4, n_labeled_target_per_class=shots)
    bench = _resume_benchmarks[shots]
    cfg = TrainConfig(method=method, dynamic_tau=dynamic_tau, bank_capacity=capacity,
                      total_steps=RESUME_STEPS, batch_labeled=8, batch_unlabeled=8,
                      eval_interval=2, seed=4)
    kw = dict(hidden_dims=(6,), feature_dim=5)
    with tempfile.TemporaryDirectory() as tmp:
        straight_dir, resumed_dir = os.path.join(tmp, "straight"), os.path.join(tmp, "resumed")
        os.mkdir(straight_dir)
        os.mkdir(resumed_dir)
        straight = fit(bench, AUG, cfg, out_dir=straight_dir, **kw)
        fit(bench, AUG, dataclasses.replace(cfg, total_steps=resume_at),
            out_dir=resumed_dir, **kw)
        resumed = fit(bench, AUG, cfg, out_dir=resumed_dir,
                      resume_from=os.path.join(resumed_dir, "checkpoint_final.npz"), **kw)
        with open(os.path.join(straight_dir, "metrics.csv"), "rb") as fh:
            straight_metrics = fh.read()
        with open(os.path.join(resumed_dir, "metrics.csv"), "rb") as fh:
            assert fh.read() == straight_metrics
    assert resumed.student.params.tobytes() == straight.student.params.tobytes()
    assert resumed.teacher.params.tobytes() == straight.teacher.params.tobytes()
    assert repr(resumed.final_tau) == repr(straight.final_tau)
    assert resumed.bank.snapshot().tobytes() == straight.bank.snapshot().tobytes()
    assert resumed.bank.snapshot().shape == straight.bank.snapshot().shape
    if len(straight.bank):  # a method that keeps a bank: 5 keys wrap, 512 do not
        assert (len(straight.bank) == capacity) == (capacity == 5)


def test_resume_rejects_dynamics_mismatch(tmp_path):
    bench = small_benchmark()
    cfg = TrainConfig(method="baseline", total_steps=2, batch_labeled=12,
                      batch_unlabeled=12)
    ck_dir = tmp_path / "run"
    ck_dir.mkdir()
    fit(bench, AUG, cfg, hidden_dims=(6,), feature_dim=5,
        out_dir=str(ck_dir), dynamics_hash="aaa")
    with pytest.raises(ConfigError, match="different config"):
        fit(bench, AUG, cfg, hidden_dims=(6,), feature_dim=5,
            resume_from=str(ck_dir / "checkpoint_final.npz"), dynamics_hash="bbb")
    # matching dynamics may extend the run even under a new config hash
    longer = dataclasses.replace(cfg, total_steps=4)
    result = fit(bench, AUG, longer, hidden_dims=(6,), feature_dim=5,
                 resume_from=str(ck_dir / "checkpoint_final.npz"),
                 config_hash="different-stamp", dynamics_hash="aaa")
    assert result.steps_run == 2


def test_resume_refuses_checkpoint_of_another_benchmark(tmp_path):
    cfg = TrainConfig(method="baseline", total_steps=2, batch_labeled=12,
                      batch_unlabeled=12)
    ck_dir = tmp_path / "run"
    ck_dir.mkdir()
    fit(small_benchmark(seed=0), AUG, cfg, hidden_dims=(6,), feature_dim=5,
        out_dir=str(ck_dir))
    ckpt = str(ck_dir / "checkpoint_final.npz")
    longer = dataclasses.replace(cfg, total_steps=4)
    # same shapes and dynamics, another data seed
    with pytest.raises(ConfigError, match="spec_hash"):
        fit(small_benchmark(seed=7), AUG, longer, hidden_dims=(6,), feature_dim=5,
            resume_from=ckpt)
    result = fit(small_benchmark(seed=0), AUG, longer, hidden_dims=(6,),
                 feature_dim=5, resume_from=ckpt)
    assert result.steps_run == 2


def test_resume_refuses_checkpoint_that_records_no_benchmark(tmp_path):
    cfg = TrainConfig(method="baseline", total_steps=2, batch_labeled=12,
                      batch_unlabeled=12)
    fit(small_benchmark(seed=0), AUG, cfg, hidden_dims=(6,), feature_dim=5,
        out_dir=str(tmp_path))
    unnamed = tmp_path / "unnamed.npz"
    save_checkpoint(unnamed, dataclasses.replace(
        load_checkpoint(tmp_path / "checkpoint_final.npz"), spec_hash=""))
    longer = dataclasses.replace(cfg, total_steps=4)
    # neither the benchmark it was trained on nor another one takes it
    for seed in (0, 7):
        with pytest.raises(ConfigError, match=r"spec_hash=\(none recorded\), "):
            fit(small_benchmark(seed=seed), AUG, longer, hidden_dims=(6,), feature_dim=5,
                resume_from=str(unnamed))


def test_metrics_files_byte_identical(tmp_path):
    bench = small_benchmark(seed=3)
    cfg = TrainConfig(method="lrco", total_steps=6, eval_interval=2,
                      batch_labeled=12, batch_unlabeled=12, seed=3)
    p1, p2 = tmp_path / "a" / "metrics.csv", tmp_path / "b" / "metrics.csv"
    for p in (p1, p2):
        p.parent.mkdir()
        fit(bench, AUG, cfg, hidden_dims=(6,), feature_dim=5, out_dir=str(p.parent),
            config_hash="xyz")
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "# config_hash=xyz seed=3"
    assert lines[1].startswith("step,split,accuracy,mean_confidence,acc_class_0")
    # evals at steps 2, 4, 6, two splits each
    assert len(lines) == 2 + 3 * 2


def test_metric_line_format():
    from lrco.trainer import MetricRecord
    rec = MetricRecord(step=7, split="target", accuracy=0.5,
                       mean_confidence=1.0 / 3.0, per_class=(0.25, 0.75),
                       losses={k: 0.0 for k in LOSS_KEYS})
    line = metric_record_line(rec)
    fields = line.split(",")
    assert fields[0] == "7" and fields[1] == "target"
    assert fields[3] == "0.33333333333333331"  # 17 significant digits
    header = metrics_header_lines(2, "h", 0)
    assert len(header[1].split(",")) == len(fields)


def test_fit_zero_steps_returns_initial_model(tmp_path):
    bench = small_benchmark()
    cfg = TrainConfig(method="mixlrco", total_steps=0)
    result = fit(bench, AUG, cfg, hidden_dims=(6,), feature_dim=5,
                 out_dir=str(tmp_path))
    assert result.steps_run == 0
    assert result.history == []
    assert states_allclose(result.student, result.teacher)
    ck = load_checkpoint(tmp_path / "checkpoint_final.npz")
    assert ck.step == 0


def test_fit_history_layout():
    bench = small_benchmark()
    cfg = TrainConfig(method="baseline", total_steps=5, eval_interval=2,
                      batch_labeled=12, batch_unlabeled=12)
    result = fit(bench, AUG, cfg, hidden_dims=(6,), feature_dim=5)
    # evals at 2, 4 and the final step 5: source + target records each
    assert [(r.step, r.split) for r in result.history] == [
        (2, "source"), (2, "target"), (4, "source"), (4, "target"),
        (5, "source"), (5, "target"),
    ]
    for rec in result.history:
        assert set(rec.losses) == set(LOSS_KEYS)
        assert len(rec.per_class) == 3
