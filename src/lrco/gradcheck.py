"""Finite-difference verification of every loss term and training objective.

Each randomized instance builds a tiny model pair (student + independent
teacher) and prepared step batches, and compares the gradients of the terms
``trainer.step_objective`` returns, from the backward that train_step
calls, against central finite differences over the full parameter vector.
Terms whose re-representation weights are stop-gradients are checked
against the function with those weights frozen — the function the analytic
gradient actually differentiates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .data import AugmentSpec, weak_augment
from .membank import MemoryBank
from .model import (
    ModelConfig, features_of, get_param_vector, init_model, probs_of, with_param_vector,
)
from .model import compute_gradients  # noqa: F401 (unused; perfbench patches it here)
from .numerics import (
    SeededRng, StepStreams, finite_diff_grad, relative_grad_error, normalize_last,
)
from .trainer import TrainConfig, prepare_step, step_objective

# Each check, in print order: (prepared step of the instance, key of its term
# in step_objective). Every check differentiates a term of the trainer's own
# objective, and the checks on one prepared step share one finite-difference
# pass, which evaluates every perturbed parameter vector in one stacked call.
CHECKS = {
    "labeled_ce": ("strong", "ce"),
    "alignment_entropy": ("strong", "align"),
    "fixmatch": ("strong", "fixmatch"),
    "uniform_kld": ("strong", "kld"),
    "contrastive_rerep": ("rerep", "contrastive"),
    "contrastive_raw": ("raw", "contrastive"),
    "contrastive_mix": ("mix", "contrastive"),
    "objective_strong": ("strong", "total"),
    "objective_lrco": ("rerep", "total"),
    "objective_mixlrco": ("mix", "total"),
}
TERM_NAMES = tuple(CHECKS)

_SIZE_GRID = ((2, 3), (2, 8), (5, 3), (5, 8))  # (n_classes, feature_dim)


@dataclass(frozen=True)
class InstanceResult:
    index: int
    n_classes: int
    feature_dim: int
    errors: dict[str, float]


def _split_tau(maxprobs: np.ndarray) -> float:
    """A threshold strictly between the extremes, so both groups are nonempty."""
    lo, hi = float(maxprobs.min()), float(maxprobs.max())
    if hi - lo < 1e-12:
        return 0.5
    return 0.5 * (lo + hi)


def _build_instance(index: int, seed: int):
    n_classes, feature_dim = _SIZE_GRID[index % len(_SIZE_GRID)]
    rng = SeededRng(seed, f"gradcheck-{index}")

    t_ce = 0.3 + 0.7 * float(rng.uniform())
    t_co = 0.2 + 0.3 * float(rng.uniform())
    model_cfg = ModelConfig(
        input_dim=3, hidden_dims=(4,), feature_dim=feature_dim,
        n_classes=n_classes, t_ce=t_ce, t_re=t_ce,
    )
    student = init_model(model_cfg, rng.substream("student"))
    teacher = init_model(model_cfg, rng.substream("teacher"))
    # init_model zeroes the biases; a fully masked strong view would then have
    # a zero feature, which cannot be normalized.
    bias_rng = rng.substream("bias")
    for model in (student, teacher):
        for b in model.biases:
            b[...] = 0.1 * bias_rng.normal(size=b.shape)

    n_lab, n_unl = 4, 6
    lab_x = np.asarray(rng.normal(size=(n_lab, 3)))
    lab_y = np.asarray(rng.integers(0, n_classes, size=n_lab), dtype=np.int64)
    lab_src = np.ones(n_lab, dtype=bool)
    unl_x = np.asarray(rng.normal(size=(n_unl, 3)))

    bank = MemoryBank(capacity=16)
    bank.push_batch(normalize_last(np.asarray(rng.normal(size=(5, feature_dim)))))

    augment = AugmentSpec()
    base_cfg = TrainConfig(
        method="lrco", t_ce=t_ce, t_re=t_ce, t_co=t_co,
        bank_capacity=16, seed=int(seed * 1000 + index),
        sample_selection="low", rerep_mode="rerep",
    )

    cfgs = {"strong": replace(base_cfg, method="strong"), "rerep": base_cfg,
            "raw": replace(base_cfg, rerep_mode="raw"),
            "mix": replace(base_cfg, method="mixlrco")}
    steps = {"strong": 1, "rerep": 1, "raw": 2, "mix": 3}  # strong sees rerep's views
    # The four prepared steps and tau_for draw from one table of the
    # instance's step streams, as the steps of one run do.
    streams = StepStreams(base_cfg.seed, max(steps.values()))

    @functools.cache  # strong and rerep prepare the same step
    def tau_for(step: int) -> float:
        weak = weak_augment(unl_x, augment, streams("augment-unlabeled-weak", step))
        probs = np.asarray(probs_of(teacher, features_of(teacher, weak)))
        return _split_tau(probs.max(axis=1))

    def prep(cfg: TrainConfig, step: int):
        return prepare_step(student, teacher, bank, lab_x, lab_y, lab_src,
                            unl_x, cfg, augment, tau_for(step), step, streams=streams)

    return {
        "student": student,
        "teacher": teacher,
        "cfgs": cfgs,
        "batches": {key: prep(cfg, steps[key]) for key, cfg in cfgs.items()},
        "frozen_classifier": student.classifier.copy(),
    }


def values_at(inst, step: str, keys, vecs: np.ndarray) -> np.ndarray:
    """The terms ``keys`` of step_objective ("total" among them) on one
    prepared step, with the instance's frozen classifier, at student
    parameter vectors: a (P,) vector gives (K,) values, a (B, P) stack gives
    (B, K), and row b has the bits of vector b alone. A term the step leaves
    at zero is zero in every row."""
    total, terms = step_objective(with_param_vector(inst["student"], vecs), inst["batches"][step],
                                  inst["cfgs"][step], frozen_classifier=inst["frozen_classifier"])
    terms["total"] = total
    return np.stack([np.broadcast_to(terms[key], vecs.shape[:-1]) for key in keys], axis=-1)


def check_instance(index: int, seed: int = 0) -> InstanceResult:
    """Every check's relative error on one instance; the checks on a prepared
    step share one finite-difference pass and one forward pass, whose
    backward, the one train_step calls, gives each check's gradient."""
    inst = _build_instance(index, seed)
    student = inst["student"]
    base_vec = get_param_vector(student)
    errors = dict.fromkeys(CHECKS, 0.0)  # in print order
    for step in dict.fromkeys(step for step, _ in CHECKS.values()):
        names = [name for name, (at, _) in CHECKS.items() if at == step]
        keys = tuple(CHECKS[name][1] for name in names)
        numeric = finite_diff_grad(functools.partial(values_at, inst, step, keys), base_vec).T
        backward = step_objective(student, inst["batches"][step], inst["cfgs"][step],
                                  frozen_classifier=inst["frozen_classifier"], with_grad=True)[2]
        for name, key, fd in zip(names, keys, numeric):
            analytic = np.zeros(base_vec.shape)
            backward(key, analytic)
            errors[name] = relative_grad_error(analytic, fd)
    return InstanceResult(index=index, n_classes=student.n_classes,
                          feature_dim=student.feature_dim, errors=errors)


def run_gradient_suite(seed: int = 0, n_instances: int = 20) -> dict[str, float]:
    """Max relative gradient error per term over randomized instances."""
    worst = {name: 0.0 for name in TERM_NAMES}
    for index in range(n_instances):
        result = check_instance(index, seed=seed)
        for name, err in result.errors.items():
            worst[name] = max(worst[name], err)
    return worst
