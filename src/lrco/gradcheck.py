"""Finite-difference verification of every loss term and training objective.

Each randomized instance builds a tiny model pair (student + independent
teacher) and prepared step batches, and compares reverse-mode gradients of
the terms ``trainer.step_objective`` returns against central finite
differences over the full parameter vector. Terms whose re-representation
weights are stop-gradients are checked against the function with those
weights frozen — the function the analytic gradient actually differentiates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .data import AugmentSpec, weak_augment
from .membank import MemoryBank
from .model import (
    ModelConfig, compute_gradients, features_of, get_param_vector, init_model,
    probs_of, with_param_vector,
)
from .numerics import SeededRng, finite_diff_grad, relative_grad_error, normalize_last
from .trainer import TrainConfig, prepare_step, step_objective

TERM_NAMES = (
    "labeled_ce",
    "alignment_entropy",
    "fixmatch",
    "uniform_kld",
    "contrastive_rerep",
    "contrastive_raw",
    "contrastive_mix",
    "objective_strong",
    "objective_lrco",
    "objective_mixlrco",
)

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
    rng = SeededRng(seed).substream(f"gradcheck-{index}")

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

    def tau_for(step: int) -> float:
        weak = weak_augment(
            unl_x, augment,
            SeededRng(base_cfg.seed).substream(f"augment-unlabeled-weak-{step}"),
        )
        probs = np.asarray(probs_of(teacher, features_of(teacher, weak)))
        return _split_tau(probs.max(axis=1))

    def prep(cfg: TrainConfig, step: int):
        return prepare_step(student, teacher, bank, lab_x, lab_y, lab_src,
                            unl_x, cfg, augment, tau_for(step), step)

    cfg_rerep = base_cfg
    cfg_raw = replace(base_cfg, rerep_mode="raw")
    cfg_mix = replace(base_cfg, method="mixlrco")
    cfg_strong = replace(base_cfg, method="strong")

    sb_rerep = prep(cfg_rerep, 1)
    sb_raw = prep(cfg_raw, 2)
    sb_mix = prep(cfg_mix, 3)

    return {
        "student": student,
        "teacher": teacher,
        "n_classes": n_classes,
        "feature_dim": feature_dim,
        "cfgs": {"rerep": cfg_rerep, "raw": cfg_raw, "mix": cfg_mix,
                 "strong": cfg_strong},
        "batches": {"rerep": sb_rerep, "raw": sb_raw, "mix": sb_mix},
        "frozen_classifier": student.classifier.copy(),
    }


# (config, prepared batch, ((check, key of its term in step_objective), ...)):
# every check differentiates a term of the trainer's own objective, and the
# checks on one prepared step share one finite-difference pass, which
# evaluates every perturbed parameter vector in one stacked call.
_CHECKS = (
    ("strong", "rerep", (("labeled_ce", "ce"), ("alignment_entropy", "align"),
                         ("fixmatch", "fixmatch"), ("uniform_kld", "kld"),
                         ("objective_strong", "total"))),
    ("rerep", "rerep", (("contrastive_rerep", "contrastive"),
                        ("objective_lrco", "total"))),
    ("raw", "raw", (("contrastive_raw", "contrastive"),)),
    ("mix", "mix", (("contrastive_mix", "contrastive"),
                    ("objective_mixlrco", "total"))),
)


def _objective_terms(m, inst, check) -> dict:
    """step_objective's terms and total for one _CHECKS entry, with the
    instance's frozen classifier; on the graph each term is a node of its own."""
    cfg_key, batch_key, _ = check
    total, terms = step_objective(m, inst["batches"][batch_key], inst["cfgs"][cfg_key],
                                  frozen_classifier=inst["frozen_classifier"], term_nodes=True)
    return {**terms, "total": total}


def values_at(inst, check, vecs: np.ndarray) -> np.ndarray:
    """The checked terms of one _CHECKS entry at student parameter vectors:
    a (P,) vector gives (K,) values, a (B, P) stack gives (B, K), and row b
    has the bits of vector b alone. A term the step leaves at zero is zero
    in every row."""
    terms = _objective_terms(with_param_vector(inst["student"], vecs), inst, check)
    return np.stack([np.broadcast_to(terms[key], vecs.shape[:-1]) for _, key in check[2]],
                    axis=-1)


def check_instance(index: int, seed: int = 0, h: float = 1e-5) -> InstanceResult:
    inst = _build_instance(index, seed)
    student = inst["student"]
    base_vec = get_param_vector(student)
    errors: dict[str, float] = {}
    for check in _CHECKS:
        numeric = finite_diff_grad(functools.partial(values_at, inst, check), base_vec, h=h)
        for column, (name, key) in enumerate(check[2]):
            analytic = compute_gradients(student,
                                         lambda m: _objective_terms(m, inst, check)[key])
            errors[name] = relative_grad_error(analytic, numeric[:, column])
    return InstanceResult(index=index, n_classes=inst["n_classes"],
                          feature_dim=inst["feature_dim"],
                          errors={name: errors[name] for name in TERM_NAMES})


def run_gradient_suite(seed: int = 0, n_instances: int = 20,
                       h: float = 1e-5) -> dict[str, float]:
    """Max relative gradient error per term over randomized instances."""
    worst = {name: 0.0 for name in TERM_NAMES}
    for index in range(n_instances):
        result = check_instance(index, seed=seed, h=h)
        for name, err in result.errors.items():
            worst[name] = max(worst[name], err)
    return worst
