"""Loss terms: supervised, consistency, and the low-confidence contrastive family.

All functions are pure and dual-dispatch. Called with plain numpy they return
plain values; called with autodiff tensors they return graph nodes, so the
trainer differentiates through them directly. Contrastive quantities are
evaluated in the log domain via log-sum-exp; probabilities entering a log are
clamped below at 1e-12.

Temperature-scaled similarity h(a, b) = exp(a.b / T) never appears literally:
-log(h_pos / sum(h)) is computed as logsumexp(sims / T) - pos / T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .numerics import SeededRng, norm_last, sample_beta

UNIT_NORM_TOL = 1e-6
REREP_MODES = ("rerep", "raw")


@dataclass(frozen=True)
class PseudoLabel:
    """Teacher prediction on a weak view: full probabilities plus the hard call."""

    probs: np.ndarray
    label: int
    max_prob: float
    confident: bool


def check_probability_rows(probs: np.ndarray) -> None:
    """Raise ValueError unless every row is nonnegative and sums to 1 within 1e-6."""
    if (np.logical_or.reduce(np.abs(np.add.reduce(probs, axis=-1) - 1.0) > 1e-6, axis=None)
            or np.logical_or.reduce(probs < 0, axis=None)):
        raise ValueError("probs must be a valid probability vector")


def make_pseudo_label(probs: np.ndarray, tau: float) -> PseudoLabel:
    """Hard pseudo-label with a confidence gate at threshold tau."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("probs must be a 1-D probability vector")
    check_probability_rows(probs)
    label = int(np.argmax(probs))
    max_prob = float(probs[label])
    return PseudoLabel(probs=probs, label=label, max_prob=max_prob,
                       confident=max_prob > tau)


def pseudo_labels(probs: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The confidence gate, for every row of a probability matrix at once:
    the int64 hard labels and the boolean flags max p > tau."""
    check_probability_rows(probs)
    return probs.argmax(axis=1), np.maximum.reduce(probs, axis=1) > tau


def check_unit_rows(x, name: str) -> None:
    """Raise ValueError unless every row of x has norm 1 within UNIT_NORM_TOL."""
    norms = norm_last(ad.value_of(x))
    if np.logical_or.reduce(np.abs(norms - 1.0) > UNIT_NORM_TOL, axis=None):
        raise ValueError(f"{name} must be unit-normalized (tolerance {UNIT_NORM_TOL})")


# Supervised and consistency terms ------------------------------------------

def cross_entropy_batch(p_rows, labels):
    """Mean negative log probability over a batch of probability rows."""
    return ad.neg(ad.mean_last(ad.log_clamped(ad.pick_per_row(p_rows, labels))))


def entropy_alignment(p_rows):
    """Mean Shannon entropy of a batch of probability rows.

    This is the default alignment term of the inherited baseline: minimizing
    it sharpens predictions on both domains.
    """
    return ad.neg(ad.mean_last(ad.rowwise_dot(p_rows, ad.log_clamped(p_rows))))


def kld_uniform_batch(p_rows):
    """Mean cross-entropy of the uniform distribution against each probability
    row, KL(uniform || p) + log K, where K is the width of p_rows."""
    n_classes = ad.value_of(p_rows).shape[-1]
    uniform = np.empty(n_classes)
    uniform.fill(1.0 / n_classes)
    return ad.neg(ad.mean_last(ad.rowwise_dot(ad.log_clamped(p_rows), uniform)))


# Classifier-weight re-representation ----------------------------------------

def re_represent_batch(f_rows, classifier, t_re: float):
    """Attention over classifier rows, then their weighted combination, renormalized.

    Args:
        f_rows: raw feature rows (batch or single row matrix).
        classifier: classifier weight matrix, one raw row per class. It is
            detached: no gradient flows into the classifier through this
            path; only the feature side learns.
        t_re: attention temperature.

    Returns unit-normalized re-represented rows living in the row space of
    the classifier matrix.
    """
    w = ad.detach(classifier)
    attention = ad.softmax_rows(
        ad.matmul(ad.normalize_rows(f_rows), ad.normalize_rows(w), transpose_b=True),
        t_re,
    )
    return ad.normalize_rows(ad.matmul(attention, w))


def contrast_rows(f_rows, classifier, t_re: float, mode: str):
    """The unit vectors the contrastive losses compare: teacher keys, student
    queries and the analysis vectors. "rerep" re-represents the feature rows
    through the classifier rows, "raw" only normalizes them."""
    if mode == "rerep":
        return re_represent_batch(f_rows, classifier, t_re)
    if mode == "raw":
        return ad.normalize_rows(f_rows)
    raise ValueError(f"unknown rerep mode {mode!r}; choose from {REREP_MODES}")


# Contrastive family ----------------------------------------------------------

def contrastive_batch(q_rows, k_rows, bank_matrix, t_co: float):
    """Mean InfoNCE over rows: positives on the diagonal pairing, bank rows negative.

    An empty bank makes every per-row loss exactly zero (the positive term is
    the entire partition function).
    """
    if not t_co > 0:
        raise ValueError("t_co must be positive")
    check_unit_rows(q_rows, "queries")
    check_unit_rows(k_rows, "keys")
    bank_matrix = _conform_bank(bank_matrix, ad.value_of(q_rows).shape[-1])
    pos = ad.rowwise_dot(q_rows, k_rows)
    neg = ad.matmul(q_rows, bank_matrix, transpose_b=True)
    sims = ad.scale(ad.hstack_cols([pos, neg]), 1.0 / t_co)
    per_row = ad.sub(ad.logsumexp_rows(sims), ad.scale(pos, 1.0 / t_co))
    return ad.mean_last(per_row)


def _conform_bank(bank_matrix, dim: int) -> np.ndarray:
    """Validate bank rows and give an empty bank the right column count."""
    bank = np.asarray(bank_matrix, dtype=np.float64)
    if bank.size == 0:
        return np.zeros((0, dim))
    if bank.ndim != 2 or bank.shape[1] != dim:
        raise ValueError("bank entries must match the query dimension")
    check_unit_rows(bank, "bank entries")
    return bank


# Cross-domain mixing ----------------------------------------------------------

def draw_mix(alpha: float, rng: SeededRng, n: int, dominant: bool = True) -> np.ndarray:
    """n target-side mixing weights; with dominance each is max(lam, 1 - lam),
    so the target side always gets >= 0.5."""
    lam = sample_beta(alpha, rng, n)
    return np.maximum(lam, 1.0 - lam) if dominant else lam


def blend(lam: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i is lam[i] * a[i] + (1 - lam[i]) * b[i]."""
    return lam[:, None] * a + (1.0 - lam)[:, None] * b


def mixlrco_batch(q_rows, k_mix, k_target, k_source,
                  bank_matrix, t_co: float):
    """Mean mixed-pair contrastive loss over rows.

    The numerator similarity uses the blended key; the denominator holds the
    two endpoint keys plus the bank, and deliberately not the blended key
    itself, which is what makes the loss non-negative (the blended similarity
    is a log-convex combination of the endpoint similarities).
    """
    if not t_co > 0:
        raise ValueError("t_co must be positive")
    check_unit_rows(q_rows, "queries")
    check_unit_rows(k_target, "target keys")
    check_unit_rows(k_source, "source keys")
    k_mix_v = ad.value_of(k_mix)
    if np.logical_or.reduce(norm_last(k_mix_v) > 1.0 + UNIT_NORM_TOL, axis=None):
        raise ValueError("blended keys must have norm <= 1")
    bank_matrix = _conform_bank(bank_matrix, ad.value_of(q_rows).shape[-1])
    num = ad.scale(ad.rowwise_dot(q_rows, k_mix), 1.0 / t_co)
    den = ad.scale(
        ad.hstack_cols([
            ad.rowwise_dot(q_rows, k_target),
            ad.rowwise_dot(q_rows, k_source),
            ad.matmul(q_rows, bank_matrix, transpose_b=True),
        ]),
        1.0 / t_co,
    )
    return ad.mean_last(ad.sub(ad.logsumexp_rows(den), num))

