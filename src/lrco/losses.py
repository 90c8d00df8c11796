"""Loss terms: supervised, consistency, and the low-confidence contrastive family.

All functions are pure and dual-dispatch. Called with plain numpy they return
plain values; called with autodiff tensors they return graph nodes, so the
trainer differentiates through them directly. Contrastive quantities are
evaluated in the log domain via log-sum-exp; probabilities entering a log are
clamped below at LOG_FLOOR = 1e-12, where the clamped log's derivative is 0.

Each loss head (cross_entropy_batch, entropy_alignment, kld_uniform_batch,
class_terms_batch, contrastive_batch, mixlrco_batch) is one graph node with a
closed-form gradient. It computes its value once, from plain values, for both
dispatch paths; the numpy path also takes a leading stack axis, as the
autodiff ops do. Its backward writes only into its one differentiable input,
the probability rows or the queries: keys, blended keys and bank rows are
constants. class_terms_batch fuses the supervised and consistency terms; the
single heads share its value and gradient formulas and are its reference.

Temperature-scaled similarity h(a, b) = exp(a.b / T) never appears literally:
-log(h_pos / sum(h)) is computed as logsumexp(sims / T) - pos / T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidRowsError
from .numerics import (
    SeededRng, logsumexp_last, norm_last, sample_beta, softmax_last, unit_last,
)

LOG_FLOOR = 1e-12
UNIT_NORM_TOL = 1e-6
REREP_MODES = ("rerep", "raw")


@dataclass(frozen=True)
class PseudoLabel:
    """Teacher prediction on a weak view: full probabilities plus the hard call."""

    probs: np.ndarray
    label: int
    max_prob: float
    confident: bool


def _all_near_one(x: np.ndarray, tol: float) -> bool:
    """Whether |x - 1| <= tol for every entry of x (tol < 0.5); NaN fails.

    Two reductions decide it: x - 1 is exact for x in [0.5, 2] and at least
    0.5 in size outside it, so the entries that pass form an interval, which
    holds every entry iff it holds the smallest and the largest. minimum and
    maximum propagate NaN, and the initial 1.0, inside the interval, lets an
    empty x pass."""
    lo = np.minimum.reduce(x, axis=None, initial=1.0)
    hi = np.maximum.reduce(x, axis=None, initial=1.0)
    return abs(lo - 1.0) <= tol and abs(hi - 1.0) <= tol


def check_probability_rows(probs: np.ndarray) -> None:
    """Raise InvalidRowsError (a ValueError) unless every row is nonnegative
    and sums to 1 within 1e-6; a row holding NaN fails."""
    if not (_all_near_one(np.add.reduce(probs, axis=-1), 1e-6)
            and np.minimum.reduce(probs, axis=None, initial=0.0) >= 0):
        raise InvalidRowsError("probs must be a valid probability vector")


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
    """Raise InvalidRowsError (a ValueError) unless every row of x has norm 1
    within UNIT_NORM_TOL; a row holding NaN fails."""
    if not _all_near_one(norm_last(ad.value_of(x)), UNIT_NORM_TOL):
        raise InvalidRowsError(f"{name} must be unit-normalized (tolerance {UNIT_NORM_TOL})")


# Supervised and consistency terms ------------------------------------------
#
# Each term's value and gradient formulas are plain functions of its
# probability rows p, which its own head and class_terms_batch both call.

def _ce_value(p, labels):
    """(mean of -log max(p[i, labels[i]], LOG_FLOOR) over the rows i of p,
    those entries)."""
    n = p.shape[-2]
    picked = p[..., np.arange(n), labels]
    return -(np.add.reduce(np.log(np.maximum(picked, LOG_FLOOR)), axis=-1) / n), picked


def _ce_grad(g, picked):
    """The mean cross-entropy's gradient at its picked entries when it gets g."""
    return -(g / len(picked)) * ((picked > LOG_FLOOR) / np.maximum(picked, LOG_FLOOR))


def _entropy_value(p):
    """(mean Shannon entropy of the rows of p, log max(p, LOG_FLOOR))."""
    log_p = np.log(np.maximum(p, LOG_FLOOR))
    return -(np.add.reduce(np.add.reduce(p * log_p, axis=-1), axis=-1) / p.shape[-2]), log_p


def _entropy_grad(g, p, log_p):
    """The mean entropy's gradient on p when it gets g."""
    return -(g / p.shape[-2]) * (log_p + (p > LOG_FLOOR))


def _kld_value(p):
    """Mean cross-entropy of the uniform distribution against the rows of p."""
    n, n_classes = p.shape[-2:]
    log_p = np.log(np.maximum(p, LOG_FLOOR))
    return -(np.add.reduce(np.add.reduce(log_p * (1.0 / n_classes), axis=-1), axis=-1) / n)


def _kld_grad(g, p):
    """The uniform cross-entropy's gradient on p when it gets g."""
    n, n_classes = p.shape[-2:]
    return -(g / (n * n_classes)) * ((p > LOG_FLOOR) / np.maximum(p, LOG_FLOOR))


def cross_entropy_batch(p_rows, labels):
    """Mean negative log probability over a batch of probability rows.

    The gradient of p[i, y_i] is -g / (n p[i, y_i]), 0 at or below LOG_FLOOR;
    every other entry gets 0.
    """
    labels = np.asarray(labels, dtype=np.int64)
    p = ad.value_of(p_rows)
    y, picked = _ce_value(p, labels)
    if not ad.is_tensor(p_rows):
        return y

    def backward_fn(g):
        grad = np.zeros(p.shape)
        grad[np.arange(len(labels)), labels] = _ce_grad(g, picked)
        p_rows.accumulate(grad)

    return ad.Tensor(y, (p_rows,), backward_fn)


def entropy_alignment(p_rows):
    """Mean Shannon entropy of a batch of probability rows.

    This is the default alignment term of the inherited baseline: minimizing
    it sharpens predictions on both domains. The gradient is
    -(g / n) (log max(p, LOG_FLOOR) + [p > LOG_FLOOR]).
    """
    p = ad.value_of(p_rows)
    y, log_p = _entropy_value(p)
    if not ad.is_tensor(p_rows):
        return y
    return ad.Tensor(y, (p_rows,), lambda g: p_rows.accumulate(_entropy_grad(g, p, log_p)))


def kld_uniform_batch(p_rows):
    """Mean cross-entropy of the uniform distribution against each probability
    row, KL(uniform || p) + log K, where K is the width of p_rows. The
    gradient is -(g / (n K)) [p > LOG_FLOOR] / p."""
    p = ad.value_of(p_rows)
    y = _kld_value(p)
    if not ad.is_tensor(p_rows):
        return y
    return ad.Tensor(y, (p_rows,), lambda g: p_rows.accumulate(_kld_grad(g, p)))


def class_terms_batch(p_rows, labeled: slice, labels, unlabeled: slice,
                      high, pseudo, weights: dict):
    """The supervised and consistency terms of an objective, read from one
    matrix of probability rows: (total, terms).

    terms maps each term that is built to its value, in this order:
    - "ce": cross_entropy_batch of the ``labeled`` rows against ``labels``;
    - "align": the entropy_alignment of the labeled rows and of the
      ``unlabeled`` rows, weighted by their shares of the rows of both;
    - "fixmatch" and "kld", when the int64 row indices ``high`` are not
      empty: cross_entropy_batch of those rows against ``pseudo``, and
      kld_uniform_batch of them.
    total is the sum of weights[term] * value over the built terms whose
    weight is positive, added up in that order, as weighted_sum adds.

    With a Tensor, total is one graph node on p_rows and every term is a node
    of its own on p_rows, outside total's graph. Their backward writes each
    row block once, in the order the single heads' chain gave their
    gradients: the labeled rows (CE, then entropy), the unlabeled rows, the
    high rows (CE, then KLD); a term's node does so with its weight alone.
    The bits are those of the chain of take_rows, the single heads and
    weighted_sum.
    """
    # Each block is taken by index, as take_rows took it: on a stack, the
    # memory layout of the copy decides the order of the sums over its rows.
    p = ad.value_of(p_rows)
    lab_rows = np.arange(labeled.start, labeled.stop)
    p_lab = p[..., lab_rows, :]
    p_unl = p[..., np.arange(unlabeled.start, unlabeled.stop), :]
    n_lab, n_unl = len(lab_rows), unlabeled.stop - unlabeled.start
    share_lab, share_unl = n_lab / (n_lab + n_unl), n_unl / (n_lab + n_unl)
    ce, picked_lab = _ce_value(p_lab, labels)
    ent_lab, log_lab = _entropy_value(p_lab)
    ent_unl, log_unl = _entropy_value(p_unl)
    terms = {"ce": ce, "align": ent_lab * share_lab + ent_unl * share_unl}
    if len(high) > 0:
        p_high = p[..., high, :]
        terms["fixmatch"], picked_high = _ce_value(p_high, pseudo)
        terms["kld"] = _kld_value(p_high)
    in_total = {t: float(weights[t]) for t in terms if weights[t] > 0}
    total = None
    for t, w in in_total.items():
        total = terms[t] * w if total is None else total + terms[t] * w
    if not ad.is_tensor(p_rows):
        return total, terms

    def backward(g, term_weights):
        g = float(g)
        grad = np.zeros(p.shape)
        w = term_weights.get("ce")
        if w:
            grad[lab_rows, labels] = _ce_grad(g * w, picked_lab)
        w = term_weights.get("align")
        if w:
            grad[labeled] += _entropy_grad(g * w * share_lab, p_lab, log_lab)
            grad[unlabeled] = _entropy_grad(g * w * share_unl, p_unl, log_unl)
        w = term_weights.get("fixmatch")
        if w:
            grad[high, pseudo] = _ce_grad(g * w, picked_high)
        w = term_weights.get("kld")
        if w:
            grad[high] += _kld_grad(g * w, p_high)
        p_rows.accumulate(grad)

    return (ad.Tensor(total, (p_rows,), lambda g: backward(g, in_total)),
            {t: ad.Tensor(v, (p_rows,), lambda g, t=t: backward(g, {t: 1.0}))
             for t, v in terms.items()})


# Classifier-weight re-representation ----------------------------------------

def re_represent_batch(f_rows, classifier, t_re: float):
    """Attention over classifier rows, then their weighted combination, renormalized.

    Args:
        f_rows: raw feature rows (batch or single row matrix).
        classifier: classifier weight matrix, one raw row per class. It is a
            constant: no gradient flows into the classifier through this
            path; only the feature side learns.
        t_re: attention temperature.

    Returns unit-normalized re-represented rows living in the row space of
    the classifier matrix. One graph node whose only parent is f_rows; its
    backward replays the op chain normalize_rows, matmul(transpose_b),
    softmax_rows, matmul, normalize_rows with the same expressions.
    """
    w = ad.value_of(classifier)
    f_unit, f_norms = unit_last(ad.value_of(f_rows))
    w_unit = unit_last(w)[0]
    t = ad.positive_temperature(t_re)
    attention = softmax_last(f_unit @ w_unit.mT, t)
    y, r_norms = unit_last(attention @ w)
    if not ad.is_tensor(f_rows):
        return y

    def backward_fn(g):
        g_combined = ad.first_grad(ad.normalize_grad(g, y, r_norms))
        g_att = ad.first_grad(g_combined @ w.T)
        g_cos = ad.first_grad(ad.softmax_grad(g_att, attention, t))
        f_rows.accumulate(ad.normalize_grad(ad.first_grad(g_cos @ w_unit), f_unit, f_norms))

    return ad.Tensor(y, (f_rows,), backward_fn)


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
    the entire partition function), and so its gradient. With w the row
    softmax of the scaled similarities, query i gets
    (g / (n T)) (w_i0 k_i + sum_j w_ij b_j - k_i).
    """
    if not t_co > 0:
        raise ValueError("t_co must be positive")
    check_unit_rows(q_rows, "queries")
    check_unit_rows(k_rows, "keys")
    q, k = ad.value_of(q_rows), ad.value_of(k_rows)
    bank = _conform_bank(bank_matrix, q.shape[-1])
    inv_t = 1.0 / t_co
    pos = np.add.reduce(q * k, axis=-1)
    sims = np.concatenate((pos[..., None], q @ bank.mT), axis=-1) * inv_t
    n = q.shape[-2]
    lse, e, s = logsumexp_last(sims)
    y = np.add.reduce(lse - pos * inv_t, axis=-1) / n
    if not ad.is_tensor(q_rows):
        return y

    def backward_fn(g):
        w = e / s
        q_rows.accumulate((g / (n * t_co)) * (w[:, :1] * k + w[:, 1:] @ bank - k))

    return ad.Tensor(y, (q_rows,), backward_fn)


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
    is a log-convex combination of the endpoint similarities). With w the row
    softmax of the scaled denominator similarities, query i gets
    (g / (n T)) (w_t k_target_i + w_s k_source_i + sum_j w_j b_j - k_mix_i).
    """
    if not t_co > 0:
        raise ValueError("t_co must be positive")
    check_unit_rows(q_rows, "queries")
    check_unit_rows(k_target, "target keys")
    check_unit_rows(k_source, "source keys")
    q = ad.value_of(q_rows)
    k_mix, k_target, k_source = (ad.value_of(k) for k in (k_mix, k_target, k_source))
    if not np.maximum.reduce(norm_last(k_mix), axis=None, initial=0.0) <= 1.0 + UNIT_NORM_TOL:
        raise InvalidRowsError("blended keys must have norm <= 1")
    bank = _conform_bank(bank_matrix, q.shape[-1])
    inv_t = 1.0 / t_co
    num = np.add.reduce(q * k_mix, axis=-1) * inv_t
    den = np.concatenate((
        np.add.reduce(q * k_target, axis=-1)[..., None],
        np.add.reduce(q * k_source, axis=-1)[..., None],
        q @ bank.mT,
    ), axis=-1) * inv_t
    n = q.shape[-2]
    lse, e, s = logsumexp_last(den)
    y = np.add.reduce(lse - num, axis=-1) / n
    if not ad.is_tensor(q_rows):
        return y

    def backward_fn(g):
        w = e / s
        q_rows.accumulate((g / (n * t_co)) * (w[:, :1] * k_target + w[:, 1:2] * k_source
                                              + w[:, 2:] @ bank - k_mix))

    return ad.Tensor(y, (q_rows,), backward_fn)
