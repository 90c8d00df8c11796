"""Loss terms: supervised, consistency, and the low-confidence contrastive family.

All functions are pure and dual-dispatch. Called with plain numpy they return
plain values; called with autodiff tensors they return graph nodes, so the
trainer differentiates through them directly. Contrastive quantities are
evaluated in the log domain via log-sum-exp; probabilities entering a log are
clamped below at LOG_FLOOR = 1e-12, where the clamped log's derivative is 0.

Each loss head (cross_entropy_batch, entropy_alignment, kld_uniform_batch,
class_terms_batch, contrastive_batch, mixlrco_batch, contrastive_branch) is
one graph node with a closed-form gradient. It computes its value once, from
plain values, for both dispatch paths; the numpy path also takes a leading
stack axis, as the autodiff ops do. Its backward writes only into its one
differentiable input, the probability rows, the queries or the feature rows
the queries are made from: classifiers, keys, blended keys and bank rows are
constants. class_terms_batch fuses the supervised and consistency terms, and
contrastive_branch the student's queries and its contrastive loss; the single
heads share their value and gradient formulas and are their reference.

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
    if picked.ndim > 1:  # a stack's picks come out with the row axis outermost
        picked = np.ascontiguousarray(picked)
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
                      high, pseudo, weights: dict, term_nodes: bool = False):
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

    With a Tensor, total is one graph node on p_rows. Its backward writes
    each row block once, in the order the single heads' chain gave their
    gradients: the labeled rows (CE, then entropy), the unlabeled rows, the
    high rows (CE, then KLD). The terms are plain values, unless
    ``term_nodes`` asks for each as a node of its own on p_rows, outside
    total's graph, with the same backward and that term's weight alone, for
    differentiating the terms one at a time. The bits are those of the
    chain of take_rows, the single heads and weighted_sum.
    """
    p = ad.value_of(p_rows)
    p_lab, p_unl = ad.row_block(p, labeled), ad.row_block(p, unlabeled)
    n_lab, n_unl = labeled.stop - labeled.start, unlabeled.stop - unlabeled.start
    share_lab, share_unl = n_lab / (n_lab + n_unl), n_unl / (n_lab + n_unl)
    ce, picked_lab = _ce_value(p_lab, labels)
    ent_lab, log_lab = _entropy_value(p_lab)
    ent_unl, log_unl = _entropy_value(p_unl)
    terms = {"ce": ce, "align": ent_lab * share_lab + ent_unl * share_unl}
    if len(high) > 0:
        p_high = ad.row_block(p, high)
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
            grad[np.arange(labeled.start, labeled.stop), labels] = _ce_grad(g * w, picked_lab)
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

    if term_nodes:
        terms = {t: ad.Tensor(v, (p_rows,), lambda g, t=t: backward(g, {t: 1.0}))
                 for t, v in terms.items()}
    return ad.Tensor(total, (p_rows,), lambda g: backward(g, in_total)), terms


# Classifier-weight re-representation ----------------------------------------
#
# The value and gradient formulas of the re-represented rows are plain
# functions, which re_represent_batch and contrastive_branch both call.

def _rerep_value(f, w, t_re: float, w_unit=None):
    """(the rows of f re-represented through the raw classifier rows w, what
    _rerep_grad needs). w_unit is w's unit rows, when the caller has them."""
    f_unit, f_norms = unit_last(f)
    if w_unit is None:
        w_unit = unit_last(w)[0]
    attention = softmax_last(f_unit @ w_unit.mT, t_re)
    y, r_norms = unit_last(attention @ w)
    return y, (w, w_unit, t_re, f_unit, f_norms, attention, y, r_norms)


def _rerep_grad(g, parts):
    """What the re-representation passes to its feature rows when its output
    gets g: the chain normalize_rows, matmul(transpose_b), softmax_rows,
    matmul, normalize_rows, replayed from the top."""
    w, w_unit, t, f_unit, f_norms, attention, y, r_norms = parts
    g_att = ad.normalize_grad(g, y, r_norms) @ w.T
    g_cos = ad.softmax_grad(g_att, attention, t)
    return ad.normalize_grad(g_cos @ w_unit, f_unit, f_norms)


def re_represent_batch(f_rows, classifier, t_re: float, w_unit=None):
    """Attention over classifier rows, then their weighted combination, renormalized.

    Args:
        f_rows: raw feature rows (batch or single row matrix).
        classifier: classifier weight matrix, one raw row per class. It is a
            constant: no gradient flows into the classifier through this
            path; only the feature side learns.
        t_re: a model's attention temperature, checked by its ModelState.
        w_unit: the classifier's unit rows, when the caller normalized it
            already; computed here otherwise.

    Returns unit-normalized re-represented rows living in the row space of
    the classifier matrix. One graph node whose only parent is f_rows.
    """
    y, parts = _rerep_value(ad.value_of(f_rows), ad.value_of(classifier), t_re, w_unit)
    if not ad.is_tensor(f_rows):
        return y
    return ad.Tensor(y, (f_rows,), lambda g: f_rows.accumulate(_rerep_grad(g, parts)))


def contrast_rows(f_rows, classifier, t_re: float, mode: str, w_unit=None):
    """The unit vectors the contrastive losses compare: teacher keys, student
    queries and the analysis vectors. "rerep" re-represents the feature rows
    through the classifier rows (whose unit rows w_unit may pass in) at the
    model's t_re, checked by its state; "raw" only normalizes them."""
    if mode == "rerep":
        return re_represent_batch(f_rows, classifier, t_re, w_unit)
    if mode == "raw":
        return ad.normalize_rows(f_rows)
    raise ValueError(f"unknown rerep mode {mode!r}; choose from {REREP_MODES}")


# Contrastive family ----------------------------------------------------------
#
# Both losses are one formula: per query row, the log-sum-exp of the scaled
# similarities to its denominator keys k_den (per-row key matrices) and to
# the bank rows, minus the scaled similarity to its positive key k_pos.
# InfoNCE has k_den = (k,) and k_pos = k; the mixed pair has the endpoint
# keys (k_target, k_source) and the blended key. _contrast_value and
# _contrast_grad are that formula, which contrastive_batch, mixlrco_batch
# and contrastive_branch all call.

def _contrast_value(q, k_pos, k_den: tuple, bank, t_co: float):
    """(the mean loss of the unit query rows q, what _contrast_grad needs),
    after checking the rows: the queries and the denominator keys unit, a
    blended positive key of norm <= 1. The caller conforms the bank."""
    if not t_co > 0:
        raise ValueError("t_co must be positive")
    check_unit_rows(q, "queries")
    if len(k_den) == 1:
        check_unit_rows(k_den[0], "keys")
    else:
        check_unit_rows(k_den[0], "target keys")
        check_unit_rows(k_den[1], "source keys")
        if not np.maximum.reduce(norm_last(k_pos), axis=None, initial=0.0) <= 1.0 + UNIT_NORM_TOL:
            raise InvalidRowsError("blended keys must have norm <= 1")
    inv_t = 1.0 / t_co
    dots = [np.add.reduce(q * k, axis=-1) for k in k_den]
    pos = dots[0] if len(k_den) == 1 else np.add.reduce(q * k_pos, axis=-1)
    den = np.concatenate([*(d[..., None] for d in dots), q @ bank.mT], axis=-1) * inv_t
    n = q.shape[-2]
    lse, e, s = logsumexp_last(den)
    return np.add.reduce(lse - pos * inv_t, axis=-1) / n, (bank, e, s)


def _contrast_grad(g, k_pos, k_den: tuple, t_co: float, parts):
    """What the loss passes to its query rows when it gets g: with w the row
    softmax of the scaled denominator similarities, query i gets
    (g / (n T)) (sum_m w_im k_den[m]_i + sum_j w_ij b_j - k_pos_i)."""
    bank, e, s = parts
    w = e / s
    m = len(k_den)
    weighted = w[:, :1] * k_den[0]
    for j in range(1, m):
        weighted = weighted + w[:, j:j + 1] * k_den[j]
    return (g / (len(k_pos) * t_co)) * (weighted + w[:, m:] @ bank - k_pos)


def _contrast_head(q_rows, k_pos, k_den: tuple, bank, t_co: float):
    """The contrastive loss of query rows q_rows, one graph node on them."""
    y, parts = _contrast_value(ad.value_of(q_rows), k_pos, k_den, bank, t_co)
    if not ad.is_tensor(q_rows):
        return y
    return ad.Tensor(y, (q_rows,),
                     lambda g: q_rows.accumulate(_contrast_grad(g, k_pos, k_den, t_co, parts)))


def contrastive_batch(q_rows, k_rows, bank_matrix, t_co: float):
    """Mean InfoNCE over rows: positives on the diagonal pairing, bank rows negative.

    An empty bank makes every per-row loss exactly zero (the positive term is
    the entire partition function), and so its gradient. With w the row
    softmax of the scaled similarities, query i gets
    (g / (n T)) (w_i0 k_i + sum_j w_ij b_j - k_i).
    """
    k = ad.value_of(k_rows)
    bank = _checked_bank(bank_matrix, ad.value_of(q_rows).shape[-1])
    return _contrast_head(q_rows, k, (k,), bank, t_co)


def _shaped_bank(bank_matrix, dim: int) -> np.ndarray:
    """The bank as an (n, dim) matrix, checked for shape only; an empty bank
    gets dim columns."""
    bank = np.asarray(bank_matrix, dtype=np.float64)
    if bank.size == 0:
        return np.zeros((0, dim))
    if bank.ndim != 2 or bank.shape[1] != dim:
        raise ValueError("bank entries must match the query dimension")
    return bank


def _checked_bank(bank_matrix, dim: int) -> np.ndarray:
    """_shaped_bank, after checking that every bank row is unit."""
    bank = _shaped_bank(bank_matrix, dim)
    check_unit_rows(bank, "bank entries")
    return bank


def contrastive_branch(f_rows, rows, classifier, t_re: float, mode: str,
                       k_pos, k_den: tuple, bank_matrix, t_co: float, w_unit=None):
    """The student's contrastive branch as one graph node on the feature rows.

    The queries are the rows ``rows`` (unique int64 indices) of f_rows, made
    unit by contrast_rows(_, classifier, t_re, mode, w_unit). The loss is
    contrastive_batch(queries, k, bank_matrix, t_co) when k_den is (k,),
    with k_pos the same keys, and mixlrco_batch(queries, k_pos, *k_den,
    bank_matrix, t_co) when k_den holds the target and source keys and
    k_pos the blended ones. The classifier is a constant, as in
    re_represent_batch. t_re is the model's, checked by its ModelState, and
    the bank a MemoryBank snapshot, whose rows were checked when they were
    pushed, so only the bank's shape is checked here.

    Its value and gradient keep the bits of the chain take_rows,
    contrast_rows and the loss head: the backward replays the head's
    gradient, the query rows' first accumulate, their gradient formula, and
    writes the result into the selected rows of a zero gradient by
    assignment, as take_rows's add.at does when the indices are unique.
    """
    if mode not in REREP_MODES:
        raise ValueError(f"unknown rerep mode {mode!r}; choose from {REREP_MODES}")
    f_all = ad.value_of(f_rows)
    f = ad.row_block(f_all, rows)
    if mode == "rerep":
        q, q_parts = _rerep_value(f, ad.value_of(classifier), t_re, w_unit)
    else:
        q, norms = unit_last(f)
    y, parts = _contrast_value(q, k_pos, k_den, _shaped_bank(bank_matrix, q.shape[-1]), t_co)
    if not ad.is_tensor(f_rows):
        return y

    def backward_fn(g):
        g_q = _contrast_grad(g, k_pos, k_den, t_co, parts)
        grad = np.zeros(f_all.shape)
        grad[rows] = (_rerep_grad(g_q, q_parts) if mode == "rerep"
                      else ad.normalize_grad(g_q, q, norms))
        f_rows.accumulate(grad)

    return ad.Tensor(y, (f_rows,), backward_fn)


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
    k_mix, k_target, k_source = (ad.value_of(k) for k in (k_mix, k_target, k_source))
    bank = _checked_bank(bank_matrix, ad.value_of(q_rows).shape[-1])
    return _contrast_head(q_rows, k_mix, (k_target, k_source), bank, t_co)
