import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrco import autodiff as ad
from lrco.data import AugmentSpec
from lrco.losses import (
    contrastive_batch, cross_entropy_batch, draw_mix, entropy_alignment,
    kld_uniform_batch, make_pseudo_label, mixlrco_batch, pseudo_labels,
    re_represent_batch,
)
from lrco.membank import MemoryBank
from lrco.model import ModelConfig, features_of, init_model, probs_of
from lrco.numerics import SeededRng, sample_beta
from lrco.trainer import TrainConfig, prepare_step, step_objective


def unit_rows(rng, n, d):
    raw = np.asarray(rng.normal(size=(n, d)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def logsumexp_direct(v):
    m = np.max(v)
    return m + np.log(np.sum(np.exp(v - m)))


def row(v):
    return np.asarray(v, dtype=np.float64).reshape(1, -1)


def contrastive_one(q, k, bank, t_co):
    """InfoNCE of one query: a one-row contrastive_batch."""
    return contrastive_batch(row(q), row(k), bank, t_co)


def mixlrco_one(q, k_mix, k_t, k_s, bank, t_co):
    """Mixed-pair loss of one query: a one-row mixlrco_batch."""
    return mixlrco_batch(row(q), row(k_mix), row(k_t), row(k_s), bank, t_co)


# --- pseudo labels and the confidence split --------------------------------------

def test_pseudo_label_fields():
    pl = make_pseudo_label(np.array([0.2, 0.7, 0.1]), tau=0.6)
    assert pl.label == 1
    assert abs(pl.max_prob - 0.7) < 1e-15
    assert pl.confident  # 0.7 > 0.6
    assert not make_pseudo_label(np.array([0.2, 0.7, 0.1]), tau=0.7).confident  # strict


def test_pseudo_label_validates_probs():
    with pytest.raises(ValueError):
        make_pseudo_label(np.array([0.2, 0.3]), tau=0.5)  # doesn't sum to 1
    with pytest.raises(ValueError):
        make_pseudo_label(np.array([-0.1, 1.1]), tau=0.5)


def test_pseudo_labels_match_make_pseudo_label_row_by_row():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(4), size=50)
    probs[7] = [0.25, 0.25, 0.25, 0.25]  # a tie goes to the first class
    for tau in (0.25, 0.5, 0.8):
        labels, confident = pseudo_labels(probs, tau)
        assert labels.dtype == np.int64
        rows = [make_pseudo_label(p, tau) for p in probs]
        assert labels.tolist() == [pl.label for pl in rows]
        assert confident.tolist() == [pl.confident for pl in rows]



def test_pseudo_labels_keep_the_wrapper_formula_bits():
    # the gate calls ndarray.argmax and np.maximum.reduce, not np.argmax and
    # ndarray.max; the results must be the wrapper formula's
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(5) * 0.3, size=40)
    probs[3] = 0.2  # ties
    probs[4] = [0.0, 1.0, 0.0, -0.0, 0.0]
    for rows in (probs, probs[:1], probs[:0], np.asfortranarray(probs)):
        for tau in (0.2, 0.9):
            labels, confident = pseudo_labels(rows, tau)
            old_labels, old_confident = np.argmax(rows, axis=1), rows.max(axis=1) > tau
            assert labels.dtype == old_labels.dtype and confident.dtype == old_confident.dtype
            assert labels.tobytes() == old_labels.tobytes()
            assert confident.tobytes() == old_confident.tobytes()

def test_pseudo_labels_validate_every_row():
    good = np.array([[0.2, 0.8], [0.5, 0.5]])
    for bad_row in ([0.2, 0.3], [-0.1, 1.1]):
        probs = np.vstack([good, bad_row])
        with pytest.raises(ValueError, match="valid probability vector"):
            pseudo_labels(probs, 0.5)


def _split_step(n, seed, tau):
    """prepare_step on n random target rows with a freshly initialized teacher,
    the teacher's max probability per row computed independently, and the
    teacher."""
    cfg = TrainConfig(method="strong", seed=seed)
    mc = ModelConfig(input_dim=2, hidden_dims=(6,), feature_dim=5, n_classes=3,
                     t_ce=cfg.t_ce, t_re=cfg.resolved_t_re())
    teacher = init_model(mc, SeededRng(seed).substream("init"))
    rng = SeededRng(seed + 100)
    lab_x = np.asarray(rng.normal(size=(4, 2)))
    unl_x = np.asarray(rng.normal(size=(n, 2)))
    sb = prepare_step(teacher, teacher, MemoryBank(4), lab_x,
                      np.zeros(4, dtype=np.int64), np.ones(4, dtype=bool), unl_x,
                      cfg, AugmentSpec(), tau, step=1)
    maxp = np.max(probs_of(teacher, features_of(teacher, sb.unlabeled_weak)), axis=1)
    return sb, maxp, teacher


def test_confidence_split_all_high_all_low():
    sb, _, _ = _split_step(4, seed=0, tau=0.0)
    assert len(sb.high_idx) == 4 and len(sb.low_idx) == 0
    sb, _, _ = _split_step(3, seed=0, tau=1.0)  # the gate is strict: p > tau
    assert len(sb.high_idx) == 0 and len(sb.low_idx) == 3


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.35, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_confidence_split_partitions(n, seed, tau):
    sb, maxp, _ = _split_step(n, seed, tau)
    assert len(sb.high_idx) + len(sb.low_idx) == n
    assert all(maxp[i] > tau for i in sb.high_idx)
    assert all(not maxp[i] > tau for i in sb.low_idx)
    # order preserved within groups
    assert sb.high_idx.tolist() == [i for i in range(n) if maxp[i] > tau]
    assert sb.low_idx.tolist() == [i for i in range(n) if not maxp[i] > tau]


# --- cross entropy / entropy / fixmatch / kld ------------------------------------

def cross_entropy_one(p, label):
    return float(cross_entropy_batch(row(p), np.array([label])))


def test_cross_entropy_values():
    one_hot = np.array([0.0, 1.0, 0.0])
    assert cross_entropy_one(one_hot, 1) == 0.0
    uniform4 = np.full(4, 0.25)
    assert abs(cross_entropy_one(uniform4, 2) - 1.3862943611198906) < 1e-12
    assert abs(cross_entropy_one(np.array([0.7, 0.3]), 0) - 0.35667494393873245) < 1e-12


def test_cross_entropy_batch_is_mean():
    p = np.array([[0.7, 0.3], [0.5, 0.5]])
    y = np.array([0, 1])
    expected = (0.35667494393873245 + 0.6931471805599453) / 2.0
    assert abs(float(cross_entropy_batch(p, y)) - expected) < 1e-12


def test_entropy_alignment_values():
    assert float(entropy_alignment(np.array([[1.0, 0.0], [0.0, 1.0]]))) == 0.0
    assert abs(float(entropy_alignment(np.array([[0.5, 0.5]]))) - 0.6931471805599453) < 1e-12
    assert abs(float(entropy_alignment(np.array([[0.9, 0.1]]))) - 0.3250829733914482) < 1e-12


# The pseudo-label's confidence flag is the gate of both consistency terms: it
# decides whether a row is in high_idx, the rows the trainer passes to them.

def _terms_without_confident_rows():
    sb, _, teacher = _split_step(4, seed=0, tau=1.0)
    assert len(sb.high_idx) == 0
    return step_objective(teacher, sb, TrainConfig(method="strong"))[1]


def test_fixmatch_gate_and_values():
    assert _terms_without_confident_rows()["fixmatch"] == 0.0
    low = make_pseudo_label(np.array([0.6, 0.4]), tau=0.9)
    assert not low.confident
    high = make_pseudo_label(np.array([0.95, 0.05]), tau=0.9)
    assert high.confident
    assert cross_entropy_one(np.array([1.0, 0.0]), high.label) == 0.0
    assert abs(cross_entropy_one(np.array([0.5, 0.5]), high.label)
               - 0.6931471805599453) < 1e-12


def test_kld_reg_gate_and_values():
    high = make_pseudo_label(np.array([0.95, 0.05]), tau=0.9)
    low = make_pseudo_label(np.array([0.6, 0.4]), tau=0.9)
    assert high.confident and not low.confident
    assert _terms_without_confident_rows()["kld"] == 0.0
    assert abs(float(kld_uniform_batch(row([0.9, 0.1]))) - 1.203972804325936) < 1e-12
    # uniform output is the global minimum: ln K
    assert abs(float(kld_uniform_batch(row([0.5, 0.5]))) - 0.6931471805599453) < 1e-12


def test_kld_uniform_is_minimized_at_uniform():
    rng = SeededRng(0)
    for _ in range(20):
        p = np.asarray(rng.uniform(size=4)) + 0.05
        p = p / p.sum()
        v = float(kld_uniform_batch(p[None, :]))
        assert v >= np.log(4.0) - 1e-12


# --- re-representation -------------------------------------------------------------

def test_re_represent_identity_classifier():
    w = np.eye(3)
    f = np.array([1.0, 0.0, 0.0])
    r = np.asarray(re_represent_batch(row(f), w, t_re=1.0))[0]
    # attention = softmax([1,0,0]) and rows are unit axes -> r = l2(softmax)
    att = np.exp([1.0, 0.0, 0.0])
    att = att / att.sum()
    np.testing.assert_allclose(r, att / np.linalg.norm(att), atol=1e-12)


def test_re_represent_symmetric_fixed_point():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = np.array([1.0, 1.0]) / np.sqrt(2)
    r = np.asarray(re_represent_batch(row(f), w, t_re=1.0))[0]
    np.testing.assert_allclose(r, f, atol=1e-12)


def test_re_represent_lies_in_row_span():
    rng = SeededRng(3)
    w = np.asarray(rng.normal(size=(5, 8)))
    f = np.asarray(rng.normal(size=8))
    r = np.asarray(re_represent_batch(row(f), w, t_re=0.5))[0]
    assert abs(np.linalg.norm(r) - 1.0) < 1e-9
    # residual after projecting onto the row space must vanish
    q, _ = np.linalg.qr(w.T)  # columns span row space of w
    residual = r - q @ (q.T @ r)
    assert np.linalg.norm(residual) < 1e-9


def test_re_represent_batch_unit_rows():
    rng = SeededRng(4)
    w = np.asarray(rng.normal(size=(4, 6)))
    f = np.asarray(rng.normal(size=(7, 6)))
    r = np.asarray(re_represent_batch(f, w, t_re=0.3))
    np.testing.assert_allclose(np.linalg.norm(r, axis=1), np.ones(7), atol=1e-9)


def test_re_represent_detach_blocks_classifier_gradient():
    rng = SeededRng(5)
    w = ad.Tensor(np.asarray(rng.normal(size=(3, 4))), requires_grad=True)
    f = ad.Tensor(np.asarray(rng.normal(size=(2, 4))), requires_grad=True)
    out = ad.mean_last(ad.mean_last(re_represent_batch(f, w, t_re=0.5)))
    out.backward()
    assert w.grad is None or np.all(w.grad == 0.0)
    assert f.grad is not None and np.any(f.grad != 0.0)


# --- contrastive losses ---------------------------------------------------------------

def test_naive_contrastive_empty_bank_zero():
    q = np.array([1.0, 0.0])
    assert contrastive_one(q, q, np.zeros((0, 2)), 0.3) == 0.0


def test_naive_contrastive_symmetric_ln4():
    # three negatives with sims equal to the positive sim -> ln 4
    q = np.array([1.0, 0.0])
    k = np.array([1.0, 0.0])
    bank = np.stack([k, k, k])
    v = float(contrastive_one(q, k, bank, 0.3))
    assert abs(v - np.log(4.0)) < 1e-12


def test_naive_contrastive_frozen_value():
    # pos sim 0.9, neg sims 0.1 and 0.2 at T=0.3, frozen from a direct
    # log-sum-exp evaluation (stated rounded in third-party summaries as 0.15395)
    q = np.array([1.0, 0.0, 0.0])
    k = np.array([0.9, np.sqrt(1 - 0.81), 0.0])
    n1 = np.array([0.1, 0.0, np.sqrt(1 - 0.01)])
    n2 = np.array([0.2, 0.0, np.sqrt(1 - 0.04)])
    v = float(contrastive_one(q, k, np.stack([n1, n2]), 0.3))
    assert abs(v - 0.15396959407840075) < 1e-12
    assert abs(v - 0.15395) < 2e-5


def test_contrastive_rejects_non_unit():
    q = np.array([2.0, 0.0])
    with pytest.raises(ValueError):
        contrastive_one(q, np.array([1.0, 0.0]), np.zeros((0, 2)), 0.3)


def test_lrco_symmetric_ln2():
    q = np.array([0.0, 1.0])
    assert abs(float(contrastive_one(q, q, q[None, :], 0.3)) - np.log(2.0)) < 1e-12


def test_contrastive_matches_independent_oracle():
    rng = SeededRng(8)
    for trial in range(200):
        d = 3 + trial % 5
        q = unit_rows(rng, 1, d)[0]
        k = unit_rows(rng, 1, d)[0]
        bank = unit_rows(rng, 1 + trial % 7, d)
        t = 0.1 + 0.4 * float(rng.uniform())
        mine = float(contrastive_one(q, k, bank, t))
        sims = np.concatenate([[q @ k], bank @ q]) / t
        oracle = logsumexp_direct(sims) - sims[0]
        assert abs(mine - oracle) < 1e-10


def test_contrastive_batch_is_rowwise_mean():
    rng = SeededRng(9)
    q = unit_rows(rng, 4, 6)
    k = unit_rows(rng, 4, 6)
    bank = unit_rows(rng, 5, 6)
    batch = float(contrastive_batch(q, k, bank, 0.3))
    singles = [float(contrastive_one(q[i], k[i], bank, 0.3)) for i in range(4)]
    assert abs(batch - np.mean(singles)) < 1e-12


def test_contrastive_bank_permutation_invariant():
    rng = SeededRng(10)
    q = unit_rows(rng, 3, 4)
    k = unit_rows(rng, 3, 4)
    bank = unit_rows(rng, 8, 4)
    perm = np.asarray(SeededRng(11).permutation(8))
    a = float(contrastive_batch(q, k, bank, 0.25))
    b = float(contrastive_batch(q, k, bank[perm], 0.25))
    assert abs(a - b) < 1e-12


# --- mixup --------------------------------------------------------------------------

def test_mixdraw_dominance():
    lam = draw_mix(1.0, SeededRng(12), 500, dominant=False)
    lam_prime = draw_mix(1.0, SeededRng(12), 500)
    assert np.all((0.5 <= lam_prime) & (lam_prime < 1.0))
    assert lam_prime.tolist() == [max(v, 1.0 - v) for v in lam.tolist()]


def test_draw_mix_mean_three_quarters():
    vals = draw_mix(1.0, SeededRng(13), 100_000)
    assert abs(vals.mean() - 0.75) < 0.005


def test_draw_mix_no_dominance_keeps_raw_lambda():
    lam = draw_mix(1.0, SeededRng(14), 5, dominant=False)
    assert lam.tobytes() == sample_beta(1.0, SeededRng(14), 5).tobytes()


def scalar_mix_draws(alpha, rng, n, dominant):
    """The per-row draw as one scalar loop: a uniform for alpha = 1, else a
    Gamma pair, clamped to (0, 1), then max(lam, 1 - lam) with dominance."""
    draws = []
    for _ in range(n):
        if alpha == 1.0:
            lam = float(rng.uniform())
        else:
            x = float(rng.standard_gamma(alpha))
            y = float(rng.standard_gamma(alpha))
            lam = x / (x + y)
        lam = min(max(lam, 1e-12), 1.0 - 1e-12)
        draws.append(max(lam, 1.0 - lam) if dominant else lam)
    return np.array(draws, dtype=np.float64)


def test_draw_mix_equals_the_scalar_loop_bit_for_bit():
    for alpha in (1.0, 0.3, 0.75, 2.0):
        for dominant in (True, False):
            for n in (0, 1, 37):
                label = f"mix-{alpha}-{dominant}-{n}"
                mine = SeededRng(21).substream(label)
                oracle = SeededRng(21).substream(label)
                got = draw_mix(alpha, mine, n, dominant=dominant)
                assert got.dtype == np.float64 and got.shape == (n,)
                want = scalar_mix_draws(alpha, oracle, n, dominant)
                assert got.tobytes() == want.tobytes(), (alpha, dominant, n)
                # the stream is left at the same position
                assert float(mine.uniform()) == float(oracle.uniform())


def _mix_step(n_rows, seed):
    """A mixlrco prepare_step whose n_rows target rows are all low-confidence.

    The augmentations are switched off, so the mixed rows blend the raw target
    rows with the raw rows of their source partners. The partners are drawn
    again here from the step's mix substream, as an independent oracle.
    """
    cfg = TrainConfig(method="mixlrco", seed=seed)
    mc = ModelConfig(input_dim=2, hidden_dims=(6,), feature_dim=5, n_classes=4,
                     t_ce=0.4, t_re=0.4)
    teacher = init_model(mc, SeededRng(seed).substream("init"))
    rng = SeededRng(seed + 100)
    lab_x = np.asarray(rng.normal(size=(8, 2)))
    unl_x = np.asarray(rng.normal(size=(n_rows, 2)))
    bank = MemoryBank(8)
    bank.push_batch(np.eye(5)[:3])
    no_noise = AugmentSpec(sigma_weak=0.0, sigma_strong=0.0, mask_prob=0.0,
                           scale_jitter=0.0)
    sb = prepare_step(teacher, teacher, bank, lab_x, np.zeros(8, dtype=np.int64),
                      np.ones(8, dtype=bool), unl_x, cfg, no_noise, tau=1.0, step=1)
    assert sb.mix is not None and len(sb.low_idx) == n_rows
    partners = SeededRng(seed).substream("mix-1").integers(0, len(lab_x), size=n_rows)
    return sb.mix, unl_x[sb.low_idx], lab_x[np.asarray(partners)]


def test_build_mix_pair_endpoint_and_midpoint(monkeypatch):
    # MixSelection built by the trainer, with the mixing weight pinned
    from lrco import losses
    for lam_p in (1.0, 0.5):
        monkeypatch.setattr(losses, "draw_mix",
                            lambda alpha, rng, n, dominant=True: np.full(n, lam_p))
        mix, x_t, x_s = _mix_step(3, seed=15)
        if lam_p == 1.0:
            np.testing.assert_allclose(mix.x_mix, x_t, atol=1e-15)
            np.testing.assert_allclose(mix.k_mix, mix.k_target, atol=1e-15)
        else:
            np.testing.assert_allclose(mix.x_mix, 0.5 * (x_t + x_s), atol=1e-15)


def test_k_mix_norm_at_most_one_not_renormalized():
    mix, _, _ = _mix_step(50, seed=16)
    for k_mix, k_t, k_s, lam_p in zip(mix.k_mix, mix.k_target, mix.k_source, mix.lam_prime):
        norm = np.linalg.norm(k_mix)
        assert norm <= 1.0 + 1e-12
        same_key = np.allclose(k_t, k_s, atol=1e-12)
        if not same_key and 1e-9 < lam_p < 1 - 1e-9:
            assert norm < 1.0  # strict unless endpoints coincide


def test_mixlrco_endpoint_reduction():
    # lam'=1 and empty bank: loss = -log[h(q,k_t)/(h(q,k_t)+h(q,k_s))] >= 0
    rng = SeededRng(17)
    q = unit_rows(rng, 1, 4)[0]
    k_t = unit_rows(rng, 1, 4)[0]
    k_s = unit_rows(rng, 1, 4)[0]
    t = 0.3
    v = float(mixlrco_one(q, k_t, k_t, k_s, np.zeros((0, 4)), t))
    h = lambda a, b: np.exp(a @ b / t)
    direct = -np.log(h(q, k_t) / (h(q, k_t) + h(q, k_s)))
    assert abs(v - direct) < 1e-10
    assert v >= 0.0


def test_mixlrco_symmetric_ln4():
    # all sims equal s, two negatives in the bank -> ln 4 regardless of s
    q = np.array([1.0, 0.0])
    k = np.array([1.0, 0.0])
    bank = np.stack([k, k])
    v = float(mixlrco_one(q, k, k, k, bank, 0.3))
    assert abs(v - np.log(4.0)) < 1e-12


def test_mixlrco_matches_independent_oracle():
    rng = SeededRng(18)
    for trial in range(200):
        d = 3 + trial % 4
        q = unit_rows(rng, 1, d)[0]
        k_t = unit_rows(rng, 1, d)[0]
        k_s = unit_rows(rng, 1, d)[0]
        lam_p = 0.5 + 0.5 * float(rng.uniform())
        k_mix = lam_p * k_t + (1 - lam_p) * k_s
        bank = unit_rows(rng, 1 + trial % 5, d)
        t = 0.15 + 0.4 * float(rng.uniform())
        mine = float(mixlrco_one(q, k_mix, k_t, k_s, bank, t))
        den = np.concatenate([[q @ k_t], [q @ k_s], bank @ q]) / t
        oracle = logsumexp_direct(den) - (q @ k_mix) / t
        assert abs(mine - oracle) < 1e-10
        assert mine >= 0.0  # AM-GM: blended positive can't beat the split denominator


def test_mixlrco_batch_is_rowwise_mean():
    rng = SeededRng(19)
    q = unit_rows(rng, 3, 5)
    k_t = unit_rows(rng, 3, 5)
    k_s = unit_rows(rng, 3, 5)
    lam_p = 0.5 + 0.5 * np.asarray(rng.uniform(size=3))
    k_mix = lam_p[:, None] * k_t + (1 - lam_p)[:, None] * k_s
    bank = unit_rows(rng, 6, 5)
    batch = float(mixlrco_batch(q, k_mix, k_t, k_s, bank, 0.3))
    singles = [float(mixlrco_one(q[i], k_mix[i], k_t[i], k_s[i], bank, 0.3))
               for i in range(3)]
    assert abs(batch - np.mean(singles)) < 1e-12


def test_losses_differentiable_through_tensors():
    # smoke: batch losses built on tensors backpropagate without error
    rng = SeededRng(20)
    raw = ad.Tensor(np.asarray(rng.normal(size=(4, 6))), requires_grad=True)
    q = ad.normalize_rows(raw)
    k = unit_rows(rng, 4, 6)
    bank = unit_rows(rng, 7, 6)
    loss = contrastive_batch(q, k, bank, 0.3)
    loss.backward()
    assert raw.grad is not None and np.all(np.isfinite(raw.grad))
