
import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrco import autodiff as ad
from lrco.data import AugmentSpec
from lrco.errors import InvalidRowsError, LrcoError
from lrco.losses import (
    UNIT_NORM_TOL, check_probability_rows, check_unit_rows, class_terms_batch,
    contrastive_batch, contrastive_branch, cross_entropy_batch, draw_mix, entropy_alignment,
    kld_uniform_batch, make_pseudo_label, mixlrco_batch, pseudo_labels, re_represent_batch,
)
from lrco.membank import MemoryBank
from lrco.model import ModelConfig, features_of, init_model, probs_of
from lrco.numerics import (
    NORM_EPS, SeededRng, StepStreams, finite_diff_grad, norm_last, relative_grad_error,
    sample_beta, unit_last,
)
from lrco.trainer import TrainConfig, prepare_step, step_objective
from oracles import unit_rows
from test_chains import branch_cases, entry, loss_head_args


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


def test_row_checks_reject_nan_rows():
    probs = np.array([[0.2, 0.8], [np.nan, 0.5]])
    with pytest.raises(InvalidRowsError, match="valid probability vector"):
        pseudo_labels(probs, 0.5)
    with pytest.raises(InvalidRowsError, match="valid probability vector"):
        make_pseudo_label(np.array([np.nan, np.nan]), tau=0.5)
    unit = np.array([[1.0, 0.0], [0.0, 1.0]])
    nan_row = np.array([[1.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(InvalidRowsError, match="queries must be unit-normalized"):
        contrastive_batch(nan_row, unit, unit, 0.3)
    with pytest.raises(InvalidRowsError, match="bank entries must be unit-normalized"):
        contrastive_batch(unit, unit, nan_row, 0.3)
    with pytest.raises(InvalidRowsError, match="bank entries must be unit-normalized"):
        mixlrco_batch(unit, unit, unit, unit, nan_row, 0.3)
    with pytest.raises(InvalidRowsError, match="bank keys must be unit-normalized"):
        MemoryBank(4).push_batch(nan_row)
    # both a package error, which the CLI maps to an exit code, and the
    # ValueError the checks raised before
    assert issubclass(InvalidRowsError, LrcoError) and issubclass(InvalidRowsError, ValueError)


# The row checks decide by a smallest and a largest value; these are the
# elementwise formulas they replaced, which they must agree with everywhere:
# each returns (error type, message), or None where the check passes.

def _old_unit_last(v):
    n = norm_last(v)
    if np.logical_or.reduce(n < NORM_EPS, axis=None):
        return "DegenerateFeatureError", f"cannot normalize vector with norm below {NORM_EPS}"
    if np.logical_or.reduce(n == np.inf, axis=None):
        return "DegenerateFeatureError", "cannot normalize vector whose norm overflows to inf"
    return None


def _old_check_unit_rows(x, name):
    if not np.logical_and.reduce(np.abs(norm_last(x) - 1.0) <= UNIT_NORM_TOL, axis=None):
        return "InvalidRowsError", f"{name} must be unit-normalized (tolerance {UNIT_NORM_TOL})"
    return None


def _old_check_probability_rows(probs):
    if not (np.logical_and.reduce(np.abs(np.add.reduce(probs, axis=-1) - 1.0) <= 1e-6,
                                  axis=None)
            and np.logical_and.reduce(probs >= 0, axis=None)):
        return "InvalidRowsError", "probs must be a valid probability vector"
    return None


def _old_blended_key_check(k_mix):
    if not np.logical_and.reduce(norm_last(k_mix) <= 1.0 + UNIT_NORM_TOL, axis=None):
        return "InvalidRowsError", "blended keys must have norm <= 1"
    return None


def _raised(check):
    try:
        check()
    except (LrcoError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _around(x):
    """x and the floats one ulp either side of it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Row sums and norms at each check's edges, and the special values.
_ROW_EDGES = sorted({float(v) for tol in (1e-6, UNIT_NORM_TOL)
                     for v in _around(1.0 - tol) + _around(1.0) + _around(1.0 + tol)
                     + _around(NORM_EPS)}) + [
    0.0, -0.0, -5e-324, np.nan, np.inf, -np.inf, 0.5, 2.0, -1.0, 1e-300, 1e300]
# A row is a lead value and fill values: with zero fill its sum and norm are
# the lead's size exactly.
_ROW_VALUES = st.one_of(st.sampled_from(_ROW_EDGES),
                        st.floats(allow_nan=True, allow_infinity=True))
_FILL = st.one_of(st.sampled_from([0.0, -0.0]), _ROW_VALUES)


@st.composite
def _row_arrays(draw):
    n_rows, width = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    rows = [[draw(_ROW_VALUES)] + [draw(_FILL) for _ in range(width - 1)] if width else []
            for _ in range(n_rows)]
    x = np.array(rows, dtype=np.float64).reshape(n_rows, width)
    return x[0] if n_rows and draw(st.booleans()) else x  # a single 1-D row too


_NEXT_TOL = float(np.nextafter(1.0 + UNIT_NORM_TOL, 2.0))


@settings(max_examples=400, deadline=None)
@given(x=_row_arrays())
@example(x=np.array([[np.nan, 0.0], [0.0, 0.0]]))  # a NaN row beside a zero row
@example(x=np.array([[np.nan, 0.0], [0.5, 0.0]]))  # a NaN row beside a passing row
@example(x=np.array([[np.nan, 0.0], [np.inf, 0.0]]))
@example(x=np.array([[1.0 + UNIT_NORM_TOL, 0.0], [_NEXT_TOL, 0.0]]))
@example(x=np.array([[1.5, -0.5], [1.0, 0.0]]))  # a negative entry in a row summing to 1
@example(x=np.array([[1.0, -5e-324], [1.0, -0.0]]))  # the smallest negative; -0.0 passes
@example(x=np.zeros((0, 2)))
@example(x=np.zeros((2, 0)))
def test_row_checks_raise_where_the_elementwise_formulas_did(x):
    with np.errstate(all="ignore"):
        assert _raised(lambda: unit_last(x)) == _old_unit_last(x)
        assert _raised(lambda: check_unit_rows(x, "keys")) == _old_check_unit_rows(x, "keys")
        assert _raised(lambda: check_probability_rows(x)) == _old_check_probability_rows(x)
        if x.ndim == 2 and x.shape[1] == 2:
            unit = np.tile([[0.6, 0.8]], (len(x), 1))
            blended = _raised(lambda: mixlrco_batch(unit, x, unit, unit, np.zeros((0, 2)), 0.3))
            assert blended == _old_blended_key_check(x)


def test_row_check_edges_are_drawn_exactly():
    # the edges above are the values the checks compare, not roundings of them
    assert 1.0 + 1e-6 in _ROW_EDGES and np.nextafter(1.0 - 1e-6, 0.0) in _ROW_EDGES
    x = np.array([[1.0 + UNIT_NORM_TOL, 0.0], [np.nextafter(1.0 + UNIT_NORM_TOL, 2.0), 0.0]])
    assert _old_check_unit_rows(x[:1], "q") is None and _old_check_unit_rows(x, "q")
    assert _raised(lambda: check_unit_rows(x[:1], "q")) is None
    assert _raised(lambda: check_unit_rows(x, "q"))


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
                      cfg, AugmentSpec(), tau, step=1, streams=StepStreams(cfg.seed, 1))
    maxp = np.max(probs_of(teacher, features_of(teacher, sb.x[sb.rows["unlabeled_weak"]])),
                  axis=1)
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
    w = ad.Tensor(np.asarray(rng.normal(size=(3, 4))))
    f = ad.Tensor(np.asarray(rng.normal(size=(2, 4))))
    keys, bank = unit_rows(rng, 2, 4), unit_rows(rng, 3, 4)
    out = contrastive_batch(re_represent_batch(f, w, t_re=0.5), keys, bank, 0.3)
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
    rows with the raw rows of their source partners. The partners and the
    target weights are drawn again here from the step's mix substream, as an
    independent oracle. Returns (the step, the target weights, the target
    rows, the partners' rows).
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
                      np.ones(8, dtype=bool), unl_x, cfg, no_noise, tau=1.0, step=1,
                      streams=StepStreams(cfg.seed, 1))
    assert sb.query_rows == sb.rows["mix"] and len(sb.low_idx) == n_rows
    rng = SeededRng(seed).substream("mix-1")
    partners = rng.integers(0, len(lab_x), size=n_rows)
    lam_prime = draw_mix(cfg.alpha, rng, n_rows)
    return sb, lam_prime, unl_x[sb.low_idx], lab_x[np.asarray(partners)]


def test_build_mix_pair_endpoint_and_midpoint(monkeypatch):
    # the mixes the trainer builds, with the mixing weight pinned
    from lrco import losses
    for lam_p in (1.0, 0.5):
        monkeypatch.setattr(losses, "draw_mix",
                            lambda alpha, rng, n, dominant=True: np.full(n, lam_p))
        sb, _, x_t, x_s = _mix_step(3, seed=15)
        x_mix, (k_target, _) = sb.x[sb.rows["mix"]], sb.k_den
        if lam_p == 1.0:
            np.testing.assert_allclose(x_mix, x_t, atol=1e-15)
            np.testing.assert_allclose(sb.k_pos, k_target, atol=1e-15)
        else:
            np.testing.assert_allclose(x_mix, 0.5 * (x_t + x_s), atol=1e-15)


def test_k_mix_norm_at_most_one_not_renormalized():
    sb, lam_prime, _, _ = _mix_step(50, seed=16)
    for k_mix, k_t, k_s, lam_p in zip(sb.k_pos, *sb.k_den, lam_prime):
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
    raw = ad.Tensor(np.asarray(rng.normal(size=(4, 6))))
    q = ad.normalize_rows(raw)
    k = unit_rows(rng, 4, 6)
    bank = unit_rows(rng, 7, 6)
    loss = contrastive_batch(q, k, bank, 0.3)
    loss.backward()
    assert raw.grad is not None and np.all(np.isfinite(raw.grad))


# --- the loss heads as graph nodes ---------------------------------------------------
#
# Each head is one node whose backward writes a closed-form gradient into its
# one differentiable input: the probability rows, or the queries.

def _head_cases(bank_rows=5):
    """head name -> (build, x): build maps the head's differentiable input
    (plain, a Tensor, or a (B, ...) stack) to the head's value; x is a
    point to evaluate it at."""
    return {head.__name__: (lambda x, head=head, rest=args[1:]: head(x, *rest), args[0])
            for head, args in loss_head_args(bank_rows).items()}


CONTRASTIVE_HEADS = ("contrastive_batch", "mixlrco_batch")


def _head_gradients(build, x, free):
    """The head's gradient at x from its backward, and central differences
    over the entries where free is True. A query head is differentiated
    through normalize_rows, so every perturbed query stays a unit row."""
    def f(stack):  # one stacked call over the 2P perturbed points
        points = np.broadcast_to(x, (len(stack),) + x.shape).copy()
        points[:, free] = stack
        return build(points)

    leaf = ad.Tensor(x.copy())
    build(leaf).backward()
    return leaf.grad, finite_diff_grad(f, x[free])


def _through_unit_rows(head, build):
    return (lambda x: build(ad.normalize_rows(x))) if head in CONTRASTIVE_HEADS else build


@pytest.mark.parametrize("head", sorted(_head_cases()))
def test_head_gradient_in_the_smooth_region(head):
    build, x = _head_cases()[head]
    assert np.all(x > 1e-3) or head in CONTRASTIVE_HEADS  # far above LOG_FLOOR
    analytic, numeric = _head_gradients(_through_unit_rows(head, build), x,
                                        np.ones(x.shape, dtype=bool))
    assert relative_grad_error(analytic, numeric) < 1e-7


@pytest.mark.parametrize("head", ["cross_entropy_batch", "entropy_alignment",
                                  "kld_uniform_batch"])
def test_head_gradient_at_the_log_floor(head):
    build, p = _head_cases()[head]
    p = p.copy()
    floored = np.zeros(p.shape, dtype=bool)
    floored[0, 2] = floored[1, 0] = floored[3, 2] = True  # two of them labeled
    p[floored] = [1e-15, 0.0, 1e-12]
    grad, numeric = _head_gradients(build, p, ~floored)
    assert relative_grad_error(grad[~floored], numeric) < 1e-7
    if head == "entropy_alignment":
        # p log max(p, floor) is p log(floor) there: the clamp's part is 0
        np.testing.assert_array_equal(grad[floored], np.full(3, -np.log(1e-12) / 4))
    else:
        np.testing.assert_array_equal(grad[floored], np.zeros(3))


def test_head_with_an_empty_bank():
    cases = _head_cases(bank_rows=0)
    # InfoNCE: the positive is the whole partition function
    build, q = cases["contrastive_batch"]
    leaf = ad.Tensor(q.copy())
    value = build(leaf)
    value.backward()
    assert float(value) == 0.0 and float(build(q)) == 0.0
    np.testing.assert_array_equal(leaf.grad, np.zeros(q.shape))
    # the mixed loss keeps its two endpoint keys in the denominator
    build, q = cases["mixlrco_batch"]
    analytic, numeric = _head_gradients(_through_unit_rows("mixlrco_batch", build), q,
                                        np.ones(q.shape, dtype=bool))
    assert relative_grad_error(analytic, numeric) < 1e-7


# The heads' numpy calls against their graph values, and the fused class head
# and contrastive branch against their chains, run from the one table in
# test_chains.py, under the ids they had before it.
test_head_numpy_call_equals_graph_value = entry("test_head_numpy_call_equals_graph_value")
test_head_numpy_path_accepts_a_stack_axis = entry("test_head_numpy_path_accepts_a_stack_axis")
test_class_head_equals_the_chain_bit_for_bit = entry("test_class_head_equals_the_chain_bit_for_bit")
test_class_head_numpy_path_takes_a_stack_axis = entry(
    "test_class_head_numpy_path_takes_a_stack_axis")
test_class_head_gives_plain_terms_and_the_totals_gradient_by_default = entry(
    "test_class_head_gives_plain_terms_and_the_totals_gradient_by_default")
test_contrastive_branch_equals_the_chain_bit_for_bit = entry(
    "test_contrastive_branch_equals_the_chain_bit_for_bit")


def test_contrastive_heads_write_only_into_the_queries():
    rng = SeededRng(32)
    q, keys, k_t, k_s, bank = (ad.Tensor(unit_rows(rng, 3, 4))
                               for _ in range(5))
    k_mix = ad.Tensor(0.5 * (k_t.value + k_s.value))
    contrastive_batch(q, keys, bank.value, 0.3).backward()
    mixlrco_batch(q, k_mix, k_t, k_s, bank.value, 0.3).backward()
    assert q.grad is not None and np.any(q.grad != 0.0)
    assert all(t.grad is None for t in (keys, k_t, k_s, k_mix))


# --- stacked row blocks ----------------------------------------------------------------

def _bits(x) -> bytes:
    return np.asarray(ad.value_of(x)).tobytes()


@pytest.mark.parametrize("n_rows", [6, 8, 9, 16, 32])
def test_stacked_row_blocks_have_each_entrys_bits(n_rows):
    # a block taken from a stack is contiguous, so numpy sums its rows in the
    # order it sums one entry's rows: entry b has the bits of the call on b
    rng = SeededRng(50)
    stack = np.stack([oracles.probability_rows(rng, n_rows + 5, 4) for _ in range(3)])
    idx = np.asarray(rng.permutation(n_rows + 5))[:n_rows]
    labels = np.asarray(rng.integers(0, 4, size=n_rows), dtype=np.int64)
    heads = (entropy_alignment, kld_uniform_batch, lambda p: cross_entropy_batch(p, labels))
    for head in heads:
        stacked = head(oracles.take_rows(stack, idx))
        for b in range(3):
            assert _bits(stacked[b]) == _bits(head(oracles.take_rows(stack[b], idx)))
    args = (slice(0, 2), labels[:2], slice(2, 5), 5 + np.sort(idx[idx < n_rows]),
            np.zeros(int(np.sum(idx < n_rows)), dtype=np.int64),
            {"ce": 1.0, "align": 0.1, "fixmatch": 1.0, "kld": 0.37})
    stacked_total, *_ = class_terms_batch(stack, *args)
    for b in range(3):
        assert _bits(stacked_total[b]) == _bits(class_terms_batch(stack[b], *args)[0])
    feats = np.asarray(rng.normal(size=(3, n_rows + 5, 4)))
    keys, bank = unit_rows(rng, n_rows, 4), unit_rows(rng, 5, 4)
    classifier = np.asarray(rng.normal(size=(3, 4)))
    stacked, _ = contrastive_branch(feats, idx, classifier, 0.5, "rerep", keys, (keys,), bank,
                                    0.3)
    for b in range(3):
        assert _bits(stacked[b]) == _bits(contrastive_branch(
            feats[b], idx, classifier, 0.5, "rerep", keys, (keys,), bank, 0.3)[0])


# --- the fused contrastive branch ---------------------------------------------------------

def _branch_grad(grad, rows, g_f, g):
    """g_f, a feature gradient, after the step's backward adds grad(g) into its rows."""
    g_f[rows] += grad(g)
    return g_f


def test_contrastive_branch_after_another_consumer_of_the_rows():
    # the branch adds into a gradient the rows already hold, as take_rows did
    f, *args = branch_cases("mix", "rerep", 6)[0].args
    _, grad = contrastive_branch(f, *args)
    fused = _branch_grad(grad, args[0], 2.0 * 0.25 * f, 0.5)
    leaf = ad.Tensor(f.copy())
    other = ad.Tensor(np.add.reduce(f * f, axis=None), (leaf,),
                      lambda g: leaf.accumulate(2.0 * g * leaf.value))
    oracles.weighted_sum(((other, 0.25), (oracles.branch_chain(leaf, *args), 0.5))).backward()
    assert fused.tobytes() == leaf.grad.tobytes()


def test_contrastive_branch_gives_its_query_rows_alone_a_gradient():
    # the classifier is a constant: the gradient is the query rows' only
    f, rows, classifier, *rest = branch_cases("mix", "rerep", 6)[0].args
    _, grad = contrastive_branch(f, rows, classifier, *rest)
    g_rows = grad(1.0)
    assert g_rows.shape == (len(rows), f.shape[1]) and np.any(g_rows != 0.0)
    with pytest.raises(ValueError, match="unknown rerep mode"):
        contrastive_branch(f, rows, classifier, 0.4, "cosine", *rest[2:])
