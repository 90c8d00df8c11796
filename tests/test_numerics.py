import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrco.errors import DegenerateFeatureError
from lrco.numerics import (
    SeededRng, finite_diff_grad, logsumexp_last, norm_last, normalize_last,
    relative_grad_error, sample_beta, softmax_last,
)

finite_vectors = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=1, max_size=12
).map(np.array)


# --- softmax_last ------------------------------------------------------------

def test_softmax_symmetry_two():
    np.testing.assert_allclose(softmax_last(np.array([0.0, 0.0]), 1.0), [0.5, 0.5])


def test_softmax_constant_vector_uniform():
    out = softmax_last(np.array([3.7, 3.7, 3.7, 3.7]), 0.25)
    np.testing.assert_allclose(out, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_softmax_two_logit_value():
    # e/(e+1) evaluated independently
    out = softmax_last(np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(out, [0.7310585786300049, 0.2689414213699951], atol=1e-15)


@given(finite_vectors, st.floats(min_value=0.5, max_value=10))
@settings(max_examples=60, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(v, temp):
    out = softmax_last(v, temp)
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out > 0)
    shifted = softmax_last(v + 11.25, temp)
    np.testing.assert_allclose(out, shifted, atol=1e-12)


def test_softmax_positive_on_cosine_envelope():
    # the classifier feeds cosine similarities in [-1, 1] at T down to 0.05;
    # entries must stay strictly positive there
    sims = np.array([1.0, -1.0, 0.37, -0.99])
    out = softmax_last(sims, 0.05)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) < 1e-12


@given(finite_vectors, st.floats(min_value=0.05, max_value=10))
@settings(max_examples=60, deadline=None)
def test_softmax_temperature_equals_prescaled(v, temp):
    # softmax_last(v, T) must equal softmax_last(v/T, 1) bit-exactly
    a = softmax_last(v, temp)
    b = softmax_last(v / temp, 1.0)
    assert np.array_equal(a, b)


def test_softmax_huge_logits_no_overflow():
    out = softmax_last(np.array([1000.0, 1000.0, -1000.0]), 1.0)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[:2], [0.5, 0.5], atol=1e-12)


# --- normalize_last ----------------------------------------------------------

def test_l2_normalize_345():
    np.testing.assert_allclose(normalize_last(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)


def test_l2_normalize_unit_is_identity():
    v = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(normalize_last(v), v, atol=1e-15)
    np.testing.assert_allclose(normalize_last(np.array([2.0, 0.0, 0.0])), v, atol=1e-15)


def test_l2_normalize_rejects_near_zero():
    with pytest.raises(DegenerateFeatureError):
        normalize_last(np.zeros(3))
    with pytest.raises(DegenerateFeatureError):
        normalize_last(np.array([1e-13, 0.0]))


def test_l2_normalize_rejects_a_norm_that_overflows():
    # v * v overflows to inf, and v / inf would be a zero row
    with np.errstate(over="ignore"):
        for v in (np.array([1e200, 1.0]), np.array([[0.6, 0.8], [np.inf, 0.0]])):
            with pytest.raises(DegenerateFeatureError, match="overflows to inf"):
                normalize_last(v)


def test_l2_normalize_passes_nan_rows_through():
    # a NaN norm is no degenerate direction: the NaN reaches the loss, where
    # the trainer reports the step as diverged
    out = normalize_last(np.array([[np.nan, 1.0], [3.0, 4.0]]))
    assert np.isnan(out[0]).all()
    np.testing.assert_array_equal(out[1], [0.6, 0.8])


@given(finite_vectors.filter(lambda v: np.linalg.norm(v) > 1e-6))
@settings(max_examples=60, deadline=None)
def test_l2_normalize_idempotent_and_parallel(v):
    once = normalize_last(v)
    assert abs(np.linalg.norm(once) - 1.0) < 1e-12
    np.testing.assert_allclose(normalize_last(once), once, atol=1e-12)
    # parallel: cross terms vanish -> cosine with original is 1
    cos = float(once @ v / np.linalg.norm(v))
    assert abs(cos - 1.0) < 1e-10


# --- logsumexp_last ----------------------------------------------------------

def test_log_sum_exp_values():
    assert abs(float(logsumexp_last(np.array([0.0, 0.0]))) - 0.6931471805599453) < 1e-12
    assert abs(float(logsumexp_last(np.array([1000.0, 1000.0])))
               - (1000 + 0.6931471805599453)) < 1e-12
    assert abs(float(logsumexp_last(np.array([1.0, 2.0, 3.0]))) - 3.40760596444438) < 1e-12


def test_log_sum_exp_empty_rejected():
    with pytest.raises(ValueError):
        logsumexp_last(np.array([]))


@given(finite_vectors)
@settings(max_examples=60, deadline=None)
def test_log_sum_exp_matches_direct_at_low_magnitude(v):
    direct = np.log(np.sum(np.exp(v)))
    assert abs(float(logsumexp_last(v)) - direct) < 1e-10


# --- SeededRng ---------------------------------------------------------------

def test_rng_same_seed_same_stream():
    a = SeededRng(7).normal(size=100)
    b = SeededRng(7).normal(size=100)
    assert np.array_equal(np.asarray(a), np.asarray(b))


def test_rng_substreams_are_independent_of_call_order():
    root = SeededRng(3)
    s1 = root.substream("augment").uniform(size=5)
    s2 = root.substream("shuffle").uniform(size=5)
    # building the substreams in the other order must not change either draw
    root2 = SeededRng(3)
    t2 = root2.substream("shuffle").uniform(size=5)
    t1 = root2.substream("augment").uniform(size=5)
    assert np.array_equal(np.asarray(s1), np.asarray(t1))
    assert np.array_equal(np.asarray(s2), np.asarray(t2))


def test_rng_distinct_labels_distinct_streams():
    root = SeededRng(0)
    a = root.substream("a").uniform(size=8)
    b = root.substream("b").uniform(size=8)
    assert not np.array_equal(np.asarray(a), np.asarray(b))


def test_rng_nested_substreams_reproducible():
    a = SeededRng(11).substream("x").substream("y").normal(size=4)
    b = SeededRng(11).substream("x").substream("y").normal(size=4)
    assert np.array_equal(np.asarray(a), np.asarray(b))


# --- sample_beta -------------------------------------------------------------

def test_sample_beta_alpha_one_is_uniform():
    draws = sample_beta(1.0, SeededRng(123), 100_000)
    assert np.all((draws > 0) & (draws < 1))
    assert abs(draws.mean() - 0.5) < 0.005
    assert abs(draws.var() - 1.0 / 12.0) < 0.003


def test_sample_beta_symmetric_mean_half_alpha():
    draws = sample_beta(0.5, SeededRng(9), 100_000)
    assert abs(draws.mean() - 0.5) < 0.005


def test_sample_beta_reproducible():
    a = sample_beta(0.7, SeededRng(42).substream("mix"), 8)
    b = sample_beta(0.7, SeededRng(42).substream("mix"), 8)
    assert a.tobytes() == b.tobytes()


def test_sample_beta_redraws_underflowed_rows_after_the_batch():
    # At alpha = 1e-3 a Gamma draw underflows to 0.0 about half the time, so
    # some rows have x + y == 0. Those rows are redrawn, in row order, once the
    # whole batch has been drawn: not in place, as a scalar loop would.
    alpha, n = 1e-3, 64
    got = sample_beta(alpha, SeededRng(5), n)
    oracle = SeededRng(5)
    xy = [[float(oracle.standard_gamma(alpha)) for _ in range(2)] for _ in range(n)]
    assert any(x + y == 0.0 for x, y in xy)
    bad = [i for i, (x, y) in enumerate(xy) if x + y == 0.0]
    while bad:
        for i in bad:
            xy[i] = [float(oracle.standard_gamma(alpha)) for _ in range(2)]
        bad = [i for i in bad if sum(xy[i]) == 0.0]
    want = [min(max(x / (x + y), 1e-12), 1.0 - 1e-12) for x, y in xy]
    assert got.tolist() == want
    assert np.all((got > 0) & (got < 1))


def test_sample_beta_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sample_beta(0.0, SeededRng(0), 1)
    with pytest.raises(ValueError):
        sample_beta(-1.0, SeededRng(0), 1)


# --- finite differences ----------------------------------------------------------

def per_row(f):
    """finite_diff_grad's stacked contract for a function of one vector."""
    return lambda stack: np.array([f(v) for v in stack])


def test_finite_diff_quadratic():
    grad = finite_diff_grad(per_row(lambda p: float(p @ p)), np.array([1.0, 2.0]), h=1e-5)
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_diff_constant_zero():
    grad = finite_diff_grad(lambda stack: np.full(len(stack), 3.25), np.array([0.3, -0.7, 1.1]))
    np.testing.assert_allclose(grad, np.zeros(3), atol=1e-12)


def test_finite_diff_vector_columns_equal_scalar_calls():
    p = np.array([0.3, -0.7, 1.1, 0.05])
    components = (
        lambda v: float(v @ v),
        lambda v: float(np.sin(v).sum() * v[0]),
        lambda v: float(logsumexp_last(3.0 * v)),
    )
    jac = finite_diff_grad(per_row(lambda v: np.array([c(v) for c in components])), p)
    assert jac.shape == (4, 3)
    for k, component in enumerate(components):
        scalar = finite_diff_grad(per_row(component), p)
        assert scalar.shape == (4,)
        assert jac[:, k].tobytes() == scalar.tobytes()


def test_finite_diff_evaluates_the_perturbed_stack_once():
    p = np.array([-0.0, 0.5, -1.25])
    h = 0.25
    calls = []

    def f(stack):
        calls.append(stack.copy())
        return stack.sum(axis=1)

    finite_diff_grad(f, p, h=h)
    assert len(calls) == 1
    expected = [p.copy() for _ in range(6)]
    for i in range(3):
        expected[i][i] += h
        expected[3 + i][i] -= h
    # the bits of per-vector copies, -0.0 off the diagonal included
    assert calls[0].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("result", [
    lambda stack: 1.0,                              # scalar-only function
    lambda stack: np.zeros(len(stack) // 2),        # one value per parameter
    lambda stack: np.zeros((len(stack), 2, 2)),     # more than one value axis
], ids=["scalar", "per-parameter", "3-d"])
def test_finite_diff_rejects_values_not_one_per_perturbed_vector(result):
    with pytest.raises(ValueError, match="per perturbed vector"):
        finite_diff_grad(result, np.array([0.3, -0.7, 1.1]))


def test_finite_diff_softmax_cross_entropy():
    # analytic softmax-CE gradient: p - onehot(y)
    logits = np.array([0.2, -1.3, 0.8])
    y = 2

    def loss(z):
        p = softmax_last(z, 1.0)
        return float(-np.log(p[y]))

    numeric = finite_diff_grad(per_row(loss), logits, h=1e-5)
    p = softmax_last(logits, 1.0)
    analytic = p.copy()
    analytic[y] -= 1.0
    assert relative_grad_error(analytic, numeric) < 1e-6


def test_relative_grad_error_zero_pair():
    assert relative_grad_error(np.zeros(4), np.zeros(4)) == 0.0


# --- norm_last ---------------------------------------------------------------------

def test_norm_last_matches_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(11)
    rows = [rng.normal(size=(64, 8)), rng.normal(size=(3, 5)) * 1e150,
            rng.normal(size=(7,)),
            np.zeros((2, 4)), np.full((2, 4), -0.0), np.full((2, 4), 1e-300),
            np.full((2, 4), 1e300), np.array([[1e300, 1.0], [-0.0, 1e-300]])]
    for v in rows:
        with np.errstate(over="ignore"):  # 1e300 squared is inf on both sides
            ours = norm_last(v)
            theirs = np.linalg.norm(v, axis=-1, keepdims=True)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
