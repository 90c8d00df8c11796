import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrco.errors import DegenerateFeatureError
from lrco.numerics import (
    SeededRng, StepStreams, _key_words, _uint32_words, finite_diff_grad, logsumexp_last,
    norm_last, normalize_last, relative_grad_error, sample_beta, seed_states, softmax_last,
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
    assert abs(float(logsumexp_last(np.array([0.0, 0.0]))[0]) - 0.6931471805599453) < 1e-12
    assert abs(float(logsumexp_last(np.array([1000.0, 1000.0]))[0])
               - (1000 + 0.6931471805599453)) < 1e-12
    assert abs(float(logsumexp_last(np.array([1.0, 2.0, 3.0]))[0]) - 3.40760596444438) < 1e-12


def test_log_sum_exp_empty_rejected():
    with pytest.raises(ValueError):
        logsumexp_last(np.array([]))


@given(finite_vectors)
@settings(max_examples=60, deadline=None)
def test_log_sum_exp_matches_direct_at_low_magnitude(v):
    direct = np.log(np.sum(np.exp(v)))
    assert abs(float(logsumexp_last(v)[0]) - direct) < 1e-10


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


def _pcg_state(rng: SeededRng) -> dict:
    return rng.bit_generator.state


def _label_key(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "little")


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5])
def test_rng_state_equals_seedsequence_of_the_entropy_tuple(seed):
    # SeedSequence((seed, *keys)) joins each int's little-endian uint32 words
    # (0 gives one zero word); seeding from the kept words gives its state,
    # on substream's path and on the batched one of StepStreams and seed_states
    root = SeededRng(seed)
    assert _pcg_state(root) == np.random.PCG64(np.random.SeedSequence((seed,))).state
    keys = []
    stream = root
    for label in ("augment", "mix-3"):
        stream = stream.substream(label)
        keys.append(_label_key(label))
        expected = np.random.PCG64(np.random.SeedSequence((seed, *keys))).state
        assert _pcg_state(stream) == expected, label
    # the labels named in one call
    assert _pcg_state(SeededRng(seed, "augment", "mix-3")) == expected
    batched = StepStreams(seed, 5)("mix", 3)  # the first of mix-3, mix-4, mix-5
    expected = np.random.PCG64(np.random.SeedSequence((seed, _label_key("mix-3")))).state
    assert _pcg_state(batched) == expected
    assert batched._words == root.substream("mix-3")._words
    # keys below 2**32 are one word; no label of a test hashes to one
    lineages = ((5,), (0, 2**32 + 3), (2**32 - 1, 7, 2**63))
    words = [_uint32_words(seed) + sum((_uint32_words(k) for k in lineage), ())
             for lineage in lineages]
    for lineage, w, state in zip(lineages, words, seed_states(words)):
        expected = np.random.PCG64(np.random.SeedSequence((seed, *lineage))).state
        assert _pcg_state(SeededRng(seed, _words=w)) == expected, lineage
        assert _pcg_state(SeededRng(seed, _words=w, _state=state)) == expected, lineage


uint32_words = st.integers(0, 2**32 - 1) | st.sampled_from([0, 2**32 - 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(uint32_words, min_size=1, max_size=8).map(tuple),
                min_size=1, max_size=12))
def test_seed_states_equal_seedsequence_row_for_row(rows):
    # rows of 1 to 8 words in one batch: one group of rows up to the 4-word
    # pool, zero-filled, and one group per longer word count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = seed_states(rows)
    assert states.dtype == np.uint64 and states.shape == (len(rows), 4)
    for row, state in zip(rows, states):
        expected = np.random.SeedSequence(row).generate_state(4, np.uint64)
        assert state.tobytes() == expected.tobytes(), row


def test_seed_states_cover_long_seeds_and_one_word_keys():
    # a three-word seed makes entropy longer than the 4-word pool; a key
    # below 2**32 is one word (no test label hashes to one, so it is built
    # through _words); one batch holds rows of 4, 5 and 6 words
    seed = 2**64 + 2**40 + 9
    seed_words = SeededRng(seed)._words
    short_key, label = 2**31 + 5, "mix-2"
    rows = [seed_words + (short_key,), seed_words + _key_words(label),
            seed_words + (short_key,) + _key_words(label)]
    lineages = [(short_key,), (_label_key(label),), (short_key, _label_key(label))]
    assert [len(row) for row in rows] == [4, 5, 6]
    for row, state, lineage in zip(rows, seed_states(rows), lineages):
        expected = np.random.PCG64(np.random.SeedSequence((seed, *lineage))).state
        assert _pcg_state(SeededRng(seed, _words=row, _state=state)) == expected, lineage
    # substreams of the one-word-key stream, past the pool too
    parent = SeededRng(seed, _words=rows[0])
    for name in ("a", label):
        expected = np.random.PCG64(
            np.random.SeedSequence((seed, short_key, _label_key(name)))).state
        assert _pcg_state(parent.substream(name)) == expected, name
    # the long seed's stream table, whose rows are 5 words
    expected = np.random.PCG64(np.random.SeedSequence((seed, _label_key(label)))).state
    assert _pcg_state(StepStreams(seed, 4)("mix", 2)) == expected


def test_substreams_equal_substream_child_for_child():
    # the streams a table seeds in one batched pass are, child for child, the
    # substreams of the run's root stream
    table, root = StepStreams(seed=17, last_step=600), SeededRng(17)
    for purpose, step in [("a", 1), ("b", 1), ("a", 1), ("mix", 600)]:
        child, oracle = table(purpose, step), root.substream(f"{purpose}-{step}")
        assert child.seed == oracle.seed and child._words == oracle._words
        assert np.array_equal(child.normal(size=6), oracle.normal(size=6))
        # a child derives its own substreams as the oracle does
        assert np.array_equal(child.substream("x").uniform(size=3),
                              oracle.substream("x").uniform(size=3))
    assert seed_states([]).shape == (0, 4)


def test_rng_words_split_an_int_as_seedsequence_does():
    assert _uint32_words(0) == (0,)
    assert _uint32_words(2**32 - 1) == (2**32 - 1,)
    assert _uint32_words(2**32) == (0, 1)
    assert _uint32_words(2**64 - 1) == (2**32 - 1, 2**32 - 1)


def test_rng_negative_seed_raises_at_construction():
    with pytest.raises(ValueError, match="non-negative"):
        SeededRng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        SeededRng(-(2**70))


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


def test_sample_beta_bounds_its_redraws():
    # at alpha = 1e-300 every Gamma draw underflows to 0, so no row ever
    # gets a value; the bounded redraws end in an error that names alpha
    with pytest.raises(FloatingPointError, match=r"alpha=1e-300 .*1000 redraws"):
        sample_beta(1e-300, SeededRng(0), 4)
    # at alpha = 1e-3 rows do redraw, well inside the bound
    assert np.all(sample_beta(1e-3, SeededRng(0), 10_000) > 0)


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
        lambda v: float(logsumexp_last(3.0 * v)[0]),
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
