import copy
import pickle

import numpy as np
import pytest

from lrco.errors import ConfigError, ShapeMismatchError
from lrco.model import (
    ModelConfig, clone_state, compute_gradients, ema_update,
    features_of, get_param_vector, init_model, probs_of, state_arrays,
    state_from_arrays, with_param_vector,
)
from lrco.numerics import SeededRng, finite_diff_grad, relative_grad_error
from oracles import states_allclose


def forward_one(m, x):
    """Feature of one input: a one-row features_of."""
    return np.asarray(features_of(m, np.asarray(x, dtype=np.float64).reshape(1, -1)))[0]


def classify_one(m, f):
    """Class probabilities of one raw feature: a one-row probs_of."""
    return np.asarray(probs_of(m, np.asarray(f, dtype=np.float64).reshape(1, -1)))[0]


def small_config(**kw):
    base = dict(input_dim=3, hidden_dims=(4,), feature_dim=5, n_classes=2,
                t_ce=0.5, t_re=0.5)
    base.update(kw)
    return ModelConfig(**base)


def test_init_deterministic():
    a = init_model(small_config(), SeededRng(0))
    b = init_model(small_config(), SeededRng(0))
    assert states_allclose(a, b)


def test_init_param_count_linear_only():
    cfg = small_config(hidden_dims=())
    m = init_model(cfg, SeededRng(1))
    expected = 3 * 5 + 5 + 2 * 5  # W + b + classifier
    assert get_param_vector(m).shape == (expected,)


def test_init_xavier_bounds_and_zero_bias():
    cfg = ModelConfig(input_dim=30, hidden_dims=(40,), feature_dim=20,
                      n_classes=5, t_ce=0.05, t_re=0.05)
    m = init_model(cfg, SeededRng(3))
    for w in m.weights:
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
    for b in m.biases:
        assert np.all(b == 0.0)


def test_init_weight_mean_near_zero():
    cfg = ModelConfig(input_dim=100, hidden_dims=(100,), feature_dim=50,
                      n_classes=10, t_ce=0.05, t_re=0.05)
    m = init_model(cfg, SeededRng(7))
    entries = np.concatenate([w.ravel() for w in m.weights] + [m.classifier.ravel()])
    assert entries.size >= 10_000
    bound = np.sqrt(6.0 / 200)
    sigma = bound / np.sqrt(3.0)  # std of U(-bound, bound)
    assert abs(entries.mean()) < 3 * sigma / 100


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_classes=1).validate()
    with pytest.raises(ValueError):
        small_config(feature_dim=1).validate()
    with pytest.raises(ValueError):  # the state init_model builds checks the temperatures
        init_model(small_config(t_ce=0.0), SeededRng(0))


def test_forward_zero_weights_gives_zero_feature():
    m = init_model(small_config(), SeededRng(0))
    for w in m.weights:
        w[...] = 0.0
    out = forward_one(m, np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(out, np.zeros(5))


def test_forward_identity_single_layer():
    cfg = ModelConfig(input_dim=4, hidden_dims=(), feature_dim=4, n_classes=2,
                      t_ce=1.0, t_re=1.0)
    m = init_model(cfg, SeededRng(0))
    m.weights[0][...] = np.eye(4)
    m.biases[0][...] = 0.0
    x = np.array([0.3, -1.2, 2.0, 0.0])
    np.testing.assert_allclose(forward_one(m, x), x, atol=1e-15)


def test_forward_matches_manual_composition():
    m = init_model(small_config(hidden_dims=(4, 6)), SeededRng(5))
    x = np.array([0.2, -0.4, 1.1])
    h = np.tanh(x @ m.weights[0] + m.biases[0])
    h = np.tanh(h @ m.weights[1] + m.biases[1])
    manual = h @ m.weights[2] + m.biases[2]
    np.testing.assert_allclose(forward_one(m, x), manual, atol=1e-15)


def test_classify_orthogonal_feature_uniform():
    m = init_model(small_config(feature_dim=3, n_classes=2), SeededRng(0))
    m.classifier[...] = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    p = classify_one(m, np.array([0.0, 0.0, 2.0]))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_classify_parallel_row_value():
    # sims (1, 0) at T=1 -> e/(e+1)
    m = init_model(small_config(feature_dim=3, n_classes=2, t_ce=1.0), SeededRng(0))
    m.classifier[...] = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    p = classify_one(m, np.array([5.0, 0.0, 0.0]))
    np.testing.assert_allclose(p, [0.7310585786300049, 0.2689414213699951], atol=1e-12)


def test_classify_scale_invariance():
    m = init_model(small_config(), SeededRng(2))
    f = np.array([0.4, -0.2, 0.9, 0.1, -0.6])
    p1 = classify_one(m, f)
    p2 = classify_one(m, 37.5 * f)
    np.testing.assert_allclose(p1, p2, atol=1e-12)
    # scaling classifier rows positively also leaves probabilities unchanged
    m2 = clone_state(m)
    m2.classifier[...] *= np.array([[2.0], [9.0]])
    np.testing.assert_allclose(classify_one(m2, f), p1, atol=1e-12)


def test_probs_rows_sum_to_one():
    m = init_model(small_config(n_classes=4), SeededRng(8))
    x = np.asarray(SeededRng(9).normal(size=(10, 3)))
    p = np.asarray(probs_of(m, features_of(m, x)))
    np.testing.assert_allclose(p.sum(axis=1), np.ones(10), atol=1e-12)
    assert p.shape == (10, 4)


def test_ema_fixed_point_and_basic_value():
    cfg = small_config()
    student = init_model(cfg, SeededRng(0))
    teacher = clone_state(student)
    ema_update(teacher, student, 0.99)
    assert states_allclose(teacher, student)

    teacher2 = clone_state(student)
    for arr in state_arrays(teacher2).values():
        arr[...] = 0.0
    student2 = clone_state(student)
    for arr in state_arrays(student2).values():
        arr[...] = 1.0
    ema_update(teacher2, student2, 0.99)
    for arr in state_arrays(teacher2).values():
        np.testing.assert_allclose(arr, 0.01 * np.ones_like(arr), atol=1e-15)


def test_ema_geometric_decay():
    cfg = small_config()
    student = init_model(cfg, SeededRng(1))
    teacher = init_model(cfg, SeededRng(2))
    gap0 = get_param_vector(teacher) - get_param_vector(student)
    n = 25
    for _ in range(n):
        ema_update(teacher, student, 0.99)
    gap = get_param_vector(teacher) - get_param_vector(student)
    np.testing.assert_allclose(gap, 0.99 ** n * gap0, atol=1e-10)


def test_ema_validates_decay_and_shapes():
    m = init_model(small_config(), SeededRng(0))
    other = init_model(small_config(feature_dim=7), SeededRng(0))
    with pytest.raises(ValueError):
        ema_update(clone_state(m), m, 1.0)
    with pytest.raises(ShapeMismatchError):
        ema_update(other, m, 0.99)


def test_clone_is_independent():
    m = init_model(small_config(), SeededRng(0))
    c = clone_state(m)
    c.weights[0][0, 0] += 1.0
    assert m.weights[0][0, 0] != c.weights[0][0, 0]


def test_param_vector_roundtrip():
    m = init_model(small_config(hidden_dims=(4, 3)), SeededRng(4))
    vec = get_param_vector(m)
    rebuilt = with_param_vector(m, vec)
    assert states_allclose(m, rebuilt)
    bumped = with_param_vector(m, vec + 1.0)
    assert not states_allclose(m, bumped)
    np.testing.assert_allclose(get_param_vector(bumped), vec + 1.0)


def test_with_param_vector_stack_rows_are_per_vector_states():
    m = init_model(small_config(hidden_dims=(4, 3)), SeededRng(4))
    base = get_param_vector(m)
    stack = base + np.asarray(SeededRng(5).normal(size=(3, base.size)))
    stacked = state_arrays(with_param_vector(m, stack))
    for b, vec in enumerate(stack):
        single = state_arrays(with_param_vector(m, vec))
        assert stacked.keys() == single.keys()
        for name, arr in single.items():
            # a bias is stored as a one-row matrix per vector
            row = stacked[name][b]
            assert row.shape == (arr.shape if arr.ndim == 2 else (1,) + arr.shape)
            assert row.tobytes() == arr.tobytes(), name
    with pytest.raises(ShapeMismatchError):
        with_param_vector(m, stack[:, 1:])
    with pytest.raises(ShapeMismatchError):
        with_param_vector(m, stack[None])


@pytest.mark.parametrize("restore", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_keep_the_arrays_views_of_params(restore):
    m = init_model(small_config(hidden_dims=(4, 3)), SeededRng(4))
    got = restore(m)
    assert states_allclose(got, m) and got.layout == m.layout
    assert (got.t_ce, got.t_re) == (m.t_ce, m.t_re)
    assert not np.shares_memory(got.params, m.params)
    for arr in state_arrays(got).values():
        assert np.shares_memory(arr, got.params)
    got.params += 1.0  # what an optimizer step does: every array moves
    assert states_allclose(got, with_param_vector(m, get_param_vector(m) + 1.0))


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["t_ce", "t_re"])
def test_every_state_refuses_a_temperature_outside_its_domain(name, value):
    m = init_model(small_config(hidden_dims=(4, 3)), SeededRng(8))
    temperatures = {"t_ce": m.t_ce, "t_re": m.t_re, name: value}
    bent = clone_state(m)
    setattr(bent, name, value)  # what no constructor lets through
    builds = (
        lambda: init_model(small_config(**temperatures), SeededRng(8)),
        lambda: state_from_arrays(state_arrays(m), **temperatures),
        lambda: with_param_vector(bent, get_param_vector(m)),
        lambda: with_param_vector(bent, np.stack([get_param_vector(m)] * 2)),
        lambda: clone_state(bent),
        lambda: pickle.loads(pickle.dumps(bent)),
    )
    for make in builds:
        with pytest.raises(ConfigError, match=rf"^{name} must lie in \(0, inf\), got "):
            make()
    for restore in (lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy):
        got = restore(m)  # a state that passed the check passes it again
        assert states_allclose(got, m) and (got.t_ce, got.t_re) == (m.t_ce, m.t_re)


def test_state_arrays_roundtrip():
    m = init_model(small_config(), SeededRng(6))
    arrays = {k: v.copy() for k, v in state_arrays(m, prefix="s/").items()}
    rebuilt = state_from_arrays(arrays, m.t_ce, m.t_re, prefix="s/")
    assert states_allclose(m, rebuilt)


def test_compute_gradients_constant_loss_zero_tape():
    m = init_model(small_config(), SeededRng(0))
    grads = compute_gradients(m, lambda params: 1.25)
    assert grads.shape == m.params.shape
    assert np.all(grads == 0.0)


def test_compute_gradients_vs_finite_difference():
    m = init_model(small_config(n_classes=3), SeededRng(11))
    x = np.asarray(SeededRng(12).normal(size=(4, 3)))
    y = np.array([0, 2, 1, 2])

    def loss_fn(params):
        from lrco.losses import cross_entropy_batch
        return cross_entropy_batch(probs_of(params, features_of(params, x)), y)

    analytic = compute_gradients(m, loss_fn)

    def values(stack):
        from lrco.autodiff import value_of
        return value_of(loss_fn(with_param_vector(m, stack)))

    numeric = finite_diff_grad(values, get_param_vector(m), h=1e-5)
    assert relative_grad_error(analytic, numeric) < 1e-6


def test_teacher_untouched_without_ema():
    # gradient computation on the student must never mutate a teacher copy
    m = init_model(small_config(), SeededRng(0))
    teacher = clone_state(m)
    before = get_param_vector(teacher).copy()
    x = np.asarray(SeededRng(1).normal(size=(3, 3)))

    def loss_fn(params):
        from lrco.losses import entropy_alignment
        return entropy_alignment(probs_of(params, features_of(params, x)))

    compute_gradients(m, loss_fn)
    assert np.array_equal(get_param_vector(teacher), before)
