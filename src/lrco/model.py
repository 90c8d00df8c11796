"""Feature extractor plus cosine-similarity classifier head, with exact gradients.

The network is a small MLP: tanh on hidden layers, identity on the feature
output. Classification normalizes both the feature and each classifier row,
takes their dot products, and pushes them through a temperature softmax. The
classifier rows are stored raw and normalized at use time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatchError
from .numerics import SeededRng


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description used by init_model."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    feature_dim: int
    n_classes: int
    t_ce: float
    t_re: float

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be >= 1")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be >= 2")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if not self.t_ce > 0 or not self.t_re > 0:
            raise ValueError("temperatures must be positive")


@dataclass
class ModelState:
    """All learnable arrays plus the two temperatures.

    weights[i] has shape (d_in, d_out) so a batch forward is x @ W + b;
    classifier has one row per class, shape (n_classes, feature_dim).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    classifier: np.ndarray
    t_ce: float
    t_re: float

    @property
    def n_classes(self) -> int:
        return self.classifier.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.classifier.shape[1]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


@dataclass
class ParamTensors:
    """Autodiff view of a ModelState; duck-compatible with it for forward code."""

    weights: list[ad.Tensor]
    biases: list[ad.Tensor]
    classifier: ad.Tensor
    t_ce: float
    t_re: float


def _xavier_uniform(rng: SeededRng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: ModelConfig, rng: SeededRng) -> ModelState:
    """Build a fresh state: scaled symmetric uniform weights, zero biases."""
    config.validate()
    dims = (config.input_dim,) + tuple(config.hidden_dims) + (config.feature_dim,)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(_xavier_uniform(rng, d_in, d_out, (d_in, d_out)))
        biases.append(np.zeros(d_out))
    classifier = _xavier_uniform(
        rng, config.feature_dim, config.n_classes, (config.n_classes, config.feature_dim)
    )
    return ModelState(
        weights=weights,
        biases=biases,
        classifier=classifier,
        t_ce=float(config.t_ce),
        t_re=float(config.t_re),
    )


def clone_state(m: ModelState) -> ModelState:
    """Deep copy; used to spawn the teacher as an exact student copy."""
    return state_from_arrays(state_arrays(m), m.t_ce, m.t_re)


def features_of(model_like, x_rows):
    """Batch feature forward pass; works on ModelState (numpy) or ParamTensors (graph)."""
    h = x_rows
    last = len(model_like.weights) - 1
    for i, (w, b) in enumerate(zip(model_like.weights, model_like.biases)):
        h = ad.add(ad.matmul(h, w), b)
        if i < last:
            h = ad.tanh(h)
    return h


def probs_of(model_like, feature_rows):
    """Cosine-head class probabilities for a batch of raw features."""
    w_norm = ad.normalize_rows(model_like.classifier)
    logits = ad.matmul(ad.normalize_rows(feature_rows), w_norm, transpose_b=True)
    return ad.softmax_rows(logits, model_like.t_ce)


def lift_params(m: ModelState) -> ParamTensors:
    """Wrap every state array in a gradient-requiring tensor."""
    return ParamTensors(
        weights=[ad.Tensor(w, requires_grad=True) for w in m.weights],
        biases=[ad.Tensor(b, requires_grad=True) for b in m.biases],
        classifier=ad.Tensor(m.classifier, requires_grad=True),
        t_ce=m.t_ce,
        t_re=m.t_re,
    )


def tape_from(params: ParamTensors) -> dict[str, np.ndarray]:
    """Gradients keyed like state_arrays; zero-filled for untouched parameters."""
    return {name: t.grad if t.grad is not None else np.zeros(t.value.shape)
            for name, t in state_arrays(params).items()}


def compute_gradients(m: ModelState, loss_fn) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of loss_fn(params) with respect to m.

    loss_fn receives a ParamTensors view and must return a scalar. A loss
    that never touches the parameters (a plain number) yields zero gradients.
    """
    params = lift_params(m)
    loss = loss_fn(params)
    if isinstance(loss, ad.Tensor):
        loss.backward()
    return tape_from(params)


def ema_update(teacher: ModelState, student: ModelState, decay: float) -> ModelState:
    """Exponential moving average update of the teacher, in place.

    Every teacher array moves to decay * teacher + (1 - decay) * student.
    """
    if not 0.0 <= decay < 1.0:
        raise ValueError("decay must lie in [0, 1)")
    t_arrays, s_arrays = state_arrays(teacher), state_arrays(student)
    if t_arrays.keys() != s_arrays.keys() or any(
            arr.shape != s_arrays[name].shape for name, arr in t_arrays.items()):
        raise ShapeMismatchError("teacher and student shapes differ")
    for name, t_arr in t_arrays.items():
        t_arr[...] = decay * t_arr + (1.0 - decay) * s_arrays[name]
    return teacher


# Flat parameter-vector helpers for the finite-difference oracle.

def get_param_vector(m: ModelState) -> np.ndarray:
    return np.concatenate([arr.ravel() for arr in state_arrays(m).values()])


def with_param_vector(m: ModelState, vec: np.ndarray) -> ModelState:
    """m's layout and temperatures with the parameters of vec.

    A (B, P) stack of vectors gives a stacked state, for the numpy forward
    path only: each array gets a leading axis of B, and each bias is stored
    as a (B, 1, d) stack of rows, so x @ W + b broadcasts per vector.
    """
    vec = np.asarray(vec, dtype=np.float64)
    arrays = state_arrays(m)
    if vec.ndim not in (1, 2) or vec.shape[-1] != sum(arr.size for arr in arrays.values()):
        raise ShapeMismatchError("parameter vector length mismatch")
    lead = vec.shape[:-1]
    pieces, offset = {}, 0
    for name, arr in arrays.items():
        shape = arr.shape if arr.ndim == 2 or not lead else (1,) + arr.shape
        pieces[name] = vec[..., offset : offset + arr.size].reshape(lead + shape)
        offset += arr.size
    return state_from_arrays(pieces, m.t_ce, m.t_re)


@functools.cache
def _array_names(prefix: str, n_layers: int) -> tuple[tuple[tuple[str, str], ...], str]:
    """The state_arrays keys, built once per (prefix, layer count): a
    (weight, bias) name pair per layer, then the classifier's name."""
    layers = tuple((f"{prefix}layer{i}.weight", f"{prefix}layer{i}.bias")
                   for i in range(n_layers))
    return layers, f"{prefix}classifier"


def state_arrays(m: ModelState, prefix: str = "") -> dict[str, np.ndarray]:
    """Named view of the arrays (or a ParamTensors' tensors): the one place
    that lists and orders them. Clones, the EMA, the flat parameter vector,
    gradients and checkpoints all follow it."""
    layer_names, classifier_name = _array_names(prefix, len(m.weights))
    out: dict[str, np.ndarray] = {}
    for (w_name, b_name), w, b in zip(layer_names, m.weights, m.biases):
        out[w_name] = w
        out[b_name] = b
    out[classifier_name] = m.classifier
    return out


def state_from_arrays(arrays: dict[str, np.ndarray], t_ce: float, t_re: float,
                      prefix: str = "") -> ModelState:
    weights, biases = [], []
    i = 0
    while f"{prefix}layer{i}.weight" in arrays:
        weights.append(np.array(arrays[f"{prefix}layer{i}.weight"], dtype=np.float64))
        biases.append(np.array(arrays[f"{prefix}layer{i}.bias"], dtype=np.float64))
        i += 1
    if not weights:
        raise ShapeMismatchError("no layer arrays found for prefix " + repr(prefix))
    classifier = np.array(arrays[f"{prefix}classifier"], dtype=np.float64)
    return ModelState(weights=weights, biases=biases, classifier=classifier,
                      t_ce=float(t_ce), t_re=float(t_re))


def states_allclose(a: ModelState, b: ModelState) -> bool:
    """Whether two states have equal shapes and equal values."""
    x, y = state_arrays(a), state_arrays(b)
    return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)


__all__ = [
    "ModelConfig", "ModelState", "ParamTensors",
    "init_model", "clone_state", "features_of", "probs_of",
    "lift_params", "tape_from", "compute_gradients", "ema_update",
    "get_param_vector", "with_param_vector", "state_arrays",
    "state_from_arrays", "states_allclose",
]
