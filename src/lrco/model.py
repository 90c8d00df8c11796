"""Feature extractor plus cosine-similarity classifier head, with exact gradients.

The network is a small MLP: tanh on hidden layers, identity on the feature
output. Classification normalizes both the feature and each classifier row,
takes their dot products, and pushes them through a temperature softmax. The
classifier rows are stored raw and normalized at use time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatchError, check_domains, within
from .numerics import SeededRng, softmax_last, unit_last


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description used by init_model, whose state checks the temperatures."""

    input_dim: int = within("[1, 2147483647]")
    hidden_dims: tuple[int, ...] = within("[1, 2147483647]")
    feature_dim: int = within("[2, 2147483647]")
    n_classes: int = within("[2, 2147483647]")
    t_ce: float
    t_re: float

    def validate(self) -> None:
        check_domains(self)

    def layout(self) -> tuple[tuple[int, ...], ...]:
        """The shape of each array of the model, in state_arrays order."""
        dims = (self.input_dim, *self.hidden_dims, self.feature_dim)
        return _mlp_layout(dims, self.n_classes)


@dataclass
class ModelState:
    """All learnable arrays, as views of one float64 vector params cut by
    layout (each array's shape, in state_arrays order), plus the two
    temperatures, which every state refuses outside (0, inf) when built.
    weights[i] has shape (d_in, d_out) so a batch forward is x @ W + b;
    classifier has shape (n_classes, feature_dim). A (B, P) params is a
    stack of B states for the numpy forward path (see _cut)."""

    params: np.ndarray
    layout: tuple[tuple[int, ...], ...]
    t_ce: float = within("(0, inf)")
    t_re: float = within("(0, inf)")
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    classifier: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        self.t_ce, self.t_re = float(self.t_ce), float(self.t_re)
        views = _cut(self.params, self.layout)
        self.weights, self.biases, self.classifier = views[:-1:2], views[1:-1:2], views[-1]
        check_domains(self)  # after the views: it reads every field

    def __reduce__(self):
        # pickle and deepcopy rebuild the views from params, so they stay views
        return ModelState, (self.params, self.layout, self.t_ce, self.t_re)

    @property
    def n_classes(self) -> int:
        return self.layout[-1][0]

    @property
    def feature_dim(self) -> int:
        return self.layout[-1][1]

    @property
    def input_dim(self) -> int:
        return self.layout[0][0]


@dataclass
class ParamTensors:
    """Autodiff view of a checked ModelState; duck-compatible with it for forward code."""

    weights: list[ad.Tensor]
    biases: list[ad.Tensor]
    classifier: ad.Tensor
    t_ce: float
    t_re: float
    grad: np.ndarray | None = None  # the flat vector the leaves' grads are views of
    state: ModelState | None = None  # the state whose params the leaves' values view


def _mlp_layout(dims: tuple[int, ...], n_classes: int) -> tuple[tuple[int, ...], ...]:
    """The array shapes, in state_arrays order, of an MLP through widths dims."""
    layers = (((d_in, d_out), (d_out,)) for d_in, d_out in zip(dims, dims[1:]))
    return (*itertools.chain(*layers), (n_classes, dims[-1]))


@functools.cache
def _spans(layout: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int, tuple, tuple], ...]:
    """(start, stop, shape, stacked shape) of each array of layout in the flat
    vector; a layout that is not one model's raises ShapeMismatchError."""
    weights, classifier = layout[:-1:2], layout[-1]
    if not (len(layout) % 2 and len(layout) > 1
            and all(len(shape) == 2 for shape in (*weights, classifier))
            and layout == _mlp_layout((weights[0][0], *(w[1] for w in weights)),
                                      classifier[0])):
        raise ShapeMismatchError(f"arrays of shapes {list(layout)} do not form one model")
    stops = tuple(itertools.accumulate(math.prod(shape) for shape in layout))
    stacked = ((-1, 1, *shape) if len(shape) == 1 else (-1, *shape) for shape in layout)
    return tuple(zip((0,) + stops, stops, layout, stacked))


def _cut(vec: np.ndarray, layout) -> list[np.ndarray]:
    """Views of vec's last axis, one per array of layout: the one place that
    lays a state's arrays out in its flat vector. A (B, P) vec stacks each
    array on a leading axis of B, a bias as (B, 1, d)."""
    spans = _spans(layout)
    if vec.shape[-1:] != (spans[-1][1],) or vec.ndim > 2:
        raise ShapeMismatchError("parameter vector length mismatch")
    if vec.ndim == 1:
        return [vec[start:stop].reshape(shape) for start, stop, shape, _ in spans]
    return [vec[:, start:stop].reshape(stacked) for start, stop, _, stacked in spans]


def _xavier_uniform(rng: SeededRng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: ModelConfig, rng: SeededRng) -> ModelState:
    """Build a fresh state: scaled symmetric uniform weights, zero biases."""
    config.validate()
    layout = config.layout()
    m = ModelState(np.zeros(sum(map(math.prod, layout))), layout, config.t_ce, config.t_re)
    for w in m.weights:
        w[...] = _xavier_uniform(rng, *w.shape, w.shape)
    m.classifier[...] = _xavier_uniform(rng, *m.classifier.shape[::-1], m.classifier.shape)
    return m


def clone_state(m: ModelState) -> ModelState:
    """Deep copy; used to spawn the teacher as an exact student copy."""
    return ModelState(m.params.copy(), m.layout, m.t_ce, m.t_re)


def features_of(model_like, x_rows):
    """Batch feature forward pass: h @ W + b through each layer, with tanh
    between layers and none after the last.

    One graph node when the model holds tensors (ParamTensors), whose parents
    are the weight and bias leaves; the input rows are a constant. On a
    ModelState, stacked ones included, it returns the value as a plain array.
    Its backward replays the op chain matmul, add, tanh layer by layer with
    the same expressions, from the top layer down.
    """
    weights, biases = model_like.weights, model_like.biases
    graph = ad.is_tensor(weights[0])
    h = ad.value_of(x_rows)
    hs = [h]  # each layer's input, then the features
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        if graph:
            w, b = w.value, b.value
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
        hs.append(h)
    if not graph:
        return h

    def backward_fn(g):
        for i in range(last, -1, -1):
            biases[i].accumulate(np.add.reduce(g, axis=0))
            weights[i].accumulate(hs[i].T @ g)
            if i:  # through the tanh node below, to the layer under it
                g = (g @ weights[i].value.T) * (1.0 - hs[i] * hs[i])

    return ad.Tensor(h, (*weights, *biases), backward_fn)


def unit_classifier(model_like) -> tuple[np.ndarray, np.ndarray]:
    """(unit rows, norms) of the model's classifier, computed once a step for
    every reader of it: probs_of and the re-represented rows."""
    return unit_last(ad.value_of(model_like.classifier))


def probs_of(model_like, feature_rows, rows: slice | None = None, classifier_unit=None):
    """Cosine-head class probabilities for a batch of raw features: the
    temperature-t_ce softmax of the cosines between each feature row and each
    classifier row.

    ``rows`` reads only that range of the feature rows; their gradient goes
    into that range of feature_rows, which the other rows leave at zero.
    ``classifier_unit`` is unit_classifier(model_like) when the caller has it.

    A graph node when feature_rows is a Tensor, and then the classifier must
    be one too; its value serves both dispatch paths and the numpy stack
    axis. Its backward replays the op chain (take_rows for a range),
    normalize_rows (classifier and features), matmul(transpose_b),
    softmax_rows with the same expressions, into the feature rows and the
    classifier.
    """
    classifier = model_like.classifier
    w_unit, w_norms = (unit_last(ad.value_of(classifier)) if classifier_unit is None
                       else classifier_unit)
    f_all = ad.value_of(feature_rows)
    f_unit, f_norms = unit_last(f_all if rows is None else ad.row_block(f_all, rows))
    t = model_like.t_ce
    y = softmax_last(f_unit @ w_unit.mT, t)
    if not ad.is_tensor(feature_rows):
        return y

    def backward_fn(g):
        g_cos = ad.softmax_grad(g, y, t)
        g_f = ad.normalize_grad(g_cos @ w_unit, f_unit, f_norms)
        if rows is None:
            feature_rows.accumulate(g_f)
        else:
            g_all = np.zeros(f_all.shape)
            g_all[rows] = g_f
            feature_rows.accumulate(g_all)
        classifier.accumulate(ad.normalize_grad(g_cos.T @ f_unit, w_unit, w_norms))

    return ad.Tensor(y, (feature_rows, classifier), backward_fn)


def lift_params(m: ModelState) -> ParamTensors:
    """Wrap every state array in a parameter leaf. Each leaf's
    grad starts as a zero view of one flat vector, so backward sums the
    gradients into it (0.0 + g has the bits of g + 0.0, -0.0 included).

    Each call returns new leaves and a new gradient vector. The leaves'
    values are views of m.params, so they follow in-place updates of m, and
    one lift serves any number of backward passes when the gradient vector
    is refilled with zeros before each (grad.fill(0.0) gives the bits of
    np.zeros)."""
    grad = np.zeros(m.params.shape)
    leaves = [ad.Tensor(value) for value in state_arrays(m).values()]
    for leaf, grad_view in zip(leaves, _cut(grad, m.layout)):
        leaf.grad = grad_view
    return ParamTensors(weights=leaves[:-1:2], biases=leaves[1:-1:2], classifier=leaves[-1],
                        t_ce=m.t_ce, t_re=m.t_re, grad=grad, state=m)


def tape_from(params: ParamTensors) -> np.ndarray:
    """The flat gradient vector, laid out like params; zero where no gradient came."""
    return params.grad


def compute_gradients(m: ModelState, loss_fn) -> np.ndarray:
    """Exact reverse-mode gradients of loss_fn(params) with respect to m, as
    one vector laid out like m.params.

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

    The teacher's parameters move to decay * teacher + (1 - decay) * student.
    """
    if not 0.0 <= decay < 1.0:
        raise ValueError("decay must lie in [0, 1)")
    if teacher.layout != student.layout:
        raise ShapeMismatchError("teacher and student shapes differ")
    teacher.params *= decay
    teacher.params += (1.0 - decay) * student.params
    return teacher


def get_param_vector(m: ModelState) -> np.ndarray:
    return m.params.copy()


def with_param_vector(m: ModelState, vec: np.ndarray) -> ModelState:
    """m's layout and temperatures with the parameters of vec, whose memory
    the state shares when vec is a contiguous float64 array. A (B, P) stack
    of vectors gives a stacked state, for the numpy forward path only."""
    return ModelState(vec, m.layout, m.t_ce, m.t_re)


@functools.cache
def _array_names(prefix: str, n_layers: int) -> tuple[tuple[tuple[str, str], ...], str]:
    """The state_arrays keys, built once per (prefix, layer count): a
    (weight, bias) name pair per layer, then the classifier's name."""
    layers = tuple((f"{prefix}layer{i}.weight", f"{prefix}layer{i}.bias")
                   for i in range(n_layers))
    return layers, f"{prefix}classifier"


def state_arrays(m: ModelState, prefix: str = "") -> dict[str, np.ndarray]:
    """Named view of the arrays (or a ParamTensors' tensors): the one place
    that names them, in the order the flat vector lays them out. Checkpoints
    follow it."""
    layer_names, classifier_name = _array_names(prefix, len(m.weights))
    out: dict[str, np.ndarray] = {}
    for (w_name, b_name), w, b in zip(layer_names, m.weights, m.biases):
        out[w_name] = w
        out[b_name] = b
    out[classifier_name] = m.classifier
    return out


def state_from_arrays(arrays: dict[str, np.ndarray], t_ce: float, t_re: float,
                      prefix: str = "") -> ModelState:
    """A state holding a copy of the arrays named like state_arrays(_, prefix);
    arrays that do not form one model raise ShapeMismatchError."""
    n_layers = next(i for i in itertools.count() if f"{prefix}layer{i}.weight" not in arrays)
    layer_names, classifier_name = _array_names(prefix, n_layers)
    picked = [np.asarray(arrays[name], dtype=np.float64)
              for name in (*itertools.chain(*layer_names), classifier_name)]
    return ModelState(np.concatenate([arr.ravel() for arr in picked]),
                      tuple(arr.shape for arr in picked), t_ce, t_re)


__all__ = [
    "ModelConfig", "ModelState", "ParamTensors",
    "init_model", "clone_state", "features_of", "probs_of", "unit_classifier",
    "lift_params", "tape_from", "compute_gradients", "ema_update",
    "get_param_vector", "with_param_vector", "state_arrays",
    "state_from_arrays",
]
