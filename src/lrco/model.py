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
    """Autodiff view of a checked ModelState: a parameter leaf per array."""

    weights: list[ad.Tensor]
    biases: list[ad.Tensor]
    classifier: ad.Tensor
    t_ce: float
    t_re: float
    grad: np.ndarray | None = None  # the flat vector the leaves' grads are views of
    state: ModelState | None = None  # the state whose params the leaves' values view
    leaves: tuple[ad.Tensor, ...] = ()  # every leaf, in state_arrays order


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


def features_vjp(m: ModelState, x_rows):
    """(features, grad): the batch feature forward pass of a state (stacked
    ones included), h @ W + b through each layer with tanh between layers
    and none after the last; on an unstacked state, grad(g) lists the
    gradients of m's weights and biases, in state_arrays order, when the
    features get g. It replays the op chain matmul, add, tanh with the same
    expressions, from the top layer down."""
    h = np.asarray(x_rows, dtype=np.float64)
    hs = [h]  # each layer's input, then the features
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
        hs.append(h)

    def grad(g):
        out = [None] * (2 * last + 2)
        for i in range(last, -1, -1):
            out[2 * i + 1] = np.add.reduce(g, axis=0)
            out[2 * i] = hs[i].T @ g
            if i:  # through the tanh below, to the layer under it
                g = (g @ m.weights[i].T) * (1.0 - hs[i] * hs[i])
        return out

    return h, grad


def features_of(m: ModelState, x_rows) -> np.ndarray:
    """The features of features_vjp alone."""
    return features_vjp(m, x_rows)[0]


def probs_vjp(m: ModelState, feature_rows: np.ndarray, rows: slice | None = None,
              classifier_unit=None):
    """(probabilities, grad): the temperature-t_ce softmax of the cosines
    between each raw feature row and each classifier row, stacks included;
    on unstacked values, grad(g) is (the classifier's gradient, the feature
    rows' gradient) when the probabilities get g, replaying the op chain
    normalize_rows (classifier and features), matmul(transpose_b),
    softmax_rows with the same expressions.

    ``rows`` reads only that range of the feature rows, as take_rows would;
    the other rows get a zero gradient. ``classifier_unit`` is
    unit_last(m.classifier) when the caller has it.
    """
    w_unit, w_norms = unit_last(m.classifier) if classifier_unit is None else classifier_unit
    f_unit, f_norms = unit_last(feature_rows if rows is None
                                else ad.row_block(feature_rows, rows))
    y = softmax_last(f_unit @ w_unit.mT, m.t_ce)

    def grad(g):
        g_cos = ad.softmax_grad(g, y, m.t_ce)
        g_f = ad.normalize_grad(g_cos @ w_unit, f_unit, f_norms)
        if rows is not None:
            g_all = np.zeros(feature_rows.shape)
            g_all[rows] = g_f
            g_f = g_all
        return ad.normalize_grad(g_cos.T @ f_unit, w_unit, w_norms), g_f

    return y, grad


def probs_of(m: ModelState, feature_rows: np.ndarray, classifier_unit=None):
    """The class probabilities of probs_vjp alone, for every feature row."""
    return probs_vjp(m, feature_rows, classifier_unit=classifier_unit)[0]


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
    leaves = tuple(ad.Tensor(value) for value in state_arrays(m).values())
    for leaf, grad_view in zip(leaves, _cut(grad, m.layout)):
        leaf.grad = grad_view
    return ParamTensors(weights=list(leaves[:-1:2]), biases=list(leaves[1:-1:2]),
                        classifier=leaves[-1], t_ce=m.t_ce, t_re=m.t_re, grad=grad, state=m,
                        leaves=leaves)


def tape_from(params: ParamTensors) -> np.ndarray:
    """The flat gradient vector, laid out like params; zero where no gradient came."""
    return params.grad


def compute_gradients(m: ModelState, loss_fn):
    """Exact reverse-mode gradients of loss_fn(params) with respect to m, as
    one vector laid out like m.params; loss_fn receives a ParamTensors view.

    loss_fn returns a scalar, or a list of them: then one vector per root,
    each backpropagated into a gradient vector refilled with zeros, so one
    forward pass serves every root. A plain number yields zero gradients.
    """
    params = lift_params(m)
    loss = loss_fn(params)
    grads = []
    for root in loss if isinstance(loss, list) else [loss]:
        params.grad.fill(0.0)
        if isinstance(root, ad.Tensor):
            root.backward()
        grads.append(tape_from(params).copy())
    return grads if isinstance(loss, list) else grads[0]


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
    arrays that do not form one model raise ShapeMismatchError, and complex
    ones, which float64 does not hold by kind, TypeError."""
    n_layers = next(i for i in itertools.count() if f"{prefix}layer{i}.weight" not in arrays)
    layer_names, classifier_name = _array_names(prefix, n_layers)
    picked = [np.asarray(arrays[name]).astype(np.float64, casting="same_kind")
              for name in (*itertools.chain(*layer_names), classifier_name)]
    return ModelState(np.concatenate([arr.ravel() for arr in picked]),
                      tuple(arr.shape for arr in picked), t_ce, t_re)


__all__ = [
    "ModelConfig", "ModelState", "ParamTensors",
    "init_model", "clone_state", "features_of", "features_vjp", "probs_of", "probs_vjp",
    "lift_params", "tape_from", "compute_gradients", "ema_update",
    "get_param_vector", "with_param_vector", "state_arrays",
    "state_from_arrays",
]
