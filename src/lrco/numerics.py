"""Float64 vector primitives, seeded randomness, and the finite-difference gradient oracle.

Everything here is deliberately small and boring: row-wise temperature
softmax, l2 normalization and log-sum-exp, a Beta sampler built from Gamma
draws, plus a central-difference gradient used as the independent check on
every analytic gradient in the package.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from .errors import DegenerateFeatureError

# Norm below which a vector has no usable direction. Callers get an error,
# never a silently clamped result.
NORM_EPS = 1e-12


# Row-wise workhorses shared with the autodiff layer. They operate along the
# last axis, accept 1-D or 2-D input, and skip argument validation. They call
# the ufuncs' reduce directly: np.sum, np.max and np.any run the same loop on
# the same operands after a layer of Python argument handling.

def softmax_last(v: np.ndarray, temperature: float) -> np.ndarray:
    """Divides by the temperature before the max shift, so
    softmax_last(v, T) equals softmax_last(v / T, 1) bit for bit."""
    z = v / temperature
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def norm_last(v: np.ndarray) -> np.ndarray:
    """l2 norm along the last axis, kept as a length-1 axis.

    This is the formula np.linalg.norm applies to real input with axis=-1,
    so it gives the same bits, without that function's argument dispatch.
    """
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))


def unit_last(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v / norms, norms) with norm_last's norms; a row whose norm is below
    NORM_EPS, or whose norm overflows to inf (v / inf would be a zero row),
    raises DegenerateFeatureError. A NaN row passes, and its NaN reaches
    whatever reads the result."""
    n = norm_last(v)
    if np.logical_or.reduce(n < NORM_EPS, axis=None):
        raise DegenerateFeatureError(
            f"cannot normalize vector with norm below {NORM_EPS}"
        )
    if np.logical_or.reduce(n == np.inf, axis=None):
        raise DegenerateFeatureError("cannot normalize vector whose norm overflows to inf")
    return v / n, n


def normalize_last(v: np.ndarray) -> np.ndarray:
    return unit_last(v)[0]


def logsumexp_last(v: np.ndarray) -> np.ndarray:
    m = np.maximum.reduce(v, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.add.reduce(np.exp(v - m), axis=-1))


class SeededRng:
    """Deterministic random stream with labeled sub-stream derivation.

    A run owns a single root stream; every consumer (augmentation, shuffling,
    mix draws, init) derives its own child via substream(label), so streams
    never interleave and the whole run is reproducible from one 64-bit seed.
    """

    def __init__(self, seed: int, _lineage: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._lineage = tuple(int(x) for x in _lineage)
        self._generator: np.random.Generator | None = None

    @property
    def _gen(self) -> np.random.Generator:
        """Built on the first draw, so a stream used only to derive
        substreams never seeds a generator of its own."""
        if self._generator is None:
            entropy = (self.seed,) + self._lineage
            self._generator = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy))
            )
        return self._generator

    def substream(self, label: str) -> "SeededRng":
        """Derive an independent child stream keyed by a stable label hash."""
        key = int.from_bytes(
            hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little"
        )
        return SeededRng(self.seed, self._lineage + (key,))

    # Draw helpers; all delegate to the underlying generator.

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def standard_gamma(self, shape_param: float, size=None):
        return self._gen.standard_gamma(shape_param, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def sample_beta(alpha: float, rng: SeededRng, n: int) -> np.ndarray:
    """Draw n values from Beta(alpha, alpha), clamped to the open interval (0, 1).

    Value i is x_i / (x_i + y_i) of two Gamma(alpha) draws, taken from the
    stream as x_0, y_0, x_1, y_1, ...; alpha = 1 short-circuits to one uniform
    draw per value since Beta(1, 1) is uniform. Rows whose two Gamma draws
    both underflow to 0 (only possible for tiny alpha) are redrawn after the
    batch, in row order.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if alpha == 1.0:
        lam = rng.uniform(size=n)
    else:
        xy = rng.standard_gamma(alpha, size=(n, 2))
        bad = (np.add.reduce(xy, axis=1) == 0.0).nonzero()[0]
        while bad.size:
            xy[bad] = rng.standard_gamma(alpha, size=(bad.size, 2))
            bad = bad[np.add.reduce(xy[bad], axis=1) == 0.0]
        lam = xy[:, 0] / (xy[:, 0] + xy[:, 1])
    return np.minimum(np.maximum(lam, 1e-12), 1.0 - 1e-12)


def finite_diff_grad(f: Callable[[np.ndarray], object], p, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a function at a parameter vector.

    ``f`` is called once, on the (2P, P) stack of perturbed vectors: row i
    is p with h added to entry i, row P + i is p with h subtracted from it.
    It returns one value per row, shape (2P,), giving a gradient of shape
    (P,), or K values per row, shape (2P, K), giving a (P, K) Jacobian whose
    column k equals, bit for bit, the gradient of the k-th value alone. So
    several functions of the same parameters share one pass over the
    perturbed vectors. Any other shape raises ValueError.

    This is the oracle side of every gradient check in the package; it must
    stay independent of the autodiff layer.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("finite_diff_grad expects a 1-D parameter vector")
    if not h > 0:
        raise ValueError("step size h must be positive")
    n = p.size
    # In place on the diagonal, so every other entry keeps p's bits (-0.0 too).
    stack = np.tile(p, (2 * n, 1))
    diag = np.arange(n)
    stack[diag, diag] += h
    stack[n + diag, diag] -= h
    values = np.asarray(f(stack), dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[0] != 2 * n:
        raise ValueError(
            f"f must return one value or one row of values per perturbed vector, "
            f"shape ({2 * n},) or ({2 * n}, K); got {values.shape}"
        )
    return (values[:n] - values[n:]) / (2.0 * h)


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-wise relative disagreement between two gradients."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom
