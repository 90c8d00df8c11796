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


# Row-wise workhorses shared with the autodiff and loss layers. They operate along the
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
    whatever reads the result: fmin and fmax, which decide, skip NaN."""
    n = norm_last(v)
    if np.fmin.reduce(n, axis=None, initial=np.inf) < NORM_EPS:
        raise DegenerateFeatureError(
            f"cannot normalize vector with norm below {NORM_EPS}"
        )
    if np.fmax.reduce(n, axis=None, initial=0.0) == np.inf:
        raise DegenerateFeatureError("cannot normalize vector whose norm overflows to inf")
    return v / n, n


def normalize_last(v: np.ndarray) -> np.ndarray:
    return unit_last(v)[0]


def logsumexp_last(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lse, e, s): the log-sum-exp of v along the last axis, with the
    shifted exponentials e = exp(v - max) it sums and their sums s, kept as
    a length-1 axis. e / s is softmax_last(v, 1.0) bit for bit: both take
    the same max, exp and sum."""
    m = np.maximum.reduce(v, axis=-1, keepdims=True)
    e = np.exp(v - m)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    return (m + np.log(s))[..., 0], e, s


def _uint32_words(n: int) -> tuple[int, ...]:
    """n's little-endian uint32 words, as numpy's SeedSequence splits an int
    of its entropy: 0 gives (0,); a negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return tuple(words)


class SeededRng:
    """Deterministic random stream with labeled sub-stream derivation.

    A run owns a single root stream; every consumer (augmentation, shuffling,
    mix draws, init) derives its own child via substream(label), so streams
    never interleave and the whole run is reproducible from one 64-bit seed.
    """

    def __init__(self, seed: int, _words: tuple[int, ...] | None = None):
        self.seed = int(seed)
        # numpy's SeedSequence((seed, *keys)) seeds from each int's
        # little-endian uint32 words, joined; keeping them lets a substream
        # append its key's words and the generator skip that conversion.
        self._words = _uint32_words(self.seed) if _words is None else _words
        self._generator: np.random.Generator | None = None

    @property
    def _gen(self) -> np.random.Generator:
        """Built on the first draw, so a stream used only to derive
        substreams never seeds a generator of its own."""
        if self._generator is None:
            entropy = np.array(self._words, dtype=np.uint32)
            self._generator = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy))
            )
        return self._generator

    def substream(self, label: str) -> "SeededRng":
        """Derive an independent child stream keyed by a stable label hash."""
        key = int.from_bytes(
            hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little"
        )
        return SeededRng(self.seed, self._words + _uint32_words(key))

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


# Redraw rounds sample_beta allows a row whose two Gamma draws underflowed.
BETA_REDRAWS = 1000


def sample_beta(alpha: float, rng: SeededRng, n: int) -> np.ndarray:
    """Draw n values from Beta(alpha, alpha), clamped to the open interval (0, 1).

    Value i is x_i / (x_i + y_i) of two Gamma(alpha) draws, taken from the
    stream as x_0, y_0, x_1, y_1, ...; alpha = 1 short-circuits to one uniform
    draw per value since Beta(1, 1) is uniform. Rows whose two Gamma draws
    both underflow to 0 are redrawn after the batch, in row order, for at
    most BETA_REDRAWS rounds; a row still at 0 then raises
    FloatingPointError. A Gamma(alpha) draw underflows with chance about
    exp(-744 alpha), so a row reaches the bound with chance about
    exp(-1489 alpha * (BETA_REDRAWS + 1)): below 1e-12 for alpha above 2e-5,
    and above 0.2 for alpha below 1e-6. The default alpha = 1 never redraws.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if alpha == 1.0:
        lam = rng.uniform(size=n)
    else:
        xy = rng.standard_gamma(alpha, size=(n, 2))
        bad = (np.add.reduce(xy, axis=1) == 0.0).nonzero()[0]
        for _ in range(BETA_REDRAWS):
            if not bad.size:
                break
            xy[bad] = rng.standard_gamma(alpha, size=(bad.size, 2))
            bad = bad[np.add.reduce(xy[bad], axis=1) == 0.0]
        if bad.size:
            raise FloatingPointError(
                f"sample_beta: alpha={alpha!r} is too small to draw from: both Gamma "
                f"draws of a row underflowed to 0 on {BETA_REDRAWS} redraws"
            )
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
