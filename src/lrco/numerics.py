"""Float64 vector primitives, seeded randomness, and the finite-difference gradient oracle.

Everything here is deliberately small and boring: row-wise temperature
softmax, l2 normalization and log-sum-exp, a Beta sampler built from Gamma
draws, numpy's SeedSequence mixing vectorized over many entropy rows and a
run's table of keyed streams seeded with it, plus a central-difference
gradient used as the independent check on every analytic gradient in the
package, and the one text format of a written float.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DegenerateFeatureError

# Norm below which a vector has no usable direction. Callers get an error,
# never a silently clamped result.
NORM_EPS = 1e-12

# The text of a float in every file the package writes: 17 significant digits
# read back as the same float64.
float_text = "{:.17g}".format


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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, hash multipliers for filling the pool (A) and reading it
# out (B), and the two multipliers of the pairwise mix.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 values c_0 = init, c_(i+1) = c_i * mult mod 2**32 that a
    SeedSequence hash constant takes: hash i xors with c_i, then multiplies
    by c_(i+1)."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


@functools.cache
def _mixing_plan(n_words: int) -> tuple:
    """_pool_states' hash constants for rows of n_words >= 4 words, split by
    its steps: the (xor, mul) arrays of the fill and of the readout, and per
    mixing step the word it reads, the pool words it writes and their
    (xor, mul) arrays."""
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + (n_words - _POOL) * _POOL)
    fill = (a[:_POOL], a[1:_POOL + 1])
    mixing, k = [], _POOL
    for src in range(_POOL):  # pool word src into each other pool word, in order
        dst = np.array([d for d in range(_POOL) if d != src])
        mixing.append((src, dst, a[k:k + _POOL - 1], a[k + 1:k + _POOL]))
        k += _POOL - 1
    extra = []
    for src in range(_POOL, n_words):  # each further word into all four
        extra.append((src, a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
        k += _POOL
    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    return fill, mixing, extra, (b[:-1], b[1:])


def _hashed(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of an
    (N, L) uint32 matrix with L >= 4, every row taken as all L of its words.

    SeedSequence hashes the first four words into its pool, mixes every pool
    word into every other, then mixes each further word into all four, and
    reads the pool out twice through a second hash. Every hash constant
    depends only on how many hashes came before, so each loop of the scalar
    code runs here as one array operation over the rows (and over the pool
    words that no step of it reads back). uint32 arrays wrap on overflow
    without a warning, as the scalar code's C arithmetic does."""
    fill, mixing, extra, readout = _mixing_plan(entropy.shape[1])
    pool = _hashed(entropy[:, :_POOL], *fill)
    for src, dst, xor, mul in mixing:
        pool[:, dst] = _mixed(pool[:, dst], _hashed(pool[:, src:src + 1], xor, mul))
    for src, xor, mul in extra:
        pool = _mixed(pool, _hashed(entropy[:, src:src + 1], xor, mul))
    out = _hashed(np.concatenate((pool, pool), axis=1), *readout)
    # Two uint32 words per uint64, low word first, as SeedSequence joins them.
    return out.astype("<u4").view("<u8").astype(np.uint64)


def seed_states(rows: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The (N, 4) uint64 PCG64 seed states of N entropy rows, row i equal to
    np.random.SeedSequence(rows[i]).generate_state(4, np.uint64) bit for bit.

    Each row is a tuple of 1 or more uint32 words. Rows are grouped by word
    count and each group is derived in one vectorized pass. A row of fewer
    than four words is filled out with zero words, as SeedSequence fills its
    pool, so all rows of up to four words form one group."""
    widths = [max(len(row), _POOL) for row in rows]
    width = max(widths, default=_POOL)
    entropy = np.array([row + (0,) * (width - len(row)) for row in rows],
                       dtype=np.uint32).reshape(len(rows), width)
    states = np.empty((len(rows), _POOL), dtype=np.uint64)
    row_widths = np.array(widths)
    for w in set(widths):
        idx = (row_widths == w).nonzero()[0]
        states[idx] = _pool_states(entropy[idx, :w])
    return states


class _DerivedSeed(ISeedSequence):
    """A seed sequence whose PCG64 seed state is already derived: PCG64 asks
    its seed sequence for generate_state(4, np.uint64) once, and gets it."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("a derived seed holds a PCG64 state: 4 uint64 words")
        return self.state


_KEY_WORDS = struct.Struct("<II")


def _key_words(label: str) -> tuple[int, ...]:
    """The uint32 words of a label's 64-bit key, its little-endian blake2b
    digest: _uint32_words of the key, one word when the key is below 2**32."""
    low, high = _KEY_WORDS.unpack(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest())
    return (low, high) if high else (low,)


class SeededRng(np.random.Generator):
    """numpy's Generator on a PCG64 stream named by a seed and labels.

    SeededRng(seed, *labels) is seeded by numpy's SeedSequence((seed, *keys)),
    each key the 64-bit hash of a label. Every consumer (augmentation,
    shuffling, mix draws, init) names its own stream, so streams never
    interleave and the whole run is reproducible from one 64-bit seed.
    substream(label) names a child by one more label: SeededRng(seed, "a",
    "b") is SeededRng(seed, "a").substream("b"). StepStreams seeds a run's
    many streams in one pass, each equal to the one its labels name.
    """

    def __init__(self, seed: int, *labels: str, _words: tuple[int, ...] | None = None,
                 _state: np.ndarray | None = None):
        self.seed = int(seed)
        # SeedSequence((seed, *keys)) seeds from each int's little-endian
        # uint32 words, joined; keeping them lets a substream append its
        # label's words, and seeding skip that conversion.
        words = _uint32_words(self.seed) if _words is None else _words
        self._words = words + sum(map(_key_words, labels), ())
        # _state: the PCG64 seed state of those words, when seed_states derived it.
        super().__init__(np.random.PCG64(
            np.random.SeedSequence(np.array(self._words, dtype=np.uint32))
            if _state is None else _DerivedSeed(_state)))

    def substream(self, label: str) -> "SeededRng":
        """The child stream named by one more label."""
        return SeededRng(self.seed, label, _words=self._words)


# Steps whose streams of one purpose StepStreams seeds in one pass.
STREAM_BLOCK = 128


class StepStreams:
    """A run's stream of (purpose, step): SeededRng(seed, f"{purpose}-{step}"),
    bit for bit, wherever block boundaries fall. A step counts training
    steps for the step streams and epochs for the shuffles.

    A lookup outside its purpose's current block seeds that purpose for the
    next STREAM_BLOCK steps, at most up to ``last_step``, in one seed_states
    pass. Only the block's entropy words and seed states are kept, and each
    lookup builds a fresh stream from them, so asking twice for one
    (purpose, step) gives the same draws twice, and no generator outlives
    its step."""

    def __init__(self, seed: int, last_step: int):
        self.seed = int(seed)
        self.last_step = last_step
        self._words = _uint32_words(self.seed)
        self._blocks: dict[str, tuple[int, list, np.ndarray]] = {}

    def __call__(self, purpose: str, step: int) -> SeededRng:
        first, words, states = self._blocks.get(purpose, (step, (), ()))
        i = step - first
        if not 0 <= i < len(words):
            first, i = step, 0
            n = max(1, min(STREAM_BLOCK, self.last_step - step + 1))
            words = [self._words + _key_words(f"{purpose}-{s}") for s in range(step, step + n)]
            states = seed_states(words)
            self._blocks[purpose] = (first, words, states)
        return SeededRng(self.seed, _words=words[i], _state=states[i])


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
