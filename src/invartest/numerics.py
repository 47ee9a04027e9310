"""Dense linear algebra, quantile functions, and reproducible RNG streams.

Everything here is a pure function of its inputs; RngStream is the one
stateful-looking object and it is a frozen address, not a mutable state.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special

__all__ = [
    "check_integer",
    "RngStream",
    "stream_generators",
    "as_generator",
    "as_matrix",
    "as_vector",
    "qr_orthonormalize",
    "operator_norm",
    "pseudo_inverse",
    "normal_quantile",
    "normal_cdf",
    "student_t_quantile",
    "sample_chi2",
    "sample_f",
]


def check_integer(name: str, value, low: int) -> None:
    """Refuse a ``value`` of ``name`` that is a bool, not an integer or
    below ``low``, naming both; a NumPy integer is an integer. The package's
    one rule for a count, applied by the function that reads it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        what = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream.

    Same (seed, stream_id, path) always yields the same sample sequence, no
    matter which thread or worker draws it.  Distinct stream ids (or child
    paths) give statistically independent streams via SeedSequence spawning.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, *self.path)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "RngStream":
        """Derived independent stream, e.g. one per randomization method."""
        return RngStream(self.seed, self.stream_id, self.path + (index,))


# SeedSequence's hash constants (O'Neill's seed_seq mixing, as NumPy writes it)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hash_consts(start: int, mult: int, count: int) -> list[int]:
    """start, start * mult, ..., the count + 1 hash constants of count steps."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _mix(x, y):
    """mix on Python ints or on uint32 arrays, which wrap mod 2**32."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


class _FixedState(ISeedSequence):
    """A seed sequence whose only state is a precomputed
    ``generate_state(4, np.uint64)``, the one call PCG64 makes."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed state only answers generate_state(4, np.uint64)")
        return self.state


def stream_generators(seed: int, keys) -> Iterator[np.random.Generator]:
    """The generators of ``SeedSequence(seed, spawn_key=key)`` for each row of
    keys, bit for bit, with the entropy hash computed for all rows at once.
    Each generator is built when the iterator reaches it, so a caller that
    uses them in turn holds one at a time.

    keys is an (n, length) array of spawn keys, every entry in [0, 2**32), so
    that each entry is one 32-bit word; row (u, *path) gives the stream of
    ``RngStream(seed, u, tuple(path)).generator()``.  The seed fills the
    pool on its own (SeedSequence pads it to the pool size before a spawn
    key), so NumPy's ``SeedSequence(seed).pool`` mixes it; only the key
    words are mixed here, as array arithmetic.
    """
    check_integer("seed", seed, 0)
    seed = operator.index(seed)
    keys = np.asarray(keys)
    if keys.ndim != 2:
        raise ValueError(f"keys must be an (n, length) array, got ndim={keys.ndim}")
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("spawn-key entries must lie in [0, 2**32)")
    if keys.size and keys.dtype.kind not in "iu":
        raise ValueError(f"spawn-key entries must be integers, got {keys.dtype}")
    # NumPy mixes the seed into the pool: its 32-bit words, padded to the
    # pool size, take _POOL hashmix constants each; each key word then takes
    # _POOL more and mixes into every pool word, for all rows at once
    seed_words = max(_POOL, -(-seed.bit_length() // 32))
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * (seed_words + keys.shape[1]))
    mixer = np.random.SeedSequence(seed).pool[:, None]
    for j, col in enumerate(keys.T.astype(np.uint32)):
        at = _POOL * (seed_words + j)
        c = np.array(consts[at:at + _POOL + 1], dtype=np.uint32)[:, None]
        h = (col ^ c[:-1]) * c[1:]
        mixer = _mix(mixer, h ^ h >> 16)
    b = np.array(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)[:, None]
    out = (np.concatenate([mixer, mixer]) ^ b[:-1]) * b[1:]  # generate_state's 8 words
    out ^= out >> 16
    out = np.broadcast_to(out.astype(np.uint64), (2 * _POOL, keys.shape[0]))
    states = np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)
    return (np.random.Generator(np.random.PCG64(_FixedState(s))) for s in states)


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either a stream address or a live generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def as_matrix(x, name: str = "X") -> np.ndarray:
    """Validate an n-by-p data matrix: 2d, nonempty, finite float entries.

    1d input is viewed as a single-column matrix (a p=1 vector).
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"{name} must be a vector or a 2d matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(x, name: str = "x") -> np.ndarray:
    """Validate a 1d real vector with finite entries."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 2 and 1 in a.shape:
        a = a.ravel()
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if a.size < 1:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def qr_orthonormalize(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization with the R diagonal forced positive, of a
    square or tall matrix or of a stack of them (leading axes).

    The sign correction makes the factorization unique and is what turns a
    Gaussian matrix into a Haar-distributed orthogonal factor downstream
    (for a tall p x n Gaussian, a uniform point on the Stiefel manifold).
    A stack is factored matrix by matrix, bitwise as one call per matrix.

    Raises ValueError if any matrix is (numerically) rank-deficient.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 3:
        a = as_matrix(a, "A")
    rows, cols = a.shape[-2:]
    if rows < cols:
        raise ValueError(f"A must be square or tall, got {rows}x{cols}")
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    scale = np.linalg.norm(a, axis=(-2, -1))
    if np.any(np.abs(diag) < 1e-12 * scale[..., None]) or np.any(scale == 0.0):
        raise ValueError("degenerate QR input")
    signs = np.sign(diag)
    return q * signs[..., None, :], r * signs[..., :, None]


def operator_norm(a) -> float:
    """Largest singular value, from the SVD: the independent reference for
    the ``opnorm`` statistic's Gram evaluation."""
    return float(np.linalg.svd(as_matrix(a, "A"), compute_uv=False)[0])


def pseudo_inverse(x) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below
    1e-12 * sigma_max treated as zero."""
    return np.linalg.pinv(as_matrix(x, "X"), rcond=1e-12)


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return float(special.ndtr(z))


def normal_quantile(u: float) -> float:
    """Inverse standard normal CDF."""
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    return float(special.ndtri(u))


def student_t_quantile(u: float, df: float) -> float:
    """Inverse CDF of Student's t with df degrees of freedom."""
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return float(special.stdtrit(df, u))


def sample_chi2(df: float, size, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Chi-squared draws: sum of squared normals for small integer df,
    a gamma sampler otherwise (identical in distribution)."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    gen = as_generator(rng)
    shape = (size,) if isinstance(size, int) else tuple(size)
    if float(df).is_integer() and df <= 16:
        z = gen.standard_normal((*shape, int(df)))
        if df >= 8:
            return np.sum(z * z, axis=-1)
        # np.sum adds fewer than 8 terms left to right, so this loop is
        # bitwise it, and cheaper than a reduction over a short last axis
        w = np.square(z[..., 0])
        for i in range(1, int(df)):
            w += np.square(z[..., i])
        return w
    return 2.0 * gen.standard_gamma(df / 2.0, size=shape)


def sample_f(d1: int, d2: int, size, rng: RngStream | np.random.Generator) -> np.ndarray:
    """F(d1, d2) draws as a ratio of scaled chi-squared variables."""
    gen = as_generator(rng)
    num = sample_chi2(d1, size, gen) / d1
    den = sample_chi2(d2, size, gen) / d2
    return num / den
