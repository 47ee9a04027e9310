"""Dense linear algebra, quantile functions, and reproducible RNG streams.

Everything here is a pure function of its inputs; RngStream is the one
stateful-looking object and it is a frozen address, not a mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "RngStream",
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
    x = as_matrix(x, "X")
    if not np.any(x):
        return np.zeros((x.shape[1], x.shape[0]))
    return np.linalg.pinv(x, rcond=1e-12)


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
