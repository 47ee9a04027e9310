"""Invariance groups: iid Haar draws and their actions on data.

Four kinds are supported, matching the scenarios in scope:

* ``signflip_rows``    diagonal +-1 matrices acting on the n rows
* ``permute_rows``     row permutations
* ``rotate_full``      one Haar orthogonal matrix on R^p, applied to a
                       p-vector or to each row of an n x p matrix
* ``rotate_per_column`` an independent rotation of R^n for every column

``GroupAction.randomize_batch`` draws K iid elements and returns their
images of the data. A rotation is never built as a matrix where the image
alone has the right law: wherever the data is a single vector (or an
independent column), the distributional identity O x =_d Z/||Z|| * ||x||
replaces the O(p^3) draw with an O(p) one, and a rotate_full on an n x p
matrix with 1 < n < p draws an n-frame of R^p instead of a p x p rotation.

A statistic of the row sums W X needs no images under the discrete kinds:
``GroupAction.randomize_weights`` returns the acted weights W G, whose sums
against X are those of the images G X.

This module is the only place that reads a random stream for a group
element. The helpers ``_signs``, ``_permutations``, ``_gaussian_rows``,
``_sphere_images``, ``_column_gaussians`` and ``_orthonormal_frames``
each fix one way of reading it: K sign vectors from one ``integers`` block,
K permutations as the argsort of one ``random`` block, and K images or K
Haar frames (the sign-fixed QR of a Gaussian stack; Mezzadri, Notices AMS,
2007) from one standard normal block.

A column-sphere image is made in two steps: ``_column_gaussians`` draws the
(K, n, p) normal block, and ``_scale_columns`` scales each Gaussian column
to the norm of the column it replaces. ``_column_sphere_images`` composes
the two. The scaling reads no stream and treats each slice alone, so a
caller may look at the raw draw first and scale only the slices it needs:
the lowrank power scenario certifies most far images from the Gram of the
raw draw and never forms them. The batched action on data and on
weights, the power-study scenarios, the Monte Carlo bounds and ``validate``
all call them, so a K-row draw is the same values wherever it is made, and
a draw of a rows followed by b rows equals one draw of a + b.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, as_generator, check_integer, qr_orthonormalize

__all__ = ["GroupAction", "KINDS"]

KINDS = ("signflip_rows", "permute_rows", "rotate_full", "rotate_per_column")


@dataclass(frozen=True)
class GroupAction:
    """A named invariance group bound to the dimensions it acts on.

    ``n`` is the number of rows for the discrete kinds and for
    rotate_per_column (whose rotations live on R^n); ``p`` is the ambient
    dimension for rotate_full, and the number of columns a rotate_per_column
    acts on (None: one column, as a vector is).
    """

    kind: str
    n: int | None = None
    p: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind in ("signflip_rows", "permute_rows", "rotate_per_column"):
            check_integer("n", self.n, 1)
        if self.kind == "rotate_full" or (self.kind == "rotate_per_column" and self.p is not None):
            check_integer("p", self.p, 1)

    def randomize(
        self, x: np.ndarray, rng: RngStream | np.random.Generator
    ) -> np.ndarray:
        """Draw a random element and return its image of ``x``: the first
        image of :meth:`randomize_batch` with K = 1."""
        return self.randomize_batch(x, 1, rng)[0]

    def randomize_weights(
        self, w, K: int, rng: RngStream | np.random.Generator
    ) -> np.ndarray:
        """Draw K iid signflips or permutations G_k and return the acted
        weights W G_k of an m x n weight matrix W, stacked: shape (K, m, n).

        (W G_k) X = W (G_k X), so a statistic of the row sums W X needs
        these and not the images. The stream is read as
        :meth:`randomize_batch` reads it, so the k-th acted weights belong
        to its k-th image.
        """
        if self.kind not in ("signflip_rows", "permute_rows"):
            raise ValueError(f"{self.kind} does not act on row weights")
        gen = as_generator(rng)
        w = np.asarray(w, dtype=float)
        _check_acts_on(self.kind, self.n, w.T)  # G acts on the n rows of W^T
        if self.kind == "signflip_rows":
            return _signs(K, self.n, gen)[:, None, :] * w
        # row i of the image is row perms[k, i] of X, so column j of W G_k
        # is column i of W where perms[k, i] = j
        return w.T[np.argsort(_permutations(K, self.n, gen), axis=1)].mT

    def randomize_batch(
        self, x, K: int, rng: RngStream | np.random.Generator
    ) -> np.ndarray:
        """Draw K iid elements and return their images of ``x``, stacked
        along a new leading axis: shape (K, *x.shape).

        The k-th image is G_k x for a Haar (uniform) G_k: x with its rows
        flipped or permuted, each row (or a vector) rotated by one p x p
        rotation, or each column rotated by its own rotation of R^n. The
        stream is read image by image, so drawing a images and then b gives
        the images of one draw of a + b. Shortcuts are used
        where they are exact in law: a rotate_full on a single vector (or a
        one-row matrix) and every column of a rotate_per_column map to
        uniform points on spheres, a Gaussian z scaled to the length of
        what it replaces; a rotate_full on an n x p matrix with 1 < n < p
        draws a uniform point S on the Stiefel manifold V(p, n) instead of a
        p x p Haar matrix O. With X^T = Q R, X O^T = R^T (O Q)^T and O Q is
        uniform on V(p, n), so the image R^T S^T has the law of X O^T,
        rank-deficient X included.
        """
        gen = as_generator(rng)
        arr = np.asarray(x, dtype=float)
        if self.kind in ("signflip_rows", "permute_rows"):
            _check_acts_on(self.kind, self.n, arr)
            if self.kind == "permute_rows":
                return arr[_permutations(K, self.n, gen)]
            signs = _signs(K, self.n, gen)
            return signs * arr if arr.ndim == 1 else signs[:, :, None] * arr
        if self.kind == "rotate_per_column":
            _check_acts_on(self.kind, self.n, arr, self.p or 1)
            return _column_sphere_images(arr, K, gen)
        _check_acts_on(self.kind, self.p, arr)
        if arr.ndim == 1:
            return _sphere_images(arr, K, gen)
        n, p = arr.shape
        if n == 1:
            return _sphere_images(arr[0], K, gen)[:, None, :]
        if n >= p:
            return arr @ _orthonormal_frames((K, p, p), gen).mT
        r = np.linalg.qr(arr.T, mode="r")
        return r.T @ _orthonormal_frames((K, p, n), gen).mT


def _check_acts_on(kind: str, size: int, arr: np.ndarray, columns: int = 1) -> None:
    """Raise the "cannot act" ValueError unless an element of ``kind`` on
    R^size (``columns`` column rotations for rotate_per_column) acts on
    ``arr``."""
    if arr.ndim not in (1, 2):
        raise ValueError(f"group elements act on a vector or a matrix, got ndim={arr.ndim}")
    if kind == "signflip_rows" and arr.shape[0] != size:
        raise ValueError(f"signflip of size {size} cannot act on {arr.shape[0]} rows")
    if kind == "permute_rows" and arr.shape[0] != size:
        raise ValueError(f"permutation of size {size} cannot act on {arr.shape[0]} rows")
    if kind == "rotate_full" and arr.shape[-1] != size:
        what = f"length {arr.shape[0]}" if arr.ndim == 1 else f"{arr.shape[1]} columns"
        raise ValueError(f"rotation of size {size} cannot act on {what}")
    if kind == "rotate_per_column":
        have = 1 if arr.ndim == 1 else arr.shape[1]
        if have != columns:
            raise ValueError(f"{columns} column rotations cannot act on {have} columns")
        if arr.shape[0] != size:
            raise ValueError(f"column rotations of size {size} cannot act on "
                             f"{arr.shape[0]} rows")


def _signs(K: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """K uniform sign vectors of length n as a (K, n) float array."""
    return gen.integers(0, 2, (K, n)) * 2.0 - 1.0


def _permutations(K: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """K uniform permutations of range(n) as a (K, n) index array: the
    argsort of iid uniforms is a uniform permutation."""
    return np.argsort(gen.random((K, n)), axis=1)


def _gaussian_rows(shape: tuple[int, ...], gen: np.random.Generator):
    """A standard normal draw and the norms of its last-axis rows. A row of
    norm 0 (probability zero) is dropped, the rows after it move up, and the
    draw is filled from the next rows of the stream. So the draw is the
    first rows of nonzero norm in the stream, and a draw of a rows followed
    by b rows equals one draw of a + b in every case."""
    z = gen.standard_normal(shape)
    norms = np.sqrt(np.vecdot(z, z))  # bitwise the 1-d np.linalg.norm
    while not (norms > 0.0).all():
        rows = z.reshape(-1, shape[-1])[norms.ravel() > 0.0]
        more = gen.standard_normal((norms.size - rows.shape[0], shape[-1]))
        z = np.concatenate([rows, more]).reshape(shape)
        norms = np.sqrt(np.vecdot(z, z))
    return z, norms


def _sphere_images(x: np.ndarray, K: int, gen: np.random.Generator) -> np.ndarray:
    """K uniform points on the sphere of radius ||x||_2, as a (K, x.size)
    array; a zero x maps to zeros and draws nothing."""
    radius = float(np.linalg.norm(x))
    if radius == 0.0:
        return np.zeros((K, x.size))
    z, norms = _gaussian_rows((K, x.size), gen)
    return z * (radius / norms)[:, None]


def _column_gaussians(shape: tuple[int, int], K: int, gen: np.random.Generator) -> np.ndarray:
    """The standard normal (K, n, p) draw behind K column-sphere images of
    an n x p matrix (``_scale_columns`` makes them). Row blocks of the draw
    are prefixes of one draw of all K."""
    return gen.standard_normal((K, *shape))


def _scale_columns(z: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Each column of each (n, p) slice of a Gaussian draw ``z`` scaled to
    unit length, then to its radius: a uniform point on the sphere of that
    radius. ``radii`` holds the p column norms of the matrix acted on, so
    zero columns stay zero. Scales ``z`` in place and returns it; a slice
    has the same bits in any stack, so scaling any subset of the slices of
    a draw gives the bits that scaling the whole draw gives them.

    A column whose squared entries all underflow has norm 0, and one whose
    squares overflow has norm inf. Such a column alone is scaled by the
    power of two that brings its largest |entry| into [1/2, 1), as
    ``statistics.batch_opnorm`` scales a slice, and divided by the norm of
    that copy; every other column keeps the bits of the plain division."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    redo = (norms == 0.0) | (norms == np.inf)
    if redo.any():
        cols = np.moveaxis(z, 1, 2)  # a (K, p, n) view of z
        picked = redo[:, 0, :]
        bad = cols[picked]
        e = np.maximum(np.frexp(np.abs(bad).max(axis=1))[1], -1022)
        bad *= np.ldexp(1.0, -e)[:, None]
        bad_norms = np.linalg.norm(bad, axis=1, keepdims=True)
        cols[picked] = bad / np.where(bad_norms > 0.0, bad_norms, 1.0)
        norms[redo] = 1.0
    z /= np.where(norms > 0.0, norms, 1.0)
    z *= radii
    return z


def _column_sphere_images(arr: np.ndarray, K: int, gen: np.random.Generator) -> np.ndarray:
    """K images of ``arr`` under independent rotations of each column, each
    column mapped to a uniform point on its sphere. A vector is one column."""
    cols = arr[:, None] if arr.ndim == 1 else arr
    z = _scale_columns(_column_gaussians(cols.shape, K, gen), np.linalg.norm(cols, axis=0))
    return z.reshape(K, *arr.shape)


def _orthonormal_frames(shape: tuple[int, int, int], gen: np.random.Generator) -> np.ndarray:
    """Q factors of the sign-fixed QR of a standard normal (K, m, n) draw:
    K Haar orthogonal matrices when m == n, else K uniform points on the
    Stiefel manifold V(m, n). A degenerate matrix (probability zero) is
    dropped and the draw filled from the next matrices of the stream, as
    ``_gaussian_rows`` fills rows, so a draw of a frames followed by b
    frames equals one draw of a + b in every case."""
    z = gen.standard_normal(shape)
    try:
        return qr_orthonormalize(z)[0]
    except ValueError:  # a stack is factored matrix by matrix, bitwise
        frames = []
        for a in z:
            with suppress(ValueError):
                frames.append(qr_orthonormalize(a)[0])
        more = _orthonormal_frames((len(z) - len(frames), *shape[1:]), gen)
        return np.concatenate([np.reshape(frames, (-1, *shape[1:])), more])
