"""Invariance groups: random element samplers and their actions on data.

Four kinds are supported, matching the scenarios in scope:

* ``signflip_rows``    diagonal +-1 matrices acting on the n rows
* ``permute_rows``     row permutations
* ``rotate_full``      one Haar orthogonal matrix on R^p, applied to a
                       p-vector or to each row of an n x p matrix
* ``rotate_per_column`` an independent rotation of R^n for every column

Continuous elements are sampled eagerly only when a statistic needs the
actual matrix; wherever the data is a single vector (or an independent
column), the distributional identity O x =_d Z/||Z|| * ||x|| replaces the
O(p^3) sample with an O(p) one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .numerics import RngStream, as_generator, qr_orthonormalize

__all__ = [
    "GroupAction",
    "GroupElement",
    "KINDS",
    "sample_signflips",
    "sample_permutation",
    "sample_haar_orthogonal",
    "sample_sphere_image",
    "apply_action",
    "compose",
    "identity_element",
]

KINDS = ("signflip_rows", "permute_rows", "rotate_full", "rotate_per_column")


@dataclass(frozen=True)
class GroupElement:
    """A sampled group element: kind plus its kind-specific payload."""

    kind: str
    payload: Any

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")


@dataclass(frozen=True)
class GroupAction:
    """A named invariance group bound to the dimensions it acts on.

    ``n`` is the number of rows for the discrete kinds and for
    rotate_per_column (whose rotations live on R^n); ``p`` is the ambient
    dimension for rotate_full.
    """

    kind: str
    n: int | None = None
    p: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind in ("signflip_rows", "permute_rows", "rotate_per_column"):
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.kind} needs n >= 1")
        if self.kind == "rotate_full" and (self.p is None or self.p < 1):
            raise ValueError("rotate_full needs p >= 1")

    def sample(self, rng: RngStream | np.random.Generator) -> GroupElement:
        """Draw one element from the group's Haar (uniform) law.

        rotate_per_column materializes its p rotation matrices eagerly here,
        which is only sensible for validation at small sizes; the fast path
        is :meth:`randomize`.
        """
        gen = as_generator(rng)
        if self.kind == "signflip_rows":
            return sample_signflips(self.n, gen)
        if self.kind == "permute_rows":
            return sample_permutation(self.n, gen)
        if self.kind == "rotate_full":
            return sample_haar_orthogonal(self.p, gen)
        mats = tuple(
            sample_haar_orthogonal(self.n, gen).payload
            for _ in range(self.p if self.p else 1)
        )
        return GroupElement("rotate_per_column", mats)

    def randomize(
        self, x: np.ndarray, rng: RngStream | np.random.Generator
    ) -> np.ndarray:
        """Draw a random element and return its image of ``x``.

        Equal in distribution to ``apply_action(self.sample(rng), x)`` but
        uses the sphere-image shortcut where it is exact: a rotate_full on a
        single vector, and every column of a rotate_per_column.
        """
        gen = as_generator(rng)
        if self.kind == "rotate_full":
            arr = np.asarray(x, dtype=float)
            if arr.ndim == 1:
                return sample_sphere_image(arr, gen)
            if arr.shape[0] == 1:
                return sample_sphere_image(arr[0], gen)[None, :]
            o = sample_haar_orthogonal(arr.shape[1], gen).payload
            return arr @ o.T
        if self.kind == "rotate_per_column":
            arr = np.atleast_2d(np.asarray(x, dtype=float))
            out = np.empty_like(arr)
            for j in range(arr.shape[1]):
                out[:, j] = sample_sphere_image(arr[:, j], gen)
            return out
        return apply_action(self.sample(gen), x)


def sample_signflips(n: int, rng: RngStream | np.random.Generator) -> GroupElement:
    """n independent uniform +-1 signs (one per row)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = as_generator(rng)
    signs = gen.integers(0, 2, size=n) * 2 - 1
    return GroupElement("signflip_rows", signs.astype(float))


def sample_permutation(n: int, rng: RngStream | np.random.Generator) -> GroupElement:
    """Uniform random permutation of the n rows (Fisher-Yates)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = as_generator(rng)
    return GroupElement("permute_rows", gen.permutation(n))


def sample_haar_orthogonal(p: int, rng: RngStream | np.random.Generator) -> GroupElement:
    """Haar-distributed p x p orthogonal matrix.

    Gaussian matrix followed by QR with the R diagonal forced positive; the
    sign correction is what makes the law exactly Haar rather than merely
    orthogonal.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    gen = as_generator(rng)
    while True:
        g = gen.standard_normal((p, p))
        try:
            q, _ = qr_orthonormalize(g)
        except ValueError:
            continue  # measure-zero degenerate draw, try again
        return GroupElement("rotate_full", q)


def sample_sphere_image(x, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Uniform point on the sphere of radius ||x||_2; zero maps to zero.

    Identical in law to applying a Haar rotation to x, at O(p) cost.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample_sphere_image expects a vector")
    radius = float(np.linalg.norm(x))
    if radius == 0.0:
        return np.zeros_like(x)
    gen = as_generator(rng)
    while True:
        z = gen.standard_normal(x.size)
        norm = float(np.linalg.norm(z))
        if norm > 0.0:
            return z * (radius / norm)


def apply_action(g: GroupElement, x) -> np.ndarray:
    """Apply a group element to a data matrix or vector.

    Vectors keep their 1d shape. The discrete kinds and rotate_per_column
    act on rows/columns of length n; rotate_full acts on a p-vector or on
    each row of an n x p matrix.
    """
    arr = np.asarray(x, dtype=float)
    if g.kind == "signflip_rows":
        signs = g.payload
        if arr.shape[0] != signs.shape[0]:
            raise ValueError(
                f"signflip of size {signs.shape[0]} cannot act on {arr.shape[0]} rows"
            )
        return signs * arr if arr.ndim == 1 else signs[:, None] * arr
    if g.kind == "permute_rows":
        perm = g.payload
        if arr.shape[0] != perm.shape[0]:
            raise ValueError(
                f"permutation of size {perm.shape[0]} cannot act on {arr.shape[0]} rows"
            )
        return arr[perm]
    if g.kind == "rotate_full":
        o = g.payload
        if arr.ndim == 1:
            if arr.shape[0] != o.shape[0]:
                raise ValueError(
                    f"rotation of size {o.shape[0]} cannot act on length {arr.shape[0]}"
                )
            return o @ arr
        if arr.shape[1] != o.shape[0]:
            raise ValueError(
                f"rotation of size {o.shape[0]} cannot act on {arr.shape[1]} columns"
            )
        return arr @ o.T
    mats = g.payload
    arr2 = np.atleast_2d(arr)
    if arr2.shape[1] != len(mats):
        raise ValueError(
            f"{len(mats)} column rotations cannot act on {arr2.shape[1]} columns"
        )
    if any(m.shape[0] != arr2.shape[0] for m in mats):
        raise ValueError("column rotation size does not match row count")
    out = np.empty_like(arr2)
    for j, m in enumerate(mats):
        out[:, j] = m @ arr2[:, j]
    return out


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Element of the discrete groups acting as 'h first, then g'."""
    if g.kind != h.kind:
        raise ValueError(f"cannot compose {g.kind} with {h.kind}")
    if g.kind == "signflip_rows":
        return GroupElement("signflip_rows", g.payload * h.payload)
    if g.kind == "permute_rows":
        # apply_action(compose(g,h), X) == apply_action(g, apply_action(h, X))
        return GroupElement("permute_rows", h.payload[g.payload])
    raise ValueError("composition is implemented for the discrete kinds only")


def identity_element(kind: str, n: int | None = None, p: int | None = None) -> GroupElement:
    if kind == "signflip_rows":
        return GroupElement(kind, np.ones(n))
    if kind == "permute_rows":
        return GroupElement(kind, np.arange(n))
    if kind == "rotate_full":
        return GroupElement(kind, np.eye(p))
    if kind == "rotate_per_column":
        return GroupElement(kind, tuple(np.eye(n) for _ in range(p)))
    raise ValueError(f"unknown group kind {kind!r}")
