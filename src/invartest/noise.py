"""Noise families.

The families cover exactly what the scenarios need: iid entries (normal,
Student t; Cauchy is t at df = 1), spherically contoured rows (uniform
direction times a radial law), and the sign-symmetric heteroskedastic rows
used by the regression scenario. Student entries are Normal / sqrt(chi2_d / d)
and spherical rows radius * (Gaussian direction normalized): the
definitional decompositions rather than CDF inversions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, as_generator, sample_chi2, sample_f

__all__ = ["NoiseSpec", "sample_noise"]

FAMILIES = ("iid_normal", "iid_student", "spherical", "heteroskedastic_sign_symmetric")
RADIAL_LAWS = ("normal", "student")


@dataclass(frozen=True)
class NoiseSpec:
    """An n x p noise distribution.

    family:
      iid_normal / iid_student  independent entries (df for t, 1 for Cauchy)
      spherical           rows with uniform direction and the radial law
                          implied by ``radial`` ("normal" -> chi2_p radius
                          squared, "student" -> p * F_{p, df})
      heteroskedastic_sign_symmetric
                          row i = scale_i * b_i * |V_i| with b_i Rademacher
                          and V_i entries Student t(df); default scale is
                          1 + (i - 1)/n
    """

    family: str
    n: int
    p: int
    df: float | None = None
    radial: str = "normal"
    scale: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.n < 1 or self.p < 1:
            raise ValueError("dimensions must be >= 1")
        if self.family == "iid_student" and (self.df is None or self.df <= 0):
            raise ValueError(f"iid_student needs df > 0, got {self.df}")
        if self.family == "spherical":
            if self.radial not in RADIAL_LAWS:
                raise ValueError(f"unknown radial law {self.radial!r}")
            if self.radial == "student" and (self.df is None or self.df <= 0):
                raise ValueError(f"student radial law needs df > 0, got {self.df}")
        if self.family == "heteroskedastic_sign_symmetric":
            if self.scale is not None and len(self.scale) != self.n:
                raise ValueError(
                    f"scale vector has length {len(self.scale)}, expected n = {self.n}"
                )
            if self.df is not None and self.df <= 0:
                raise ValueError(f"base law needs df > 0, got {self.df}")


def sample_noise(spec: NoiseSpec, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Draw one n x p noise matrix from the spec's family."""
    gen = as_generator(rng)
    n, p = spec.n, spec.p
    if spec.family == "iid_normal":
        return gen.standard_normal((n, p))
    if spec.family == "iid_student":
        return _student_entries(n, p, spec.df, gen)
    if spec.family == "spherical":
        direction = gen.standard_normal((n, p))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        if spec.radial == "normal":
            radius = np.sqrt(sample_chi2(p, n, gen))
        else:
            radius = np.sqrt(p * sample_f(p, spec.df, n, gen))
        return radius[:, None] * direction
    scale = np.asarray(
        spec.scale if spec.scale is not None else 1.0 + np.arange(n) / n
    )
    df = spec.df if spec.df is not None else 3.0
    magnitudes = np.abs(_student_entries(n, p, df, gen))
    signs = gen.integers(0, 2, size=n) * 2.0 - 1.0
    return scale[:, None] * signs[:, None] * magnitudes


def _student_entries(n: int, p: int, df: float, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((n, p))
    w = sample_chi2(df, (n, p), gen)
    return z / np.sqrt(w / df)
