"""Noise families.

The families cover exactly what the scenarios need: iid entries (normal,
Student t; Cauchy is t at df = 1), spherically contoured rows (uniform
direction times a radial law), and the sign-symmetric heteroskedastic rows
used by the regression scenario. Student entries are Normal / sqrt(chi2_d / d)
and spherical rows radius * (Gaussian direction normalized): the
definitional decompositions rather than CDF inversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, as_generator, check_integer, sample_chi2, sample_f

__all__ = ["NoiseSpec", "heteroskedastic_mean_abs", "sample_noise"]

FAMILIES = ("iid_normal", "iid_student", "spherical", "heteroskedastic_sign_symmetric")
RADIAL_LAWS = ("normal", "student")
# the heteroskedastic family's base law t(3), and E|t(3)|
_HETERO_DF = 3.0
_HETERO_MEAN_ABS = 2.0 * math.sqrt(3.0) / math.pi


@dataclass(frozen=True)
class NoiseSpec:
    """An n x p noise distribution.

    family:
      iid_normal / iid_student  independent entries (df for t, 1 for Cauchy)
      spherical           rows with uniform direction and the radial law
                          implied by ``radial`` ("normal" -> chi2_p radius
                          squared, "student" -> p * F_{p, df})
      heteroskedastic_sign_symmetric
                          row i = (1 + (i - 1)/n) * b_i * |V_i| with b_i
                          Rademacher and V_i entries Student t(3)

    ``df`` is read by iid_student and the student radial law only, and
    ``radial`` by spherical only; a value that no draw reads is refused.
    """

    family: str
    n: int
    p: int
    df: float | None = None
    radial: str = "normal"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        check_integer("n", self.n, 1)
        check_integer("p", self.p, 1)
        if self.radial not in (RADIAL_LAWS if self.family == "spherical" else ("normal",)):
            raise ValueError(f"{self.family} noise does not take radial={self.radial!r}")
        law = (f"the {self.radial} radial law" if self.family == "spherical"
               else f"{self.family} noise")
        if self.family == "iid_student" or self.radial == "student":
            if self.df is None or not self.df > 0:
                raise ValueError(f"{law} needs df > 0, got {self.df}")
        elif self.df is not None:
            raise ValueError(f"{law} does not read df, got {self.df}")


def heteroskedastic_mean_abs(n: int) -> np.ndarray:
    """E|eps_i| of the heteroskedastic family's rows i = 1, ..., n: the row
    scale 1 + (i - 1)/n times E|t(3)| = 2 sqrt(3) / pi."""
    return _row_scales(n) * _HETERO_MEAN_ABS


def _row_scales(n: int) -> np.ndarray:
    return 1.0 + np.arange(n) / n


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
    magnitudes = np.abs(_student_entries(n, p, _HETERO_DF, gen))
    signs = gen.integers(0, 2, size=n) * 2.0 - 1.0
    return _row_scales(n)[:, None] * signs[:, None] * magnitudes


def _student_entries(n: int, p: int, df: float, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((n, p))
    w = sample_chi2(df, (n, p), gen)
    return z / np.sqrt(w / df)
