"""Test statistics and their subadditivity constants.

Each statistic f comes with the constant psi in (0, 1] for which
psi * f(a + b) <= f(a) + f(b); the consistency margins in the theory module
depend on psi, so it travels with the statistic instead of being assumed.
All shipped statistics are norms of linear images of the data, hence psi = 1.

Two of them read X only through a few weighted row sums W X and declare that
as a ``Summary``: colmean_linf (W = 1^T, the column sums) and twosample_diff
(W = the two block indicators, the two block sums). A group element acts on
the sums without forming its image, which is how the engine evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf

from .numerics import (RngStream, _operator_norms, as_generator, as_matrix, as_vector,
                       pseudo_inverse)

__all__ = [
    "Summary",
    "TestStatistic",
    "weighted_rows",
    "stat_colmean_linf",
    "stat_linf",
    "stat_opnorm",
    "opnorm_against",
    "stat_kyfan",
    "stat_ols_linf",
    "stat_twosample_diff",
    "check_psi_subadditive",
    "make_statistic",
    "shipped_statistics",
]

_BLOCK_VALUES = 2 ** 16  # stacks are drawn in blocks of at most this many values


def weighted_rows(w, x) -> np.ndarray:
    """The weighted row sums W X of weights ``w`` of shape (..., n) against
    one n x q matrix ``x``, shape (..., q).

    einsum adds the n terms of every sum in one order, whatever the stack of
    weights around it, so a row has the same bits in any stack; ``w @ x``
    lets BLAS block the sum differently by stack size.
    """
    w = np.asarray(w, dtype=float)
    sums = np.einsum("ki,ij->kj", w.reshape(-1, w.shape[-1]), x)
    return sums.reshape(*w.shape[:-1], x.shape[1])


@dataclass(frozen=True)
class Summary:
    """f(X) = g(W X) for an n-row X: the statistic reads X only through the
    m weighted row sums W X.

    ``w`` is the m x n weight matrix W and ``g`` maps a (K, m, p) stack of
    row sums to K values. A group element acts on the sums: for a signflip
    or permutation G, W (G X) = (W G) X, the sums of the acted weights W G;
    for a rotate_full O, W (X O^T) = (W X) O^T, a rotation of the sums.
    """

    w: np.ndarray
    g: Callable[[np.ndarray], np.ndarray]

    def values(self, images) -> np.ndarray:
        """g on the row sums of every slice of a (K, n, p) image stack."""
        k, n, p = images.shape
        sums = weighted_rows(self.w, images.transpose(1, 0, 2).reshape(n, k * p))
        return self.g(sums.reshape(-1, k, p).transpose(1, 0, 2))


@dataclass(frozen=True)
class TestStatistic:
    """A real-valued functional of a data matrix with its psi constant.

    ``sample_shape`` is the input shape used when property tests draw random
    arguments for this statistic. ``batch``, when set, evaluates the
    statistic on every slice of a stack along its leading axis at once. A
    custom ``batch`` must be bitwise equal to ``fn`` on every slice, or ties
    with t0 = fn(x) would break differently; each shipped ``fn`` is its
    ``batch`` on a one-image stack. ``summary``, when set, returns the
    ``Summary`` of the statistic on an n-row matrix (raising if n does not
    fit); ``fn`` must then be ``summary(n).g`` on the row sums
    ``weighted_rows(summary(n).w, x)``, bitwise.
    """

    name: str
    psi: float
    fn: Callable[[np.ndarray], float]
    sample_shape: tuple[int, ...]
    batch: Callable[[np.ndarray], np.ndarray] | None = None
    summary: Callable[[int], Summary] | None = None

    __test__ = False  # not a test case despite the Test* name

    def __post_init__(self):
        if not 0.0 < self.psi <= 1.0:
            raise ValueError(f"psi must lie in (0, 1], got {self.psi}")

    def __call__(self, x) -> float:
        value = float(self.fn(x))
        if not np.isfinite(value):
            raise ValueError(f"statistic {self.name} returned non-finite value")
        return value

    def values(self, images) -> np.ndarray:
        """The statistic on every slice of ``images`` along its leading axis:
        ``batch`` when set, else a loop over ``fn``."""
        if self.batch is not None:
            vals = np.asarray(self.batch(images), dtype=float)
        else:
            vals = np.array([float(self.fn(y)) for y in images])
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"statistic {self.name} returned non-finite value")
        return vals


def _stack(images, check, name: str) -> np.ndarray:
    """``images`` as a float stack along its leading axis, each slice shaped
    as ``check`` (``as_matrix`` or ``as_vector``) shapes one. The first slice
    goes through ``check``, so a wrong slice shape raises its ValueError; the
    others share that shape."""
    a = np.asarray(images, dtype=float)
    if a.ndim < 1 or a.shape[0] == 0:
        raise ValueError("need a nonempty stack of images")
    return a.reshape(a.shape[0], *check(a[0], name).shape)


def stat_colmean_linf(x) -> float:
    """Largest absolute column mean, n^{-1} ||1^T X||_inf."""
    return float(batch_colmean_linf([x])[0])


def colmean_summary(n: int) -> Summary:
    """W = 1^T, the column sums s, and g(s) = max_j |s_j| / n."""
    return Summary(np.ones((1, n)), lambda s: np.max(np.abs(s[:, 0]), axis=1) / n)


def batch_colmean_linf(images) -> np.ndarray:
    a = _stack(images, as_matrix, "X")
    return colmean_summary(a.shape[1]).values(a)


def stat_linf(x) -> float:
    """Sup norm of a vector."""
    return float(batch_linf([x])[0])


def batch_linf(images) -> np.ndarray:
    return np.max(np.abs(_stack(images, as_vector, "x")), axis=1)


def stat_opnorm(x) -> float:
    """Largest singular value."""
    return float(batch_opnorm([x])[0])


def batch_opnorm(images) -> np.ndarray:
    """The largest singular value of each n x p slice: the square root of
    the top eigenvalue of the Gram matrix of its smaller side.

    Each slice is first scaled by the power of two 2^-e that brings its
    largest |entry| into [1/2, 1), which is exact but for entries that fall
    below the normal range, and the root is scaled back by 2^e. Unscaled,
    the Gram matrix of entries near 1e200 overflows and that of entries
    near 1e-200 underflows to zero. Scaled, the top eigenvalue is at least
    1/4, and rounding the Gram moves it by at most about n p u of itself
    (u = 2^-53; each entry sums max(n, p) products, and ||A||_F^2 <=
    min(n, p) sigma^2), so the value stays within 1e-12 relative of the
    SVD's while n p is below about 10^4 (Golub & Van Loan, Matrix
    Computations, 8.6). The stacked product and ``eigvalsh`` treat each
    slice alone, so a slice has the same bits in any stack.
    """
    a = _stack(images, as_matrix, "A")
    # at least -1022, so that 2^-e is a finite double; a slice whose largest
    # |entry| is subnormal is then scaled only into the normal range
    e = np.maximum(np.frexp(np.abs(a).reshape(len(a), -1).max(axis=1))[1], -1022)
    a = a * np.ldexp(1.0, -e)[:, None, None]
    gram = a @ a.mT if a.shape[1] <= a.shape[2] else a.mT @ a
    top = np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)
    return np.ldexp(np.sqrt(top), e)


_U = 2.0 ** -53  # unit roundoff of a double
_SAFE = 2.0 ** 450  # t0 within [1/_SAFE, _SAFE], the Gram diagonal below _SAFE^2


def opnorm_against(images, t0: float) -> np.ndarray:
    """The largest singular value of each slice of ``images`` compared
    against t0: -inf where the SVD's value (``numerics.operator_norm``) is
    below t0, +inf where it is not, and that value itself in a near-tie. So
    ``values < t0`` is ``operator_norm(image) < t0``, image by image.

    For an n x p image A, with G = fl(A^T A): if a Cholesky factorisation
    (``dpotrf``) of t0^2 (1 - delta) I - G succeeds, the value is below t0;
    else if one of t0^2 (1 + delta) I - G fails, it is not. Only the images
    left between the two take the SVD, on their own stack, which gives each
    the bits of ``operator_norm``.

    Why delta suffices. Let u = 2^-53, gamma_k = k u / (1 - k u), sigma the
    exact largest singular value of A and s the SVD's. Every rounding:

    - Gram: |fl(A^T A) - A^T A| <= gamma_n |A|^T |A| entrywise, in any
      summation order, so the 2-norm error is at most n gamma_n sigma^2
      (||A||_F^2 <= min(n, p) sigma^2).
    - Shift: t0^2 (1 -+ delta) takes three roundings (gamma_3 relative) and
      the diagonal subtraction one more, at most u (t0^2 + ||G||_2).
    - Cholesky of the p x p M: success certifies that M + dM is positive
      definite with ||dM||_2 <= p gamma_{p+1} ||M||_2 / (1 - p gamma_{p+1})
      (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
      Thm 10.3); failure certifies lambda_min(M) <= the same bound, by the
      contrapositive of Demmel's condition (Thm 10.7).
    - SVD: |s - sigma| <= n p u sigma (backward stable bidiagonalisation,
      LAPACK's p(n, p) u, and Weyl's inequality).

    Chained, a success at 1 - delta gives s^2 < t0^2, and a failure at
    1 + delta gives s^2 >= t0^2, once delta exceeds the first-order sum
    (n^2 + 2 p (p + 1) + 2 n p + 5) u <= 2 (n + p + 1)^2 u. The helper takes
    delta = 32 (n + p + 1)^2 u, 16 times that, 3.6e-11 at 50x50. The
    second-order terms stay below the first-order ones while delta < 1e-3,
    that is n + p < 5e5. With t0 in [2^-450, 2^450] and the Gram diagonal
    at most 2^900, nothing overflows and an underflow costs at most 2^-1074
    per operation, below 2^-121 u t0^2, which the slack in delta absorbs.
    Any other t0, zero and negative ones included, or Gram, takes the SVD
    for every image.
    """
    a = _stack(images, as_matrix, "A")
    count, n, p = a.shape
    with np.errstate(over="ignore"):  # an overflowing Gram takes the SVD
        gram = a.mT @ a
    if not (1.0 / _SAFE <= t0 <= _SAFE
            and np.max(gram.diagonal(axis1=1, axis2=2)) <= _SAFE * _SAFE):
        return _operator_norms(a)
    values = np.full(count, np.inf)
    delta = 32.0 * (n + p + 1) ** 2 * _U
    below = t0 * t0 * (1.0 - delta) * np.eye(p)
    above = t0 * t0 * (1.0 + delta) * np.eye(p)
    band = []
    for i, g in enumerate(gram):
        # the transpose is Fortran-ordered, so dpotrf works in place
        if dpotrf((below - g).T, overwrite_a=True)[1] == 0:
            values[i] = -np.inf
        elif dpotrf((above - g).T, overwrite_a=True)[1] == 0:
            band.append(i)
    if band:
        values[band] = _operator_norms(a[band])
    return values


def stat_kyfan(x, kappa: int, zeta: float = 1.0) -> float:
    """Generalized Ky Fan norm: the zeta-norm of the kappa largest
    singular values."""
    return float(batch_kyfan([x], kappa, zeta)[0])


def batch_kyfan(images, kappa: int, zeta: float = 1.0) -> np.ndarray:
    a = _stack(images, as_matrix, "X")
    limit = min(a.shape[1:])
    if not 1 <= kappa <= limit:
        raise ValueError(f"kappa must lie in [1, {limit}], got {kappa}")
    if zeta < 1.0:
        raise ValueError(f"zeta must be >= 1, got {zeta}")
    sv = np.linalg.svd(a, compute_uv=False)[:, :kappa]
    # one root per value: numpy's array power can differ from its scalar
    # power in the last bit
    return np.array([s ** (1.0 / zeta) for s in np.sum(sv ** zeta, axis=1)])


def stat_ols_linf(y, design=None, design_pinv=None) -> float:
    """Sup norm of the least-squares coefficient estimate X^dagger y.

    Pass ``design_pinv`` when evaluating repeatedly against one fixed design;
    it is the Moore-Penrose pseudo-inverse of the design matrix.
    """
    if design_pinv is None:
        if design is None:
            raise ValueError("stat_ols_linf needs a design matrix or its pseudo-inverse")
        design_pinv = pseudo_inverse(design)
    return float(batch_ols_linf([y], design_pinv)[0])


def batch_ols_linf(images, design_pinv) -> np.ndarray:
    """The stacked matrix-vector product ``pinv @ y[..., None]`` is bitwise
    the 1d one; ``Y @ pinv.T`` would run a matrix product with a different
    summation order."""
    y = _stack(images, as_vector, "y")
    design_pinv = np.asarray(design_pinv, dtype=float)
    if design_pinv.shape[1] != y.shape[1]:
        raise ValueError(f"design has {design_pinv.shape[1]} rows, y has {y.shape[1]} entries")
    return np.max(np.abs(design_pinv @ y[..., None]), axis=(1, 2))


def stat_twosample_diff(x, n: int, n_prime: int, norm: str = "linf") -> float:
    """Norm of the difference of block means of a stacked (n+n') x p matrix."""
    return float(batch_twosample_diff([x], n, n_prime, norm)[0])


def twosample_summary(rows: int, n: int, n_prime: int, norm: str = "linf") -> Summary:
    """W = the indicators of the first n and the last n' rows, the block
    sums a and b, and g = the norm of a/n - b/n'."""
    if rows != n + n_prime:
        raise ValueError(f"stacked matrix has {rows} rows, expected n + n' = {n + n_prime}")
    if n < 1 or n_prime < 1:
        raise ValueError("both sample sizes must be >= 1")
    if norm not in ("linf", "l2"):
        raise ValueError(f"norm must be 'linf' or 'l2', got {norm!r}")
    w = np.zeros((2, rows))
    w[0, :n] = 1.0
    w[1, n:] = 1.0

    def g(sums):
        diff = sums[:, 0] / n - sums[:, 1] / n_prime
        if norm == "linf":
            return np.max(np.abs(diff), axis=1)
        return np.sqrt(np.vecdot(diff, diff))  # bitwise the 1d np.linalg.norm

    return Summary(w, g)


def batch_twosample_diff(images, n: int, n_prime: int, norm: str = "linf") -> np.ndarray:
    a = _stack(images, as_matrix, "X")
    return twosample_summary(a.shape[1], n, n_prime, norm).values(a)


def check_psi_subadditive(
    f: TestStatistic,
    trials: int,
    scale: float,
    rng: RngStream | np.random.Generator,
) -> int:
    """Count violations of psi * f(a+b) <= f(a) + f(b) on random Gaussian pairs.

    Returns the number of sampled pairs that violate the inequality beyond a
    floating-point tolerance; every shipped statistic must return 0.

    The pairs are drawn as one (trials, 2, *sample_shape) normal array, so
    the stream is read as a_1, b_1, a_2, ..., and f is evaluated on the a, b
    and a + b stacks with ``TestStatistic.values``. Trials are drawn in
    blocks of at most ``_BLOCK_VALUES`` values, which bounds memory; each
    block is a prefix of the rest of the stream, so the count does not
    depend on the block size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = as_generator(rng)
    rows = max(1, _BLOCK_VALUES // (2 * int(np.prod(f.sample_shape))))
    violations = 0
    for start in range(0, trials, rows):
        pairs = scale * gen.standard_normal((min(rows, trials - start), 2, *f.sample_shape))
        # contiguous stacks, like the single draws the loop passed to fn
        a, b = np.ascontiguousarray(pairs.swapaxes(0, 1))
        fa, fb = f.values(a), f.values(b)
        tol = 1e-12 * (np.abs(fa) + np.abs(fb) + 1.0)
        violations += int(np.sum(f.psi * f.values(a + b) > fa + fb + tol))
    return violations


def make_statistic(name: str, **params) -> TestStatistic:
    """Build one of the shipped statistics by name.

    Recognized names: colmean_linf, linf, opnorm, kyfan, ols_linf,
    twosample_diff. Shape-dependent parameters (kappa, design, n, n_prime,
    sample_shape, ...) are passed as keywords.
    """
    shape = params.pop("sample_shape", None)
    if name == "colmean_linf":
        return TestStatistic("colmean_linf", 1.0, stat_colmean_linf, shape or (8, 5),
                             batch_colmean_linf, colmean_summary)
    if name == "linf":
        return TestStatistic("linf", 1.0, stat_linf, shape or (12,), batch_linf)
    if name == "opnorm":
        return TestStatistic("opnorm", 1.0, stat_opnorm, shape or (6, 4), batch_opnorm)
    if name == "kyfan":
        kappa = params.pop("kappa", 2)
        zeta = params.pop("zeta", 1.0)
        if params:
            raise ValueError(f"unknown parameters {sorted(params)} for kyfan")
        return TestStatistic(
            f"kyfan_{kappa}_{zeta:g}",
            1.0,
            lambda x: stat_kyfan(x, kappa, zeta),
            shape or (6, 4),
            lambda xs: batch_kyfan(xs, kappa, zeta),
        )
    if name == "ols_linf":
        design = params.pop("design", None)
        if design is None:
            raise ValueError("ols_linf needs design=")
        design = as_matrix(design, "design")
        pinv = pseudo_inverse(design)
        if params:
            raise ValueError(f"unknown parameters {sorted(params)} for ols_linf")
        return TestStatistic(
            "ols_linf",
            1.0,
            lambda y: stat_ols_linf(y, design_pinv=pinv),
            shape or (design.shape[0],),
            lambda ys: batch_ols_linf(ys, pinv),
        )
    if name == "twosample_diff":
        n = params.pop("n")
        n_prime = params.pop("n_prime")
        norm = params.pop("norm", "linf")
        if params:
            raise ValueError(f"unknown parameters {sorted(params)} for twosample_diff")
        return TestStatistic(
            f"twosample_diff_{norm}",
            1.0,
            lambda x: stat_twosample_diff(x, n, n_prime, norm),
            shape or (n + n_prime, 1),
            lambda xs: batch_twosample_diff(xs, n, n_prime, norm),
            lambda rows: twosample_summary(rows, n, n_prime, norm),
        )
    raise ValueError(f"unknown statistic {name!r}")


def shipped_statistics(design_seed: int = 20260815) -> list[TestStatistic]:
    """The catalog of statistics covered by the property suites."""
    design = RngStream(design_seed).generator().standard_normal((10, 3))
    return [
        make_statistic("colmean_linf"),
        make_statistic("linf"),
        make_statistic("opnorm"),
        make_statistic("kyfan", kappa=2, zeta=1.0),
        make_statistic("kyfan", kappa=3, zeta=2.0),
        make_statistic("ols_linf", design=design),
        make_statistic("twosample_diff", n=4, n_prime=4, norm="linf"),
        make_statistic("twosample_diff", n=4, n_prime=4, norm="l2"),
    ]
