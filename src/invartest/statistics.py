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
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf

from .groups import _scale_columns
from .numerics import RngStream, as_generator, as_matrix, as_vector, pseudo_inverse

__all__ = [
    "Summary",
    "TestStatistic",
    "weighted_rows",
    "batch_opnorm",
    "sphere_opnorm_against",
    "check_psi_subadditive",
    "make_statistic",
    "shipped_statistics",
]

_BLOCK_VALUES = 2 ** 15  # stacks are drawn in blocks of at most this many values


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

    ``batch`` is the one evaluator: it maps a stack of inputs along its
    leading axis to one value per slice, and must give a slice the same bits
    in any stack, so that t0 = f(x), a one-image stack, ties with an orbit
    value exactly when their images are equal. ``sample_shape`` is the input
    shape used when property tests draw random arguments for this statistic.
    ``summary``, when set, returns the ``Summary`` of the statistic on an
    n-row matrix (raising if n does not fit); ``batch`` must then be
    ``summary(n).g`` on the row sums ``weighted_rows(summary(n).w, x)``,
    bitwise.
    """

    name: str
    psi: float
    batch: Callable[[np.ndarray], np.ndarray]
    sample_shape: tuple[int, ...]
    summary: Callable[[int], Summary] | None = None

    __test__ = False  # not a test case despite the Test* name

    def __post_init__(self):
        if not 0.0 < self.psi <= 1.0:
            raise ValueError(f"psi must lie in (0, 1], got {self.psi}")

    def __call__(self, x) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def values(self, images) -> np.ndarray:
        """The statistic on every slice of ``images`` along its leading axis."""
        vals = np.asarray(self.batch(np.asarray(images, dtype=float)), dtype=float)
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


def _summary_values(summary: Callable[[int], Summary], images) -> np.ndarray:
    """``summary(n).values`` on a stack of n-row slices: the stacked
    evaluator of a statistic declared by its summary."""
    a = _stack(images, as_matrix, "X")
    return summary(a.shape[1]).values(a)


def colmean_summary(n: int) -> Summary:
    """W = 1^T, the column sums s, and g(s) = max_j |s_j| / n."""
    return Summary(np.ones((1, n)), lambda s: np.max(np.abs(s[:, 0]), axis=1) / n)


def batch_linf(images) -> np.ndarray:
    """Sup norm of each vector slice."""
    return np.max(np.abs(_stack(images, as_vector, "x")), axis=1)


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
_SAFE = 2.0 ** 450  # t0 and the squared column norms of a draw within [1/_SAFE, _SAFE]


def sphere_opnorm_against(z: np.ndarray, radii: np.ndarray, t0: float) -> np.ndarray:
    """The ``opnorm`` value of each image ``groups._scale_columns(z, radii)``
    of a raw (K, n, p) normal draw z compared against t0: -inf where that
    value (``batch_opnorm``) is below t0, +inf where it is not, and the value
    itself in a near-tie. So ``values < t0`` is ``batch_opnorm(
    _scale_columns(z, radii)) < t0``, image by image, and only the near-tie
    images are formed. ``radii`` are the p column norms of the matrix the
    images rotate, whose ``opnorm`` value is t0 in the power study. z is
    left as it is.

    The image A has columns c_j z_j / ||z_j|| (c = radii). One Gram per
    image, of the smaller side, is read from the raw draw. For n >= p it is
    S H S with H = fl(Z^T Z), d_j = H_jj and s_j = c_j / sqrt(d_j); for
    n < p it is fl(Y Y^T) with d_j = sum_i z_ij^2 and Y = fl(Z S). Call it
    G, m x m with m = min(n, p). Three tiers decide, cheapest first:

    - Row sums: if the largest absolute row sum of G is below t0^2 (1 -
      delta), the value is below t0 (Gershgorin; Golub & Van Loan, Matrix
      Computations, 7.2.1). For n >= p the row j is s_j (|H| s)_j, so S H S
      is never formed for an image this tier decides.
    - Cholesky: the images left form G in one step. If ``dpotrf`` factors
      t0^2 (1 - delta) I - G, the value is below t0; else if it fails on
      t0^2 (1 + delta) I - G, it is not.
    - Band: the images left between the two are formed and take
      ``batch_opnorm``, on their own stack, which gives each the bits it has
      in any stack.

    A t0 outside [2^-450, 2^450], a d_j outside that range or a radius above
    2 t0 sends the whole block to ``batch_opnorm`` on the formed images. In
    the power study no radius exceeds t0 (1 + 1e-12), as a column norm is
    at most the largest singular value.

    Why delta suffices. Let u = 2^-53, gamma_k = k u / (1 - k u), B = Z S
    with exact s_j = c_j / ||z_j||, sigma_M the exact largest singular value
    of a matrix M, and s the value of ``batch_opnorm`` on A. To first order
    in u:

    - Scales: d_j is ||z_j||^2 within gamma_n in any summation order, so
      the computed s_j is within (n/2 + 2) u of c_j / ||z_j||, relative.
    - Gram, n >= p: H is Z^T Z + E with |E| <= gamma_n |Z|^T |Z|
      entrywise. The rows of S |Z|^T |Z| S are those of |B|^T |B|, and a row
      of |B|^T |B| (or of |B| |B|^T) sums to at most m sigma_B^2
      (Cauchy-Schwarz: |b_j|^T (|B| 1) <= sigma_B sqrt(m) ||B||_F, and
      ||B||_F^2 <= m sigma_B^2), so ||S E S||_2 <= n p u sigma_B^2. The
      formed G is B^T B with the scales' error on both sides, S E S, and
      two products per entry: ||G - B^T B||_2 <= (n p + n + 2 m + 4) u
      sigma_B^2.
    - Gram, n < p: Y is B within (n/2 + 3) u entrywise, so ||B - Y||_2 <=
      ||B - Y||_F <= (n/2 + 3) u sqrt(m) sigma_B, and G is Y Y^T within
      gamma_p |Y| |Y|^T, whose rows sum to at most n p u sigma_Y^2: ||G -
      B B^T||_2 <= (n p + (n + 6) sqrt(m)) u sigma_B^2.
    - Row sums: sigma_B^2 is at most the largest absolute row sum of B^T B
      (or of B B^T), as that bounds every eigenvalue. For n >= p a computed
      row s_j (|H| s)_j is off by the scales' error on both sides, (n + 4)
      u, and its own p + 1 roundings, and S |E| S adds at most n p u
      sigma_B^2 to it, so sigma_B^2 (1 - n p u) <= r (1 + (n + p + 5) u), r
      the largest computed row sum. For n < p a row of |G| rounds by n u,
      so sigma_Y^2 (1 - n p u) <= r (1 + n u), and sigma_B^2 <= sigma_Y^2
      (1 + (n + 6) sqrt(m) u).
    - Shift: t0^2 (1 -+ delta) takes three roundings (gamma_3 relative) and
      the diagonal subtraction one more, at most u (t0^2 + ||G||_2).
    - Cholesky of the m x m M: success certifies that M + dM is positive
      definite with ||dM||_2 <= m gamma_{m+1} ||M||_2 / (1 - m gamma_{m+1})
      (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
      Thm 10.3); failure certifies lambda_min(M) <= the same bound, by the
      contrapositive of Demmel's condition (Thm 10.7). ``dpotrf`` reads one
      triangle of M, a symmetric matrix with the same entrywise bounds.
    - Image: A is B with each entry off by at most the column norm's
      rounding (gamma_n / 2 + u relative), a division and a product, so
      |sigma_A^2 - sigma_B^2| <= (n + 6) sqrt(m) u sigma_B^2, as for Y.
    - ``batch_opnorm``: the power-of-two scaling is exact; its own Gram of
      the smaller side is off by at most n p u sigma_A^2, as above;
      ``eigvalsh`` is backward stable, its top eigenvalue within c(m) u
      ||G||_2 of the rounded Gram's by Weyl's inequality, with LAPACK's
      modest c(m), taken here as m^2; and the square root rounds once. So
      |s^2 - sigma_A^2| <= (n p + m^2 + 2) u sigma_A^2.

    Chained, a row sum below t0^2 (1 - delta) or a success at 1 - delta
    gives s^2 < t0^2, and a failure at 1 + delta gives s^2 >= t0^2, once
    delta exceeds the largest first-order sum, (2 n p + 2 m^2 + 3 m + n + p
    + 2 (n + 6) sqrt(m) + 12) u <= 4 (n + p + 1)^2 u. delta = 32 (n + p +
    1)^2 u is 8 times that, 3.6e-11 at 50x50. The second-order terms stay
    below the first-order ones while delta < 1e-3, that is n + p < 5e5.

    Range. With t0 in [2^-450, 2^450], every d_j in it and every c_j at
    most 2 t0, s_j is at most 2^226 t0, |H_jk| s_j at most c_j sqrt(d_k),
    an entry of G at most 4 t0^2 <= 2^902 and a row sum at most m 2^902, so
    nothing overflows. An operation that underflows loses at most 2^-1074;
    the scales grow that to at most 2^-622 n t0^2, and in G, its row sums
    and the factorisation, where t0^2 >= 2^-900, it stays below 2^-174 t0^2
    per operation, which the slack in delta absorbs.
    """
    n, p = z.shape[1:]
    if n >= p:
        h = z.mT @ z
        d = h.diagonal(axis1=1, axis2=2)
    else:
        d = np.einsum("kij,kij->kj", z, z)
    if not (1.0 / _SAFE <= t0 <= _SAFE and radii.max() <= 2.0 * t0
            and d.min() >= 1.0 / _SAFE and d.max() <= _SAFE):
        return batch_opnorm(_scale_columns(z.copy(), radii))
    delta = 32.0 * (n + p + 1) ** 2 * _U
    bound = t0 * t0 * (1.0 - delta)
    s = radii / np.sqrt(d)
    if n >= p:
        rows = s * (np.abs(h) @ s[..., None])[..., 0]
    else:
        y = z * s[:, None, :]
        g = y @ y.mT
        rows = np.abs(g).sum(axis=2)
    values = np.full(len(z), -np.inf)
    left = ~(rows.max(axis=1) < bound)
    if not left.any():
        return values
    left = np.flatnonzero(left)
    # -G: a shift added to its diagonal gives shift I - G, entry for entry
    grams = -(h[left] * s[left, :, None] * s[left, None, :] if n >= p else g[left])
    above = t0 * t0 * (1.0 + delta)
    step = min(n, p) + 1  # the diagonal of a flattened m x m matrix
    band = []
    for i, gram in zip(left, grams):
        below = gram.copy()
        below.reshape(-1)[::step] += bound
        # the transposes are Fortran-ordered, so dpotrf works in place
        if dpotrf(below.T, overwrite_a=True)[1] == 0:
            continue
        gram.reshape(-1)[::step] += above
        if dpotrf(gram.T, overwrite_a=True)[1] == 0:
            band.append(i)
        else:
            values[i] = np.inf
    if band:
        values[band] = batch_opnorm(_scale_columns(z[band], radii))
    return values


def batch_kyfan(images, kappa: int, zeta: float = 1.0) -> np.ndarray:
    """Generalized Ky Fan norm of each slice: the zeta-norm of its kappa
    largest singular values."""
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


def batch_ols_linf(images, design_pinv) -> np.ndarray:
    """Sup norm of the least-squares estimate X^dagger y of each slice y,
    given the design's pseudo-inverse X^dagger. The stacked matrix-vector product ``pinv @ y[..., None]`` is bitwise
    the 1d one; ``Y @ pinv.T`` would run a matrix product with a different
    summation order."""
    y = _stack(images, as_vector, "y")
    design_pinv = np.asarray(design_pinv, dtype=float)
    if design_pinv.shape[1] != y.shape[1]:
        raise ValueError(f"design has {design_pinv.shape[1]} rows, y has {y.shape[1]} entries")
    return np.max(np.abs(design_pinv @ y[..., None]), axis=(1, 2))


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
        # contiguous stacks, each slice laid out as one draw of it alone
        a, b = np.ascontiguousarray(pairs.swapaxes(0, 1))
        fa, fb = f.values(a), f.values(b)
        tol = 1e-12 * (np.abs(fa) + np.abs(fb) + 1.0)
        violations += int(np.sum(f.psi * f.values(a + b) > fa + fb + tol))
    return violations


def make_statistic(name: str, **params) -> TestStatistic:
    """Build one of the shipped statistics by name.

    Recognized names: colmean_linf, linf, opnorm, kyfan, ols_linf,
    twosample_diff. Shape-dependent parameters (kappa, design, n, n_prime,
    sample_shape, ...) are passed as keywords; a missing required one and
    any keyword the name does not take raise ValueError.
    """
    shape = params.pop("sample_shape", None)

    def required(key):
        value = params.pop(key, None)
        if value is None:
            raise ValueError(f"{name} needs {key}=")
        return value

    if name == "colmean_linf":
        stat = TestStatistic("colmean_linf", 1.0, partial(_summary_values, colmean_summary),
                             shape or (8, 5), colmean_summary)
    elif name == "linf":
        stat = TestStatistic("linf", 1.0, batch_linf, shape or (12,))
    elif name == "opnorm":
        stat = TestStatistic("opnorm", 1.0, batch_opnorm, shape or (6, 4))
    elif name == "kyfan":
        kappa = params.pop("kappa", 2)
        zeta = params.pop("zeta", 1.0)
        stat = TestStatistic(f"kyfan_{kappa}_{zeta:g}", 1.0,
                             lambda xs: batch_kyfan(xs, kappa, zeta), shape or (6, 4))
    elif name == "ols_linf":
        design = as_matrix(required("design"), "design")
        pinv = pseudo_inverse(design)
        stat = TestStatistic("ols_linf", 1.0, lambda ys: batch_ols_linf(ys, pinv),
                             shape or (design.shape[0],))
    elif name == "twosample_diff":
        n = required("n")
        n_prime = required("n_prime")
        norm = params.pop("norm", "linf")
        summary = partial(twosample_summary, n=n, n_prime=n_prime, norm=norm)
        stat = TestStatistic(f"twosample_diff_{norm}", 1.0, partial(_summary_values, summary),
                             shape or (n + n_prime, 1), summary)
    else:
        raise ValueError(f"unknown statistic {name!r}")
    if params:
        raise ValueError(f"unknown parameters {sorted(params)} for {name}")
    return stat


def shipped_statistics() -> list[TestStatistic]:
    """The catalog of statistics covered by the property suites."""
    design = RngStream(20260815).generator().standard_normal((10, 3))
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
