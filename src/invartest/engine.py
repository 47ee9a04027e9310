"""The randomization test: the orbit values, order-statistic rule, p-values,
the exhaustive full-group oracle, and nuisance projection.

``orbit_values`` evaluates a statistic that declares a summary g(W X) on
weighted row sums, which signflips and permutations reach through acted
weights and rotate_full through rotated sums; any other statistic, and
rotate_per_column, on the K images.

The decision rule follows the strict-inequality convention: reject when the
observed statistic strictly exceeds the k-th smallest value of the multiset
{f(X)} union {f(G_1 X), ..., f(G_K X)}, so ties never reject and the level
guarantee survives discrete statistics.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .groups import GroupAction
from .numerics import RngStream, as_generator, as_matrix
from .statistics import _BLOCK_VALUES, TestStatistic, weighted_rows

__all__ = [
    "RandTestConfig",
    "RandTestOutcome",
    "order_index",
    "count_below",
    "decide",
    "decide_stopping",
    "p_value_from_counts",
    "orbit_values",
    "run_randomization_test",
    "run_max_test",
    "brute_force_full_group_test",
    "project_out_nuisance",
]

MAX_SIGNFLIP_ROWS = 16   # 2^16 orbit points
MAX_PERMUTE_ROWS = 7     # 7! = 5040 <= 4e4; 8! would exceed it


@dataclass(frozen=True)
class RandTestConfig:
    """K random transforms and level alpha."""

    K: int
    alpha: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(
                f"alpha must lie in the open interval (0, 1), got {self.alpha}"
            )


@dataclass(frozen=True)
class RandTestOutcome:
    t0: float
    randomized: np.ndarray
    k: int
    reject: bool
    p_value: float


def order_index(K: int, alpha: float) -> int:
    """k = ceil((1 - alpha) * (K + 1)).

    The float product is nudged down by 4 eps (K + 1), a bound on its
    rounding error, so that a float alpha = j/(K+1) whose product lands a few
    ulps above the integer K+1-j still gives k = K+1-j (for j = 1 this is
    the max-test identity).  Any alpha further below j/(K+1) gives
    k = K+2-j, so the nominal level (K+1-k)/(K+1) never exceeds alpha by
    more than that rounding.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    k = math.ceil((1.0 - alpha) * (K + 1) - 4.0 * sys.float_info.epsilon * (K + 1))
    return max(k, 1)


def count_below(t0: float, randomized: np.ndarray) -> int:
    return int(np.count_nonzero(randomized < t0))


def decide(t0: float, randomized: np.ndarray, k: int) -> bool:
    """Reject iff at least k of the K+1 multiset values lie strictly below t0.

    Equivalent to t0 > (k-th smallest of {t0} union randomized): t0 itself is
    never below t0, so the count over the randomized values suffices.
    """
    return count_below(t0, randomized) >= k


def decide_stopping(t0: float, orbit, K: int, k: int) -> bool:
    """``decide`` over K orbit values that stops drawing once the outcome is
    fixed.

    ``orbit(b)`` returns the next b orbit values. They are drawn in blocks of
    1, 2, 4, ... rows, capped at the rows left, until k values lie strictly
    below t0 (reject) or more than K - k do not (accept). The result equals
    ``decide(t0, values, k)`` on all K values; when the blocks are prefixes
    of one draw of all K, the values drawn are a prefix of those K values.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    drawn = below = 0
    block = 1
    while True:
        b = min(block, K - drawn)
        below += count_below(t0, orbit(b))
        drawn += b
        if below >= k or drawn - below > K - k:
            return below >= k
        block *= 2


def p_value_from_counts(t0: float, randomized: np.ndarray) -> float:
    return (1.0 + int(np.count_nonzero(randomized >= t0))) / (randomized.size + 1.0)


def all_sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign vectors as a (2^n, n) float array; row 0 is the identity."""
    masks = np.arange(2 ** n, dtype=np.uint32)[:, None]
    bits = (masks >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return 1.0 - 2.0 * bits.astype(float)


def orbit_values(
    x,
    f: TestStatistic,
    action: GroupAction,
    K: int,
    rng: RngStream | np.random.Generator,
) -> tuple[float, np.ndarray]:
    """t0 = f(X) and the values f(G_1 X), ..., f(G_K X) of K iid group
    elements.

    A statistic with a summary f(X) = g(W X) is evaluated on row sums, not on
    images: under signflips and permutations, on the sums of the K acted
    weights W G_k against X; under rotate_full on a matrix, on K rotations
    of the sums W X, whose law is that of the sums of K rotated images (a
    one-row W X maps to uniform points on its sphere). t0 is g on the
    identity's row W X, computed by the same expression, so an element that
    leaves the sums unchanged ties with t0 exactly. Other statistics and
    rotate_per_column evaluate f on the K images.

    The K values are drawn in row blocks of at most ``_BLOCK_VALUES``
    values, which bounds memory. Each block is a prefix of the rest of the
    stream, so the values do not depend on the block size.
    """
    gen = as_generator(rng)
    reduced = f.summary is not None and (
        action.kind in ("signflip_rows", "permute_rows")
        or (action.kind == "rotate_full" and np.ndim(x) == 2))
    if reduced:
        arr = as_matrix(x)
        s = f.summary(arr.shape[0])
        sums = weighted_rows(s.w, arr)
        t0 = float(s.g(sums[None])[0])
        if action.kind == "rotate_full":
            def draw(b):
                return s.g(action.randomize_batch(sums, b, gen))
        else:
            def draw(b):
                return s.g(weighted_rows(action.randomize_weights(s.w, b, gen), arr))
        size = s.w.size + sums.size
    else:
        t0 = f(x)
        arr = np.asarray(x, dtype=float)

        def draw(b):
            return f.values(action.randomize_batch(arr, b, gen))
        size = arr.size
    rows = max(1, _BLOCK_VALUES // max(size, 1))
    randomized = np.concatenate([draw(min(rows, K - i)) for i in range(0, K, rows)])
    if not (np.isfinite(t0) and np.all(np.isfinite(randomized))):
        raise ValueError(f"statistic {f.name} returned non-finite value")
    return t0, randomized


def run_randomization_test(
    x,
    f: TestStatistic,
    action: GroupAction,
    cfg: RandTestConfig,
    rng: RngStream | np.random.Generator,
) -> RandTestOutcome:
    """Sample K iid group elements, compare f(X) against the randomized orbit
    of ``orbit_values``.

    The identity enters the multiset exactly once, as the observed value
    itself. The reported p-value uses the >= convention, so reject and
    p_value <= alpha coincide only in the absence of ties. A test with
    k > K can never reject; it runs, with a RuntimeWarning.
    """
    t0, randomized = orbit_values(x, f, action, cfg.K, rng)
    k = order_index(cfg.K, cfg.alpha)
    if k > cfg.K:
        warnings.warn(f"k = {k} exceeds K = {cfg.K} at alpha = {cfg.alpha}, "
                      "so this test can never reject", RuntimeWarning)
    return RandTestOutcome(
        t0=t0,
        randomized=randomized,
        k=k,
        reject=decide(t0, randomized, k),
        p_value=p_value_from_counts(t0, randomized),
    )


def run_max_test(
    x,
    f: TestStatistic,
    action: GroupAction,
    K: int,
    rng: RngStream | np.random.Generator,
) -> RandTestOutcome:
    """Reject iff f(X) strictly exceeds all K randomized values.

    This is the quantile rule at alpha = 1/(K+1), where ``order_index``
    gives k = K.
    """
    return run_randomization_test(x, f, action, RandTestConfig(K, 1.0 / (K + 1)), rng)


def brute_force_full_group_test(
    x,
    f: TestStatistic,
    kind: str,
    alpha: float,
) -> RandTestOutcome:
    """Enumerate the whole group and apply the k-rule with K + 1 = |group|.

    The exact-level oracle used to validate the sampled tests. Enumeration is
    refused above 2^16 signflips or 7! permutations.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    arr = as_matrix(x)
    n = arr.shape[0]
    values = []
    if kind == "signflip_rows":
        if n > MAX_SIGNFLIP_ROWS:
            raise ValueError(
                f"full signflip enumeration limited to n <= {MAX_SIGNFLIP_ROWS}, got {n}"
            )
        signs = all_sign_patterns(n)
        for row in signs:
            values.append(f(row[:, None] * arr))
    elif kind == "permute_rows":
        if n > MAX_PERMUTE_ROWS:
            raise ValueError(
                f"full permutation enumeration limited to n <= {MAX_PERMUTE_ROWS}, got {n}"
            )
        for perm in itertools.permutations(range(n)):
            values.append(f(arr[list(perm)]))
    else:
        raise ValueError(
            f"brute force covers the discrete kinds signflip_rows/permute_rows, got {kind!r}"
        )
    values = np.asarray(values)
    t0 = values[0]
    randomized = values[1:]
    k = order_index(randomized.size, alpha)
    return RandTestOutcome(
        t0=float(t0),
        randomized=randomized,
        k=k,
        reject=decide(float(t0), randomized, k),
        p_value=p_value_from_counts(float(t0), randomized),
    )


def project_out_nuisance(x, basis) -> np.ndarray:
    """Project the rows' space against a known nuisance span.

    Returns P X where P is the orthogonal projector onto the complement of
    span(basis); e.g. basis = [ones(n)] centers every column.
    """
    arr = as_matrix(x)
    b = np.column_stack([np.asarray(v, dtype=float) for v in basis])
    if b.shape[0] != arr.shape[0]:
        raise ValueError(
            f"basis vectors have length {b.shape[0]}, data has {arr.shape[0]} rows"
        )
    # the SVD reports only min(n, m) singular values, so a basis with more
    # vectors than rows, always dependent, needs its own test
    sv = np.linalg.svd(b, compute_uv=False)
    if b.shape[1] > b.shape[0] or sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("nuisance basis is (numerically) linearly dependent")
    q, _ = np.linalg.qr(b)
    return arr - q @ (q.T @ arr)
