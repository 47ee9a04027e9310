"""Output checks of the benchmark.

Every check compares a program output with an independent computation
(scipy distributions, numpy, exact rational arithmetic) or with a property
the method must have. None compares against a stored copy of an earlier
output, so a change that keeps the method correct keeps every check green.

The statistical checks use exact binomial tails. A check misses only when
the observed count lies in a tail of probability below ``TAIL`` under the
value the method must have, so a correct program misses one about once in
10^9 checks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
from scipy import stats

TAIL = 1e-9      # probability of each tail that counts as a miss
TOP_POWER = 0.99  # power the randomization tests must reach at the top signal
REL_TOL = 1e-9   # relative slack for floating-point orbit bounds

_METHOD_RE = re.compile(r"^(signflip|rotation|permutation)_K(\d+)")


def order_index(K: int, alpha: float) -> int:
    """k = ceil((1 - alpha)(K + 1)) in exact rational arithmetic."""
    a = Fraction(repr(alpha))
    return max(1, math.ceil((1 - a) * (K + 1)))


def exact_level(K: int, alpha: float) -> float:
    """floor(alpha (K + 1)) / (K + 1): the level of a k-of-K+1 test."""
    return math.floor(Fraction(repr(alpha)) * (K + 1)) / (K + 1)


def method_K(label: str) -> int | None:
    """K of a randomization-method label, None for deterministic / t_test."""
    m = _METHOD_RE.match(label)
    return int(m.group(2)) if m else None


# ---------------------------------------------------------------------------
# binomial bands

def binomial_band_ok(count: int, n: int, p: float) -> bool:
    """count is a plausible Binomial(n, p) draw: neither tail below TAIL."""
    lower = stats.binom.cdf(count, n, p)
    upper = stats.binom.sf(count - 1, n, p)
    return bool(lower >= TAIL and upper >= TAIL)


def power_at_least_ok(count: int, n: int, p_min: float = TOP_POWER) -> bool:
    """count is plausible for a test whose power is at least p_min."""
    return bool(stats.binom.cdf(count, n, p_min) >= TAIL)


def deviation_sum_ok(counts, n: int, powers) -> bool:
    """Summed over a curve, counts do not stray from their expectations.

    A bias shared by many grid points (a wrong critical value, say) adds up
    here while each point alone stays inside its band. The threshold comes
    from Bernstein's inequality for a sum of independent Bernoulli draws,
    so the chance of a miss on a correct program is at most TAIL.
    """
    powers = np.asarray(powers, dtype=float)
    dev = float(np.sum(counts)) - n * float(np.sum(powers))
    var = n * float(np.sum(powers * (1.0 - powers)))
    L = math.log(2.0 / TAIL)
    limit = (2.0 * L / 3.0 + math.sqrt((2.0 * L / 3.0) ** 2 + 8.0 * L * var)) / 2.0
    return abs(dev) <= limit


# ---------------------------------------------------------------------------
# closed-form power

def t_test_power(mu: float, n1: int, n2: int, alpha: float, df: int | None = None) -> float:
    """Power of the pooled two-sided t-test for a mean shift mu, unit variance.

    The statistic is noncentral t with n1 + n2 - 2 degrees of freedom and
    noncentrality mu / sqrt(1/n1 + 1/n2). ``df`` overrides the degrees of
    freedom (the negative control uses a wrong one).
    """
    if df is None:
        df = n1 + n2 - 2
    crit = stats.t.ppf(1.0 - alpha / 2.0, df)
    nc = mu / math.sqrt(1.0 / n1 + 1.0 / n2)
    if nc == 0.0:
        return float(2.0 * stats.t.sf(crit, df))
    return float(stats.nct.sf(crit, df, nc) + stats.nct.cdf(-crit, df, nc))


def sparse_deterministic_power(mu: float, n: int, p: int, alpha: float) -> float:
    """1 - (1-a)^((p-1)/p) P(|N(mu sqrt n, 1)| <= z), z = Phi^-1(((1-a)^(1/p)+1)/2)."""
    z = stats.norm.ppf(((1.0 - alpha) ** (1.0 / p) + 1.0) / 2.0)
    shift = mu * math.sqrt(n)
    inside = stats.norm.cdf(z - shift) - stats.norm.cdf(-z - shift)
    return float(1.0 - (1.0 - alpha) ** ((p - 1.0) / p) * inside)


# ---------------------------------------------------------------------------
# single randomization tests

def statistic_direct(stat_name: str, x: np.ndarray) -> float:
    """The test statistic computed directly in numpy."""
    if stat_name == "colmean_linf":
        return float(np.max(np.abs(x.mean(axis=0))))
    if stat_name == "opnorm":
        return float(np.linalg.norm(x, 2))
    if stat_name.startswith("twosample_diff"):
        half = x.shape[0] // 2
        diff = x[:half].mean(axis=0) - x[half:].mean(axis=0)
        if stat_name.endswith("_l2"):
            return float(np.linalg.norm(diff))
        return float(np.max(np.abs(diff)))
    raise ValueError(f"no direct form for statistic {stat_name!r}")


def orbit_range(group_kind: str, stat_name: str, x: np.ndarray) -> tuple[float, float]:
    """Interval that holds the statistic on every image of x under the group.

    signflip + colmean_linf:    [0, max_j mean_i |x_ij|]
    permutation + twosample:    [0, ||max_i x_ij - min_i x_ij||], the norm
                                of the per-column ranges
    rotate_full + colmean_linf: [||c||_2 / sqrt(p), ||c||_2], c the column means
    rotate_per_column + opnorm: [max_j ||x_j||_2, ||X||_F]
    """
    if group_kind == "signflip_rows" and stat_name == "colmean_linf":
        return 0.0, float(np.max(np.abs(x).mean(axis=0)))
    if group_kind == "permute_rows" and stat_name.startswith("twosample_diff"):
        spread = x.max(axis=0) - x.min(axis=0)
        if stat_name.endswith("_l2"):
            return 0.0, float(np.linalg.norm(spread))
        return 0.0, float(np.max(spread))
    if group_kind == "rotate_full" and stat_name == "colmean_linf":
        radius = float(np.linalg.norm(x.mean(axis=0)))
        return radius / math.sqrt(x.shape[1]), radius
    if group_kind == "rotate_per_column" and stat_name == "opnorm":
        return float(np.max(np.linalg.norm(x, axis=0))), float(np.linalg.norm(x))
    raise ValueError(f"no orbit range for {group_kind!r} with {stat_name!r}")


def in_range(values: np.ndarray, lo: float, hi: float) -> bool:
    slack = REL_TOL * max(abs(lo), abs(hi), 1e-300)
    return bool(np.all(values >= lo - slack) and np.all(values <= hi + slack))


def decision_ok(t0: float, randomized: np.ndarray, k: int, reject: bool,
                p_value: float, K: int, alpha: float) -> bool:
    """k, reject and p_value agree with values recomputed from the orbit."""
    below = int(np.sum(randomized < t0))
    at_or_above = int(np.sum(randomized >= t0))
    k_exact = order_index(K, alpha)
    return (randomized.size == K
            and k == k_exact
            and reject == (below >= k_exact)
            and p_value == float(Fraction(1 + at_or_above, K + 1)))


def randomization_test_ok(group_kind: str, stat_name: str, x: np.ndarray,
                          outcome, K: int, alpha: float) -> bool:
    """All checks on one run_randomization_test outcome."""
    t0_ok = math.isclose(outcome.t0, statistic_direct(stat_name, x),
                         rel_tol=1e-12, abs_tol=1e-300)
    lo, hi = orbit_range(group_kind, stat_name, x)
    return (t0_ok
            and decision_ok(outcome.t0, outcome.randomized, outcome.k,
                            outcome.reject, outcome.p_value, K, alpha)
            and in_range(outcome.randomized, lo, hi))


def draws_needed(t0: float, randomized: np.ndarray, k: int) -> int:
    """Number of draws after which the k-of-K+1 decision was settled.

    Reject is settled once k values lie below t0; accept once more than
    K - k values lie at or above t0.
    """
    K = randomized.size
    below = np.cumsum(randomized < t0)
    above = np.arange(1, K + 1) - below
    settled = np.nonzero((below >= k) | (above > K - k))[0]
    return int(settled[0]) + 1 if settled.size else K


# ---------------------------------------------------------------------------
# power curves

def power_curve_checks(scenario: str, methods: tuple[str, ...], grid: tuple[float, ...],
                       counts: np.ndarray, reps: int, cfg) -> list[tuple[str, bool]]:
    """Statistical checks on rejection counts summed over a run's blocks.

    ``counts`` has shape (len(grid), len(methods)); every cell is a
    Binomial(reps, power) draw.
    """
    out = []
    alpha = cfg.alpha
    for m, label in enumerate(methods):
        K = method_K(label)
        col = counts[:, m]
        if K is not None:
            if grid[0] == 0.0:
                out.append((f"{scenario}/{label}/null_level",
                            binomial_band_ok(int(col[0]), reps, exact_level(K, alpha))))
            if len(grid) > 1:
                out.append((f"{scenario}/{label}/top_power",
                            power_at_least_ok(int(col[-1]), reps)))
        elif label in ("t_test", "deterministic"):
            if label == "t_test":
                powers = [t_test_power(mu, cfg.n, cfg.n2, alpha) for mu in grid]
            else:
                powers = [sparse_deterministic_power(mu, cfg.n, cfg.p, alpha) for mu in grid]
            for g, power in enumerate(powers):
                out.append((f"{scenario}/{label}/closed_form@{g}",
                            binomial_band_ok(int(col[g]), reps, power)))
            out.append((f"{scenario}/{label}/closed_form_sum",
                        deviation_sum_ok(col, reps, powers)))
    return out
