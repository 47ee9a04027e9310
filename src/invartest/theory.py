"""Minimax lower-bound quantities, Bernoulli-process bounds, and the
finite-m consistency-condition margins.

The margins normalize each proposition's displayed ratio so that a value
above 1 means the condition's threshold is met; stated thresholds of 2 are
folded into the returned ratio. The low-rank display uses the constant 2
although its proof concludes with 1; the ratio here is reported against the
stated 2, so a margin in (0.5, 1] may still correspond to a consistent
regime under the proof's constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import _signs
from .numerics import RngStream, as_generator, as_matrix, as_vector, check_integer, pseudo_inverse

__all__ = [
    "BernoulliBound",
    "ConsistencyInputs",
    "MarginReport",
    "chi2_shift_gaussian",
    "varL_sparse",
    "varL_lowrank_exact",
    "tau_star_sparse",
    "bernoulli_bound_regression",
    "bernoulli_bound_design",
    "consistency_margin",
]

PROPOSITIONS = ("sparse_signflip", "sparse_rotation", "lowrank", "regression",
                "twosample")

# ConsistencyInputs' nonnegative real fields; psi is real too, in (0, 1]
REAL_FIELDS = ("s_inf", "s_2", "s_op", "s_2inf", "delta", "t", "t2", "t_tilde", "u_plus")

# exp() overflows past ~709.78; anything above this exponent is reported as
# the +infinity flag rather than a raised error
_EXP_LIMIT = 700.0


def chi2_shift_gaussian(tau: float) -> float:
    """Chi-squared divergence between N(tau, 1) and N(0, 1): exp(tau^2) - 1."""
    if math.isnan(tau):
        raise ValueError(f"tau must be a number, got {tau}")
    t2 = float(tau) * float(tau)
    if t2 > _EXP_LIMIT:
        return math.inf
    return math.expm1(t2)


def varL_sparse(n: int, p: int, chi2: float) -> float:
    """Variance of the averaged likelihood ratio for the sparse prior:
    ((1 + chi2)^n - 1) / p, computed in log space.

    Returns +infinity when n * log1p(chi2) exceeds the exp range.
    """
    check_integer("n", n, 1)
    check_integer("p", p, 1)
    if not chi2 >= 0:  # NaN fails too
        raise ValueError(f"chi2 must be >= 0, got {chi2}")
    exponent = n * math.log1p(chi2)
    if exponent > _EXP_LIMIT:
        return math.inf
    return math.expm1(exponent) / p


def varL_lowrank_exact(n: int, tau: float) -> float:
    """E exp(tau^2 (v^T v')^2 n / 2) for independent uniform sign vectors
    v, v' in {+-1}^n / sqrt(n), via the exact binomial sum.

    The inner product depends only on the number of agreeing coordinates, so
    the 4^n pairs collapse to n + 1 binomial terms.
    """
    check_integer("n", n, 1)
    if n > 30:
        raise ValueError(f"exact enumeration limited to 1 <= n <= 30, got {n}")
    if math.isnan(tau):
        raise ValueError(f"tau must be a number, got {tau}")
    t2 = float(tau) * float(tau)
    if t2 * n / 2.0 > _EXP_LIMIT:
        return math.inf
    total = 0.0
    for j in range(n + 1):
        weight = math.comb(n, j) / 2.0 ** n
        s = n - 2 * j
        total += weight * math.exp(t2 * s * s / (2.0 * n))
    return total


def tau_star_sparse(n: int, p: int) -> float:
    """Smallest tau with varL_sparse(n, p, chi2_shift_gaussian(tau)) >= 1.

    With chi2 = exp(tau^2) - 1 the equation ((1 + chi2)^n - 1) / p = 1 solves
    to tau = sqrt(log(1 + p) / n). Rounding can leave that value an ulp or two
    short of the inequality, so it is stepped up until the inequality holds.
    """
    check_integer("n", n, 1)
    check_integer("p", p, 1)
    tau = math.sqrt(math.log1p(p) / n)
    while varL_sparse(n, p, chi2_shift_gaussian(tau)) < 1.0:
        tau = math.nextafter(tau, math.inf)
    return tau


@dataclass(frozen=True)
class BernoulliBound:
    """Monte Carlo estimate of U+(T, l) = b(T) + l * r(T)."""

    b_estimate: float
    r_value: float
    l: float
    u_plus: float
    mc_samples: int
    mc_standard_error: float


def bernoulli_bound_regression(
    x,
    eps_abs,
    l: float,
    mc: int,
    rng: RngStream | np.random.Generator,
) -> BernoulliBound:
    """Bound for the process generated by [X^+ diag(|eps|); -X^+ diag(|eps|)].

    b is the Monte Carlo mean of ||X^+ diag(|eps|) b||_inf over sign vectors
    b; r is the largest row l2 norm of X^+ diag(|eps|), an origin-centered
    over-estimate of the enclosing-ball radius.
    """
    _check_bound_args(l, mc)
    x = as_matrix(x, "X")
    eps = as_vector(eps_abs, "eps_abs")
    if eps.shape[0] != x.shape[0]:
        raise ValueError(
            f"eps_abs has length {eps.shape[0]}, design has {x.shape[0]} rows"
        )
    return _bernoulli_bound((pseudo_inverse(x) * eps[None, :])[:, None, :], l, mc, rng)


def bernoulli_bound_design(
    x,
    l: float,
    mc: int,
    rng: RngStream | np.random.Generator,
) -> BernoulliBound:
    """Bound for the design-only process {diag([X^+]_j) X w : ||w||_inf <= 1}.

    The supremum over w turns each generator into an l1 norm, so b is the
    Monte Carlo mean of max_j ||X^T diag([X^+]_j) b||_1. r aggregates over
    the design's columns: max_j sum_q ||[X^+]_j .* X_q||_2, a triangle-
    inequality over-estimate of the true vertex radius (exact when p = 1).
    """
    _check_bound_args(l, mc)
    x = as_matrix(x, "X")
    # gens[j, q, k] = [X^+]_{j,k} * X_{k,q}
    return _bernoulli_bound(pseudo_inverse(x)[:, None, :] * x.T[None, :, :], l, mc, rng)


def _check_bound_args(l: float, mc: int):
    if not l > 0:  # NaN fails too
        raise ValueError(f"l must be > 0, got {l}")
    check_integer("mc", mc, 100)


def _bernoulli_bound(gens: np.ndarray, l: float, mc: int, rng) -> BernoulliBound:
    """U+ over generators gens[j, q] in R^n: b is the Monte Carlo mean over sign
    vectors b of max_j sum_q |<gens[j, q], b>|; r = max_j sum_q ||gens[j, q]||_2."""
    J, Q, n = gens.shape
    signs = _signs(mc, n, as_generator(rng))
    inner = (signs @ gens.reshape(J * Q, n).T).reshape(mc, J, Q)
    sups = np.max(np.sum(np.abs(inner), axis=2), axis=1)
    b_est = float(np.mean(sups))
    se = float(np.std(sups, ddof=1) / math.sqrt(mc))
    r = float(np.max(np.sum(np.sqrt(np.sum(gens ** 2, axis=2)), axis=1)))
    return BernoulliBound(b_est, r, l, b_est + l * r, mc, se)


@dataclass(frozen=True)
class ConsistencyInputs:
    """Finite-m quantities entering a proposition's consistency condition.

    Which fields are required depends on the proposition:
      sparse_signflip  s_inf, t
      sparse_rotation  s_inf, s_2, t2, p
      lowrank          s_op, s_2inf, t2, n, p
      regression       s_inf (= ||X^+ X beta||_inf), u_plus, t
      twosample        delta (= ||mu' - mu||), t
    psi is the statistic's subadditivity constant; t_tilde is the optional
    randomized-statistic level for the general theorem margin.
    """

    proposition: str
    s_inf: float | None = None
    s_2: float | None = None
    s_op: float | None = None
    s_2inf: float | None = None
    delta: float | None = None
    t: float | None = None
    t2: float | None = None
    t_tilde: float | None = None
    u_plus: float | None = None
    n: int | None = None
    p: int | None = None
    psi: float = 1.0

    def __post_init__(self):
        if self.proposition not in PROPOSITIONS:
            raise ValueError(f"unknown proposition {self.proposition!r}")
        if not 0.0 < self.psi <= 1.0:
            raise ValueError(f"psi must lie in (0, 1], got {self.psi}")
        for name in REAL_FIELDS:
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative, got {value}")
        # lowrank divides by sqrt(n), sparse_rotation by sqrt(2 log p)
        least_p = 2 if self.proposition == "sparse_rotation" else 1
        for name, least in (("n", 1), ("p", least_p)):
            if getattr(self, name) is not None:
                check_integer(name, getattr(self, name), least)


@dataclass(frozen=True)
class MarginReport:
    """The proposition's normalized ratio plus comparison margins.

    margin > 1 means the randomization condition's threshold is met at these
    finite values. deterministic_margin is the analogous ratio for the
    deterministic comparator test; theorem_margin is the general
    f(s) / (psi^-2 t_tilde + psi^-1 (psi^-1 + 1) t) ratio when t_tilde is
    supplied.
    """

    proposition: str
    margin: float
    deterministic_margin: float | None
    theorem_margin: float | None


def _need(inputs: ConsistencyInputs, *names: str) -> list[float]:
    missing = [n for n in names if getattr(inputs, n) is None]
    if missing:
        raise ValueError(
            f"proposition {inputs.proposition!r} needs inputs: {', '.join(missing)}"
        )
    return [getattr(inputs, n) for n in names]


def consistency_margin(inputs: ConsistencyInputs) -> MarginReport:
    """Finite-m value of each proposition's consistency ratio.

    Raises ValueError naming any missing field.
    """
    prop = inputs.proposition
    det = None
    if prop == "sparse_signflip":
        s_inf, t = _need(inputs, "s_inf", "t")
        margin = _ratio(s_inf, 2.0 * t)
        det = margin
        signal = s_inf
    elif prop == "sparse_rotation":
        s_inf, s_2, t2, p = _need(inputs, "s_inf", "s_2", "t2", "p")
        numer = s_inf / math.sqrt(2.0 * math.log(p))
        margin = _ratio(numer, (s_2 + 2.0 * t2) / math.sqrt(p))
        det = _ratio(numer, 2.0 * t2 / math.sqrt(p))
        signal = s_inf
    elif prop == "lowrank":
        s_op, s_2inf, t2, n, p = _need(inputs, "s_op", "s_2inf", "t2", "n", "p")
        numer = s_op / (math.sqrt(n) + math.sqrt(p))
        ratio = _ratio(numer, (s_2inf + 2.0 * t2) / math.sqrt(n))
        margin = ratio / 2.0  # the display's threshold 2, folded in
        det = _ratio(numer, 2.0 * t2 / math.sqrt(n)) / 2.0
        signal = s_op
    elif prop == "regression":
        s_inf, u_plus, t = _need(inputs, "s_inf", "u_plus", "t")
        margin = _ratio(s_inf * (1.0 - u_plus), 2.0 * t)
        det = _ratio(s_inf, 2.0 * t)
        signal = s_inf
    else:
        delta, t = _need(inputs, "delta", "t")
        margin = _ratio(delta, 2.0 * t)  # the display's threshold 2, folded in
        det = margin
        signal = delta
    theorem = None
    if inputs.t_tilde is not None:
        t_val = inputs.t if inputs.t is not None else inputs.t2
        if t_val is None:
            raise ValueError("theorem margin needs t (or t2) alongside t_tilde")
        inv = 1.0 / inputs.psi
        theorem = _ratio(signal, inv * inv * inputs.t_tilde + inv * (inv + 1.0) * t_val)
    return MarginReport(prop, margin, det, theorem)


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0.0:
        return math.inf if numerator > 0 else 0.0
    return numerator / denominator
