"""Self-check suite behind the ``validate`` command.

Each check exercises one documented invariant of the library: numerical
kernels, distributional properties of the group samplers, exact level of
the randomization engine, noise-family symmetries, the closed-form theory
quantities, and experiment levels and reproducibility.  ``quick`` runs
reduced replicate counts; ``full`` runs the documented ones.
Contracts that an installed NumPy, SciPy or BLAS cannot change (stream
determinism, the exact discrete group actions, the theory's monotonicity,
CSV round trips, the CLI) are asserted by the test suite alone.
``null_levels`` and ``worker_determinism`` take their configs as arguments,
so the acceptance suite asserts those invariants through the same code.

Each check draws from its own RngStream lane, keyed by the CRC-32 of the
check function's name, so the suite is reproducible and adding, removing or
reordering a check leaves every other check's draws unchanged.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np
from scipy import stats as _spstats

from . import experiments as _exp
from .engine import (
    RandTestConfig,
    all_sign_patterns,
    count_below,
    exact_level,
    run_randomization_test,
)
from .groups import GroupAction, _orthonormal_frames, _sphere_images
from .noise import NoiseSpec, sample_noise
from .numerics import RngStream, normal_cdf, normal_quantile, operator_norm, \
    qr_orthonormalize
from .statistics import TestStatistic, check_psi_subadditive, make_statistic, \
    shipped_statistics
from .theory import tau_star_sparse, varL_lowrank_exact

__all__ = ["CheckResult", "run_validation", "format_ledger", "scenario_catalog"]

LEVELS = ("quick", "full")

_BUDGETS = {
    "quick": dict(
        qr_mats=100, qr_max=20, opnorm_mats=10,
        ks_draws=3000, level_reps=1200,
        subadd_trials=1000, mono_reps=400,
        null_reps=dict(sparse_vector=600, heavy_tail=400, two_sample=800,
                       lowrank=200, regression=300),
        enum_max_n=8,
        repro_reps=100, repro_points=3,
    ),
    "full": dict(
        qr_mats=1000, qr_max=50, opnorm_mats=40,
        ks_draws=20000, level_reps=10000,
        subadd_trials=10000, mono_reps=1000,
        null_reps=dict(sparse_vector=1000, heavy_tail=1000, two_sample=1000,
                       lowrank=500, regression=500),
        enum_max_n=12,
        repro_reps=200, repro_points=4,
    ),
}

KS_ALPHA = 0.01
CHI2_ALPHA = 0.01


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CatalogEntry:
    """A (group, statistic, noise) triple whose invariance is exact."""

    name: str
    action: GroupAction
    statistic: TestStatistic
    noise: NoiseSpec


def scenario_catalog() -> list[CatalogEntry]:
    """The shipped pairings used by the catalog rank and level check.

    Each statistic varies over its group's orbit (a signflip-invariant
    statistic would produce all-tied orbits) and each noise law is invariant
    under its group.
    """
    return [
        CatalogEntry(
            "signflip_colmean_normal",
            GroupAction("signflip_rows", n=16),
            make_statistic("colmean_linf", sample_shape=(16, 5)),
            NoiseSpec("iid_normal", 16, 5),
        ),
        CatalogEntry(
            "signflip_colmean_t3",
            GroupAction("signflip_rows", n=16),
            make_statistic("colmean_linf", sample_shape=(16, 5)),
            NoiseSpec("iid_student", 16, 5, df=3.0),
        ),
        CatalogEntry(
            "permute_twosample_normal",
            GroupAction("permute_rows", n=10),
            make_statistic("twosample_diff", n=5, n_prime=5, norm="l2",
                           sample_shape=(10, 2)),
            NoiseSpec("iid_normal", 10, 2),
        ),
        CatalogEntry(
            "rotate_full_colmean_spherical",
            GroupAction("rotate_full", p=5),
            make_statistic("colmean_linf", sample_shape=(6, 5)),
            NoiseSpec("spherical", 6, 5, radial="normal"),
        ),
        CatalogEntry(
            "rotate_per_column_opnorm_normal",
            GroupAction("rotate_per_column", n=6, p=4),
            make_statistic("opnorm", sample_shape=(6, 4)),
            NoiseSpec("iid_normal", 6, 4),
        ),
    ]


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# numerics

def _check_qr(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.generator()
    worst = 0.0
    for _ in range(budget["qr_mats"]):
        size = int(gen.integers(1, budget["qr_max"] + 1))
        a = gen.standard_normal((size, size))
        q, r = qr_orthonormalize(a)
        scale = np.linalg.norm(a) + 1.0
        worst = max(worst, np.linalg.norm(q @ r - a) / scale,
                    np.linalg.norm(q.T @ q - np.eye(size)),
                    float(np.max(np.diag(r) < 0)))  # sign convention: diag(R) >= 0
    return _result("qr_residuals", worst <= 1e-10,
                   f"worst residual {worst:.3e} over {budget['qr_mats']} matrices")


def _check_opnorm(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.generator()
    details = []
    opnorm = make_statistic("opnorm")
    gap = 0.0  # the opnorm statistic's Gram evaluation against the SVD
    for _ in range(budget["opnorm_mats"]):
        a = gen.standard_normal((int(gen.integers(2, 20)), int(gen.integers(2, 20))))
        s = operator_norm(a)
        v = gen.standard_normal((100, a.shape[1]))
        ratio = np.max(np.linalg.norm(v @ a.T, axis=1) / np.linalg.norm(v, axis=1))
        if ratio > s + 1e-9:
            details.append(f"Av ratio {ratio} exceeds opnorm {s}")
        c = float(gen.standard_normal())
        if abs(operator_norm(c * a) - abs(c) * s) > 1e-12 * (abs(c) * s + 1.0):
            details.append("homogeneity violated")
        for m in (a, c * a):
            gap = max(gap, abs(opnorm(m) / operator_norm(m) - 1.0))
        b = gen.standard_normal(a.shape)
        if operator_norm(a + b) > s + operator_norm(b) + 1e-9:
            details.append("triangle inequality violated")
    if gap > 1e-12:
        details.append(f"opnorm statistic off the SVD by {gap:.3e} relative")
    return _result("opnorm_properties", not details,
                   "; ".join(details) if details else
                   f"{budget['opnorm_mats']} matrices, 100 vectors each, "
                   f"opnorm statistic within {gap:.1e} of the SVD")


def _check_quantile_roundtrip(stream: RngStream, budget: dict) -> CheckResult:
    us = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    worst = max(abs(normal_quantile(normal_cdf(normal_quantile(u))) -
                    normal_quantile(u)) for u in us)
    # independent direction: quantile then erf-based cdf returns u
    worst_u = max(abs(normal_cdf(normal_quantile(u)) - u) for u in us)
    return _result("normal_quantile_roundtrip",
                   worst <= 1e-7 and worst_u <= 1e-7,
                   f"max |q(cdf(q(u))) - q(u)| = {worst:.2e}, "
                   f"max |cdf(q(u)) - u| = {worst_u:.2e}")


# ---------------------------------------------------------------------------
# groups

def _check_haar_invariance(stream: RngStream, budget: dict) -> CheckResult:
    p = 5
    draws = budget["ks_draws"]
    q = _orthonormal_frames((1, p, p), stream.child(0).generator())[0]
    gen = stream.child(1).generator()
    t_plain = np.trace(_orthonormal_frames((draws, p, p), gen), axis1=1, axis2=2)
    t_mult = np.trace(q @ _orthonormal_frames((draws, p, p), gen), axis1=1, axis2=2)
    pval = _spstats.ks_2samp(t_plain, t_mult).pvalue
    return _result("haar_trace_invariance", pval > KS_ALPHA,
                   f"KS p-value {pval:.4f} on {draws} draws each")


def _check_lazy_eager(stream: RngStream, budget: dict) -> CheckResult:
    p = 6
    draws = budget["ks_draws"]
    x = stream.child(0).generator().standard_normal(p)
    gen = stream.child(1).generator()
    lazy = np.max(np.abs(_sphere_images(x, draws, gen)), axis=1)
    eager = np.max(np.abs(_orthonormal_frames((draws, p, p), gen) @ x), axis=1)
    pval = _spstats.ks_2samp(lazy, eager).pvalue
    return _result("lazy_eager_agreement", pval > KS_ALPHA,
                   f"KS p-value {pval:.4f} on {draws} draws each")


# ---------------------------------------------------------------------------
# statistics

def _check_subadditivity(stream: RngStream, budget: dict) -> CheckResult:
    trials = budget["subadd_trials"]
    fails = []
    for idx, f in enumerate(shipped_statistics()):
        for j, scale in enumerate((0.1, 1.0, 10.0)):
            v = check_psi_subadditive(f, trials, scale, stream.child(idx).child(j))
            if v:
                fails.append(f"{f.name}@{scale}: {v}")
    # negative control: psi = 1 on a squared norm must violate
    control = TestStatistic("sq_norm_control", 1.0,
                            lambda xs: np.sum(xs ** 2, axis=1), (6,))
    v = check_psi_subadditive(control, trials, 1.0, stream.child(99))
    return _result("subadditivity_suite", not fails and v > 0,
                   ("violations: " + "; ".join(fails)) if fails else
                   f"0 violations at 3 scales x {trials} trials; "
                   f"control violated {v} times")


def _check_homogeneity(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.generator()
    worst = 0.0
    for f in shipped_statistics():
        for _ in range(20):
            x = gen.standard_normal(f.sample_shape)
            c = float(gen.standard_normal())
            fx = f(x)
            worst = max(worst, abs(f(c * x) - abs(c) * fx) / (abs(c) * fx + 1.0))
    return _result("statistic_homogeneity", worst <= 1e-12,
                   f"max relative deviation {worst:.2e}")


def _check_colmean_identity(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.generator()
    ok = True
    f = make_statistic("colmean_linf", sample_shape=(8, 4))
    # dyadic signals keep every partial row sum exactly representable, so
    # the identity must hold bitwise regardless of summation order
    for _ in range(25):
        s = gen.integers(-64, 65, size=4) / 16.0
        for n in (5, 7, 8):
            x = np.ones((n, 1)) @ s[None, :]
            if f(x) != np.max(np.abs(s)):
                ok = False
    # generic mantissas may round once per row accumulation; a few eps is
    # the attainable form of the same identity
    worst = 0.0
    for _ in range(25):
        s = gen.standard_normal(4)
        x = np.ones((8, 1)) @ s[None, :]
        target = float(np.max(np.abs(s)))
        worst = max(worst, abs(f(x) - target) / target)
    ok = ok and worst <= 4.0 * np.finfo(float).eps
    return _result("colmean_signal_identity", ok,
                   f"bitwise on dyadic signals; {worst:.2e} relative on "
                   "gaussian signals")


# ---------------------------------------------------------------------------
# engine

def _check_catalog_rank_and_level(stream: RngStream, budget: dict) -> CheckResult:
    """Under the null t0 is exchangeable with its K randomized values, so its
    rank among them, ties broken at random, is uniform on 0..K, and the
    k-of-K+1 rejection with ties broken the same way has level
    ``exact_level(K, alpha)``, which must lie in (alpha - 1/(K+1), alpha]: a
    k off by one either way moves it out. A replicate with c = ``count_below``
    and e ties adds its expectation over the tie-break: 1/(e+1) to each rank
    c..c+e, and to the level ``reject`` (c >= k) or else the share of those
    ranks >= k. Within-half permutations tie with t0 at rate 1/126, which
    would lower the level of ``reject`` alone to 0.0461 at K = 19."""
    K, alpha = 19, 0.05
    reps = budget["level_reps"]
    crit = _spstats.chi2.ppf(1.0 - CHI2_ALPHA, df=K)
    expected = reps / (K + 1)
    target = exact_level(K, alpha)
    band = 3.0 * math.sqrt(target * (1.0 - target) / reps)
    cfg = RandTestConfig(K=K, alpha=alpha)
    fails = [] if alpha - 1.0 / (K + 1) < target <= alpha else ["level target"]
    details = []
    for idx, entry in enumerate(scenario_catalog()):
        gen = stream.child(idx).generator()
        cells = np.zeros(K + 1)
        rejections = 0.0
        ties = 0
        for _ in range(reps):
            x = sample_noise(entry.noise, gen)
            out = run_randomization_test(x, entry.statistic, entry.action, cfg, gen)
            below = count_below(out.t0, out.randomized)
            tied = int(np.sum(out.randomized == out.t0))
            cells[below:below + tied + 1] += 1.0 / (tied + 1)
            rejections += 1.0 if out.reject else \
                max(0, below + tied + 1 - out.k) / (tied + 1)
            ties += tied
        chi2 = float(np.sum((cells - expected) ** 2 / expected))
        freq = rejections / reps
        details.append(f"{entry.name}: chi2={chi2:.2f}, level {freq:.4f}, {ties} ties")
        if chi2 > crit or abs(freq - target) > band:
            fails.append(entry.name)
    return _result("catalog_rank_and_level", not fails,
                   f"chi2 crit {crit:.2f}, level target {target}, band +-{band:.4f}; "
                   + "; ".join(details))


def _check_engine_monotonicity(stream: RngStream, budget: dict) -> CheckResult:
    cfg = _exp.sparse_vector_config(
        seed=int(stream.child(0).generator().integers(2 ** 31)),
        grid_points=5, replicates=budget["mono_reps"], ks=(19,))
    curve = _exp.run_experiment(cfg)
    fails = []
    for method in curve.methods:
        power = curve.series(method)
        se = curve.se_series(method)
        for i in range(len(power) - 1):
            if power[i + 1] < power[i] - 2.0 * (se[i] + se[i + 1]):
                fails.append(f"{method}@{i}")
    return _result("power_monotonicity", not fails,
                   "; ".join(fails) if fails else
                   f"nondecreasing up to 2 SE on {len(curve.grid)} points")


# ---------------------------------------------------------------------------
# noise

def _check_sign_symmetry(stream: RngStream, budget: dict) -> CheckResult:
    spec = NoiseSpec("heteroskedastic_sign_symmetric", 8, 4)
    m = max(budget["ks_draws"] // 2, 1000)
    gen = stream.generator()
    sums_a = np.array([sample_noise(spec, gen).sum(axis=1) for _ in range(m // 8 + 1)])
    sums_b = np.array([sample_noise(spec, gen).sum(axis=1) for _ in range(m // 8 + 1)])
    pval = _spstats.ks_2samp(sums_a.ravel(), -sums_b.ravel()).pvalue
    return _result("noise_sign_symmetry", pval > KS_ALPHA,
                   f"KS p-value {pval:.4f} comparing row sums against negations")


def _check_rotational_invariance(stream: RngStream, budget: dict) -> CheckResult:
    p = 8
    spec = NoiseSpec("spherical", 64, p, radial="student", df=4.0)
    o = _orthonormal_frames((1, p, p), stream.child(0).generator())[0]
    gen = stream.child(1).generator()
    batches = max(budget["ks_draws"] // 64, 10)
    plain = np.concatenate([
        np.max(np.abs(sample_noise(spec, gen)), axis=1) for _ in range(batches)])
    rotated = np.concatenate([
        np.max(np.abs(sample_noise(spec, gen) @ o.T), axis=1)
        for _ in range(batches)])
    pval = _spstats.ks_2samp(plain, rotated).pvalue
    return _result("noise_rotational_invariance", pval > KS_ALPHA,
                   f"KS p-value {pval:.4f} on {batches * 64} rows each")


def _check_heavy_tails(stream: RngStream, budget: dict) -> CheckResult:
    x = sample_noise(NoiseSpec("iid_student", 1000, 100, df=1.0), stream)
    exceed = int(np.sum(np.abs(x) > 100.0))
    prob = 1.0 - 2.0 * math.atan(100.0) / math.pi  # P(|Cauchy| > 100)
    expected = x.size * prob
    band = 3.0 * math.sqrt(x.size * prob * (1.0 - prob))
    return _result("noise_heavy_tails", abs(exceed - expected) <= band,
                   f"|entry|>100 observed {exceed}, expected {expected:.1f} "
                   f"+-{band:.1f} of {x.size}")


# ---------------------------------------------------------------------------
# theory

def _check_varl_enumeration(stream: RngStream, budget: dict) -> CheckResult:
    # brute force: the mean of exp(tau^2 <e, e'>^2 / (2 n)) over all 4^n
    # sign-vector pairs, blocked so the n = 12 Gram matrix never materializes
    taus = (0.4, 0.8, 0.9)
    worst = 0.0
    for n in range(1, budget["enum_max_n"] + 1):
        signs = all_sign_patterns(n)
        totals = np.zeros(len(taus))
        for lo in range(0, signs.shape[0], 512):
            g2 = (signs[lo:lo + 512] @ signs.T) ** 2 / (2.0 * n)
            totals += [np.sum(np.exp(tau * tau * g2)) for tau in taus]
        for tau, total in zip(taus, totals):
            closed = varL_lowrank_exact(n, tau)
            brute = total / float(signs.shape[0]) ** 2
            worst = max(worst, abs(brute - closed) / closed)
    return _result("varl_lowrank_enumeration", worst <= 1e-12,
                   f"max relative gap {worst:.2e} (bound 1e-12) for "
                   f"n <= {budget['enum_max_n']}, tau in {taus}")


def _check_rate_calibration(stream: RngStream, budget: dict) -> CheckResult:
    ratios = []
    for n, p in ((50, 100), (200, 1000), (1000, 10_000)):
        ratios.append(tau_star_sparse(n, p) / math.sqrt(math.log(p) / n))
    spread = max(ratios) / min(ratios)
    return _result("rate_calibration", spread < 1.25,
                   f"ratios {', '.join(f'{r:.5f}' for r in ratios)}; "
                   f"max/min = {spread:.5f} (bound 1.25)")


# ---------------------------------------------------------------------------
# experiments

def null_levels(labeled: list[tuple[str, _exp.ScenarioConfig]],
                workers: int = 1) -> CheckResult:
    """Run each (label, config) at signal 0 on ``workers`` processes and
    check every method's level within 3 binomial SE of its target: alpha
    for the deterministic and t tests, ``exact_level(K, alpha)`` for a test
    with K randomized values."""
    fails = []
    details = []
    for label, cfg in labeled:
        curve = _exp.run_experiment(cfg, workers=workers)
        for meth in cfg.parsed:
            target = exact_level(meth.K, cfg.alpha) if meth.K else cfg.alpha
            freq = float(curve.series(meth.label)[0])
            band = 3.0 * math.sqrt(target * (1.0 - target) / cfg.replicates)
            details.append(f"{label}/{meth.label}: {freq:.4f}")
            if abs(freq - target) > band:
                fails.append(f"{label}/{meth.label}")
    return _result("experiment_null_levels", not fails,
                   ("off: " + "; ".join(fails) + " | " if fails else "") + "; ".join(details))


def _check_null_levels(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.generator()
    reps = budget["null_reps"]
    return null_levels([
        (scenario, _exp._SCENARIO_ROWS[scenario].factory(
            int(gen.integers(2 ** 31)), grid_points=1, replicates=reps[scenario]))
        for scenario in _exp.SCENARIOS])


def worker_determinism(configs: list[_exp.ScenarioConfig],
                       workers: tuple[int, ...]) -> CheckResult:
    """Run each config once per worker count and compare the CSVs."""
    differ = [cfg.scenario for cfg in configs
              if len({_exp.run_experiment(cfg, workers=w).to_csv() for w in workers}) > 1]
    return _result("experiment_reproducibility", not differ,
                   f"CSV differs across workers {workers}: {', '.join(differ)}" if differ
                   else f"identical CSV at workers {workers}")


def _check_experiment_reproducible(stream: RngStream, budget: dict) -> CheckResult:
    seed = int(stream.generator().integers(2 ** 31))
    cfg = _exp.two_sample_config(seed, grid_points=budget["repro_points"],
                                 replicates=budget["repro_reps"])
    return worker_determinism([cfg], (1, 1, 2))


_REGISTRY = [
    _check_qr,
    _check_opnorm,
    _check_quantile_roundtrip,
    _check_haar_invariance,
    _check_lazy_eager,
    _check_subadditivity,
    _check_homogeneity,
    _check_colmean_identity,
    _check_catalog_rank_and_level,
    _check_engine_monotonicity,
    _check_sign_symmetry,
    _check_rotational_invariance,
    _check_heavy_tails,
    _check_varl_enumeration,
    _check_rate_calibration,
    _check_null_levels,
    _check_experiment_reproducible,
]


def _lane(check) -> int:
    """The RngStream id of a check: the CRC-32 of its function name."""
    return zlib.crc32(check.__name__.encode())


def run_validation(level: str = "quick") -> list[CheckResult]:
    """Run every registered check and return its result, in registry order."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    budget = _BUDGETS[level]
    return [check(RngStream(20260815, _lane(check)), budget) for check in _REGISTRY]


def format_ledger(results: list[CheckResult]) -> str:
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results]
    failed = [r.name for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        lines.append(f"first failing property: {failed[0]}")
    return "\n".join(lines)
