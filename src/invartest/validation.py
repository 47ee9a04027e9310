"""Self-check suite behind the ``validate`` command.

Each check exercises one documented invariant of the library: numerical
kernels, distributional properties of the group samplers, exact level of
the randomization engine, noise-family symmetries, the closed-form theory
quantities, experiment reproducibility, and the CLI contract.  ``quick``
runs reduced replicate counts; ``full`` runs the documented ones.

Checks draw from disjoint RngStream lanes, so the suite is reproducible
and insensitive to registry order.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy import stats as _spstats

from . import experiments as _exp
from .engine import (
    RandTestConfig,
    all_sign_patterns,
    count_below,
    run_max_test,
    run_randomization_test,
)
from .groups import GroupAction, apply_action, compose, sample_haar_orthogonal, \
    sample_permutation, sample_signflips, sample_sphere_image
from .noise import NoiseSpec, sample_noise
from .numerics import RngStream, normal_cdf, normal_quantile, operator_norm, \
    qr_orthonormalize
from .statistics import TestStatistic, check_psi_subadditive, make_statistic, \
    shipped_statistics
from .theory import (
    bernoulli_bound_regression,
    tau_star_sparse,
    varL_lowrank_exact,
    varL_sparse,
)

__all__ = ["CheckResult", "run_validation", "format_ledger", "scenario_catalog"]

logger = logging.getLogger(__name__)

LEVELS = ("quick", "full")

_BUDGETS = {
    "quick": dict(
        qr_mats=100, qr_max=20, opnorm_mats=10,
        ks_draws=3000, exch_reps=1200, level_reps=1200,
        subadd_trials=1000, mono_reps=400,
        null_reps=dict(sparse_vector=600, heavy_tail=400, two_sample=800,
                       lowrank=200, regression=300),
        enum_max_n=8, tail_draws=100_000,
        repro_reps=100, repro_points=3,
    ),
    "full": dict(
        qr_mats=1000, qr_max=50, opnorm_mats=40,
        ks_draws=20000, exch_reps=10000, level_reps=10000,
        subadd_trials=10000, mono_reps=1000,
        null_reps=dict(sparse_vector=1000, heavy_tail=1000, two_sample=1000,
                       lowrank=500, regression=500),
        enum_max_n=12, tail_draws=100_000,
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
    """The shipped pairings used by the exchangeability and level checks.

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
        worst = max(
            worst,
            np.linalg.norm(q @ r - a) / scale,
            np.linalg.norm(q.T @ q - np.eye(size)),
            float(np.max(np.diag(r) < 0)),  # sign convention: diag(R) >= 0
        )
    return _result("qr_residuals", worst <= 1e-10,
                   f"worst residual {worst:.3e} over {budget['qr_mats']} matrices")


def _check_opnorm(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.generator()
    ok = True
    details = []
    for _ in range(budget["opnorm_mats"]):
        a = gen.standard_normal((int(gen.integers(2, 20)), int(gen.integers(2, 20))))
        s = operator_norm(a)
        for _ in range(100):
            v = gen.standard_normal(a.shape[1])
            ratio = np.linalg.norm(a @ v) / np.linalg.norm(v)
            if ratio > s + 1e-9:
                ok = False
                details.append(f"Av ratio {ratio} exceeds opnorm {s}")
        c = float(gen.standard_normal())
        if abs(operator_norm(c * a) - abs(c) * s) > 1e-12 * (abs(c) * s + 1.0):
            ok = False
            details.append("homogeneity violated")
        b = gen.standard_normal(a.shape)
        if operator_norm(a + b) > s + operator_norm(b) + 1e-9:
            ok = False
            details.append("triangle inequality violated")
    return _result("opnorm_properties", ok,
                   "; ".join(details) if details else
                   f"{budget['opnorm_mats']} matrices, 100 vectors each")


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


def _check_rngstream(stream: RngStream, budget: dict) -> CheckResult:
    a = RngStream(98765, 4).generator().standard_normal(256)
    b = RngStream(98765, 4).generator().standard_normal(256)
    c = RngStream(98765, 5).generator().standard_normal(256)
    same = bool(np.all(a == b))
    diff = not np.all(a == c)
    return _result("rngstream_determinism", same and diff,
                   "equal (seed, stream_id) bit-identical; sibling stream differs")


# ---------------------------------------------------------------------------
# groups

def _check_haar_invariance(stream: RngStream, budget: dict) -> CheckResult:
    p = 5
    draws = budget["ks_draws"]
    q = sample_haar_orthogonal(p, stream.child(0)).payload
    gen = stream.child(1).generator()
    t_plain = np.array([np.trace(sample_haar_orthogonal(p, gen).payload)
                        for _ in range(draws)])
    t_mult = np.array([np.trace(q @ sample_haar_orthogonal(p, gen).payload)
                       for _ in range(draws)])
    pval = _spstats.ks_2samp(t_plain, t_mult).pvalue
    return _result("haar_trace_invariance", pval > KS_ALPHA,
                   f"KS p-value {pval:.4f} on {draws} draws each")


def _check_exchangeability(stream: RngStream, budget: dict) -> CheckResult:
    K = 9
    reps = budget["exch_reps"]
    crit = _spstats.chi2.ppf(1.0 - CHI2_ALPHA, df=K)
    fails = []
    details = []
    for idx, entry in enumerate(scenario_catalog()):
        gen = stream.child(idx).generator()
        cells = np.zeros(K + 1, dtype=np.int64)
        for _ in range(reps):
            x = sample_noise(entry.noise, gen)
            t0 = entry.statistic(x)
            vals = np.array([entry.statistic(entry.action.randomize(x, gen))
                             for _ in range(K)])
            cells[count_below(t0, vals)] += 1
        expected = reps / (K + 1)
        chi2 = float(np.sum((cells - expected) ** 2 / expected))
        details.append(f"{entry.name}: chi2={chi2:.2f}")
        if chi2 > crit:
            fails.append(entry.name)
    return _result("exchangeability_rank_uniformity", not fails,
                   f"crit {crit:.2f}; " + "; ".join(details))


def _check_lazy_eager(stream: RngStream, budget: dict) -> CheckResult:
    p = 6
    draws = budget["ks_draws"]
    x = stream.child(0).generator().standard_normal(p)
    gen = stream.child(1).generator()
    lazy = np.array([np.max(np.abs(sample_sphere_image(x, gen)))
                     for _ in range(draws)])
    eager = np.array([
        np.max(np.abs(apply_action(sample_haar_orthogonal(p, gen), x)))
        for _ in range(draws)
    ])
    pval = _spstats.ks_2samp(lazy, eager).pvalue
    return _result("lazy_eager_agreement", pval > KS_ALPHA,
                   f"KS p-value {pval:.4f} on {draws} draws each")


def _check_composition(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.generator()
    ok = True
    for _ in range(50):
        n = int(gen.integers(2, 9))
        x = gen.standard_normal((n, 3))
        g, h = sample_signflips(n, gen), sample_signflips(n, gen)
        lhs = apply_action(g, apply_action(h, x))
        if not np.array_equal(lhs, apply_action(compose(g, h), x)):
            ok = False
        g, h = sample_permutation(n, gen), sample_permutation(n, gen)
        lhs = apply_action(g, apply_action(h, x))
        if not np.array_equal(lhs, apply_action(compose(g, h), x)):
            ok = False
    return _result("composition_exact", ok, "signflips and permutations, 50 cases each")


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
                            lambda x: float(np.sum(np.asarray(x) ** 2)), (6,))
    v = check_psi_subadditive(control, trials, 1.0, stream.child(99))
    control_ok = v > 0
    return _result("subadditivity_suite", not fails and control_ok,
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

def _check_engine_level(stream: RngStream, budget: dict) -> CheckResult:
    K, alpha = 19, 0.05
    reps = budget["level_reps"]
    target = math.floor(alpha * (K + 1)) / (K + 1)
    band = 3.0 * math.sqrt(target * (1.0 - target) / reps)
    cfg = RandTestConfig(K=K, alpha=alpha)
    fails = []
    details = []
    for idx, entry in enumerate(scenario_catalog()):
        gen = stream.child(idx).generator()
        rejections = 0
        for _ in range(reps):
            x = sample_noise(entry.noise, gen)
            rejections += run_randomization_test(
                x, entry.statistic, entry.action, cfg, gen).reject
        freq = rejections / reps
        details.append(f"{entry.name}: {freq:.4f}")
        if abs(freq - target) > band or freq > alpha + band:
            fails.append(entry.name)
    return _result("engine_level_catalog", not fails,
                   f"target {target}, band +-{band:.4f}; " + "; ".join(details))


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


def _check_engine_reproducibility(stream: RngStream, budget: dict) -> CheckResult:
    entry = scenario_catalog()[0]
    cfg = RandTestConfig(K=19, alpha=0.05)
    x = sample_noise(entry.noise, stream.child(0))
    a = run_randomization_test(x, entry.statistic, entry.action, cfg, stream.child(1))
    b = run_randomization_test(x, entry.statistic, entry.action, cfg, stream.child(1))
    same = (a.t0 == b.t0 and np.array_equal(a.randomized, b.randomized)
            and a.reject == b.reject and a.p_value == b.p_value)
    return _result("engine_reproducibility", same,
                   "identical stream reproduces the outcome bit-exactly")


def _check_quantile_max(stream: RngStream, budget: dict) -> CheckResult:
    entry = scenario_catalog()[2]
    K = 15
    cfg = RandTestConfig(K=K, alpha=1.0 / (K + 1))
    mismatches = 0
    for i in range(500):
        child = stream.child(i)
        x = sample_noise(entry.noise, child.child(0))
        a = run_max_test(x, entry.statistic, entry.action, K, child.child(1))
        b = run_randomization_test(x, entry.statistic, entry.action, cfg,
                                   child.child(1))
        if a.reject != b.reject or a.p_value != b.p_value:
            mismatches += 1
    return _result("quantile_max_consistency", mismatches == 0,
                   f"{mismatches} mismatches over 500 shared-stream instances")


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
    o = sample_haar_orthogonal(p, stream.child(0)).payload
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


def _check_heavy_tails_soft(stream: RngStream, budget: dict) -> CheckResult:
    draws = budget["tail_draws"]
    spec = NoiseSpec("iid_cauchy", draws // 100, 100)
    x = sample_noise(spec, stream)
    exceed = int(np.sum(np.abs(x) > 100.0))
    expected = draws * 2.0 / (math.pi * 100.0)
    detail = (f"|entry|>100 observed {exceed}, expected ~{expected:.0f} "
              f"of {draws}; soft check, logged only")
    logger.info("heavy-tail check: %s", detail)
    return _result("noise_heavy_tails_soft", True, detail)


# ---------------------------------------------------------------------------
# theory

def _check_varl_monotone(stream: RngStream, budget: dict) -> CheckResult:
    ok = True
    for chi2 in (0.0, 0.3, 1.0, 4.0):
        vals = [varL_sparse(n, 50, chi2) for n in (1, 2, 5, 10, 40)]
        ok &= all(b >= a for a, b in zip(vals, vals[1:]))
    for n in (2, 7, 20):
        vals = [varL_sparse(n, 50, c) for c in (0.0, 0.1, 0.5, 2.0, 8.0)]
        ok &= all(b >= a for a, b in zip(vals, vals[1:]))
        vals = [varL_sparse(n, p, 0.7) for p in (2, 5, 20, 100)]
        ok &= all(b <= a for a, b in zip(vals, vals[1:]))
    return _result("varl_sparse_monotone", ok,
                   "nondecreasing in n and chi2, nonincreasing in p")


def _check_varl_lowrank_floor(stream: RngStream, budget: dict) -> CheckResult:
    ok = abs(varL_lowrank_exact(11, 0.0) - 1.0) < 1e-15
    for n in (1, 4, 11, 25):
        for tau in (0.2, 1.0, 3.0):
            ok &= varL_lowrank_exact(n, tau) > 1.0
    return _result("varl_lowrank_floor", ok, "equals 1 at tau=0, exceeds 1 otherwise")


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


def _check_bernoulli_se(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.child(0).generator()
    x = gen.standard_normal((12, 3))
    eps = np.abs(gen.standard_normal(12)) + 0.1
    small = bernoulli_bound_regression(x, eps, 1.0, 2000, stream.child(1))
    big = bernoulli_bound_regression(x, eps, 1.0, 8000, stream.child(2))
    ratio = big.mc_standard_error / small.mc_standard_error
    return _result("bernoulli_se_scaling", 0.35 <= ratio <= 0.7,
                   f"se ratio at 4x samples = {ratio:.3f} (expect ~0.5)")


# ---------------------------------------------------------------------------
# experiments

def _check_null_levels(stream: RngStream, budget: dict) -> CheckResult:
    gen = stream.generator()
    reps = budget["null_reps"]
    fails = []
    details = []
    for scenario in _exp.SCENARIOS:
        factory = _exp._CONFIG_FACTORIES[scenario]
        cfg = factory(int(gen.integers(2 ** 31)), grid_points=1,
                      replicates=reps[scenario])
        curve = _exp.run_experiment(cfg)
        for method in curve.methods:
            k_match = _exp._parse_method(method, cfg.alpha)
            if k_match.kind in ("deterministic", "t_test"):
                target = cfg.alpha
            else:
                target = math.floor(cfg.alpha * (k_match.K + 1)) / (k_match.K + 1)
            freq = float(curve.series(method)[0])
            band = 3.0 * math.sqrt(target * (1.0 - target) / cfg.replicates)
            details.append(f"{scenario}/{method}: {freq:.4f}")
            if abs(freq - target) > band:
                fails.append(f"{scenario}/{method}")
    detail = "; ".join(details)
    if fails:
        detail = "off: " + "; ".join(fails) + " | " + detail
    return _result("experiment_null_levels", not fails, detail)


def _check_experiment_reproducible(stream: RngStream, budget: dict) -> CheckResult:
    seed = int(stream.generator().integers(2 ** 31))
    cfg = _exp.two_sample_config(seed, grid_points=budget["repro_points"],
                                 replicates=budget["repro_reps"])
    first = _exp.run_experiment(cfg).to_csv()
    second = _exp.run_experiment(cfg).to_csv()
    third = _exp.run_experiment(cfg, workers=2).to_csv()
    return _result("experiment_reproducibility",
                   first == second == third,
                   "identical CSV across reruns and worker counts")


def _check_csv_roundtrip(stream: RngStream, budget: dict) -> CheckResult:
    seed = int(stream.generator().integers(2 ** 31))
    cfg = _exp.regression_config(seed, grid_points=2, replicates=40)
    curve = _exp.run_experiment(cfg)
    back = _exp.PowerCurve.from_csv(curve.to_csv())
    return _result("csv_roundtrip", back == curve,
                   "PowerCurve -> CSV -> PowerCurve is lossless (notes included)")


# ---------------------------------------------------------------------------
# cli

def _check_cli_contract(stream: RngStream, budget: dict) -> CheckResult:
    from . import cli  # deferred: cli imports this module

    fails = []
    # the in-process calls would otherwise interleave their output with the
    # ledger; only exit codes and file effects matter here
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cfg_path = os.path.join(tmp, "cfg.json")
        out_path = os.path.join(tmp, "out.csv")
        doc = {"scenario": {"name": "two_sample", "grid_points": 3,
                            "replicates": 50, "alpha": 0.05, "seed": 7}}
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if cli.main(["simulate", "--config", cfg_path, "--out", out_path]) != 0:
            fails.append("simulate exit code")
        if not os.path.exists(out_path):
            fails.append("output CSV missing")
        created = sorted(os.listdir(tmp))
        if created != ["cfg.json", "out.csv"]:
            fails.append(f"unexpected files {created}")

        with open(out_path, "rb") as fh:
            first = fh.read()
        cli.main(["simulate", "--config", cfg_path, "--out", out_path])
        with open(out_path, "rb") as fh:
            if fh.read() != first:
                fails.append("rerun not byte-identical")

        # --seed overrides the config seed
        doc_other = dict(doc, scenario=dict(doc["scenario"], seed=99))
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc_other, fh)
        rc = cli.main(["simulate", "--config", cfg_path, "--out", out_path,
                       "--seed", "7"])
        with open(out_path, "rb") as fh:
            if rc != 0 or fh.read() != first:
                fails.append("--seed override")

        # missing alpha is a config error naming the key
        bad = {"scenario": {"name": "two_sample", "grid_points": 3,
                            "replicates": 50, "seed": 7}}
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        if cli.main(["simulate", "--config", cfg_path, "--out", out_path]) != 2:
            fails.append("missing alpha should exit 2")

        if cli.main(["theory", "margin", "sparse_signflip", "s_inf=4", "t=1"]) != 0:
            fails.append("theory margin exit code")
        if cli.main(["theory", "margin", "sparse_signflip", "bogus=1"]) != 2:
            fails.append("bad theory parameter should exit 2")
    return _result("cli_contract", not fails,
                   "; ".join(fails) if fails else
                   "exit codes, output isolation, seed override, alpha check")


_REGISTRY = [
    _check_qr,
    _check_opnorm,
    _check_quantile_roundtrip,
    _check_rngstream,
    _check_haar_invariance,
    _check_exchangeability,
    _check_lazy_eager,
    _check_composition,
    _check_subadditivity,
    _check_homogeneity,
    _check_colmean_identity,
    _check_engine_level,
    _check_engine_monotonicity,
    _check_engine_reproducibility,
    _check_quantile_max,
    _check_sign_symmetry,
    _check_rotational_invariance,
    _check_heavy_tails_soft,
    _check_varl_monotone,
    _check_varl_lowrank_floor,
    _check_varl_enumeration,
    _check_rate_calibration,
    _check_bernoulli_se,
    _check_null_levels,
    _check_experiment_reproducible,
    _check_csv_roundtrip,
    _check_cli_contract,
]


def run_validation(level: str = "quick", seed: int = 20260815) -> list[CheckResult]:
    """Run every registered check and return its result, in registry order."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    budget = _BUDGETS[level]
    return [check(RngStream(seed, idx), budget) for idx, check in enumerate(_REGISTRY)]


def format_ledger(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    failed = [r.name for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        lines.append(f"first failing property: {failed[0]}")
    return "\n".join(lines)
