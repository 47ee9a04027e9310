"""End-to-end acceptance checks for the randomization-test stack.

Each test pins one headline guarantee of the package: the exact finite-sample
level of the enumerated signflip test, level control of the sampled tests
under every shipped noise family, the power relationships the Monte Carlo
scenarios must display, calibration of the detection-threshold solver against
the sqrt(log p / n) scaling, agreement of the analytic kernels with
independent oracles, distributional correctness of the group samplers, the
subadditivity contract of the shipped statistics, and byte-level determinism
of the experiment pipeline across worker counts.

The suite is heavier than the unit tests (several minutes of Monte Carlo).
Run it alone with ``pytest tests/test_acceptance.py -v``; each test prints
its measured quantities next to the tolerance it enforces.

Criteria 06-09 run the ``validate`` checks of ``invartest.validation`` at
the full budget, so ``invartest validate --full`` and this suite assert the
same invariants through one implementation.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose
from scipy import stats as spstats

from invartest.engine import all_sign_patterns, brute_force_full_group_test, order_index
from invartest.experiments import (
    ScenarioConfig,
    heavy_tail_config,
    regression_config,
    run_experiment,
    sparse_vector_config,
    two_sample_config,
)
from invartest.groups import sample_haar_orthogonal
from invartest.noise import NoiseSpec
from invartest.numerics import RngStream, operator_norm, pseudo_inverse
from invartest.statistics import TestStatistic
from invartest.theory import chi2_shift_gaussian, varL_sparse
from invartest.validation import (
    _BUDGETS,
    KS_ALPHA,
    _check_exchangeability,
    _check_haar_invariance,
    _check_lazy_eager,
    _check_rate_calibration,
    _check_subadditivity,
    _check_varl_enumeration,
)

_FULL = _BUDGETS["full"]


def _assert_check(check, stream: RngStream) -> None:
    """Run one ``validate`` check at the full budget, print its measurements
    and assert that it passed."""
    result = check(stream, _FULL)
    print(f"{result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_01_exact_level_enumerated_signflip():
    """Full signflip enumeration at n = 10 rejects with probability exactly
    51/1024 at alpha = 0.05 for a continuous statistic.

    The signed mean is continuous and not even, so all 1024 orbit values are
    distinct almost surely; rejection needs at least k = 973 of the 1023
    flipped values strictly below the observed one, which happens exactly
    when the observed value ranks in the top 51 of the 1024 exchangeable
    orbit values. 20000 null replicates must land within 3 binomial SE, and
    a sample of them must agree with the enumeration engine verbatim.
    """
    start = time.monotonic()
    n, alpha, reps = 10, 0.05, 20000
    signs = all_sign_patterns(n)  # row 0 is the identity
    size = signs.shape[0]
    k = order_index(size - 1, alpha)
    assert k == 973
    exact = (size - k) / size
    assert exact == 51 / 1024

    gen = RngStream(20260815, 7).generator()
    rejections = 0
    chunk = 2000
    for _ in range(reps // chunk):
        x = gen.standard_normal((chunk, n))
        orbit = signs @ x.T  # orbit of the signed sum; row 0 is observed
        below = np.sum(orbit[1:] < orbit[0], axis=0)
        rejections += int(np.sum(below >= k))
    freq = rejections / reps
    tol = 3.0 * math.sqrt(exact * (1.0 - exact) / reps)
    print(f"rejection frequency {freq:.5f}, exact {exact:.5f}, band +-{tol:.4f}")
    assert abs(freq - exact) <= tol

    signed_mean = TestStatistic(
        name="signed_mean", psi=1.0,
        fn=lambda v: float(np.mean(v)), sample_shape=(n, 1),
    )
    check_gen = RngStream(20260815, 8).generator()
    for _ in range(50):
        x = check_gen.standard_normal((n, 1))
        outcome = brute_force_full_group_test(x, signed_mean, "signflip_rows", alpha)
        orbit = (signs @ x[:, 0]) / n
        assert outcome.k == k
        assert outcome.reject == bool(np.sum(orbit[1:] < orbit[0]) >= k)

    elapsed = time.monotonic() - start
    print(f"elapsed {elapsed:.1f}s (bound 60s)")
    assert elapsed < 60.0


def test_criterion_02_sampled_test_level_control():
    """Signflip and rotation tests hold their level at mu = 0, K in {19, 99},
    alpha = 0.05, for Gaussian, t(3), and t(5) noise.

    Gaussian entries are both sign-symmetric per row and rotation invariant;
    for the t laws the rotation test uses spherically contoured rows (radius
    law p * F_{p, df}) while the signflip test is also run on plain iid t
    entries. Every empirical level over 10000 null replicates must lie in
    0.05 +- 0.0065 (three binomial SE).
    """
    band = 0.0065
    checked = ("signflip_K19", "signflip_K99", "rotation_K19", "rotation_K99")

    curve = run_experiment(
        sparse_vector_config(20260201, grid_points=1, replicates=10000)
    )
    print(f"gaussian deterministic level {curve.series('deterministic')[0]:.4f}")
    for label in checked:
        level = curve.series(label)[0]
        print(f"gaussian {label} level {level:.4f}")
        assert abs(level - 0.05) <= band, f"gaussian {label}: {level}"

    for df, seed in ((3, 20260202), (5, 20260203)):
        cfg = ScenarioConfig(
            scenario="sparse_vector", n=32, p=100, n2=None,
            noise=NoiseSpec("spherical", 32, 100, radial="student", df=float(df)),
            grid=(0.0,), methods=checked,
            alpha=0.05, replicates=10000, seed=seed,
        )
        curve = run_experiment(cfg)
        for label in checked:
            level = curve.series(label)[0]
            print(f"spherical t({df}) {label} level {level:.4f}")
            assert abs(level - 0.05) <= band, f"spherical t({df}) {label}: {level}"

    curve = run_experiment(
        heavy_tail_config(20260204, grid_points=1, replicates=10000)
    )
    for label in curve.methods:
        level = curve.series(label)[0]
        print(f"iid entries {label} level {level:.4f}")
        assert abs(level - 0.05) <= band, f"iid {label}: {level}"


def test_criterion_03_sparse_vector_power_curves():
    """The sparse-location scenario at its shipped size (p = 100, 20 grid
    points on [0, 4 sqrt(log 100)], 1000 replicates) reaches power at least
    0.99 at the top grid point for every method, keeps the deterministic and
    randomized curves within their one-sided bands (deterministic at most
    0.05 below randomized, randomized at most 0.10 below deterministic), and
    keeps K = 99 within 0.05 of K = 19 from below, pointwise.
    """
    start = time.monotonic()
    curve = run_experiment(sparse_vector_config(20260301))
    det = curve.series("deterministic")
    rand_labels = ("signflip_K19", "signflip_K99", "rotation_K19", "rotation_K99")

    for label in curve.methods:
        top = curve.series(label)[-1]
        print(f"{label} power at top grid point {top:.3f}")
        assert top >= 0.99, f"{label} tops out at {top}"

    for label in rand_labels:
        rand = curve.series(label)
        worst_det = float(np.min(det - (rand - 0.05)))
        worst_rand = float(np.min(rand - (det - 0.10)))
        print(f"{label}: min det-vs-rand slack {worst_det:.3f}, "
              f"min rand-vs-det slack {worst_rand:.3f}")
        assert np.all(det >= rand - 0.05), f"deterministic dips below {label}"
        assert np.all(rand >= det - 0.10), f"{label} dips below deterministic"

    for family in ("signflip", "rotation"):
        k19 = curve.series(f"{family}_K19")
        k99 = curve.series(f"{family}_K99")
        print(f"{family}: min K99 - (K19 - 0.05) slack "
              f"{float(np.min(k99 - k19 + 0.05)):.3f}")
        assert np.all(k99 >= k19 - 0.05), f"{family} K99 dips below K19"

    elapsed = time.monotonic() - start
    print(f"elapsed {elapsed:.1f}s (bound 300s)")
    assert elapsed < 300.0


def test_criterion_04_heavy_tail_power_curves():
    """Signflip power under iid t noise rises monotonically along the grid
    (up to twice the summed binomial SEs of adjacent points) and the t(5)
    curve stays above the t(3) curve up to 2 (SE_3 + SE_5), pointwise, for
    both K = 19 and K = 99.
    """
    curve = run_experiment(heavy_tail_config(20260401))

    for label in curve.methods:
        power = curve.series(label)
        se = curve.se_series(label)
        drops = power[1:] - power[:-1] + 2.0 * (se[1:] + se[:-1])
        print(f"{label}: worst monotonicity slack {float(np.min(drops)):.3f}")
        assert np.all(drops >= 0.0), f"{label} power drops along the grid"

    for k in (19, 99):
        p3 = curve.series(f"signflip_K{k}_t3")
        p5 = curve.series(f"signflip_K{k}_t5")
        s3 = curve.se_series(f"signflip_K{k}_t3")
        s5 = curve.se_series(f"signflip_K{k}_t5")
        slack = p5 - p3 + 2.0 * (s3 + s5)
        print(f"K={k}: worst t5-vs-t3 slack {float(np.min(slack)):.3f}")
        assert np.all(slack >= 0.0), f"t(5) power falls below t(3) at K={k}"


def test_criterion_05_two_sample_power_curves():
    """Permutation test versus pooled t-test at n = n' = 15 on a 20-point
    grid over [0, 3], K = 99, 1000 replicates: the two power curves agree
    within 0.05 + 2 (SE + SE') pointwise and both levels at mu = 0 lie
    within three binomial SE of 0.05.
    """
    start = time.monotonic()
    curve = run_experiment(two_sample_config(20260501))
    perm = curve.series("permutation_K99")
    tt = curve.series("t_test")
    se_perm = curve.se_series("permutation_K99")
    se_tt = curve.se_series("t_test")

    gap = np.abs(perm - tt)
    allowed = 0.05 + 2.0 * (se_perm + se_tt)
    print(f"max |permutation - t| gap {float(np.max(gap)):.3f}, "
          f"tightest allowance {float(np.min(allowed)):.3f}")
    assert np.all(gap <= allowed)

    level_band = 3.0 * math.sqrt(0.05 * 0.95 / curve.replicates)
    print(f"levels at mu=0: permutation {perm[0]:.4f}, t-test {tt[0]:.4f}, "
          f"band +-{level_band:.4f}")
    assert abs(perm[0] - 0.05) <= level_band
    assert abs(tt[0] - 0.05) <= level_band

    elapsed = time.monotonic() - start
    print(f"elapsed {elapsed:.1f}s (bound 120s)")
    assert elapsed < 120.0


def test_criterion_06_detection_threshold_rate_calibration():
    """tau*(n, p), the signal size where the averaged-likelihood-ratio
    variance crosses one, scales like sqrt(log p / n): the ratio
    tau* / sqrt(log p / n) varies by less than 25% across an 80-fold range
    of n and a 100-fold range of p.
    """
    _assert_check(_check_rate_calibration, RngStream(20260601))


def test_criterion_07_oracle_equivalences():
    """The analytic kernels agree with independent oracles: the binomial-sum
    likelihood-ratio variance matches brute-force enumeration over all 4^n
    sign-vector pairs to 1e-12 relative for n <= 12; the Gaussian sparse
    closed form matches a 10^6-draw Monte Carlo within 5%; operator_norm
    matches the full SVD to 1e-9; pseudo_inverse satisfies all four
    Moore-Penrose identities to 1e-9.
    """
    _assert_check(_check_varl_enumeration, RngStream(20260707, 0))

    n, p, tau = 5, 4, 0.5
    closed = varL_sparse(n, p, chi2_shift_gaussian(tau))
    gen = RngStream(20260707, 1).generator()
    # column sums of an n x p iid normal matrix are N(0, n); the averaged
    # likelihood ratio depends on the data only through them
    col_sums = math.sqrt(n) * gen.standard_normal((1_000_000, p))
    ratios = np.exp(tau * col_sums - n * tau * tau / 2.0).mean(axis=1)
    mc = float(np.var(ratios, ddof=1))
    print(f"varL closed form {closed:.4f}, Monte Carlo {mc:.4f} "
          f"(rel gap {abs(mc - closed) / closed:.3f}, bound 0.05)")
    assert abs(mc - closed) <= 0.05 * closed

    gen = RngStream(20260707, 2).generator()
    for shape in ((7, 4), (4, 7), (6, 6), (1, 5), (8, 1), (12, 3)):
        for _ in range(5):
            a = gen.standard_normal(shape)
            assert_allclose(operator_norm(a), np.linalg.svd(a, compute_uv=False)[0],
                            rtol=1e-9, atol=0.0)

    gen = RngStream(20260707, 3).generator()
    mats = [gen.standard_normal((9, 4)), gen.standard_normal((4, 9)),
            gen.standard_normal((6, 6))]
    low = gen.standard_normal((7, 2)) @ gen.standard_normal((2, 5))
    mats.append(low)  # rank deficient on purpose
    worst = 0.0
    for x in mats:
        p_inv = pseudo_inverse(x)
        residuals = (
            np.max(np.abs(x @ p_inv @ x - x)),
            np.max(np.abs(p_inv @ x @ p_inv - p_inv)),
            np.max(np.abs((x @ p_inv).T - x @ p_inv)),
            np.max(np.abs((p_inv @ x).T - p_inv @ x)),
        )
        worst = max(worst, *map(float, residuals))
    print(f"largest Moore-Penrose residual {worst:.2e} (bound 1e-9)")
    assert worst <= 1e-9


def test_criterion_08_distributional_properties():
    """Group samplers produce the right distributions at the 1% level:
    Haar draws are invariant under fixed multiplication and have the exact
    marginal for the leading entry, the lazy sphere image of a vector agrees
    with eagerly rotating it, and the rank of the observed statistic among
    K = 9 randomized copies is uniform over 10000 replicates for each
    shipped (group, statistic, noise) pairing.
    """
    _assert_check(_check_haar_invariance, RngStream(20260801, 0))

    # the leading entry of a Haar matrix in dimension 3 is uniform on [-1, 1]
    gen = RngStream(20260801, 1).generator()
    lead = np.array([sample_haar_orthogonal(3, gen).payload[0, 0]
                     for _ in range(_FULL["ks_draws"])])
    p_lead = spstats.kstest(lead, spstats.uniform(loc=-1.0, scale=2.0).cdf).pvalue
    print(f"Haar leading-entry KS p-value {p_lead:.4f}")
    assert p_lead > KS_ALPHA

    _assert_check(_check_lazy_eager, RngStream(20260801, 2))
    _assert_check(_check_exchangeability, RngStream(20260801, 4))


def test_criterion_09_subadditivity_suite():
    """Every shipped statistic satisfies its psi-subadditivity contract on
    10^4 random Gaussian pairs at scales 0.1, 1, and 10 with zero violations,
    while the squared norm mislabeled with psi = 1 fails the same check.
    """
    _assert_check(_check_subadditivity, RngStream(20260901))


def test_criterion_10_worker_determinism():
    """Re-running an experiment with the same config and seed yields
    byte-identical CSV output under 1, 4, and 8 worker processes. Both
    configs span nine 200-replicate chunks so the pools genuinely split
    the work.
    """
    configs = (
        two_sample_config(20261001, grid_points=3, replicates=600),
        regression_config(20261002, grid_points=2, replicates=900),
    )
    for cfg in configs:
        payloads = [run_experiment(cfg, workers=w).to_csv().encode("utf-8")
                    for w in (1, 4, 8)]
        print(f"{cfg.scenario}: {len(payloads[0])} CSV bytes per run")
        assert payloads[0] == payloads[1], f"{cfg.scenario}: 4 workers differ"
        assert payloads[0] == payloads[2], f"{cfg.scenario}: 8 workers differ"
