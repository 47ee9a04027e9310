"""Unit tests for the test statistics and the subadditivity property
checker."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import invartest.statistics as statistics
from invartest.groups import _scale_columns
from invartest.numerics import RngStream
from invartest.statistics import (
    TestStatistic,
    batch_opnorm,
    check_psi_subadditive,
    make_statistic,
    shipped_statistics,
    sphere_opnorm_against,
    weighted_rows,
)

colmean_linf = make_statistic("colmean_linf")
linf = make_statistic("linf")
opnorm = make_statistic("opnorm")


class TestColmeanLinf:
    def test_hand_example(self):
        assert colmean_linf([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(3.0)

    def test_zero(self):
        assert colmean_linf(np.zeros((4, 3))) == 0.0

    def test_single_row_reduces_to_linf(self):
        row = np.array([1.0, -4.0, 2.0])
        assert colmean_linf(row[None, :]) == linf(row)

    def test_signal_identity(self):
        # a pure rank-one signal 1_n s^T has column means exactly s
        s = np.array([0.3, -2.5, 0.0, 1.1])
        x = np.ones((7, 1)) @ s[None, :]
        assert colmean_linf(x) == np.max(np.abs(s))


class TestLinf:
    def test_hand_example(self):
        assert linf([1.0, -4.0, 2.0]) == 4.0

    def test_zero(self):
        assert linf(np.zeros(5)) == 0.0

    def test_triangle_inequality(self):
        gen = RngStream(51001).generator()
        for _ in range(10_000):
            a = gen.standard_normal(6)
            b = gen.standard_normal(6)
            assert linf(a + b) <= linf(a) + linf(b) + 1e-12


class TestOpnormAndKyfan:
    def test_opnorm_delegates(self):
        a = np.diag([3.0, 1.0])
        assert opnorm(a) == pytest.approx(3.0)

    def test_kyfan_kappa_one_is_opnorm(self):
        gen = RngStream(51002).generator()
        a = gen.standard_normal((5, 4))
        assert abs(make_statistic("kyfan", kappa=1)(a) - opnorm(a)) <= 1e-10

    def test_kyfan_full_zeta_two_is_frobenius(self):
        gen = RngStream(51003).generator()
        a = gen.standard_normal((6, 4))
        assert make_statistic("kyfan", kappa=4, zeta=2.0)(a) == pytest.approx(
            np.linalg.norm(a), abs=1e-9
        )

    def test_kyfan_takes_the_scalar_root(self):
        # bitwise the scalar power; numpy's array power can differ from it
        # in the last bit
        gen = RngStream(51004).generator()
        kyfan = make_statistic("kyfan", kappa=3, zeta=3.5)
        for _ in range(100):
            a = gen.standard_normal((5, 4))
            sv = np.linalg.svd(a, compute_uv=False)[:3]
            assert kyfan(a) == float(np.sum(sv ** 3.5) ** (1 / 3.5))

    def test_kyfan_hand_example(self):
        kyfan = make_statistic("kyfan", kappa=2, zeta=1.0)
        assert kyfan(np.diag([3.0, 2.0, 1.0])) == pytest.approx(5.0)

    def test_kyfan_kappa_out_of_range(self):
        a = np.ones((3, 2))
        with pytest.raises(ValueError, match="kappa"):
            make_statistic("kyfan", kappa=3)(a)
        with pytest.raises(ValueError, match="kappa"):
            make_statistic("kyfan", kappa=0)(a)

    def test_kyfan_zeta_below_one(self):
        with pytest.raises(ValueError, match="zeta"):
            make_statistic("kyfan", kappa=1, zeta=0.5)(np.eye(2))


class TestOlsLinf:
    def test_identity_design(self):
        y = np.array([0.5, -2.0, 1.0])
        assert make_statistic("ols_linf", design=np.eye(3))(y) == linf(y)

    def test_zero_response(self):
        gen = RngStream(51004).generator()
        x = gen.standard_normal((6, 2))
        assert make_statistic("ols_linf", design=x)(np.zeros(6)) == 0.0

    def test_matches_least_squares_oracle(self):
        gen = RngStream(51005).generator()
        x = gen.standard_normal((30, 6))
        y = gen.standard_normal(30)
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert make_statistic("ols_linf", design=x)(y) == pytest.approx(
            np.max(np.abs(beta)), abs=1e-8
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            make_statistic("ols_linf", design=np.ones((4, 2)))(np.ones(5))

    def test_needs_design(self):
        with pytest.raises(ValueError, match="needs design="):
            make_statistic("ols_linf")


class TestTwosampleDiff:
    def test_identical_samples(self):
        x = np.vstack([np.ones((3, 2)), np.ones((4, 2))])
        assert make_statistic("twosample_diff", n=3, n_prime=4)(x) == 0.0

    def test_hand_example(self):
        z = np.tile([1.0, 0.0], (3, 1))
        y = np.tile([0.0, 1.0], (3, 1))
        diff = make_statistic("twosample_diff", n=3, n_prime=3, norm="linf")
        assert diff(np.vstack([z, y])) == 1.0

    def test_block_swap_symmetry(self):
        gen = RngStream(51006).generator()
        z = gen.standard_normal((4, 3))
        y = gen.standard_normal((5, 3))
        forward = make_statistic("twosample_diff", n=4, n_prime=5, norm="l2")(np.vstack([z, y]))
        swapped = make_statistic("twosample_diff", n=5, n_prime=4, norm="l2")(np.vstack([y, z]))
        assert forward == pytest.approx(swapped, rel=1e-12)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            make_statistic("twosample_diff", n=3, n_prime=3)(np.ones((5, 2)))

    def test_unknown_norm(self):
        with pytest.raises(ValueError, match="norm"):
            make_statistic("twosample_diff", n=2, n_prime=2, norm="l1")(np.ones((4, 2)))


def _square_norms(xs) -> np.ndarray:
    return np.sum(np.square(xs), axis=1)


_SQUARE_NORMS = [TestStatistic("sqnorm", 1.0, _square_norms, (6,)),
                 TestStatistic("sqnorm_half", 0.5, _square_norms, (6,))]


def _loop_violations(f, trials, scale, rng) -> int:
    """The per-trial loop that ``check_psi_subadditive`` replaced, frozen
    here as its reference: draw a, then b, and test the one pair."""
    gen = rng.generator()
    violations = 0
    for _ in range(trials):
        a = scale * gen.standard_normal(f.sample_shape)
        b = scale * gen.standard_normal(f.sample_shape)
        fa, fb = f(a), f(b)
        tol = 1e-12 * (abs(fa) + abs(fb) + 1.0)
        if f.psi * f(a + b) > fa + fb + tol:
            violations += 1
    return violations


class TestSubadditivity:
    # derandomized, so that every run of the suite checks the same examples;
    # the blocks hold `rows` trials, so at least one boundary falls mid-run
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stat=st.sampled_from(shipped_statistics() + _SQUARE_NORMS),
           log_scale=st.floats(-1.0, 1.0), trials=st.integers(2, 40),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_count_is_the_loop_count(self, stat, log_scale, trials, data, seed):
        rows = data.draw(st.integers(1, trials - 1), label="rows")
        scale = 10.0 ** log_scale
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(statistics, "_BLOCK_VALUES",
                       rows * 2 * int(np.prod(stat.sample_shape)))
            count = check_psi_subadditive(stat, trials, scale, RngStream(seed))
        assert count == _loop_violations(stat, trials, scale, RngStream(seed))

    def test_count_across_the_default_block(self):
        # 5461 trials of a 6-vector pair fill one default block
        stat = _SQUARE_NORMS[0]
        count = check_psi_subadditive(stat, 6000, 1.0, RngStream(51006))
        assert count == _loop_violations(stat, 6000, 1.0, RngStream(51006))

    def test_squared_norm_negative_control(self):
        # ||x||_2^2 with psi = 1 must violate; with psi = 1/2 it must not
        bad, good = _SQUARE_NORMS
        assert check_psi_subadditive(bad, 2000, 1.0, RngStream(51008)) > 0
        assert check_psi_subadditive(good, 2000, 1.0, RngStream(51008)) == 0

    def test_trials_validation(self):
        stat = make_statistic("linf")
        with pytest.raises(ValueError, match="trials"):
            check_psi_subadditive(stat, 0, 1.0, RngStream(1))


class TestHomogeneity:
    @pytest.mark.parametrize("stat", shipped_statistics(), ids=lambda s: s.name)
    def test_absolute_homogeneity(self, stat):
        gen = RngStream(51009).generator()
        for c in (-3.0, 0.25, 7.5):
            x = gen.standard_normal(stat.sample_shape)
            base = stat(x)
            assert stat(c * x) == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


class TestStatisticFactory:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            make_statistic("median")

    @pytest.mark.parametrize("name, params", [
        ("colmean_linf", {}), ("linf", {}), ("opnorm", {}), ("kyfan", {"kappa": 2}),
        ("ols_linf", {"design": np.eye(3)}), ("twosample_diff", {"n": 2, "n_prime": 3}),
    ], ids=["colmean_linf", "linf", "opnorm", "kyfan", "ols_linf", "twosample_diff"])
    def test_unknown_parameter(self, name, params):
        make_statistic(name, **params)
        with pytest.raises(ValueError, match="unknown parameters"):
            make_statistic(name, **params, bandwidth=0.3)

    @pytest.mark.parametrize("missing", ["n", "n_prime"])
    def test_missing_parameter_is_named(self, missing):
        params = {"n": 2, "n_prime": 3}
        del params[missing]
        with pytest.raises(ValueError, match=f"needs {missing}="):
            make_statistic("twosample_diff", **params)

    def test_psi_range_enforced(self):
        with pytest.raises(ValueError, match="psi"):
            TestStatistic("bad", 0.0, linf.batch, (3,))
        with pytest.raises(ValueError, match="psi"):
            TestStatistic("bad", 1.5, linf.batch, (3,))

    def test_nonfinite_value_rejected(self):
        stat = TestStatistic("blowup", 1.0, lambda xs: np.full(len(xs), np.inf), (2,))
        with pytest.raises(ValueError, match="non-finite"):
            stat(np.ones(2))

    def test_sample_shape_override(self):
        stat = make_statistic("colmean_linf", sample_shape=(16, 5))
        assert stat.sample_shape == (16, 5)

    def test_shipped_catalog_covers_all_names(self):
        names = {s.name for s in shipped_statistics()}
        assert "colmean_linf" in names
        assert "linf" in names
        assert "opnorm" in names
        assert "ols_linf" in names
        assert any(n.startswith("kyfan") for n in names)
        assert any(n.startswith("twosample_diff") for n in names)


@st.composite
def _statistic_and_shape(draw):
    """A shipped statistic built for a drawn input shape."""
    name = draw(st.sampled_from(["colmean_linf", "linf", "opnorm", "kyfan",
                                 "ols_linf", "twosample_diff"]))
    n = draw(st.integers(1, 12), label="n")
    p = draw(st.integers(1, 12), label="p")
    vector = draw(st.booleans(), label="vector")
    if name == "linf":
        return make_statistic(name), (n,) if vector else (n, 1)
    if name == "ols_linf":
        q = draw(st.integers(1, n), label="q")
        design = np.random.default_rng(n * 13 + q).standard_normal((n, q))
        return make_statistic(name, design=design), (n,)
    shape = (n,) if vector else (n, p)
    if name == "kyfan":
        kappa = draw(st.integers(1, min(n, 1 if vector else p)), label="kappa")
        zeta = draw(st.sampled_from([1.0, 2.0, 3.5]), label="zeta")
        return make_statistic(name, kappa=kappa, zeta=zeta), shape
    if name == "twosample_diff":
        n1 = draw(st.integers(1, 8), label="n1")
        n2 = draw(st.integers(1, 8), label="n2")
        norm = draw(st.sampled_from(["linf", "l2"]), label="norm")
        shape = (n1 + n2,) if vector else (n1 + n2, p)
        return make_statistic(name, n=n1, n_prime=n2, norm=norm), shape
    return make_statistic(name), shape


# derandomized, so that every run of the suite checks the same examples.
# f(x) is batch on a one-image stack; the property checks that a slice has
# the same bits in any stack.
class TestBatchValues:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(stat_shape=_statistic_and_shape(), K=st.integers(1, 20),
           ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_batch_is_bitwise_the_loop(self, stat_shape, K, ties, seed):
        stat, shape = stat_shape
        stack = np.random.default_rng(seed).standard_normal((K, *shape)) * 3.0
        if ties:
            stack = np.round(stack)
        stack[0] = stack[0] + 1.0  # keep one slice nonzero
        values = stat.values(stack)
        assert values.tobytes() == np.array([stat(y) for y in stack]).tobytes()
        assert stat.values(stack[0][None])[0] == stat(stack[0])

    def test_nonfinite_value_rejected(self):
        stat = TestStatistic("blowup", 1.0, lambda xs: np.full(len(xs), np.nan), (2,))
        with pytest.raises(ValueError, match="non-finite"):
            stat.values(np.ones((3, 2)))

    @pytest.mark.parametrize("stat, stack, match", [
        (make_statistic("linf"), np.ones((2, 3, 3)), "one-dimensional"),
        (make_statistic("colmean_linf"), np.ones((2, 3, 3, 3)), "ndim=3"),
        (make_statistic("twosample_diff", n=2, n_prime=3), np.ones((2, 4, 1)), "rows"),
        (make_statistic("ols_linf", design=np.ones((4, 2))), np.ones((2, 5)), "rows"),
        (make_statistic("kyfan", kappa=3), np.ones((2, 4, 2)), "kappa"),
    ])
    def test_values_checks_the_slice_shape(self, stat, stack, match):
        # the same ValueError as f on one slice
        with pytest.raises(ValueError, match=match):
            stat(stack[0])
        with pytest.raises(ValueError, match=match):
            stat.values(stack)


# derandomized, so that every run of the suite checks the same examples
class TestSummary:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), q=st.integers(1, 120), K=st.integers(1, 60),
           m=st.integers(1, 3), weights=st.sampled_from(["signs", "blocks", "gaussian"]),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_row_is_bitwise_the_row_alone(self, n, q, K, m, weights, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((n, q)) * 3.0
        if weights == "signs":
            w = gen.integers(0, 2, (K, m, n)) * 2.0 - 1.0
        elif weights == "blocks":
            w = (gen.random((K, m, n)) < 0.5) * 1.0
        else:
            w = gen.standard_normal((K, m, n))
        sums = weighted_rows(w, x)
        assert sums.shape == (K, m, q)
        k = int(gen.integers(K))
        assert sums[k].tobytes() == weighted_rows(w[k], x).tobytes()
        assert sums[k, -1].tobytes() == weighted_rows(w[k, -1], x).tobytes()
        assert sums[:k + 1].tobytes() == weighted_rows(w[:k + 1], x).tobytes()

    @pytest.mark.parametrize("stat, direct", [
        (make_statistic("colmean_linf"), lambda x: np.max(np.abs(x.mean(axis=0)))),
        (make_statistic("twosample_diff", n=3, n_prime=4),
         lambda x: np.max(np.abs(x[:3].mean(axis=0) - x[3:].mean(axis=0)))),
        (make_statistic("twosample_diff", n=5, n_prime=2, norm="l2"),
         lambda x: np.linalg.norm(x[:5].mean(axis=0) - x[5:].mean(axis=0))),
    ], ids=["colmean_linf", "twosample_linf", "twosample_l2"])
    @pytest.mark.parametrize("p", [1, 2, 5, 33])
    def test_fn_is_g_of_the_row_sums(self, stat, direct, p):
        x = RngStream(51020).generator().standard_normal((7, p))
        s = stat.summary(7)
        assert stat(x) == s.g(weighted_rows(s.w[None], x))[0]
        assert stat(x) == pytest.approx(direct(x), rel=1e-14)

    def test_twosample_summary_checks_the_rows(self):
        with pytest.raises(ValueError, match="rows"):
            make_statistic("twosample_diff", n=2, n_prime=3).summary(4)

    def test_only_row_sum_statistics_declare_one(self):
        declared = {s.name for s in shipped_statistics() if s.summary is not None}
        assert declared == {"colmean_linf", "twosample_diff_linf", "twosample_diff_l2"}


# derandomized, like TestOpnormAgainst. Without the power-of-two scaling,
# the Gram matrix overflows at the large scales (eigvalsh then fails to
# converge) and underflows to a zero value at the small ones.
class TestBatchOpnorm:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), p=st.integers(1, 40), zero_cols=st.integers(0, 3),
           k=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_svd_at_every_scale(self, n, p, zero_cols, k, seed):
        gen = np.random.default_rng(seed)
        a = np.ldexp(gen.standard_normal((n, p)), k)
        a[:, gen.permutation(p)[:zero_cols]] = 0.0
        for m in (a, a.T):
            svd = np.linalg.svd(m, compute_uv=False)[0]
            assume(np.isfinite(svd))
            assert abs(opnorm(m) - svd) <= 1e-12 * svd

    @pytest.mark.parametrize("shape", [(1, 1), (6, 4), (4, 6), (40, 40)])
    def test_zero_and_subnormal_matrices(self, shape):
        a = np.zeros(shape)
        assert opnorm(a) == 0.0
        a[-1, 0] = -5e-324  # the smallest subnormal
        assert opnorm(a) == 5e-324

    @pytest.mark.parametrize("shape", [(32, 100), (100, 32), (6, 4)])
    def test_a_slice_has_the_same_bits_in_any_stack(self, shape):
        # 20 images of 32x100 are one engine block: 2^16 // 3200
        images = RngStream(51040).generator().standard_normal((99, *shape))
        alone = np.array([opnorm(y) for y in images])
        for size in (1, 20, 99):
            for start in range(0, 99, size):
                block = images[start:start + size]
                assert batch_opnorm(block).tobytes() == alone[start:start + size].tobytes()


def _draw(gen, K, n, p, spread):
    """A (K, n, p) raw draw; spread pulls every column towards one shared
    sign vector, so that at spread 0 every column is that vector."""
    z = gen.standard_normal((K, n, p))
    if spread is not None:
        z = gen.integers(0, 2, (K, n, 1)) * 2.0 - 1.0 + spread * z
    return z


def _nudged(t0, ulps):
    for _ in range(abs(ulps)):
        t0 = np.nextafter(t0, np.copysign(np.inf, ulps))
    return float(t0)


_against = sphere_opnorm_against


def _no_dpotrf(*args, **kwargs):
    raise AssertionError("a far image took the Cholesky tier")


_SPREADS = st.sampled_from([None, 1.0, 1e-3, 1e-9, 0.0])


def _check_against(n, p, K, log_scale, far, zero_cols, pick, ulps, spread, equal, seed):
    """Draw z and radii, put t0 on one image's value or up to ulps off it,
    and check the certificate against batch_opnorm of the formed images."""
    gen = np.random.default_rng(seed)
    z = _draw(gen, K, n, p, spread)
    radii = np.ones(p) if equal else gen.uniform(0.1, 10.0, p)
    radii *= 10.0 ** log_scale * 2.0 ** far
    radii[gen.permutation(p)[:min(zero_cols, p - 1)]] = 0.0
    drawn = z.copy()
    ref = batch_opnorm(_scale_columns(drawn.copy(), radii))
    t0 = _nudged(ref[pick % K], ulps)
    values = _against(z, radii, t0)
    assert_array_equal(z, drawn)
    assert_array_equal(values < t0, ref < t0)
    near = np.isfinite(values)
    assert values[near].tobytes() == ref[near].tobytes()
    if ulps == 0:  # exactly on a value: only the band can say "not below"
        assert values[pick % K] == ref[pick % K]


def _check_tight(monkeypatch, n, p):
    """Rank one with entries of one magnitude makes the row sums tight: at
    t0 = the smallest value nothing is below, and past the slack the row
    sums certify every image."""
    signs = np.sign(RngStream(61005).generator().standard_normal((4, n, 1)))
    z = np.repeat(signs, p, axis=2)
    ref = batch_opnorm(_scale_columns(z.copy(), np.ones(p)))
    t0 = float(ref.min())
    assert not np.any(_against(z, np.ones(p), t0) < t0)
    with monkeypatch.context() as patched:
        patched.setattr(statistics, "dpotrf", _no_dpotrf)
        t0 = float(ref.max()) * (1.0 + 1e-9)
        assert_array_equal(_against(z, np.ones(p), t0), np.full(4, -np.inf))


_GIVEN = dict(n=st.integers(1, 96), p=st.integers(1, 96), K=st.integers(1, 6),
              log_scale=st.floats(-3.0, 3.0), zero_cols=st.integers(0, 3),
              pick=st.integers(0, 5), ulps=st.integers(-4, 4), spread=_SPREADS,
              equal=st.booleans(), seed=st.integers(0, 2**32 - 1))


class TestOpnormAgainst:
    """The certificate on a raw draw z and the radii its images take may say
    "below t0" or "not below" only where the formed image's batch_opnorm
    value does, and gives that value bitwise in a near-tie. Derandomized,
    so that every run of the suite checks the same examples, with t0 on one
    image's value or up to 4 ulps off it, where only the band can decide.
    Equal radii give the columns one norm, which at spread 0 makes an image
    rank one with entries of one magnitude, and the row sums tight."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    # a wide image takes the Gram of its rows, a tall one that of its columns
    @example(n=32, p=128, K=6, log_scale=0.0, zero_cols=2, pick=3, ulps=0,
             spread=None, equal=False, seed=51032)
    @example(n=32, p=128, K=6, log_scale=1.5, zero_cols=0, pick=1, ulps=-1,
             spread=None, equal=False, seed=51033)
    @example(n=128, p=32, K=6, log_scale=0.0, zero_cols=2, pick=3, ulps=0,
             spread=None, equal=False, seed=51034)
    @example(n=128, p=32, K=6, log_scale=-1.5, zero_cols=0, pick=1, ulps=1,
             spread=None, equal=False, seed=51035)
    # rank one with equal column norms: the row sums are tight
    @example(n=50, p=50, K=4, log_scale=0.0, zero_cols=0, pick=2, ulps=1,
             spread=0.0, equal=True, seed=51036)
    @example(n=12, p=40, K=4, log_scale=2.0, zero_cols=1, pick=0, ulps=-4,
             spread=1e-9, equal=True, seed=51037)
    @given(**_GIVEN)
    def test_counts_below_t0_as_the_svd(self, n, p, K, log_scale, zero_cols, pick, ulps,
                                         spread, equal, seed):
        _check_against(n, p, K, log_scale, 0, zero_cols, pick, ulps, spread, equal, seed)

    @pytest.mark.parametrize("shape", [(50, 50), (32, 128), (128, 32)])
    def test_far_images_are_certified_by_the_row_sums(self, monkeypatch, shape):
        z = RngStream(51038).generator().standard_normal((5, *shape))
        radii = RngStream(61004).generator().uniform(0.5, 2.0, shape[1])
        t0 = 10.0 * float(np.max(batch_opnorm(_scale_columns(z.copy(), radii))))
        monkeypatch.setattr(statistics, "dpotrf", _no_dpotrf)
        assert_array_equal(_against(z, radii, t0), np.full(5, -np.inf))

    def test_a_near_image_leaves_the_row_sums_uncertified(self, monkeypatch):
        _check_tight(monkeypatch, 6, 4)

    def test_far_values_are_certified(self):
        # radii 3 and 2: the images diag(3, 2), of value 3, and one of value
        # 3.38 whose second column leans on its first
        z = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
        assert_array_equal(_against(z, np.array([3.0, 2.0]), 3.2), [-np.inf, np.inf])

    @pytest.mark.parametrize("t0", [0.0, -1.0])
    def test_t0_at_or_below_zero_has_nothing_below(self, t0):
        z = RngStream(51030).generator().standard_normal((4, 5, 3))
        assert not np.any(_against(z, np.ones(3), t0) < t0)

    def test_all_zero_x(self):
        # a zero x has t0 = 0 and radii 0, so zero images: none lies below
        # t0, and all lie below any positive threshold
        x = np.zeros((6, 4))
        z = RngStream(51039).generator().standard_normal((3, 6, 4))
        t0 = opnorm(x)
        assert t0 == 0.0
        radii = np.linalg.norm(x, axis=0)
        assert not np.any(_against(z, radii, t0) < t0)
        assert_array_equal(_against(z, radii, 1.0), np.full(3, -np.inf))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_out_of_range_scales_take_the_svd(self, scale):
        z = RngStream(51031).generator().standard_normal((3, 4, 4))
        radii = np.full(4, scale)
        formed = batch_opnorm(_scale_columns(z.copy(), radii))
        assert _against(z, radii, scale).tobytes() == formed.tobytes()

    # the squared column norms of the draw out of range, t0 and radii in it
    @pytest.mark.parametrize("scale", [2.0 ** -440, 2.0 ** 440], ids=["2^-440", "2^440"])
    def test_out_of_range_draws_take_the_svd(self, scale):
        z = scale * RngStream(51031).generator().standard_normal((3, 4, 4))
        radii = np.full(4, scale)
        formed = batch_opnorm(_scale_columns(z.copy(), radii))
        assert _against(z, radii, scale).tobytes() == formed.tobytes()

    def test_a_radius_above_2_t0_takes_the_svd(self):
        z = RngStream(51031).generator().standard_normal((3, 4, 4))
        radii = np.ones(4)
        formed = batch_opnorm(_scale_columns(z.copy(), radii))
        assert _against(z, radii, 0.25).tobytes() == formed.tobytes()


class TestRawBelow:
    """The certificate decides each image from its raw Gaussian draw, so
    radii near the ends of the range its tiers run in (far, 2^-440 or
    2^440) must round no image to the wrong side of t0, and the row sums
    must certify far images of the power study's shapes with no Cholesky
    call and leave tight ones to the later tiers until past the slack."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @example(n=50, p=50, K=4, log_scale=0.0, far=0, zero_cols=0, pick=1, ulps=-1,
             spread=0.0, equal=True, seed=61001)
    @example(n=32, p=128, K=6, log_scale=0.0, far=0, zero_cols=2, pick=3, ulps=0,
             spread=1e-9, equal=True, seed=61002)
    @example(n=128, p=32, K=6, log_scale=-3.0, far=-440, zero_cols=0, pick=2, ulps=4,
             spread=0.0, equal=False, seed=61003)
    @given(far=st.sampled_from([0, -440, 440]), **_GIVEN)
    def test_certifies_no_image_at_or_above_t0(self, n, p, K, log_scale, far, zero_cols,
                                               pick, ulps, spread, equal, seed):
        _check_against(n, p, K, log_scale, far, zero_cols, pick, ulps, spread, equal, seed)

    @pytest.mark.parametrize("shape", [(50, 50), (32, 128), (128, 32)])
    def test_far_images_are_certified_and_tight_ones_only_past_the_slack(self, monkeypatch,
                                                                          shape):
        n, p = shape
        z = RngStream(61004).generator().standard_normal((4, n, p))
        t0 = 10.0 * float(np.max(batch_opnorm(_scale_columns(z.copy(), np.ones(p)))))
        with monkeypatch.context() as patched:
            patched.setattr(statistics, "dpotrf", _no_dpotrf)
            assert_array_equal(_against(z, np.ones(p), t0), np.full(4, -np.inf))
        _check_tight(monkeypatch, n, p)
