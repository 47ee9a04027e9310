"""Unit tests for the randomization test engine: decision rule, p-values,
full-group oracle, and nuisance projection."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from invartest.engine import (
    RandTestConfig,
    all_sign_patterns,
    brute_force_full_group_test,
    count_below,
    decide,
    order_index,
    p_value_from_counts,
    project_out_nuisance,
    run_max_test,
    run_randomization_test,
)
from invartest.groups import GroupAction
from invartest.numerics import RngStream
from invartest.statistics import TestStatistic, make_statistic


class TestOrderIndex:
    def test_spec_cases(self):
        assert order_index(19, 0.05) == 19
        assert order_index(99, 0.05) == 95
        assert order_index(1, 0.5) == 1
        # an alpha a hair under j/(K+1) must not get the level j/(K+1)
        assert order_index(19, 0.05 - 1e-11) == 20
        assert order_index(99, 0.05 - 1e-12) == 96
        assert order_index(1023, 51 / 1024 - 1e-13) == 974

    def test_max_test_alpha(self):
        # alpha = 1/(K+1) must give k = K, not K + 1
        for K in (1, 4, 19, 99, 999):
            assert order_index(K, 1.0 / (K + 1)) == K

    def test_bounds(self):
        for K in (1, 7, 50):
            for alpha in (0.001, 0.05, 0.37, 0.99):
                k = order_index(K, alpha)
                assert 1 <= k <= K + 1

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            order_index(19, alpha)

    def test_k_domain(self):
        with pytest.raises(ValueError, match="K"):
            order_index(0, 0.05)


class TestDecisionPrimitives:
    def test_count_below(self):
        assert count_below(5.0, np.array([1.0, 2.0, 3.0])) == 3
        assert count_below(5.0, np.array([5.0, 1.0, 7.0])) == 1

    def test_decide_strict_on_ties(self):
        randomized = np.array([5.0, 1.0, 1.0])
        assert decide(5.0, randomized, k=3) is False
        assert decide(5.0, randomized, k=2) is True

    def test_p_value_counts_ties(self):
        randomized = np.array([5.0, 1.0, 1.0])
        assert p_value_from_counts(5.0, randomized) == pytest.approx(0.5)
        assert p_value_from_counts(9.0, randomized) == pytest.approx(0.25)
        assert p_value_from_counts(0.0, randomized) == pytest.approx(1.0)


class TestRandTestConfig:
    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            RandTestConfig(K=19, alpha=1.0)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            RandTestConfig(K=19, alpha=0.0)

    def test_variant_names(self):
        with pytest.raises(ValueError, match="variant"):
            RandTestConfig(K=19, alpha=0.05, variant="median")


class TestRunRandomizationTest:
    def test_constant_statistic_never_rejects(self):
        stat = TestStatistic("const", 1.0, lambda x: 1.0, (4, 2))
        action = GroupAction("signflip_rows", n=4)
        cfg = RandTestConfig(K=1, alpha=0.5)
        out = run_randomization_test(
            np.ones((4, 2)), stat, action, cfg, RngStream(61001)
        )
        assert out.t0 == 1.0
        assert_array_equal(out.randomized, [1.0])
        assert out.reject is False
        assert out.p_value == 1.0

    def test_dominant_t0_rejects(self):
        # statistic that only the unflipped data maximizes
        stat = make_statistic("colmean_linf", sample_shape=(6, 1))
        x = np.ones((6, 1))
        action = GroupAction("signflip_rows", n=6)
        cfg = RandTestConfig(K=19, alpha=0.05)
        out = run_randomization_test(x, stat, action, cfg, RngStream(61002))
        assert out.t0 == 1.0
        assert np.all(out.randomized < 1.0)
        assert out.reject is True

    def test_too_few_transforms_never_reject(self):
        # K = 9 at alpha = 0.05 gives k = 10 = K + 1: at most 9 values can
        # lie below t0, so the test cannot reject at this budget
        stat = make_statistic("colmean_linf", sample_shape=(6, 1))
        action = GroupAction("signflip_rows", n=6)
        cfg = RandTestConfig(K=9, alpha=0.05)
        with pytest.warns(RuntimeWarning, match="exceeds K"):
            out = run_randomization_test(
                np.ones((6, 1)), stat, action, cfg, RngStream(61099)
            )
        assert out.k == 10
        assert np.all(out.randomized < out.t0)
        assert out.reject is False

    def test_null_level_signflip(self):
        gen = RngStream(61003).generator()
        stat = make_statistic("colmean_linf", sample_shape=(8, 3))
        action = GroupAction("signflip_rows", n=8)
        cfg = RandTestConfig(K=19, alpha=0.05)
        reps = 2000
        rejections = 0
        for r in range(reps):
            x = gen.standard_normal((8, 3))
            out = run_randomization_test(x, stat, action, cfg, RngStream(61004, r))
            rejections += out.reject
        freq = rejections / reps
        # exact level 1/20 for a continuous statistic
        assert abs(freq - 0.05) <= 3 * np.sqrt(0.05 * 0.95 / reps)

    def test_reproducible(self):
        stat = make_statistic("linf", sample_shape=(5,))
        action = GroupAction("rotate_full", p=5)
        cfg = RandTestConfig(K=9, alpha=0.2)
        x = RngStream(61005).generator().standard_normal(5)
        a = run_randomization_test(x, stat, action, cfg, RngStream(88))
        b = run_randomization_test(x, stat, action, cfg, RngStream(88))
        assert a.t0 == b.t0
        assert_array_equal(a.randomized, b.randomized)
        assert a.reject == b.reject and a.p_value == b.p_value


class TestRunMaxTest:
    def test_equals_quantile_at_matching_alpha(self):
        stat = make_statistic("colmean_linf", sample_shape=(6, 2))
        action = GroupAction("signflip_rows", n=6)
        gen = RngStream(61006).generator()
        for r in range(1000):
            x = gen.standard_normal((6, 2))
            K = int(gen.integers(1, 12))
            seed = int(gen.integers(2**31))
            a = run_max_test(x, stat, action, K, RngStream(seed))
            cfg = RandTestConfig(K=K, alpha=1.0 / (K + 1))
            b = run_randomization_test(x, stat, action, cfg, RngStream(seed))
            assert a.reject == b.reject
            assert a.p_value == b.p_value
            assert_array_equal(a.randomized, b.randomized)

    def test_constant_statistic(self):
        stat = TestStatistic("const", 1.0, lambda x: 3.0, (3, 1))
        action = GroupAction("permute_rows", n=3)
        out = run_max_test(np.ones((3, 1)), stat, action, 7, RngStream(61007))
        assert out.reject is False


class TestBruteForce:
    def test_two_row_signflip_enumeration(self):
        x = np.array([[1.0], [0.5]])
        stat = make_statistic("colmean_linf", sample_shape=(2, 1))
        out = brute_force_full_group_test(x, stat, "signflip_rows", alpha=0.05)
        assert out.t0 == pytest.approx(0.75)
        assert sorted(out.randomized) == pytest.approx([0.25, 0.25, 0.75])
        assert out.reject is False
        assert out.p_value == pytest.approx(0.5)

    def test_all_sign_patterns_structure(self):
        pats = all_sign_patterns(3)
        assert pats.shape == (8, 3)
        assert_array_equal(pats[0], [1.0, 1.0, 1.0])
        assert len({tuple(row) for row in pats}) == 8
        assert set(np.unique(pats)) == {-1.0, 1.0}

    def test_permutation_enumeration(self):
        x = np.array([[2.0], [0.0], [1.0]])
        stat = TestStatistic("first", 1.0, lambda a: float(a[0, 0]), (3, 1))
        out = brute_force_full_group_test(x, stat, "permute_rows", alpha=0.4)
        assert out.randomized.size == 5
        # two of six orderings put the largest row first
        assert out.p_value == pytest.approx(2.0 / 6.0)
        assert out.reject is True  # k = ceil(0.6 * 6) = 4 <= 4 strictly-below

    def test_enumeration_limits(self):
        stat = make_statistic("colmean_linf")
        with pytest.raises(ValueError, match="16"):
            brute_force_full_group_test(
                np.ones((17, 1)), stat, "signflip_rows", alpha=0.05
            )
        with pytest.raises(ValueError, match="7"):
            brute_force_full_group_test(
                np.ones((8, 1)), stat, "permute_rows", alpha=0.05
            )

    def test_continuous_kind_refused(self):
        stat = make_statistic("colmean_linf")
        with pytest.raises(ValueError, match="discrete"):
            brute_force_full_group_test(np.ones((3, 2)), stat, "rotate_full", 0.05)

    # K = 15 at alpha = 0.05 cannot reject and warns so; only p-values count here
    @pytest.mark.filterwarnings("ignore:k = 16 exceeds K = 15")
    def test_sampled_p_converges_to_exact(self):
        # Monte Carlo p-values approach the full-group p-value as K grows
        stat = make_statistic("colmean_linf", sample_shape=(8, 2))
        action = GroupAction("signflip_rows", n=8)
        gen = RngStream(61008).generator()
        instances = 60
        mean_abs_err = {}
        for K in (15, 127, 1023):
            errs = []
            for r in range(instances):
                x = RngStream(61009, r).generator().standard_normal((8, 2))
                exact = brute_force_full_group_test(x, stat, "signflip_rows", 0.05)
                cfg = RandTestConfig(K=K, alpha=0.05)
                sampled = run_randomization_test(
                    x, stat, action, cfg, RngStream(61010, r, (K,))
                )
                errs.append(abs(sampled.p_value - exact.p_value))
            mean_abs_err[K] = float(np.mean(errs))
        assert mean_abs_err[1023] < mean_abs_err[127] < mean_abs_err[15]
        for K, err in mean_abs_err.items():
            assert err <= 3 * np.sqrt(0.25 / K)


class TestProjectOutNuisance:
    def test_ones_basis_centers_columns(self):
        gen = RngStream(61011).generator()
        x = gen.standard_normal((7, 3))
        centered = project_out_nuisance(x, [np.ones(7)])
        assert_allclose(centered, x - x.mean(axis=0), atol=1e-12)

    def test_orthogonal_input_unchanged(self):
        gen = RngStream(61012).generator()
        x = gen.standard_normal((6, 2))
        x -= x.mean(axis=0)
        assert_allclose(project_out_nuisance(x, [np.ones(6)]), x, atol=1e-12)

    def test_idempotent(self):
        gen = RngStream(61013).generator()
        x = gen.standard_normal((9, 4))
        basis = [np.ones(9), np.arange(9.0)]
        once = project_out_nuisance(x, basis)
        twice = project_out_nuisance(once, basis)
        assert_allclose(twice, once, atol=1e-12)

    def test_annihilates_basis(self):
        basis = [np.ones(5), np.arange(5.0)]
        proj = project_out_nuisance(np.column_stack(basis), basis)
        assert_allclose(proj, 0.0, atol=1e-12)

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            project_out_nuisance(np.ones((4, 2)), [np.ones(4), 2.0 * np.ones(4)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            project_out_nuisance(np.ones((4, 2)), [np.ones(5)])


# derandomized, so that every run of the suite checks the same examples
class TestDecisionProperties:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(K=st.integers(1, 2000), data=st.data())
    def test_decide_matches_p_value_without_ties(self, K, data):
        alpha = data.draw(st.one_of(
            st.floats(1e-6, 1.0 - 1e-6),
            st.integers(1, K).map(lambda j: j / (K + 1)),
        ), label="alpha")
        below = data.draw(st.integers(0, K), label="below")
        # t0 = 0 with `below` orbit values under it and the rest above it
        vals = np.concatenate([-1.0 - np.arange(below), 1.0 + np.arange(K - below)])
        assert decide(0.0, vals, order_index(K, alpha)) == (
            p_value_from_counts(0.0, vals) <= alpha)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(K=st.integers(1, 10**6), data=st.data())
    def test_level_never_exceeds_alpha(self, K, data):
        eps = sys.float_info.epsilon
        grid = data.draw(st.integers(1, K), label="j") / (K + 1)
        alpha = data.draw(st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.integers(-8, 8).map(lambda u: grid + u * math.ulp(grid)),
            st.floats(0.0, 1e-9).map(lambda d: grid - d / (K + 1)),
        ).filter(lambda a: 0.0 < a < 1.0), label="alpha")
        level = Fraction(K + 1 - order_index(K, alpha), K + 1)
        excess = level - Fraction(alpha)
        # a float j/(K+1) still counts as the grid point: the 4 eps nudge plus
        # at most 1.25 eps of rounding in (1 - alpha)(K + 1)
        assert excess <= 6 * eps
        scaled = Fraction(alpha) * (K + 1)
        if abs(scaled - round(scaled)) > 6 * eps * (K + 1):
            assert excess <= 0

    @settings(derandomize=True)
    @given(K=st.integers(1, 10**6))
    def test_max_test_alpha_gives_k_equal_K(self, K):
        assert order_index(K, 1.0 / (K + 1)) == K

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(K=st.integers(1, 60), seed=st.integers(0, 2**31 - 1),
           shift=st.floats(0.0, 3.0))
    def test_max_test_matches_quantile_rule(self, K, seed, shift):
        stat = make_statistic("colmean_linf", sample_shape=(6, 2))
        action = GroupAction("signflip_rows", n=6)
        x = RngStream(seed, 0).generator().standard_normal((6, 2)) + shift
        a = run_max_test(x, stat, action, K, RngStream(seed, 1))
        cfg = RandTestConfig(K=K, alpha=1.0 / (K + 1))
        b = run_randomization_test(x, stat, action, cfg, RngStream(seed, 1))
        assert (a.k, a.reject, a.p_value) == (b.k, b.reject, b.p_value)
        assert_array_equal(a.randomized, b.randomized)
