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
from scipy import stats

from invartest import engine, groups
from invartest.engine import (
    RandTestConfig,
    all_sign_patterns,
    brute_force_full_group_test,
    count_below,
    decide,
    decide_stopping,
    orbit_values,
    order_index,
    p_value_from_counts,
    project_out_nuisance,
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

    def test_decide_stopping_k_above_K(self):
        # k > K can never reject, which the first value already shows
        sizes = []

        def orbit(b):
            sizes.append(b)
            return np.full(b, -1.0)

        assert decide_stopping(0.0, orbit, K=9, k=12, first=1) is False
        assert sizes == [1]

    def test_decide_stopping_needs_K(self):
        with pytest.raises(ValueError, match="K"):
            decide_stopping(0.0, lambda b: np.zeros(b), K=0, k=1, first=1)

    def test_decide_stopping_needs_a_first_block(self):
        with pytest.raises(ValueError, match="first block"):
            decide_stopping(0.0, lambda b: np.zeros(b), K=5, k=1, first=0)

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


class TestRunRandomizationTest:
    def test_constant_statistic_never_rejects(self):
        stat = TestStatistic("const", 1.0, lambda xs: np.ones(len(xs)), (4, 2))
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
        # linf under rotate_full evaluates the K images; colmean_linf under
        # signflips takes the reduced path through the row sums
        cases = [
            (make_statistic("linf", sample_shape=(5,)), GroupAction("rotate_full", p=5),
             RandTestConfig(K=9, alpha=0.2),
             RngStream(61005).generator().standard_normal(5)),
            (make_statistic("colmean_linf", sample_shape=(16, 5)),
             GroupAction("signflip_rows", n=16), RandTestConfig(K=19, alpha=0.05),
             RngStream(61015).generator().standard_normal((16, 5))),
        ]
        for stat, action, cfg, x in cases:
            a = run_randomization_test(x, stat, action, cfg, RngStream(88))
            b = run_randomization_test(x, stat, action, cfg, RngStream(88))
            assert a.t0 == b.t0
            assert_array_equal(a.randomized, b.randomized)
            assert a.reject == b.reject and a.p_value == b.p_value


class TestMaxTest:
    def test_constant_statistic(self):
        # alpha = 1/(K+1) is the max test; all K values tie with t0
        stat = TestStatistic("const", 1.0, lambda xs: np.full(len(xs), 3.0), (3, 1))
        action = GroupAction("permute_rows", n=3)
        cfg = RandTestConfig(K=7, alpha=1.0 / 8)
        out = run_randomization_test(np.ones((3, 1)), stat, action, cfg, RngStream(61007))
        assert out.k == 7 and out.reject is False


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
        stat = TestStatistic("first", 1.0, lambda xs: xs[:, 0, 0], (3, 1))
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

    def test_more_vectors_than_rows_rejected(self):
        gen = RngStream(61014).generator()
        with pytest.raises(ValueError, match="dependent"):
            project_out_nuisance(gen.standard_normal((3, 2)),
                                 list(gen.standard_normal((4, 3))))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            project_out_nuisance(np.ones((4, 2)), [np.ones(5)])


def _draws_needed(t0: float, randomized: np.ndarray, k: int) -> int:
    """Draws after which the k-of-K+1 decision is settled: k values below
    t0, or more than K - k at or above it (NaN counts as not below)."""
    K = randomized.size
    below = np.cumsum(randomized < t0)
    above = np.arange(1, K + 1) - below
    settled = np.nonzero((below >= k) | (above > K - k))[0]
    return int(settled[0]) + 1 if settled.size else K


# derandomized, so that every run of the suite checks the same examples
class TestDecisionProperties:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(K=st.integers(1, 500), data=st.data())
    def test_decide_stopping_matches_decide(self, K, data):
        k = data.draw(st.integers(1, K + 1), label="k")
        below_share = data.draw(st.floats(0.0, 1.0), label="below_share")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        t0 = 0.5
        # values strictly below t0; the rest tie with it, are NaN or lie above
        u = gen.random(K)
        rest = np.array([t0, np.nan, t0 + 1.0])[gen.integers(0, 3, K)]
        vals = np.where(u < below_share, t0 - 1.0 - u, rest)
        sizes = []

        def orbit(b):
            drawn = sum(sizes)
            assert 1 <= b <= K - drawn
            sizes.append(b)
            return vals[drawn:drawn + b]

        first = data.draw(st.integers(1, K), label="first")
        assert decide_stopping(t0, orbit, K, k, first) == decide(t0, vals, k)
        # blocks of first, 2 first, 4 first, ... rows, the last capped at
        # the rows left; they stop at the first block end past the values
        # that settle the decision, so the values read are a prefix
        ends = [min(K, first * (2**(i + 1) - 1)) for i in range(len(sizes))]
        assert np.cumsum(sizes).tolist() == ends
        needed = _draws_needed(t0, vals, k)
        assert sum(sizes) == min(K, next(first * (2**j - 1) for j in range(1, 11)
                                         if first * (2**j - 1) >= needed))

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
        cfg = RandTestConfig(K=K, alpha=1.0 / (K + 1))
        out = run_randomization_test(x, stat, action, cfg, RngStream(seed, 1))
        assert out.k == K
        assert out.reject == bool(out.t0 > np.max(out.randomized))


class TestBlockedDraw:
    @pytest.mark.parametrize("kind, stat, shape", [
        ("signflip_rows", "colmean_linf", (6, 5)),
        ("permute_rows", "opnorm", (7, 3)),
        ("rotate_full", "colmean_linf", (6, 5)),
        ("rotate_full", "opnorm", (3, 8)),
        ("rotate_full", "linf", (9,)),
        ("rotate_per_column", "opnorm", (6, 4)),
    ])
    @pytest.mark.parametrize("block_values", [1, 7, 100])
    def test_outcome_does_not_depend_on_block_size(self, monkeypatch, kind, stat,
                                                   shape, block_values):
        x = RngStream(61010).generator().standard_normal(shape)
        n = shape[0]
        p = shape[-1] if kind == "rotate_full" else (shape[1] if len(shape) == 2 else 1)
        action = GroupAction(kind, n=n, p=p)
        f = make_statistic(stat)
        cfg = RandTestConfig(K=37, alpha=0.1)
        whole = run_randomization_test(x, f, action, cfg, RngStream(61011))
        monkeypatch.setattr(engine, "_BLOCK_VALUES", block_values)
        blocked = run_randomization_test(x, f, action, cfg, RngStream(61011))
        assert blocked.randomized.tobytes() == whole.randomized.tobytes()
        assert (blocked.t0, blocked.k, blocked.reject, blocked.p_value) == (
            whole.t0, whole.k, whole.reject, whole.p_value)


@st.composite
def _reduced_case(draw):
    """A discrete group, a statistic that declares a summary, and its input."""
    kind = draw(st.sampled_from(["signflip_rows", "permute_rows"]), label="kind")
    p = draw(st.integers(1, 12), label="p")
    if draw(st.booleans(), label="twosample"):
        n1 = draw(st.integers(1, 8), label="n1")
        n2 = draw(st.integers(1, 8), label="n2")
        norm = draw(st.sampled_from(["linf", "l2"]), label="norm")
        stat = make_statistic("twosample_diff", n=n1, n_prime=n2, norm=norm)
        n = n1 + n2
    else:
        n = draw(st.integers(1, 16), label="n")
        stat = make_statistic("colmean_linf")
    shape = (n,) if draw(st.booleans(), label="vector") else (n, p)
    return GroupAction(kind, n=n), stat, shape


# derandomized, so that every run of the suite checks the same examples
class TestReducedOrbit:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_reduced_case(), K=st.integers(1, 60), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_image_path(self, case, K, ties, seed):
        action, stat, shape = case
        x = np.random.default_rng(seed).standard_normal(shape) * 3.0
        if ties:
            x = np.round(x)
        t0, values = orbit_values(x, stat, action, K, RngStream(seed, 1))
        gen = RngStream(seed, 1).generator()
        images = stat.values(action.randomize_batch(x, K, gen))
        assert t0 == stat(x)
        assert_allclose(values, images, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_within_half_permutations_tie_with_t0(self, monkeypatch, norm):
        # a permutation of the rows within each half leaves both block sums,
        # hence the statistic, unchanged; the test must see an exact tie
        draw = groups._permutations

        def within_halves(K, n, gen):
            return np.hstack([draw(K, 5, gen), 5 + draw(K, 5, gen)])

        monkeypatch.setattr(groups, "_permutations", within_halves)
        f = make_statistic("twosample_diff", n=5, n_prime=5, norm=norm)
        action = GroupAction("permute_rows", n=10)
        for seed in range(40):
            x = RngStream(61020, seed).generator().standard_normal((10, 2))
            out = run_randomization_test(x, f, action, RandTestConfig(K=99, alpha=0.05),
                                         RngStream(61021, seed))
            assert out.t0 == f(x)
            assert_array_equal(out.randomized, np.full(99, out.t0))
            assert out.reject is False and out.p_value == 1.0

    @pytest.mark.parametrize("shape", [(6, 5), (1, 7), (3, 8), (40, 3)])
    def test_rotate_full_colmean_is_linf_of_the_column_means(self, shape):
        x = RngStream(61022).generator().standard_normal(shape)
        action = GroupAction("rotate_full", p=shape[1])
        cfg = RandTestConfig(K=50, alpha=0.1)
        by_matrix = run_randomization_test(x, make_statistic("colmean_linf"), action, cfg,
                                           RngStream(61023))
        by_means = run_randomization_test(x.mean(axis=0), make_statistic("linf"), action,
                                          cfg, RngStream(61023))
        assert by_matrix.t0 == pytest.approx(by_means.t0, rel=1e-12)
        assert_allclose(by_matrix.randomized, by_means.randomized, rtol=1e-12)

    @pytest.mark.parametrize("action, stat, shape", [
        (GroupAction("signflip_rows", n=6), make_statistic("colmean_linf"), (6, 5)),
        (GroupAction("permute_rows", n=7),
         make_statistic("twosample_diff", n=3, n_prime=4, norm="l2"), (7, 3)),
        (GroupAction("rotate_full", p=5), make_statistic("colmean_linf"), (6, 5)),
        (GroupAction("rotate_full", p=8), make_statistic("colmean_linf"), (3, 8)),
        (GroupAction("rotate_full", p=6),
         make_statistic("twosample_diff", n=2, n_prime=2), (4, 6)),
        # a vector is rotated whole, so it keeps the image path
        (GroupAction("rotate_full", p=9), make_statistic("colmean_linf"), (9,)),
    ], ids=["signflip", "permutation", "rotate_tall", "rotate_wide", "rotate_twosample",
            "rotate_vector"])
    def test_matches_eager_elements_in_law(self, action, stat, shape, eager_images):
        draws = 2000
        x = RngStream(61024).generator().standard_normal(shape)
        _, reduced = orbit_values(x, stat, action, draws, RngStream(61025))
        gen = RngStream(61026).generator()
        eager = [stat(y) for y in eager_images(action, x, draws, gen)]
        assert stats.ks_2samp(reduced, eager).pvalue > 1e-3

    def test_shape_checks_kept(self):
        f = make_statistic("colmean_linf")
        cfg = RandTestConfig(K=5, alpha=0.2)
        with pytest.raises(ValueError, match="signflip of size 4 cannot act on 3 rows"):
            run_randomization_test(np.ones((3, 2)), f, GroupAction("signflip_rows", n=4),
                                   cfg, RngStream(1))
        with pytest.raises(ValueError, match="rotation of size 4 cannot act on 2 columns"):
            run_randomization_test(np.ones((3, 2)), f, GroupAction("rotate_full", p=4),
                                   cfg, RngStream(1))
        with pytest.raises(ValueError, match="non-finite"):
            run_randomization_test(np.full((3, 2), np.inf), f,
                                   GroupAction("signflip_rows", n=3), cfg, RngStream(1))
