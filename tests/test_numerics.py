"""Unit tests for the linear-algebra kernels, quantile functions, and
reproducible RNG streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special

from invartest.numerics import (
    RngStream,
    as_generator,
    as_matrix,
    as_vector,
    normal_cdf,
    normal_quantile,
    operator_norm,
    pseudo_inverse,
    qr_orthonormalize,
    sample_chi2,
    sample_f,
    stream_generators,
    student_t_quantile,
)

# Reference quantiles, frozen from an independent high-precision CDF
# inversion (scipy.stats norm.ppf / t.ppf at these arguments).
PPF_975 = 1.959963984540054
PPF_SPARSE_THRESHOLD = 3.4739788691540388  # u = ((0.95)**(1/100) + 1)/2
T_PPF_975_28 = 2.048407141795244


class TestQrOrthonormalize:
    def test_identity_is_fixed_point(self):
        q, r = qr_orthonormalize(np.eye(3))
        assert_allclose(q, np.eye(3), atol=1e-14)
        assert_allclose(r, np.eye(3), atol=1e-14)

    def test_antidiagonal_permutation(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q, r = qr_orthonormalize(a)
        # with diag(R) > 0 the factorization of a permutation is itself
        assert_allclose(q, a, atol=1e-12)
        assert_allclose(r, np.eye(2), atol=1e-12)

    def test_random_square_factorization(self):
        gen = RngStream(31001).generator()
        a = gen.standard_normal((5, 5))
        q, r = qr_orthonormalize(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(q @ r - a) <= 1e-10 * scale
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-10
        assert np.all(np.diag(r) > 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    def test_invariants_across_sizes(self, n):
        gen = RngStream(31002, n).generator()
        for _ in range(10):
            a = gen.standard_normal((n, n))
            q, r = qr_orthonormalize(a)
            assert np.linalg.norm(q @ r - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-10
            assert np.all(np.diag(r) > 0)
            assert np.allclose(r, np.triu(r))

    def test_rank_deficient_input_rejected(self):
        a = np.ones((3, 3))
        with pytest.raises(ValueError, match="degenerate"):
            qr_orthonormalize(a)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            qr_orthonormalize(np.zeros((2, 2)))

    def test_rectangular_rejected(self):
        # wide: Q cannot have orthonormal columns
        with pytest.raises(ValueError, match="square or tall"):
            qr_orthonormalize(np.ones((2, 3)))

    def test_tall_factorization(self):
        a = RngStream(31003).generator().standard_normal((7, 3))
        q, r = qr_orthonormalize(a)
        assert q.shape == (7, 3) and r.shape == (3, 3)
        assert np.linalg.norm(q @ r - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-10
        assert np.all(np.diag(r) > 0)

    @pytest.mark.parametrize("shape", [(4, 4), (6, 2)])
    def test_stack_equals_matrix_by_matrix(self, shape):
        a = RngStream(31004).generator().standard_normal((5, *shape))
        q, r = qr_orthonormalize(a)
        for i in range(5):
            qi, ri = qr_orthonormalize(a[i])
            assert_array_equal(q[i], qi)
            assert_array_equal(r[i], ri)

    def test_degenerate_matrix_in_stack_rejected(self):
        a = RngStream(31005).generator().standard_normal((4, 3, 3))
        a[1] = 1.0
        with pytest.raises(ValueError, match="degenerate"):
            qr_orthonormalize(a)


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_rank_one_outer_product(self):
        # ||u v^T||_op = ||u||_2 * ||v||_2
        u = np.array([2.0, 0.0, 0.0])
        v = np.array([0.0, 3.0])
        assert operator_norm(np.outer(u, v)) == pytest.approx(6.0, abs=1e-12)

    def test_matches_svd_oracle(self):
        gen = RngStream(31003).generator()
        a = gen.standard_normal((6, 4))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert operator_norm(a) == pytest.approx(expected, rel=1e-9)

    def test_bounds_and_homogeneity(self):
        gen = RngStream(31004).generator()
        for _ in range(20):
            a = gen.standard_normal((5, 3))
            b = gen.standard_normal((5, 3))
            na, nb = operator_norm(a), operator_norm(b)
            assert operator_norm(a + b) <= na + nb + 1e-10
            assert operator_norm(2.5 * a) == pytest.approx(2.5 * na, rel=1e-12)
            # operator norm dominates the largest column 2-norm
            assert na >= np.max(np.linalg.norm(a, axis=0)) - 1e-12

    def test_vector_input_gives_l2_norm(self):
        assert operator_norm([3.0, 4.0]) == pytest.approx(5.0)


class TestPseudoInverse:
    def test_identity(self):
        assert_allclose(pseudo_inverse(np.eye(4)), np.eye(4), atol=1e-12)

    def test_singular_diagonal(self):
        assert_allclose(
            pseudo_inverse(np.diag([2.0, 0.0])),
            np.diag([0.5, 0.0]),
            atol=1e-12,
        )

    def test_moore_penrose_residuals(self):
        gen = RngStream(31005).generator()
        x = gen.standard_normal((100, 20))
        d = pseudo_inverse(x)
        scale = np.linalg.norm(x)
        assert np.linalg.norm(x @ d @ x - x) <= 1e-9 * scale
        assert np.linalg.norm(d @ x @ d - d) <= 1e-9 * np.linalg.norm(d)
        assert np.linalg.norm((x @ d).T - x @ d) <= 1e-9
        assert np.linalg.norm((d @ x).T - d @ x) <= 1e-9

    def test_zero_matrix(self):
        assert_array_equal(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_tall_full_rank_is_left_inverse(self):
        gen = RngStream(31006).generator()
        x = gen.standard_normal((8, 3))
        assert_allclose(pseudo_inverse(x) @ x, np.eye(3), atol=1e-10)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_two_sided_975(self):
        assert normal_quantile(0.975) == pytest.approx(PPF_975, abs=1e-8)

    def test_extreme_upper_tail(self):
        u = ((0.95) ** (1.0 / 100) + 1.0) / 2.0
        assert normal_quantile(u) == pytest.approx(PPF_SPARSE_THRESHOLD, abs=1e-8)

    def test_symmetry(self):
        for u in (0.01, 0.1, 0.3, 0.45):
            assert normal_quantile(u) == pytest.approx(-normal_quantile(1 - u), abs=1e-9)

    def test_roundtrip_against_cdf(self):
        # q(Phi(z)) = z and Phi(q(u)) = u across the bulk and both tails
        zs = np.linspace(-6.0, 6.0, 1001)
        for z in zs:
            assert abs(normal_quantile(normal_cdf(z)) - z) <= 1e-7
        us = np.linspace(1e-6, 1.0 - 1e-6, 1001)
        for u in us:
            assert abs(normal_cdf(normal_quantile(u)) - u) <= 1e-7

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.7])
    def test_domain_errors(self, u):
        with pytest.raises(ValueError, match="lie in"):
            normal_quantile(u)


class TestStudentTQuantile:
    def test_median(self):
        assert student_t_quantile(0.5, 7) == pytest.approx(0.0, abs=1e-12)

    def test_28_degrees(self):
        assert student_t_quantile(0.975, 28) == pytest.approx(T_PPF_975_28, abs=1e-7)

    def test_3_degrees(self):
        # frozen from an independent inversion
        assert student_t_quantile(0.9, 3) == pytest.approx(1.6377443536962095, abs=1e-7)

    def test_cauchy_case_is_tangent(self):
        # df = 1: quantile is tan(pi (u - 1/2)); at u = 0.75 that is exactly 1
        assert student_t_quantile(0.75, 1) == pytest.approx(1.0, abs=1e-12)
        assert student_t_quantile(0.25, 1) == pytest.approx(-1.0, abs=1e-12)

    def test_large_df_approaches_normal(self):
        assert abs(student_t_quantile(0.975, 1e6) - normal_quantile(0.975)) <= 1e-3

    def test_roundtrip_against_cdf(self):
        for df in (1, 2, 5, 28):
            for t in (-3.0, -0.7, 0.0, 1.3, 4.0):
                u = special.stdtr(df, t)
                assert student_t_quantile(u, df) == pytest.approx(t, abs=1e-7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            student_t_quantile(0.4, 0)

    def test_cdf_values(self):
        # frozen from an independent CDF evaluation
        assert special.stdtr(5, 2.0) == pytest.approx(0.9490302605850709, abs=1e-10)
        assert normal_cdf(1.2) == pytest.approx(0.8849303297782918, abs=1e-12)


class TestSamplers:
    def test_chi2_moments(self):
        gen = RngStream(31007).generator()
        draws = sample_chi2(4, 200_000, gen)
        assert draws.min() > 0
        # mean df, variance 2 df
        assert np.mean(draws) == pytest.approx(4.0, abs=0.05)
        assert np.var(draws) == pytest.approx(8.0, rel=0.05)

    def test_f_moments(self):
        gen = RngStream(31008).generator()
        draws = sample_f(5, 20, 200_000, gen)
        assert draws.min() > 0
        # mean d2/(d2 - 2)
        assert np.mean(draws) == pytest.approx(20.0 / 18.0, abs=0.02)

    def test_invalid_df(self):
        gen = RngStream(31009).generator()
        with pytest.raises(ValueError):
            sample_chi2(0, 3, gen)
        with pytest.raises(ValueError):
            sample_f(3, 0, 3, gen)


class TestRngStream:
    def test_same_address_same_draws(self):
        a = RngStream(42, 7).generator().standard_normal(16)
        b = RngStream(42, 7).generator().standard_normal(16)
        assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(16)
        b = RngStream(42, 1).generator().standard_normal(16)
        c = RngStream(43, 0).generator().standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_paths_are_reproducible_and_distinct(self):
        root = RngStream(2026, 3)
        x = root.child(0).generator().standard_normal(8)
        y = root.child(1).generator().standard_normal(8)
        again = RngStream(2026, 3, (0,)).generator().standard_normal(8)
        assert_array_equal(x, again)
        assert not np.array_equal(x, y)

    def test_as_generator_passthrough(self):
        gen = RngStream(5).generator()
        assert as_generator(gen) is gen
        assert as_generator(RngStream(5)).standard_normal() == pytest.approx(
            RngStream(5).generator().standard_normal()
        )


# seeds of 1, 2, 3, 4 and 6 words: 2**160 + 2**37 + 5 has more words than
# the pool of 4, so SeedSequence mixes its last two words in afterwards
_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**160 + 2**37 + 5)
# key entries: small stream ids as the experiments use them, and full words
_KEY_WORD = st.one_of(st.integers(0, 300), st.integers(0, 2**32 - 1))


@st.composite
def _spawn_keys(draw):
    length = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(_KEY_WORD, min_size=length, max_size=length),
                         min_size=1, max_size=6))
    return np.array(rows, dtype=np.int64).reshape(len(rows), length)


class TestStreamGenerators:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.sampled_from(_SEEDS), keys=_spawn_keys())
    def test_states_match_seed_sequence(self, seed, keys):
        for key, gen in zip(keys, stream_generators(seed, keys), strict=True):
            ref = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
            assert_array_equal(gen.bit_generator.seed_seq.generate_state(4, np.uint64),
                               ref.generate_state(4, np.uint64))

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_generators_match_rngstream(self, seed):
        keys = [(u, c) for u in (0, 1, 7, 2**32 - 1) for c in (0, 1, 5)]
        for (u, c), gen in zip(keys, stream_generators(seed, keys), strict=True):
            ref = RngStream(seed, u).child(c).generator()
            assert gen.bit_generator.state == ref.bit_generator.state
            assert_array_equal(gen.standard_normal(8), ref.standard_normal(8))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="seed"):
            stream_generators(-1, [(0, 0)])
        for bad in ([(0, -1)], [(2**32, 0)], [(0, 2**70)]):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
                stream_generators(1, bad)
        with pytest.raises(ValueError, match="integers"):
            stream_generators(1, [(0.5, 1.0)])
        with pytest.raises(ValueError, match="array"):
            stream_generators(1, [0, 1])


class TestInputValidation:
    def test_as_matrix_promotes_vectors(self):
        assert as_matrix([1.0, 2.0]).shape == (2, 1)

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, np.nan]])

    def test_as_matrix_rejects_3d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_as_vector_flattens_single_column(self):
        assert as_vector(np.ones((4, 1))).shape == (4,)

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.ones((2, 3)))

    def test_as_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector(np.array([]))
