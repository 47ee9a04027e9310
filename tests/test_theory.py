"""Unit tests for the lower-bound variance formulas, Bernoulli-process
bounds, and consistency-condition margins."""

import math

import numpy as np
import pytest
from scipy import integrate

from invartest.numerics import RngStream, pseudo_inverse
from invartest.theory import (
    PROPOSITIONS,
    ConsistencyInputs,
    bernoulli_bound_design,
    bernoulli_bound_regression,
    chi2_shift_gaussian,
    consistency_margin,
    tau_star_sparse,
    varL_lowrank_exact,
    varL_sparse,
)

# frozen reference values, derived from the closed forms once and pinned
VARL_LOWRANK_2_1 = 1.8591409142295223   # (1 + e)/2
VARL_SPARSE_5_4_HALF = 0.6225857393654604
TAU_STAR_50_100 = 0.30381311745441053


class TestChi2ShiftGaussian:
    def test_zero_shift(self):
        assert chi2_shift_gaussian(0.0) == 0.0

    def test_unit_shift(self):
        assert chi2_shift_gaussian(1.0) == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_small_shift_quadratic(self):
        # chi^2(tau) = tau^2 + o(tau^2) near zero
        assert chi2_shift_gaussian(0.1) == pytest.approx(0.01005, abs=5e-6)
        assert chi2_shift_gaussian(0.01) == pytest.approx(1e-4, rel=1e-3)

    def test_matches_quadrature(self):
        # direct integral of phi(z - tau)^2 / phi(z) minus one
        tau = 0.7
        val, _ = integrate.quad(
            lambda z: math.exp(-0.5 * (z - tau) ** 2) ** 2
            / math.exp(-0.5 * z * z)
            / math.sqrt(2 * math.pi),
            -30,
            30,
        )
        assert chi2_shift_gaussian(tau) == pytest.approx(val - 1.0, rel=1e-9)

    def test_overflow_flag(self):
        assert chi2_shift_gaussian(30.0) == math.inf
        assert chi2_shift_gaussian(math.inf) == math.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            chi2_shift_gaussian(math.nan)


class TestVarLSparse:
    def test_zero_divergence(self):
        assert varL_sparse(10, 7, 0.0) == 0.0

    def test_single_factor(self):
        assert varL_sparse(1, 1, 0.37) == pytest.approx(0.37, rel=1e-12)

    def test_frozen_gaussian_case(self):
        value = varL_sparse(5, 4, chi2_shift_gaussian(0.5))
        assert value == pytest.approx(VARL_SPARSE_5_4_HALF, rel=1e-12)
        assert value == pytest.approx(0.6226, abs=5e-5)

    def test_closed_form_small_case(self):
        # ((1 + c)^n - 1)/p computed directly
        n, p, c = 3, 2, 0.25
        assert varL_sparse(n, p, c) == pytest.approx(((1 + c) ** n - 1) / p, rel=1e-12)

    def test_monotone_in_n_and_chi2(self):
        grid = [0.1, 0.5, 1.0, 3.0]
        for c in grid:
            vals = [varL_sparse(n, 6, c) for n in (1, 2, 5, 10, 20)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for n in (2, 8):
            vals = [varL_sparse(n, 6, c) for c in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_p(self):
        vals = [varL_sparse(5, p, 0.8) for p in (1, 2, 10, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_overflow_flag(self):
        assert varL_sparse(1000, 10, 10.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            varL_sparse(0, 5, 0.1)
        with pytest.raises(ValueError):
            varL_sparse(5, 5, -0.1)
        with pytest.raises(ValueError, match="chi2"):
            varL_sparse(5, 5, math.nan)


# the 4^n sign-pair enumeration oracle is the `varl_lowrank_enumeration`
# check of invartest.validation, run at n <= 12 by acceptance criterion 07
class TestVarLLowrankExact:
    def test_tau_zero(self):
        for n in (1, 5, 30):
            assert varL_lowrank_exact(n, 0.0) == 1.0

    def test_n_one_closed_form(self):
        for tau in (0.3, 1.0, 2.0):
            assert varL_lowrank_exact(1, tau) == pytest.approx(
                math.exp(tau**2 / 2.0), rel=1e-12
            )

    def test_frozen_n2_case(self):
        assert varL_lowrank_exact(2, 1.0) == pytest.approx(VARL_LOWRANK_2_1, rel=1e-13)
        assert varL_lowrank_exact(2, 1.0) == pytest.approx(0.5 + 0.5 * math.e, rel=1e-12)

    def test_always_at_least_one(self):
        for n in (1, 4, 17, 30):
            for tau in (0.0, 0.2, 1.5):
                value = varL_lowrank_exact(n, tau)
                assert value >= 1.0
                assert (value == 1.0) == (tau == 0.0)

    def test_enumeration_limit(self):
        with pytest.raises(ValueError, match="30"):
            varL_lowrank_exact(31, 0.5)

    def test_overflow_flag(self):
        assert varL_lowrank_exact(30, 10.0) == math.inf
        assert varL_lowrank_exact(3, math.inf) == math.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            varL_lowrank_exact(3, math.nan)


# the sqrt(log p / n) rate of tau* is the `rate_calibration` check of
# invartest.validation, run by acceptance criterion 06
class TestTauStarSparse:
    def test_frozen_value(self):
        assert tau_star_sparse(50, 100) == pytest.approx(TAU_STAR_50_100, rel=1e-10)

    def test_root_property(self):
        # the grid holds cases where sqrt(log1p(p) / n), rounded, leaves
        # varL an ulp below 1
        for n in (1, 3, 7, 20, 50, 200, 1000):
            for p in (2, 10, 50, 100, 1000, 10**4, 10**6):
                star = tau_star_sparse(n, p)
                assert varL_sparse(n, p, chi2_shift_gaussian(star)) >= 1.0, (n, p)
                below = varL_sparse(n, p, chi2_shift_gaussian(star * (1 - 1e-6)))
                assert below < 1.0, (n, p)

    def test_closed_form(self):
        for n, p in ((1, 2), (7, 50), (50, 100), (1000, 10**6)):
            assert tau_star_sparse(n, p) == pytest.approx(
                math.sqrt(math.log1p(p) / n), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got 0$"):
            tau_star_sparse(0, 10)


class TestBernoulliBoundRegression:
    def test_identity_design(self):
        out = bernoulli_bound_regression(
            np.eye(4), np.ones(4), l=2.0, mc=200, rng=RngStream(81001)
        )
        assert out.b_estimate == 1.0
        assert out.r_value == 1.0
        assert out.u_plus == pytest.approx(3.0)
        assert out.mc_standard_error == 0.0

    def test_zero_noise(self):
        out = bernoulli_bound_regression(
            np.eye(3), np.zeros(3), l=5.0, mc=150, rng=RngStream(81002)
        )
        assert out.b_estimate == 0.0
        assert out.r_value == 0.0
        assert out.u_plus == 0.0

    def test_soft_concentration(self):
        # u_plus at l = 5 should cover most fresh sign-symmetric redraws
        gen = RngStream(81003).generator()
        x = gen.standard_normal((50, 10))
        eps_abs = np.abs(gen.standard_normal(50))
        bound = bernoulli_bound_regression(x, eps_abs, l=5.0, mc=2000, rng=RngStream(81004))
        pinv = pseudo_inverse(x)
        covered = 0
        for r in range(1000):
            signs = RngStream(81005, r).generator().integers(0, 2, 50) * 2.0 - 1.0
            stat = np.max(np.abs(pinv @ (signs * eps_abs)))
            covered += stat <= bound.u_plus
        assert covered / 1000 >= 0.90

    def test_se_shrinks_with_mc(self):
        gen = RngStream(81006).generator()
        x = gen.standard_normal((30, 5))
        eps_abs = np.abs(gen.standard_normal(30))
        small = bernoulli_bound_regression(x, eps_abs, 3.0, 2000, RngStream(81007, 0))
        large = bernoulli_bound_regression(x, eps_abs, 3.0, 8000, RngStream(81007, 1))
        ratio = large.mc_standard_error / small.mc_standard_error
        assert 0.35 <= ratio <= 0.7

    def test_validation(self):
        with pytest.raises(ValueError, match="l must"):
            bernoulli_bound_regression(np.eye(3), np.ones(3), 0.0, 200, RngStream(1))
        with pytest.raises(ValueError, match="mc must"):
            bernoulli_bound_regression(np.eye(3), np.ones(3), 1.0, 50, RngStream(1))
        with pytest.raises(ValueError, match="length"):
            bernoulli_bound_regression(np.eye(3), np.ones(4), 1.0, 200, RngStream(1))
        # l and mc are checked before the inputs, and NaN is no valid l
        with pytest.raises(ValueError, match="l must"):
            bernoulli_bound_regression(np.eye(3), np.ones(4), math.nan, 200, RngStream(1))


class TestBernoulliBoundDesign:
    def test_identity_design(self):
        out = bernoulli_bound_design(np.eye(5), l=1.5, mc=200, rng=RngStream(81008))
        assert out.b_estimate == 1.0
        assert out.r_value == 1.0
        assert out.u_plus == pytest.approx(1.0 + 1.5)

    def test_single_column_matches_enumeration(self):
        # p = 1: the w-range has two vertices, so the supremum is computable
        gen = RngStream(81009).generator()
        x = gen.standard_normal((12, 1))
        pinv = pseudo_inverse(x)
        signs = RngStream(81010).generator().integers(0, 2, (500, 12)) * 2.0 - 1.0
        per_draw = []
        for b in signs:
            best = max(
                float(np.max(np.abs(pinv @ (x[:, 0] * b * w)))) for w in (-1.0, 1.0)
            )
            per_draw.append(best)
        expected = float(np.mean(per_draw))
        out = bernoulli_bound_design(x, l=2.0, mc=500, rng=RngStream(81010))
        assert out.b_estimate == pytest.approx(expected, rel=1e-10)

    def test_multi_column_matches_loop(self):
        # b is the mean over draws of max_j sum_q |sum_k [X^+]_jk X_kq b_k|
        x = RngStream(81013).generator().standard_normal((20, 4))
        pinv = pseudo_inverse(x)
        signs = RngStream(81014).generator().integers(0, 2, (300, 20)) * 2.0 - 1.0
        expected = np.mean([
            max(sum(abs(float(np.sum(pinv[j] * x[:, q] * b))) for q in range(4))
                for j in range(4))
            for b in signs
        ])
        out = bernoulli_bound_design(x, l=2.0, mc=300, rng=RngStream(81014))
        assert out.b_estimate == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        # doubling X halves its pseudo-inverse, leaving the process unchanged
        gen = RngStream(81011).generator()
        x = gen.standard_normal((15, 4))
        a = bernoulli_bound_design(x, 2.0, 300, RngStream(81012))
        b = bernoulli_bound_design(2.0 * x, 2.0, 300, RngStream(81012))
        assert a.b_estimate == pytest.approx(b.b_estimate, rel=1e-10)
        assert a.r_value == pytest.approx(b.r_value, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="mc"):
            bernoulli_bound_design(np.eye(3), 1.0, 10, RngStream(1))
        with pytest.raises(ValueError, match="l must"):
            bernoulli_bound_design(np.eye(3), math.nan, 200, RngStream(1))


class TestConsistencyMargin:
    def test_sparse_signflip_example(self):
        rep = consistency_margin(ConsistencyInputs("sparse_signflip", s_inf=4.0, t=1.0))
        assert rep.margin == pytest.approx(2.0)
        assert rep.deterministic_margin == pytest.approx(2.0)
        assert rep.theorem_margin is None

    def test_sparse_signflip_boundary(self):
        rep = consistency_margin(ConsistencyInputs("sparse_signflip", s_inf=3.0, t=1.5))
        assert rep.margin == pytest.approx(1.0)

    def test_sparse_rotation_example(self):
        rep = consistency_margin(
            ConsistencyInputs("sparse_rotation", s_inf=3.0, s_2=3.0, t2=10.0, p=100)
        )
        expected = (3.0 / math.sqrt(2 * math.log(100))) / ((3.0 + 20.0) / 10.0)
        assert rep.margin == pytest.approx(expected, rel=1e-12)
        assert rep.margin == pytest.approx(0.4298, abs=5e-4)
        det_expected = (3.0 / math.sqrt(2 * math.log(100))) / (20.0 / 10.0)
        assert rep.deterministic_margin == pytest.approx(det_expected, rel=1e-12)

    def test_lowrank_folds_threshold(self):
        rep = consistency_margin(
            ConsistencyInputs("lowrank", s_op=40.0, s_2inf=1.0, t2=2.0, n=25, p=25)
        )
        numer = 40.0 / (5.0 + 5.0)
        expected = numer / ((1.0 + 4.0) / 5.0) / 2.0
        assert rep.margin == pytest.approx(expected, rel=1e-12)

    def test_regression_uses_one_minus_uplus(self):
        rep = consistency_margin(
            ConsistencyInputs("regression", s_inf=6.0, u_plus=0.5, t=1.0)
        )
        assert rep.margin == pytest.approx(6.0 * 0.5 / 2.0)
        assert rep.deterministic_margin == pytest.approx(3.0)

    def test_regression_condition_unmet_goes_negative(self):
        rep = consistency_margin(
            ConsistencyInputs("regression", s_inf=2.0, u_plus=3.0, t=1.0)
        )
        assert rep.margin < 0

    def test_twosample_folds_threshold(self):
        rep = consistency_margin(ConsistencyInputs("twosample", delta=4.0, t=1.0))
        assert rep.margin == pytest.approx(2.0)

    def test_theorem_margin_with_psi(self):
        rep = consistency_margin(
            ConsistencyInputs(
                "sparse_signflip", s_inf=6.0, t=1.0, t_tilde=2.0, psi=0.5
            )
        )
        # psi^-2 t_tilde + psi^-1 (psi^-1 + 1) t = 4*2 + 2*3*1 = 14
        assert rep.theorem_margin == pytest.approx(6.0 / 14.0)

    def test_missing_fields_named(self):
        with pytest.raises(ValueError, match="t"):
            consistency_margin(ConsistencyInputs("sparse_signflip", s_inf=1.0))
        with pytest.raises(ValueError, match="s_2"):
            consistency_margin(
                ConsistencyInputs("sparse_rotation", s_inf=1.0, t2=1.0, p=10)
            )
        with pytest.raises(ValueError, match="u_plus"):
            consistency_margin(ConsistencyInputs("regression", s_inf=1.0, t=1.0))

    def test_zero_noise_levels(self):
        rep = consistency_margin(ConsistencyInputs("twosample", delta=1.0, t=0.0))
        assert rep.margin == math.inf
        rep = consistency_margin(ConsistencyInputs("twosample", delta=0.0, t=0.0))
        assert rep.margin == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="proposition"):
            ConsistencyInputs("sparse_mean")
        with pytest.raises(ValueError, match="nonnegative"):
            ConsistencyInputs("twosample", delta=-1.0, t=1.0)
        with pytest.raises(ValueError, match="psi"):
            ConsistencyInputs("twosample", delta=1.0, t=1.0, psi=0.0)

    # each id names the rule its case checks, so that a test's name does
    # not change with the wording of its message
    @pytest.mark.parametrize("proposition, fields, named", [
        ("sparse_signflip", dict(s_inf=1.0, t=math.nan), "t must be nonnegative"),
        ("twosample", dict(delta=math.nan, t=1.0), "delta must be nonnegative"),
        ("sparse_rotation", dict(s_inf=1.0, s_2=1.0, t2=1.0, p=1),
         "p must be an integer >= 2, got 1"),
        ("sparse_rotation", dict(s_inf=1.0, s_2=1.0, t2=1.0, p=0),
         "p must be an integer >= 2, got 0"),
        ("lowrank", dict(s_op=1.0, s_2inf=1.0, t2=1.0, n=0, p=3),
         "n must be an integer >= 1, got 0"),
        ("lowrank", dict(s_op=1.0, s_2inf=1.0, t2=1.0, n=-4, p=3),
         "n must be an integer >= 1, got -4"),
        ("lowrank", dict(s_op=1.0, s_2inf=1.0, t2=1.0, n=3, p=0),
         "p must be an integer >= 1, got 0"),
    ], ids=[f"{prop}-fields{i}-{rule}" for i, (prop, rule) in enumerate([
        ("sparse_signflip", "t must be nonnegative"), ("twosample", "delta must be nonnegative"),
        ("sparse_rotation", "p must be at least 2"), ("sparse_rotation", "p must be at least 2"),
        ("lowrank", "n must be at least 1"), ("lowrank", "n must be at least 1"),
        ("lowrank", "p must be at least 1")])])
    def test_bad_value_named(self, proposition, fields, named):
        with pytest.raises(ValueError, match=named):
            ConsistencyInputs(proposition, **fields)

    def test_smallest_dimensions_accepted(self):
        consistency_margin(ConsistencyInputs("sparse_rotation", s_inf=1.0, s_2=1.0,
                                             t2=1.0, p=2))
        consistency_margin(ConsistencyInputs("lowrank", s_op=1.0, s_2inf=1.0,
                                             t2=1.0, n=1, p=1))

    def test_propositions_catalog(self):
        assert set(PROPOSITIONS) == {
            "sparse_signflip",
            "sparse_rotation",
            "lowrank",
            "regression",
            "twosample",
        }
