"""Unit tests for the noise samplers."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import stats

from invartest.noise import NoiseSpec, heteroskedastic_mean_abs, sample_noise
from invartest.numerics import RngStream


class TestIidFamilies:
    def test_normal_moments(self):
        spec = NoiseSpec("iid_normal", n=1000, p=1000)
        draws = sample_noise(spec, RngStream(71001))
        assert draws.shape == (1000, 1000)
        assert abs(draws.mean()) <= 3e-3
        assert abs(draws.var() - 1.0) <= 5e-3

    def test_student_marginal_law(self):
        spec = NoiseSpec("iid_student", n=100, p=200, df=5)
        draws = sample_noise(spec, RngStream(71002)).ravel()
        res = stats.kstest(draws, stats.t(df=5).cdf)
        assert res.pvalue > 0.01

    def test_cauchy_marginal_law(self):
        spec = NoiseSpec("iid_student", n=100, p=200, df=1)
        draws = sample_noise(spec, RngStream(71003)).ravel()
        res = stats.kstest(draws, stats.cauchy.cdf)
        assert res.pvalue > 0.01

    def test_noninteger_df(self):
        spec = NoiseSpec("iid_student", n=50, p=100, df=2.5)
        draws = sample_noise(spec, RngStream(71004)).ravel()
        res = stats.kstest(draws, stats.t(df=2.5).cdf)
        assert res.pvalue > 0.01


class TestSphericalFamily:
    def test_normal_radial_gives_chi2_radius(self):
        spec = NoiseSpec("spherical", n=20_000, p=4, radial="normal")
        draws = sample_noise(spec, RngStream(71005))
        r2 = np.sum(draws**2, axis=1)
        res = stats.kstest(r2, stats.chi2(df=4).cdf)
        assert res.pvalue > 0.01

    def test_student_radial_gives_f_radius(self):
        # multivariate t with d dof: ||Z||^2 / p is F_{p, d}
        spec = NoiseSpec("spherical", n=20_000, p=4, radial="student", df=3)
        draws = sample_noise(spec, RngStream(71006))
        r2 = np.sum(draws**2, axis=1) / 4.0
        res = stats.kstest(r2, stats.f(dfn=4, dfd=3).cdf)
        assert res.pvalue > 0.01

    def test_cauchy_radial_is_student_with_df_one(self):
        spec = NoiseSpec("spherical", n=20_000, p=3, radial="student", df=1)
        draws = sample_noise(spec, RngStream(71007))
        r2 = np.sum(draws**2, axis=1) / 3.0
        res = stats.kstest(r2, stats.f(dfn=3, dfd=1).cdf)
        assert res.pvalue > 0.01

    def test_direction_uniform(self):
        # first coordinate of the unit direction is uniform on [-1, 1] at p=3
        spec = NoiseSpec("spherical", n=10_000, p=3, radial="normal")
        draws = sample_noise(spec, RngStream(71008))
        coord = draws[:, 0] / np.linalg.norm(draws, axis=1)
        res = stats.kstest(coord, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert res.pvalue > 0.01


class TestHeteroskedasticFamily:
    def test_row_scale_profile(self):
        # row i has scale 1 + (i - 1)/n, so the last row has 2 - 1/n times
        # the magnitude of the first; heteroskedastic_mean_abs, which the
        # regression margin notes read, is the mean of |entry| per row
        spec = NoiseSpec("heteroskedastic_sign_symmetric", n=2, p=200_000)
        total = np.zeros(2)
        draws = sample_noise(spec, RngStream(71009))
        total = np.abs(draws).mean(axis=1)
        assert total[1] / total[0] == pytest.approx(1.5, abs=0.05)
        assert total == pytest.approx(heteroskedastic_mean_abs(2), rel=0.02)

    def test_mean_abs_is_the_t3_law(self):
        expected = (1.0 + np.arange(5) / 5) * 2.0 * stats.t(df=3).expect(abs, lb=0.0)
        assert heteroskedastic_mean_abs(5) == pytest.approx(expected, rel=1e-9)

    def test_rows_flip_as_blocks(self):
        spec = NoiseSpec("heteroskedastic_sign_symmetric", n=8, p=30)
        draws = sample_noise(spec, RngStream(71010))
        for row in draws:
            assert np.all(row >= 0) or np.all(row <= 0)

    def test_row_sums_sign_symmetric(self):
        spec = NoiseSpec("heteroskedastic_sign_symmetric", n=5, p=3)
        sums = np.array(
            [
                sample_noise(spec, RngStream(71011, r)).sum(axis=1)
                for r in range(4000)
            ]
        ).ravel()
        res = stats.ks_2samp(sums, -sums)
        assert res.pvalue > 0.01


class TestNoiseSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            NoiseSpec("iid_laplace", n=5, p=2)

    def test_student_needs_df(self):
        with pytest.raises(ValueError, match="df"):
            NoiseSpec("iid_student", n=5, p=2)
        with pytest.raises(ValueError, match="df"):
            NoiseSpec("iid_student", n=5, p=2, df=-1)

    def test_spherical_radial_law(self):
        with pytest.raises(ValueError, match="radial"):
            NoiseSpec("spherical", n=5, p=2, radial="uniform")
        with pytest.raises(ValueError, match="df"):
            NoiseSpec("spherical", n=5, p=2, radial="student")

    @pytest.mark.parametrize("kwargs, field", [
        (dict(family="iid_normal", df=5.0), "df"),
        (dict(family="heteroskedastic_sign_symmetric", df=7.0), "df"),
        (dict(family="spherical", df=5.0), "df"),
        (dict(family="spherical", radial="normal", df=5.0), "df"),
        (dict(family="iid_student", df=5.0, radial="student"), "radial"),
        (dict(family="iid_normal", radial="student"), "radial"),
        (dict(family="heteroskedastic_sign_symmetric", radial="uniform"), "radial"),
        (dict(family="iid_student", df=float("nan")), "df"),
    ])
    def test_unread_or_invalid_value_named(self, kwargs, field):
        # a value that no draw of the family reads is refused, naming it
        with pytest.raises(ValueError, match=field):
            NoiseSpec(n=3, p=3, **kwargs)

    def test_dimensions(self):
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got 0$"):
            NoiseSpec("iid_normal", n=0, p=2)
