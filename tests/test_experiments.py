"""Unit tests for the power-experiment configs, runners, CSV format, and
the t-test comparator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal
from scipy import stats

from invartest import experiments
from invartest.engine import RandTestConfig, run_randomization_test
from invartest.experiments import (
    CSV_HEADER,
    SCENARIOS,
    PowerCurve,
    ScenarioConfig,
    heavy_tail_config,
    lowrank_config,
    regression_config,
    run_experiment,
    sparse_vector_config,
    two_sample_config,
    two_sample_t_test,
)
from invartest.groups import GroupAction
from invartest.noise import NoiseSpec, sample_noise
from invartest.numerics import RngStream
from invartest.statistics import make_statistic


class TestConfigFactories:
    def test_sparse_vector_defaults(self):
        cfg = sparse_vector_config(seed=1)
        assert cfg.scenario == "sparse_vector"
        assert (cfg.n, cfg.p) == (32, 100)
        assert len(cfg.grid) == 20
        assert cfg.grid[0] == 0.0
        assert cfg.grid[-1] == pytest.approx(4.0 * math.sqrt(math.log(100)))
        assert cfg.methods == (
            "deterministic",
            "signflip_K19",
            "signflip_K99",
            "rotation_K19",
            "rotation_K99",
        )
        assert cfg.replicates == 1000
        assert cfg.noise == NoiseSpec("iid_normal", 32, 100)

    def test_heavy_tail_defaults(self):
        cfg = heavy_tail_config(seed=1)
        assert cfg.methods == (
            "signflip_K19_t3",
            "signflip_K99_t3",
            "signflip_K19_t5",
            "signflip_K99_t5",
        )
        assert cfg.noise.family == "iid_student"
        assert cfg.noise.df == 3.0

    def test_two_sample_defaults(self):
        cfg = two_sample_config(seed=1)
        assert (cfg.n, cfg.n2) == (15, 15)
        assert cfg.methods == ("permutation_K99", "t_test")
        assert cfg.noise == NoiseSpec("iid_normal", 30, 1)
        assert cfg.grid[-1] == 3.0

    def test_lowrank_defaults(self):
        cfg = lowrank_config(seed=1)
        assert (cfg.n, cfg.p) == (50, 50)
        assert cfg.methods == ("rotation_K19",)
        assert cfg.replicates == 500
        assert cfg.grid[-1] == pytest.approx(6.0 * math.sqrt(50))

    def test_regression_defaults(self):
        cfg = regression_config(seed=1)
        assert (cfg.n, cfg.p) == (100, 20)
        assert cfg.methods == ("signflip_K99",)
        assert cfg.noise.family == "heteroskedastic_sign_symmetric"
        assert cfg.noise.p == 1
        assert cfg.design_seed == 12345
        assert cfg.grid[-1] == 6.0

    def test_scenario_names(self):
        assert SCENARIOS == (
            "sparse_vector",
            "heavy_tail",
            "two_sample",
            "lowrank",
            "regression",
        )


class TestScenarioConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            ScenarioConfig(
                "spiked_cov", 5, 5, None, NoiseSpec("iid_normal", 5, 5),
                (0.0,), ("signflip_K9",), 0.05, 10, 1,
            )

    def test_replicates_positive(self):
        with pytest.raises(ValueError, match="replicates"):
            sparse_vector_config(seed=1, replicates=0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
            two_sample_config(seed=-3)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got 1.5"):
            two_sample_config(seed=1.5)

    def test_units_fit_one_key_word(self):
        # 2 grid points x 2**31 replicates is exactly 2**32 units, the limit
        assert two_sample_config(seed=1, grid_points=2, replicates=2**31).replicates == 2**31
        with pytest.raises(ValueError, match=r"grid has 3 points x replicates 2147483648"):
            two_sample_config(seed=1, grid_points=3, replicates=2**31)

    def test_grid_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            ScenarioConfig(
                "sparse_vector", 8, 5, None, NoiseSpec("iid_normal", 8, 5),
                (0.0, 1.0, 1.0), ("signflip_K9",), 0.05, 10, 1,
            )

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            sparse_vector_config(seed=1, alpha=1.0)

    def test_method_scenario_mismatch(self):
        with pytest.raises(ValueError, match="not valid"):
            ScenarioConfig(
                "sparse_vector", 8, 5, None, NoiseSpec("iid_normal", 8, 5),
                (0.0,), ("permutation_K9",), 0.05, 10, 1,
            )

    def test_heavy_tail_needs_df_suffix(self):
        with pytest.raises(ValueError, match="_t"):
            ScenarioConfig(
                "heavy_tail", 8, 5, None,
                NoiseSpec("iid_student", 8, 5, df=3.0),
                (0.0,), ("signflip_K9",), 0.05, 10, 1,
            )

    def test_df_suffix_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="df suffix"):
            ScenarioConfig(
                "sparse_vector", 8, 5, None, NoiseSpec("iid_normal", 8, 5),
                (0.0,), ("signflip_K9_t3",), 0.05, 10, 1,
            )

    def test_unparseable_method(self):
        with pytest.raises(ValueError, match="method"):
            ScenarioConfig(
                "sparse_vector", 8, 5, None, NoiseSpec("iid_normal", 8, 5),
                (0.0,), ("wilcoxon",), 0.05, 10, 1,
            )

    def test_two_sample_needs_n2(self):
        with pytest.raises(ValueError, match="n2"):
            ScenarioConfig(
                "two_sample", 10, 1, None, NoiseSpec("iid_normal", 20, 1),
                (0.0,), ("t_test",), 0.05, 10, 1,
            )

    @pytest.mark.parametrize("n, n2, field", [(1, 5, "n = 1"), (5, 1, "n2 = 1")])
    def test_t_test_needs_two_observations_per_sample(self, n, n2, field):
        with pytest.raises(ValueError, match=f"got {field}$"):
            two_sample_config(1, n=n, n2=n2)

    def test_permutation_only_allows_one_observation(self):
        cfg = ScenarioConfig(
            "two_sample", 1, 1, 3, NoiseSpec("iid_normal", 4, 1),
            (0.0, 1.0), ("permutation_K19",), 0.05, 20, 1,
        )
        assert run_experiment(cfg).counts.shape == (2, 1)

    def test_noise_shape_checked(self):
        with pytest.raises(ValueError, match="noise spec"):
            ScenarioConfig(
                "sparse_vector", 8, 5, None, NoiseSpec("iid_normal", 8, 4),
                (0.0,), ("signflip_K9",), 0.05, 10, 1,
            )
        with pytest.raises(ValueError, match="noise spec"):
            ScenarioConfig(
                "two_sample", 10, 1, 10, NoiseSpec("iid_normal", 10, 1),
                (0.0,), ("t_test",), 0.05, 10, 1,
            )

    def test_k_above_K_rejected(self):
        # alpha = 0.01 < 1/20 gives k = 20 > K = 19: a test that never rejects
        with pytest.raises(ValueError, match=r"'signflip_K19': k = 20 exceeds K = 19"):
            sparse_vector_config(3, alpha=0.01, ks=(19,))

    def test_k_equal_K_accepted(self):
        # alpha = 1/(K+1) is the max-test boundary k = K, still a valid test
        cfg = sparse_vector_config(3, alpha=0.05, ks=(19,))
        assert cfg.methods == ("deterministic", "signflip_K19", "rotation_K19")


class TestPowerCurve:
    def _curve(self):
        return PowerCurve(
            scenario="two_sample",
            methods=("permutation_K19", "t_test"),
            grid=(0.0, 1.5),
            counts=np.array([[5, 10], [80, 90]]),
            replicates=100,
            seed=7,
            notes={"l": 2.5, "label": "demo"},
        )

    def test_power_and_se(self):
        curve = self._curve()
        assert_array_equal(curve.power, [[0.05, 0.10], [0.80, 0.90]])
        expected_se = np.sqrt(0.05 * 0.95 / 100)
        assert curve.se[0, 0] == pytest.approx(expected_se)

    def test_series_lookup(self):
        curve = self._curve()
        assert_array_equal(curve.series("t_test"), [0.10, 0.90])
        assert curve.se_series("permutation_K19")[1] == pytest.approx(
            math.sqrt(0.8 * 0.2 / 100)
        )

    def test_counts_shape_validated(self):
        with pytest.raises(ValueError, match="counts shape"):
            PowerCurve("two_sample", ("a",), (0.0,), np.zeros((2, 1)), 10, 1)

    def test_counts_range_validated(self):
        with pytest.raises(ValueError, match="counts"):
            PowerCurve("two_sample", ("a",), (0.0,), np.array([[11]]), 10, 1)

    def test_csv_round_trip(self):
        curve = self._curve()
        text = curve.to_csv()
        assert text.count(CSV_HEADER) == 1
        assert "# note l: 2.5" in text
        assert PowerCurve.from_csv(text) == curve

    def test_csv_file_round_trip(self, tmp_path):
        curve = self._curve()
        path = tmp_path / "curve.csv"
        curve.save_csv(path)
        assert PowerCurve.load_csv(path) == curve

    def test_csv_full_precision_signals(self):
        # linspace endpoints carry all 17 digits through the text form
        grid = (0.0, 4.0 * math.sqrt(math.log(100)) / 3.0)
        curve = PowerCurve("sparse_vector", ("deterministic",), grid,
                           np.array([[1], [2]]), 10, 3)
        assert PowerCurve.from_csv(curve.to_csv()).grid == grid

    def test_from_csv_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            PowerCurve.from_csv("a,b,c\n1,2,3\n")

    def test_from_csv_bad_field_count(self):
        text = CSV_HEADER + "\ntwo_sample,t_test,0.0,10,1\n"
        with pytest.raises(ValueError, match="8 fields"):
            PowerCurve.from_csv(text)

    def test_from_csv_inconsistent_reps(self):
        text = (
            CSV_HEADER + "\n"
            "two_sample,t_test,0,10,1,0.1,0.09,7\n"
            "two_sample,t_test,1,20,1,0.05,0.04,7\n"
        )
        with pytest.raises(ValueError, match="inconsistent"):
            PowerCurve.from_csv(text)

    def test_from_csv_out_of_order_grid(self):
        row = "two_sample,t_test,%s,10,1,0.1,0.09,7\n"
        text = CSV_HEADER + "\n" + row % "0" + row % "1" + row % "0"
        with pytest.raises(ValueError, match="order"):
            PowerCurve.from_csv(text)

    def test_from_csv_incomplete_table(self):
        text = (
            CSV_HEADER + "\n"
            "two_sample,perm,0,10,1,0.1,0.09,7\n"
            "two_sample,t_test,0,10,1,0.1,0.09,7\n"
            "two_sample,perm,1,10,5,0.5,0.15,7\n"
        )
        with pytest.raises(ValueError, match="incomplete"):
            PowerCurve.from_csv(text)

    def test_from_csv_empty(self):
        with pytest.raises(ValueError, match="no data"):
            PowerCurve.from_csv(CSV_HEADER + "\n")


class TestRunners:
    def test_sparse_vector_levels_and_saturation(self):
        cfg = sparse_vector_config(seed=90001, grid_points=2, replicates=300,
                                   ks=(19,))
        curve = run_experiment(cfg)
        assert curve.grid[0] == 0.0
        band = 3 * math.sqrt(0.05 * 0.95 / 300)
        for method in curve.methods:
            assert abs(curve.series(method)[0] - 0.05) <= band, method
            # the top grid point is far beyond the detection threshold
            assert curve.series(method)[1] == 1.0, method

    def test_heavy_tail_runner_shapes(self):
        cfg = heavy_tail_config(seed=90002, grid_points=2, replicates=80,
                                ks=(19,), dfs=(3, 5))
        curve = run_experiment(cfg)
        assert curve.methods == ("signflip_K19_t3", "signflip_K19_t5")
        assert curve.counts.shape == (2, 2)
        assert np.all(curve.power[1] > 0.9)

    def test_two_sample_null_levels(self):
        cfg = two_sample_config(seed=90003, grid_points=1, replicates=500, K=19)
        curve = run_experiment(cfg)
        band = 3 * math.sqrt(0.05 * 0.95 / 500)
        assert abs(curve.series("permutation_K19")[0] - 0.05) <= band
        assert abs(curve.series("t_test")[0] - 0.05) <= band

    def test_lowrank_runner(self):
        cfg = lowrank_config(seed=90004, n=12, p=12, grid_points=3,
                             replicates=60, K=19)
        curve = run_experiment(cfg)
        assert curve.methods == ("rotation_K19",)
        # power rises from near-level to saturation across the grid
        series = curve.series("rotation_K19")
        assert series[0] < 0.3
        assert series[-1] == 1.0

    def test_regression_runner_notes(self):
        cfg = regression_config(seed=90005, n=40, p=5, grid_points=2,
                                replicates=40, K=19)
        curve = run_experiment(cfg)
        for key in (
            "margin_tau_top", "deterministic_margin_tau_top", "tau_top",
            "u_plus_design", "t_bound", "b_design", "r_design", "b_noise",
            "r_noise", "l", "mc",
        ):
            assert key in curve.notes, key
        assert curve.notes["tau_top"] == cfg.grid[-1]
        assert curve.notes["l"] == pytest.approx(math.sqrt(2 * math.log(2 / 0.05)))
        # the randomized margin is deflated by u_plus relative to the
        # deterministic one
        assert (
            curve.notes["margin_tau_top"]
            < curve.notes["deterministic_margin_tau_top"]
        )
        # real float notes survive the CSV round trip
        assert PowerCurve.from_csv(curve.to_csv()) == curve

    def test_reruns_identical(self):
        cfg = two_sample_config(seed=90006, grid_points=3, replicates=60, K=19)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_worker_count_invariance(self, scenario):
        # over 200 units (two chunks or more), so that workers=2 starts a pool
        kwargs = {
            "sparse_vector": dict(replicates=100, ks=(19,)),
            "heavy_tail": dict(replicates=100, ks=(19,), dfs=(3, 5)),
            "two_sample": dict(replicates=150, K=19),
            "lowrank": dict(replicates=100, n=8, p=8, K=19),
            "regression": dict(replicates=100, n=40, p=5, K=19),
        }[scenario]
        cfg = experiments._CONFIG_FACTORIES[scenario](90007, grid_points=3, **kwargs)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial == parallel
        assert serial.to_csv() == parallel.to_csv()

    def test_single_chunk_runs_in_process(self, monkeypatch):
        cfg = two_sample_config(seed=90008, grid_points=2, replicates=50, K=19)
        serial = run_experiment(cfg, workers=1).to_csv()

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk run started a process pool")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        assert run_experiment(cfg, workers=4).to_csv() == serial

    def test_different_seeds_differ(self):
        a = run_experiment(two_sample_config(seed=1, grid_points=2, replicates=120))
        b = run_experiment(two_sample_config(seed=2, grid_points=2, replicates=120))
        assert not np.array_equal(a.counts, b.counts)

    def test_lowrank_unit_is_the_engine_test(self, monkeypatch):
        # each unit's t0 and rejection, seen through decide_stopping, against
        # the opnorm statistic and the generic engine on the unit's streams
        cfg = lowrank_config(7, grid_points=5, replicates=30)
        seen = []
        decide_stopping = experiments.decide_stopping

        def spy(t0, orbit, K, k):
            seen.append((t0, decide_stopping(t0, orbit, K, k)))
            return seen[-1][1]

        monkeypatch.setattr(experiments, "decide_stopping", spy)
        counts = experiments._chunk(cfg, 0, 150)
        assert len(seen) == 150 and 0 < counts.sum() < 150
        base = experiments._lowrank_setup(cfg, None)
        opnorm = make_statistic("opnorm")
        action = GroupAction("rotate_per_column", n=cfg.n, p=cfg.p)
        for u, (t0, reject) in enumerate(seen):
            stream = RngStream(cfg.seed, u)
            x = sample_noise(cfg.noise, stream.child(0)) + cfg.grid[u // cfg.replicates] * base
            assert t0 == opnorm(x)
            out = run_randomization_test(x, opnorm, action, RandTestConfig(19, cfg.alpha),
                                         stream.child(1))
            assert reject == out.reject


    def test_two_sample_t_test_unit_is_the_public_test(self):
        # each unit's t_test decision, read from a one-unit chunk, against
        # two_sample_t_test on the unit's own noise draw
        cfg = two_sample_config(11, n=7, n2=9, grid_points=4, grid_high=2.0,
                                replicates=25, K=19)
        col = cfg.methods.index("t_test")
        rejections = 0
        for u in range(len(cfg.grid) * cfg.replicates):
            g = u // cfg.replicates
            w = sample_noise(cfg.noise, RngStream(cfg.seed, u).child(0))[:, 0]
            expected = two_sample_t_test(w[:cfg.n], w[cfg.n:] + cfg.grid[g], cfg.alpha)
            assert experiments._chunk(cfg, u, u + 1)[g, col] == expected
            rejections += expected
        assert 0 < rejections < 100


class TestTwoSampleTTest:
    def test_matches_scipy_oracle(self):
        gen = np.random.Generator(np.random.PCG64(90008))
        alpha = 0.05
        for _ in range(1000):
            n = int(gen.integers(3, 20))
            m = int(gen.integers(3, 20))
            z = gen.standard_normal(n) + gen.uniform(-1, 1)
            y = gen.standard_normal(m)
            ours = two_sample_t_test(z, y, alpha)
            ref = stats.ttest_ind(z, y, equal_var=True)
            assert ours == (ref.pvalue < alpha)

    def test_zero_variance_never_rejects(self, caplog):
        with caplog.at_level("WARNING"):
            assert two_sample_t_test([1.0, 1.0], [1.0, 1.0], 0.05) is False
        assert "variance" in caplog.text

    def test_obvious_shift_rejects(self):
        z = np.zeros(10) + np.linspace(-0.01, 0.01, 10)
        assert two_sample_t_test(z + 5.0, z, 0.05) is True

    def test_validation(self):
        with pytest.raises(ValueError, match="2 observations"):
            two_sample_t_test([1.0], [1.0, 2.0], 0.05)
        with pytest.raises(ValueError, match="alpha"):
            two_sample_t_test([1.0, 2.0], [3.0, 4.0], 0.0)


class TestPooledT:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(z=arrays(np.float64, st.integers(2, 40), elements=st.floats(-1e3, 1e3)),
           y=arrays(np.float64, st.integers(2, 40), elements=st.floats(-1e3, 1e3)),
           scale=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3))
    def test_bitwise_the_ndarray_expression(self, z, y, scale, shift):
        z = z * scale + shift
        n, m = z.size, y.size
        pooled = ((n - 1) * z.var(ddof=1) + (m - 1) * y.var(ddof=1)) / (n + m - 2)
        t = experiments._pooled_t(z, y)
        if pooled <= 0.0:
            assert t is None
            return
        expected = (z.mean() - y.mean()) / math.sqrt(pooled * (1.0 / n + 1.0 / m))
        assert float(t).hex() == float(expected).hex()
