"""Unit tests for the power-experiment configs, runners, CSV format, and
the t-test comparator."""

import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal
from scipy import stats

import invartest
from invartest import experiments
from invartest.engine import RandTestConfig, decide, exact_level, run_randomization_test
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
from invartest.groups import (
    GroupAction,
    _column_sphere_images,
    _gaussian_rows,
    _permutations,
    _signs,
)
from invartest.noise import NoiseSpec, sample_noise
from invartest.numerics import RngStream
from invartest.statistics import batch_opnorm, make_statistic


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
        # the design is fixed by seed 12345, apart from the replicate streams
        assert_array_equal(experiments.regression_design(cfg),
                           RngStream(12345, 0).generator().standard_normal((100, 20)))
        assert cfg.grid[-1] == 6.0

    def test_scenario_names(self):
        assert SCENARIOS == (
            "sparse_vector",
            "heavy_tail",
            "two_sample",
            "lowrank",
            "regression",
        )

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_methods_parsed_once_on_the_config(self, scenario):
        cfg = experiments._SCENARIO_ROWS[scenario].factory(1)
        assert [m.label for m in cfg.parsed] == list(cfg.methods)
        randomized = [m for m in cfg.parsed if m.K]
        assert {m.K for m in randomized} <= {19, 99}
        for m in randomized:
            assert (m.K + 1 - m.k) / (m.K + 1) == exact_level(m.K, cfg.alpha) == 0.05
        # replace runs __post_init__ again, so the parse follows the new alpha
        looser = dataclasses.replace(cfg, alpha=0.1)
        assert [m.label for m in looser.parsed] == list(cfg.methods)
        for old, new in zip(cfg.parsed, looser.parsed):
            assert new.K == old.K
            if new.K:
                assert new.k < old.k
                assert (new.K + 1 - new.k) / (new.K + 1) == 0.1


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

    @pytest.mark.parametrize("factory, key, value, message", [
        (sparse_vector_config, "n", 32.5, "n must be an integer >= 1, got 32.5"),
        (sparse_vector_config, "p", True, "p must be an integer >= 1, got True"),
        (sparse_vector_config, "replicates", 2.5, "replicates must be an integer >= 1, got 2.5"),
        (two_sample_config, "replicates", True, "replicates must be an integer >= 1, got True"),
        (two_sample_config, "n2", True, "n2 must be an integer >= 1, got True"),
        (two_sample_config, "n2", 8.0, "n2 must be an integer >= 1, got 8.0"),
        (lowrank_config, "seed", True, "seed must be a non-negative integer, got True"),
    ])
    def test_integer_fields_refuse_bools_and_non_integers(self, factory, key, value, message):
        kwargs = {"seed": 1, key: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            factory(**kwargs)

    def test_integer_fields_take_numpy_integers(self):
        cfg = regression_config(np.int64(1), n=np.int32(40), p=np.int64(5),
                                replicates=np.uint8(3), K=np.int64(19))
        assert (cfg.n, cfg.p, cfg.replicates, cfg.seed, cfg.methods) == (40, 5, 3, 1, ("signflip_K19",))
        assert two_sample_config(1, n=np.int64(6), n2=np.int64(7)).n2 == 7

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

    @pytest.mark.parametrize("grid", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)])
    def test_grid_finite(self, grid):
        with pytest.raises(ValueError, match="finite, got grid"):
            dataclasses.replace(two_sample_config(1, grid_points=3, replicates=5), grid=grid)

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

    @pytest.mark.parametrize("noise", [
        NoiseSpec("iid_normal", 32, 100),
        NoiseSpec("spherical", 32, 100, radial="student", df=3.0),
    ])
    def test_heavy_tail_noise_must_be_student(self, noise):
        cfg = heavy_tail_config(5, grid_points=1, replicates=200)
        with pytest.raises(ValueError, match=repr(noise.family)):
            dataclasses.replace(cfg, noise=noise)

    @pytest.mark.parametrize("noise", [
        NoiseSpec("iid_normal", 100, 1),
        NoiseSpec("iid_student", 100, 1, df=3.0),
    ])
    def test_regression_noise_is_the_margin_notes_law(self, noise):
        # the margin notes assume the heteroskedastic t(3) law
        cfg = regression_config(3, replicates=10, grid_points=2)
        with pytest.raises(ValueError, match=repr(noise.family)):
            dataclasses.replace(cfg, noise=noise)

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

    @pytest.mark.parametrize("scenario, n, p, noise, methods", [
        ("sparse_vector", 8, 5, NoiseSpec("iid_normal", 8, 5), ("signflip_K19",)),
        ("heavy_tail", 8, 5, NoiseSpec("iid_student", 8, 5, df=3.0), ("signflip_K19_t3",)),
        ("lowrank", 8, 5, NoiseSpec("iid_normal", 8, 5), ("rotation_K19",)),
        ("regression", 8, 2, NoiseSpec("heteroskedastic_sign_symmetric", 8, 1),
         ("signflip_K19",)),
    ])
    def test_n2_only_for_two_sample(self, scenario, n, p, noise, methods):
        with pytest.raises(ValueError, match=f"^{scenario} does not read n2, got n2 = 7$"):
            ScenarioConfig(scenario, n, p, 7, noise, (0.0,), methods, 0.05, 10, 1)
        ScenarioConfig(scenario, n, p, None, noise, (0.0,), methods, 0.05, 10, 1)

    def test_two_sample_reads_no_p(self):
        with pytest.raises(ValueError, match="^two_sample draws one column and does not read p, "
                                             "got p = 9$"):
            dataclasses.replace(two_sample_config(1, grid_points=2, replicates=5), p=9)
        assert two_sample_config(1, grid_points=2, replicates=5).p == 1

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

    def test_noise_spec_required(self):
        with pytest.raises(ValueError, match="noise spec is required"):
            dataclasses.replace(lowrank_config(3), noise=None)

    def test_k_above_K_rejected(self):
        # alpha = 0.01 < 1/20 gives k = 20 > K = 19: a test that never rejects
        with pytest.raises(ValueError, match=r"'signflip_K19': k = 20 exceeds K = 19"):
            sparse_vector_config(3, alpha=0.01, ks=(19,))

    @pytest.mark.parametrize("make, label", [
        (lambda: sparse_vector_config(1, ks=(19, 19), grid_points=2, replicates=20),
         "signflip_K19"),
        (lambda: heavy_tail_config(1, dfs=(3, 3), grid_points=2, replicates=20),
         "signflip_K19_t3"),
    ], ids=["ks", "dfs"])
    def test_repeated_method_label_named(self, make, label):
        # two columns of one label would write two CSV rows per (signal,
        # method), which from_csv refuses
        with pytest.raises(ValueError, match=f"method '{label}' is listed twice"):
            make()

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

    def test_from_csv_repeated_row_named(self):
        # a second count for one (signal, method) is refused, not kept over
        # the first
        row = "two_sample,t_test,%s,10,%d,0.1,0.09,7\n"
        text = CSV_HEADER + "\n" + row % ("0", 1) + row % ("1", 2) + row % ("1", 3)
        with pytest.raises(ValueError, match=r"line 4: a second row for signal 1, method 't_test'"):
            PowerCurve.from_csv(text)

    def test_from_csv_empty(self):
        with pytest.raises(ValueError, match="no data"):
            PowerCurve.from_csv(CSV_HEADER + "\n")

    # one row as to_csv writes it: 1 rejection in 10, power 0.1 and its se
    _ROW = "two_sample,t_test,%s,10,1,%s,%s,7\n"
    _POWER, _SE = "0.10000000000000001", "0.094868329805051388"

    def test_from_csv_non_finite_signal_named(self):
        # two nan signals would otherwise load as two grid points
        text = CSV_HEADER + "\n" + 2 * (self._ROW % ("nan", self._POWER, self._SE))
        with pytest.raises(ValueError, match=r"^line 2: signal nan is not finite$"):
            PowerCurve.from_csv(text)

    def test_from_csv_unparsed_fields_named(self):
        text = CSV_HEADER + "\n" + self._ROW % ("0", "abc", "xyz")
        with pytest.raises(ValueError, match=r"^line 2: power 'abc' is not 0.10000000000000001, "
                                             r"the value of 1 rejections in 10$"):
            PowerCurve.from_csv(text)

    def test_from_csv_power_off_its_count_named(self):
        text = CSV_HEADER + "\n" + self._ROW % ("0", "0.9", self._SE)
        with pytest.raises(ValueError, match=r"^line 2: power '0.9' is not 0.10000000000000001"):
            PowerCurve.from_csv(text)

    def test_from_csv_se_off_its_count_named(self):
        text = (CSV_HEADER + "\n" + self._ROW % ("0", self._POWER, self._SE)
                + self._ROW % ("1", self._POWER, "0.09"))
        with pytest.raises(ValueError, match=r"^line 3: se '0.09' is not 0.094868329805051388"):
            PowerCurve.from_csv(text)

    @pytest.mark.parametrize("reps, seed, message", [
        ("0", "7", "replicates must be an integer >= 1, got 0"),
        ("10", "-1", "seed must be a non-negative integer, got -1"),
    ], ids=["reps", "seed"])
    def test_from_csv_reps_and_seed_checked(self, reps, seed, message):
        text = CSV_HEADER + f"\ntwo_sample,t_test,0,{reps},0,0,0,{seed}\n"
        with pytest.raises(ValueError, match=f"^{message}$"):
            PowerCurve.from_csv(text)


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
        cfg = experiments._SCENARIO_ROWS[scenario].factory(90007, grid_points=3, **kwargs)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial == parallel
        assert serial.to_csv() == parallel.to_csv()

    @pytest.mark.parametrize("workers", [0, -4, 2.5, True, "2"])
    def test_workers_must_be_a_positive_integer(self, workers):
        cfg = two_sample_config(seed=1, grid_points=2, replicates=10, K=19)
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {workers!r}"):
            run_experiment(cfg, workers=workers)

    def test_single_chunk_runs_in_process(self, monkeypatch):
        cfg = two_sample_config(seed=90008, grid_points=2, replicates=50, K=19)
        serial = run_experiment(cfg, workers=1).to_csv()

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk run used a process pool")

        monkeypatch.setattr(experiments, "_pool", no_pool)
        assert run_experiment(cfg, workers=4).to_csv() == serial

    def test_different_seeds_differ(self):
        a = run_experiment(two_sample_config(seed=1, grid_points=2, replicates=120))
        b = run_experiment(two_sample_config(seed=2, grid_points=2, replicates=120))
        assert not np.array_equal(a.counts, b.counts)

    # small sizes where exact ties are frequent: a permutation of 3 + 3 rows
    # keeps or swaps the halves in 1 draw of 10, and 4 signs are all equal
    # in 1 draw of 8; alpha = 0.5 puts k mid-orbit, where a tie counted
    # below t0 flips more decisions, and where a stopped sparse rotation
    # orbit reads two blocks (k = 50 of K = 99) for either outcome
    @pytest.mark.parametrize("scenario, kwargs", [
        ("sparse_vector", dict(n=8, p=5, ks=(19,))),
        ("sparse_vector", dict(ks=(99,), alpha=0.5, grid=(0.0, 0.3, 0.6, 0.9))),
        ("heavy_tail", dict(n=8, p=5, ks=(19,), dfs=(3, 5))),
        ("two_sample", dict(n=3, n2=3, K=99)),
        ("two_sample", dict(n=4, n2=4, K=99)),
        ("two_sample", dict(n=2, n2=5, K=99, alpha=0.5)),
        ("lowrank", dict()),
        ("lowrank", dict(n=32, p=128)),
        ("lowrank", dict(n=128, p=32)),
        ("regression", dict(n=4, p=2, K=99, alpha=0.5)),
        ("regression", dict(n=6, p=3, K=39, alpha=0.5)),
    ], ids=["sparse_vector", "sparse_vector_K99", "heavy_tail", "two_sample_n3", "two_sample_n4",
            "two_sample_n2_n5", "lowrank",
            "lowrank_wide", "lowrank_tall", "regression_n4", "regression_n6"])
    def test_unit_is_the_engine_test(self, monkeypatch, scenario, kwargs):
        # each unit's rejections, read from a one-unit chunk, against the
        # generic engine on the unit's own streams; the lowrank t0, seen
        # through decide_stopping, is the opnorm statistic's
        kwargs = dict(kwargs)
        grid = kwargs.pop("grid", None)
        cfg = experiments._SCENARIO_ROWS[scenario].factory(
            7, grid_points=5, replicates=30, **kwargs)
        if grid is not None:
            cfg = dataclasses.replace(cfg, grid=grid)
        seen = []
        decide_stopping = experiments.decide_stopping

        def spy(t0, orbit, K, k, first):
            seen.append(t0)
            return decide_stopping(t0, orbit, K, k, first)

        monkeypatch.setattr(experiments, "decide_stopping", spy)
        decisions = []
        for u in range(len(cfg.grid) * cfg.replicates):
            g = u // cfg.replicates
            stream = RngStream(cfg.seed, u)
            counts = experiments._chunk(cfg, u, u + 1)[g]
            tests = _engine_tests(cfg, cfg.grid[g], stream.child(0).generator())
            for m, meth in enumerate(cfg.parsed):
                if not meth.K:
                    continue
                x, stat, action = tests[meth.label]
                if scenario == "lowrank":
                    assert seen[-1] == stat(x)
                out = run_randomization_test(x, stat, action, RandTestConfig(meth.K, cfg.alpha),
                                             stream.child(1 + m))
                assert counts[m] == out.reject, (u, meth.label)
                decisions.append(out.reject)
        assert any(decisions) and not all(decisions)

    # grid points where the raw-draw tier runs and misses; with two or three
    # columns (or rows) the Gram row sums are nearly tight, so images the
    # tier misses may lie at or above t0. The spy draws all K values.
    @pytest.mark.parametrize("shape, grid", [
        ((50, 2), (0.0, 1.0, 2.0)), ((2, 50), (0.0, 1.0, 2.0)), ((8, 3), (1.0, 2.0, 3.0)),
        ((50, 50), (0.0, 4.0)),
    ], ids=["tall", "wide", "small", "square"])
    def test_lowrank_orbit_values_lie_on_the_side_of_the_formed_images(
            self, monkeypatch, shape, grid):
        cfg = dataclasses.replace(lowrank_config(8, n=shape[0], p=shape[1], replicates=12,
                                                 K=99), grid=grid)
        seen = []

        def spy(t0, orbit, K, k, first):
            values = np.concatenate([orbit(b) for b in (1, 2, 4, 8, 16, 32, 36)])
            seen.append((t0, values))
            return decide(t0, values, k)

        monkeypatch.setattr(experiments, "decide_stopping", spy)
        sides = []
        for u in range(len(cfg.grid) * cfg.replicates):
            experiments._chunk(cfg, u, u + 1)
            stream = RngStream(cfg.seed, u)
            x = _engine_tests(cfg, cfg.grid[u // cfg.replicates], stream.child(0).generator())
            images = _column_sphere_images(x[cfg.methods[0]][0], 99, stream.child(1).generator())
            t0, values = seen[-1]
            ref = batch_opnorm(images) < t0
            assert_array_equal(values < t0, ref, err_msg=f"unit {u}")
            sides += list(ref)
        assert any(sides) and not all(sides)

    def test_sparse_rotation_orbit_values_are_a_prefix_of_one_full_draw(self, monkeypatch):
        # one chunk, so that each method's first block follows its previous
        # decision; every value read is bitwise that of one draw of all K
        # from the method's own stream, and the decision is decide's on it
        cfg = dataclasses.replace(sparse_vector_config(9, replicates=40), grid=(0.0, 0.4, 0.8))
        seen = []
        decide_stopping = experiments.decide_stopping

        def spy(t0, orbit, K, k, first):
            blocks = []

            def reading(b):
                blocks.append(orbit(b))
                return blocks[-1]

            out = decide_stopping(t0, reading, K, k, first)
            seen.append((t0, first, np.concatenate(blocks), out))
            return out

        monkeypatch.setattr(experiments, "decide_stopping", spy)
        units = len(cfg.grid) * cfg.replicates
        experiments._chunk(cfg, 0, units)
        calls = iter(seen)
        rejected = {}
        for u in range(units):
            stream = RngStream(cfg.seed, u)
            x = sample_noise(cfg.noise, stream.child(0))
            x[:, 0] += cfg.grid[u // cfg.replicates]
            radius = float(np.linalg.norm(x.mean(axis=0)))
            for m, meth in enumerate(cfg.parsed):
                if meth.kind != "rotation":
                    continue
                t0, first, values, out = next(calls)
                z, norms = _gaussian_rows((meth.K, cfg.p), stream.child(1 + m).generator())
                full = np.max(np.abs(z), axis=1) / norms * radius
                assert values.tobytes() == full[:values.size].tobytes(), (u, meth.label)
                assert out == decide(t0, full, meth.k), (u, meth.label)
                assert first == (meth.K if rejected.get(m) else meth.K - meth.k + 1)
                rejected[m] = out
        assert next(calls, None) is None
        # early stops, and first blocks after both a reject and an accept
        reads = [(first, values.size) for _, first, values, _ in seen]
        assert any(size < 19 for _, size in reads)
        assert any(first == 99 for first, _ in reads)
        assert any(first == 5 and size < 99 for first, size in reads)

    def test_two_sample_values_are_the_mean_gaps_of_sorted_halves(self, monkeypatch):
        # every permutation value, read where the unit decides, is bitwise the
        # gap of its halves summed in index order, recomputed from the unit's
        # own streams; a permutation that keeps the halves ties with t0
        cfg = two_sample_config(13, n=4, n2=5, grid_points=3, replicates=20, K=99)
        seen = _spy_on_decide(monkeypatch)
        units = len(cfg.grid) * cfg.replicates
        experiments._chunk(cfg, 0, units)
        assert len(seen) == units
        ties = 0
        for u, (t0, vals) in enumerate(seen):
            stream = RngStream(cfg.seed, u)
            w = sample_noise(cfg.noise, stream.child(0))[:, 0]
            w[cfg.n:] += cfg.grid[u // cfg.replicates]
            centered = w - np.add.reduce(w) / w.size
            perms = _permutations(cfg.parsed[0].K, w.size, stream.child(1).generator())
            halves = np.concatenate([np.sort(perms[:, :cfg.n]), np.sort(perms[:, cfg.n:])], 1)
            assert t0 == experiments._mean_gaps(centered, cfg.n)
            assert vals.tobytes() == experiments._mean_gaps(centered[halves], cfg.n).tobytes(), u
            ties += int(np.sum(vals == t0))
        assert ties > 0

    @pytest.mark.parametrize("factory, kwargs", [
        (sparse_vector_config, dict(n=16, ks=(19,))),
        (heavy_tail_config, dict(n=16, ks=(19,))),
        (regression_config, dict(K=19)),
        (regression_config, dict(n=16, p=3, K=19)),
    ], ids=["sparse_vector_config", "heavy_tail_config", "regression_config",
            "regression_config_n16"])
    def test_signflip_all_equal_signs_tie_with_t0(self, monkeypatch, factory, kwargs):
        # with only all-equal sign vectors drawn, every signflip value is the
        # identity's or the negation's, so each must equal t0 bitwise; the
        # matrix product behind the values lands a few ulps off at these sizes
        cfg = factory(5, grid_points=2, replicates=1000, **kwargs)
        cfg = dataclasses.replace(cfg, methods=tuple(
            label for label in cfg.methods if label.startswith("signflip")))
        monkeypatch.setattr(experiments, "_signs",
                            lambda K, n, gen: np.repeat(_signs(K, 1, gen), n, axis=1))
        seen = _spy_on_decide(monkeypatch)
        experiments._chunk(cfg, 0, len(cfg.grid) * cfg.replicates)
        assert len(seen) == len(cfg.grid) * cfg.replicates * len(cfg.methods)
        assert all((vals == t0).all() for t0, vals in seen)

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


def _spy_on_decide(monkeypatch) -> list:
    """(t0, values) of every ``experiments.decide`` call from here on."""
    seen = []
    real_decide = experiments.decide

    def spy(t0, vals, k):
        seen.append((t0, vals.copy()))
        return real_decide(t0, vals, k)

    monkeypatch.setattr(experiments, "decide", spy)
    return seen


def _engine_tests(cfg, signal, gen):
    """Per randomized method label: the data of one unit, drawn from its
    noise generator as the scenario draws it, with the statistic and the
    group of the engine test that the method runs."""
    n, p, label = cfg.n, cfg.p, cfg.methods[0]
    if cfg.scenario == "two_sample":
        w = sample_noise(cfg.noise, gen)
        w[n:] += signal
        stat = make_statistic("twosample_diff", n=n, n_prime=cfg.n2)
        return {label: (w, stat, GroupAction("permute_rows", n=n + cfg.n2))}
    if cfg.scenario == "lowrank":
        x = sample_noise(cfg.noise, gen) + signal * experiments._lowrank_setup(cfg)
        return {label: (x, make_statistic("opnorm"),
                        GroupAction("rotate_per_column", n=n, p=p))}
    if cfg.scenario == "regression":
        design = experiments.regression_design(cfg)
        y = signal * design[:, 0] + sample_noise(cfg.noise, gen)[:, 0]
        return {label: (y, make_statistic("ols_linf", design=design),
                        GroupAction("signflip_rows", n=n))}
    xs = {}
    for df, spec in experiments._sparse_setup(cfg)[1].items():  # drawn in df order
        xs[df] = sample_noise(spec, gen)
        xs[df][:, 0] += signal
    groups = {"signflip": GroupAction("signflip_rows", n=n),
              "rotation": GroupAction("rotate_full", p=p)}
    return {meth.label: (xs[meth.df], make_statistic("colmean_linf"), groups[meth.kind])
            for meth in cfg.parsed if meth.K}


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="fork pool and /proc are Linux's")
class TestKeptPool:
    # 2 grid points x 200 replicates are two chunks, 2 x 300 three
    CFG = two_sample_config(seed=90010, grid_points=2, replicates=200, K=19)

    def test_calls_share_the_workers(self):
        serial = run_experiment(self.CFG, workers=1).to_csv()
        assert run_experiment(self.CFG, workers=2).to_csv() == serial
        first = _worker_pids()
        assert len(first) == 2
        assert run_experiment(self.CFG, workers=2).to_csv() == serial
        assert _worker_pids() == first

    def test_other_worker_count_replaces_the_pool(self):
        run_experiment(self.CFG, workers=2)
        two = _worker_pids()
        cfg = dataclasses.replace(self.CFG, replicates=300)
        assert run_experiment(cfg, workers=3).to_csv() == run_experiment(cfg, workers=1).to_csv()
        three = _worker_pids()
        assert len(three) == 3 and not three & two
        assert not any(_alive(pid) for pid in two)

    def test_broken_pool_is_replaced(self):
        pool = experiments._pool(2)
        with pytest.raises(BrokenProcessPool):
            pool.submit(os._exit, 1).result()
        serial = run_experiment(self.CFG, workers=1).to_csv()
        assert run_experiment(self.CFG, workers=2).to_csv() == serial
        assert experiments._pool(2) is not pool

    def test_pool_forked_by_an_ended_thread_still_serves(self):
        # Linux sends the parent-death signal once the forking thread ends,
        # so a pool forked off the main thread must not ask for it; a
        # 3-worker pool first, so that the thread forks a pool of its own
        experiments._pool(3)
        out = []
        thread = threading.Thread(
            target=lambda: out.append(run_experiment(self.CFG, workers=2).to_csv()))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and out
        assert run_experiment(self.CFG, workers=2).to_csv() == out[0]

    def test_threads_at_two_counts_share_one_pool(self):
        # each call at another count than the last replaces the pool, which
        # must not happen under a call that is still using it
        cfg = dataclasses.replace(self.CFG, replicates=300)
        serial = run_experiment(cfg, workers=1).to_csv()
        same, errors = [], []

        def calls(workers):
            try:
                same.extend(run_experiment(cfg, workers=workers).to_csv() == serial
                            for _ in range(3))
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        threads = [threading.Thread(target=calls, args=(w,)) for w in (2, 3, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and same == [True] * 12

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_blas_threads(self, workers):
        threads = experiments._pool(workers).submit(experiments._openblas_threads).result()
        assert len(threads) == len(experiments._openblas_threads())
        assert threads == [max(1, os.cpu_count() // workers)] * len(threads)

    def test_parent_blas_threads_stop_for_a_kept_pool(self):
        # a fork stopped them through OpenBLAS's fork handler; a kept pool
        # stops them itself, so that they do not spin beside the workers
        run_experiment(self.CFG, workers=2)
        a = np.ones((300, 300))
        a @ a  # starts NumPy's OpenBLAS threads, where it has more than one
        if max(experiments._openblas_threads(), default=1) < 2:
            pytest.skip("no OpenBLAS with more than one thread")
        before = len(os.listdir("/proc/self/task"))
        run_experiment(self.CFG, workers=2)
        assert len(os.listdir("/proc/self/task")) < before

    def _study(self, tmp_path, tail):
        # no __main__ guard, as in the README example: a forked worker does
        # not re-import the script
        script = tmp_path / "study.py"
        script.write_text(
            "import multiprocessing, time\n"
            "from invartest.experiments import run_experiment, two_sample_config\n"
            "cfg = two_sample_config(seed=90010, grid_points=2, replicates=200, K=19)\n"
            "print(run_experiment(cfg, workers=2).to_csv(), end='')\n"
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
            + tail)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(invartest.__file__)),
            os.environ.get("PYTHONPATH", "")])))
        return subprocess.Popen([sys.executable, str(script)], env=env, cwd=tmp_path,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_unguarded_script_exits_clean(self, tmp_path):
        proc = self._study(tmp_path, "")
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        *csv, pids = out.splitlines(keepends=True)
        assert "".join(csv) == run_experiment(self.CFG, workers=1).to_csv()
        pids = [int(pid) for pid in pids.split()]
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)

    def test_workers_of_a_killed_parent_exit(self, tmp_path):
        csv_lines = len(run_experiment(self.CFG, workers=1).to_csv().splitlines())
        proc = self._study(tmp_path, "time.sleep(300)\n")
        try:
            for _ in range(csv_lines):
                proc.stdout.readline()
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            # wait, not communicate: a surviving worker holds the pipes open
            proc.terminate()
            proc.wait(timeout=60)
            proc.stdout.close()
            proc.stderr.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 30
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in pids if _alive(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left


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
