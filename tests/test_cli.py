"""End-to-end tests for the command-line interface: exit codes, output
formats, and configuration validation."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from invartest import cli
from invartest.experiments import PowerCurve


TWO_SAMPLE = {
    "name": "two_sample",
    "alpha": 0.05,
    "grid_points": 2,
    "replicates": 30,
    "K": 19,
    "n": 8,
    "n2": 8,
}


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "scenario": dict(TWO_SAMPLE),
        "seed": 4242,
        "workers": 1,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_matrix(tmp_path, rows, name="data.csv", header=None):
    lines = [] if header is None else [header]
    lines += [",".join(str(v) for v in row) for row in rows]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTheorySubcommand:
    def test_varl_lowrank_example(self, capsys):
        rc = cli.main(["theory", "varL-lowrank", "n=2", "tau=1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1.85914091423" in out

    def test_varl_sparse_tau_route(self, capsys):
        rc = cli.main(
            ["theory", "varL-sparse", "n=5", "p=4", "tau=0.5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "varL-sparse n=5 p=4 tau=0.5 (chi2=" in out
        assert "0.622585739365" in out

    def test_varl_sparse_chi2_route(self, capsys):
        rc = cli.main(["theory", "varL-sparse", "n=3", "p=2", "chi2=0.25"])
        out = capsys.readouterr().out
        assert rc == 0
        # ((1.25)^3 - 1)/2
        assert "0.4765625" in out

    def test_varl_sparse_needs_exactly_one_shift(self, capsys):
        assert cli.main(["theory", "varL-sparse", "n=3", "p=2"]) == 2
        assert (
            cli.main(["theory", "varL-sparse", "n=3", "p=2", "tau=1", "chi2=1"]) == 2
        )

    def test_margin_example(self, capsys):
        rc = cli.main(["theory", "margin", "sparse_signflip", "s_inf=4", "t=1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "margin = 2 (above 1 means the condition holds)" in out

    def test_margin_missing_field_named(self, capsys):
        rc = cli.main(["theory", "margin", "sparse_signflip", "s_inf=4"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "t" in err

    def test_margin_needs_proposition(self, capsys):
        assert cli.main(["theory", "margin", "s_inf=4", "t=1"]) == 2

    def test_margin_unknown_parameter(self, capsys):
        rc = cli.main(
            ["theory", "margin", "sparse_signflip", "s_inf=4", "t=1", "q=3"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "q" in err

    # each id names the rule its case checks, so that a test's name does
    # not change with the wording of its message
    @pytest.mark.parametrize("args, named", [
        (["sparse_rotation", "s_inf=1", "s_2=1", "t2=1", "p=1"],
         "p must be an integer >= 2, got 1"),
        (["sparse_rotation", "s_inf=1", "s_2=1", "t2=1", "p=0"],
         "p must be an integer >= 2, got 0"),
        (["lowrank", "s_op=1", "s_2inf=1", "t2=1", "n=0", "p=3"],
         "n must be an integer >= 1, got 0"),
        (["lowrank", "s_op=1", "s_2inf=1", "t2=1", "n=-4", "p=3"],
         "n must be an integer >= 1, got -4"),
        (["sparse_signflip", "s_inf=4", "t=nan"], "t must be nonnegative"),
        (["lowrank", "s_op=1", "s_2inf=1", "t2=1", "n=4.7", "p=3"],
         "n must be an integer >= 1, got 4.7"),
    ], ids=[f"args{i}-{rule}" for i, rule in enumerate([
        "p must be at least 2", "p must be at least 2", "n must be at least 1",
        "n must be at least 1", "t must be nonnegative", "'n' must be an integer"])])
    def test_margin_bad_value_named(self, capsys, args, named):
        rc = cli.main(["theory", "margin", *args])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:") and named in captured.err
        assert captured.out == ""

    # each id names the rule its case checks, so that a test's name does
    # not change with the wording of its message
    @pytest.mark.parametrize("args, named", [
        (["varL-sparse", "n=0", "p=5", "chi2=1"], "n must be an integer >= 1, got 0"),
        (["varL-sparse", "n=3", "p=5", "chi2=-1"], "chi2 must be >= 0"),
        (["varL-sparse", "n=3", "p=5", "chi2=nan"], "chi2 must be >= 0"),
        (["varL-sparse", "n=3", "p=5", "tau=nan"], "tau"),
        (["varL-lowrank", "n=0", "tau=1"], "n must be an integer >= 1, got 0"),
        (["varL-lowrank", "n=3", "tau=nan"], "tau"),
        (["varL-sparse", "n=5.5", "p=4", "tau=0.5"], "n must be an integer >= 1, got 5.5"),
        (["varL-sparse", "n=5", "p=4.0", "tau=0.5"], "p must be an integer >= 1, got 4.0"),
        (["varL-lowrank", "n=3.9", "tau=1"], "n must be an integer >= 1, got 3.9"),
        (["varL-lowrank", "n=31", "tau=1"], "1 <= n <= 30, got 31"),
        (["varL-sparse", "n=abc", "p=4", "tau=0.5"], "n must be an integer >= 1, got 'abc'"),
    ], ids=[f"args{i}-{rule}" for i, rule in enumerate([
        "n and p must be >= 1", "chi2 must be >= 0", "chi2 must be >= 0", "tau",
        "1 <= n <= 30", "tau", "'n' must be an integer", "'p' must be an integer",
        "'n' must be an integer", "1 <= n <= 30", "'n' must be an integer"])])
    def test_varl_bad_value_named(self, capsys, args, named):
        rc = cli.main(["theory", *args])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:") and named in captured.err
        assert captured.out == ""

    def test_varl_infinite_tau_is_infinite(self, capsys):
        for args in (["varL-sparse", "n=3", "p=5", "tau=inf"], ["varL-lowrank", "n=3", "tau=inf"]):
            assert cli.main(["theory", *args]) == 0
            assert "value = inf" in capsys.readouterr().out

    def test_duplicate_parameter(self, capsys):
        rc = cli.main(["theory", "varL-lowrank", "n=2", "n=3", "tau=1"])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_non_numeric_parameter(self, capsys):
        rc = cli.main(["theory", "varL-lowrank", "n=2", "tau=abc"])
        assert rc == 2
        assert "tau" in capsys.readouterr().err

    def test_bernoulli_bound_design_identity(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.eye(4))
        rc = cli.main(
            ["theory", "bernoulli-bound", "kind=design", f"data={path}",
             "l=2", "mc=200", "seed=5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "b_estimate = 1" in out
        assert "r_value = 1" in out
        assert "u_plus = 3" in out

    def test_bernoulli_bound_regression_identity(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.eye(3))
        rc = cli.main(
            ["theory", "bernoulli-bound", "kind=regression", f"data={path}",
             "l=2", "eps=1", "mc=150", "seed=5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "u_plus = 3" in out

    def test_bernoulli_bound_nan_l(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.eye(3))
        rc = cli.main(
            ["theory", "bernoulli-bound", f"data={path}", "l=nan", "mc=200", "seed=5"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "l must be > 0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("params, named", [
        (["mc=150.5", "seed=5"], "mc must be an integer >= 100, got 150.5"),
        (["mc=200", "seed=5.5"], "seed must be a non-negative integer, got 5.5"),
    ], ids=["mc", "seed"])
    def test_bernoulli_bound_non_integer_named(self, tmp_path, capsys, params, named):
        # the bound and the seed rule check the counts the CLI passes on as parsed
        path = write_matrix(tmp_path, np.eye(3))
        rc = cli.main(["theory", "bernoulli-bound", f"data={path}", "l=2", *params])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {named}\n" and captured.out == ""

    def test_bernoulli_bound_bad_kind(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.eye(2))
        rc = cli.main(
            ["theory", "bernoulli-bound", "kind=chaining", f"data={path}", "l=2"]
        )
        assert rc == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["theory", "entropy", "n=2"]) == 2


class TestTestSubcommand:
    def test_zero_data_never_rejects(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.zeros((10, 1)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "colmean_linf",
             "--group", "signflip", "--K", "99", "--alpha", "0.05",
             "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "reject = False" in out
        assert "p_value = 1" in out

    def test_strong_signal_rejects(self, tmp_path, capsys):
        path = write_matrix(tmp_path, 5.0 * np.ones((12, 1)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "colmean_linf",
             "--group", "signflip", "--K", "99", "--alpha", "0.05",
             "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "reject = True" in out

    def test_twosample_diff_with_permutation(self, tmp_path, capsys):
        # first half at 0, second half at 10: the observed group difference
        # is the orbit maximum except on the rare split-preserving draws
        data = np.concatenate([np.zeros(6), np.full(6, 10.0)])[:, None]
        path = write_matrix(tmp_path, data)
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "twosample_diff",
             "--group", "permutation", "--K", "99", "--alpha", "0.05",
             "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "statistic twosample_diff_linf" in out
        assert "t0 = 10" in out
        assert "reject = True" in out

    def test_twosample_diff_odd_rows_split(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.zeros((5, 2)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "twosample_diff",
             "--group", "permutation", "--K", "19", "--alpha", "0.05",
             "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "reject = False" in out

    def test_twosample_diff_needs_two_rows(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.ones((1, 2)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "twosample_diff",
             "--group", "permutation", "--K", "19", "--alpha", "0.05"]
        )
        assert rc == 2
        assert "at least two rows" in capsys.readouterr().err

    def test_p_value_on_lattice(self, tmp_path, capsys):
        gen = np.random.Generator(np.random.PCG64(99))
        path = write_matrix(tmp_path, gen.standard_normal((9, 2)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "colmean_linf",
             "--group", "signflip", "--K", "19", "--alpha", "0.05",
             "--seed", "11"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        line = next(ln for ln in out.splitlines() if ln.startswith("p_value"))
        p = float(line.split("=")[1])
        assert round(p * 20) == pytest.approx(p * 20, abs=1e-12)
        assert 1 / 20 <= p <= 1.0

    def test_seeded_runs_repeat(self, tmp_path, capsys):
        gen = np.random.Generator(np.random.PCG64(100))
        path = write_matrix(tmp_path, gen.standard_normal((8, 3)))
        argv = ["test", "--data", str(path), "--stat", "opnorm",
                "--group", "rotation_per_column", "--K", "9",
                "--alpha", "0.2", "--seed", "21"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_k_above_K_warns(self, tmp_path, capsys):
        # K = 9 at alpha = 0.05 gives k = 10: the test runs but cannot reject
        path = write_matrix(tmp_path, 5.0 * np.ones((12, 1)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "colmean_linf",
             "--group", "signflip", "--K", "9", "--alpha", "0.05",
             "--seed", "3"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "reject = False" in captured.out
        assert "warning" not in captured.out
        assert "warning: k = 10 exceeds K = 9" in captured.err

    def test_alpha_one_is_usage_error(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.ones((4, 1)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "linf",
             "--group", "signflip", "--K", "9", "--alpha", "1.0"]
        )
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_k_zero_is_usage_error(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.ones((4, 1)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "linf",
             "--group", "signflip", "--K", "0", "--alpha", "0.05"]
        )
        assert rc == 2

    def test_unknown_stat_rejected_by_parser(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.ones((4, 1)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "median",
             "--group", "signflip", "--K", "9", "--alpha", "0.05"]
        )
        assert rc == 2

    def test_linf_on_matrix_is_usage_error(self, tmp_path, capsys):
        # the sup-norm statistic reads a single column; a 4x3 file must be
        # refused with the width in the message, not a traceback
        path = write_matrix(tmp_path, np.ones((4, 3)))
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "linf",
             "--group", "signflip", "--K", "9", "--alpha", "0.05"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "single data column" in err
        assert "3" in err

    def test_orbit_diagnostics_on_stderr(self, tmp_path, capsys):
        # signflips on 6 rows form a group of 64 < K+1 = 100 elements; with
        # distinct |x_i| only the identity and the global flip tie with t0,
        # and each tie counts toward the p-value: (1 + 6) / 100
        path = write_matrix(tmp_path, [[0.5], [1.0], [1.5], [2.0], [2.5], [3.0]])
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "colmean_linf",
             "--group", "signflip", "--K", "99", "--alpha", "0.05",
             "--seed", "5"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "orbit" not in captured.out
        assert "p_value = 0.070000000000000007" in captured.out
        assert captured.err.splitlines() == [
            "orbit: 6 of the K=99 values tie with t0",
            "orbit: min = 0.083333333333333329, median = 0.58333333333333337, "
            "max = 1.75",
            "orbit: the group has 64 elements, fewer than K+1 = 100",
        ]

    def test_header_row_detected(self, tmp_path, capsys):
        path = write_matrix(
            tmp_path, [[0.1, 0.2], [0.3, 0.4]], header="x1,x2"
        )
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "colmean_linf",
             "--group", "signflip", "--K", "9", "--alpha", "0.1",
             "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "data 2x2" in out

    def test_non_numeric_cell_located(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n", encoding="utf-8")
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "colmean_linf",
             "--group", "signflip", "--K", "9", "--alpha", "0.1"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "row 2, column 2" in err

    def test_ragged_rows_rejected(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "colmean_linf",
             "--group", "signflip", "--K", "9", "--alpha", "0.1"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "row 2" in err

    def test_missing_file(self, capsys):
        rc = cli.main(
            ["test", "--data", "/nonexistent/file.csv", "--stat", "linf",
             "--group", "signflip", "--K", "9", "--alpha", "0.1"]
        )
        assert rc == 2

    def test_header_only_file(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("x1,x2\n", encoding="utf-8")
        rc = cli.main(
            ["test", "--data", str(path), "--stat", "linf",
             "--group", "signflip", "--K", "9", "--alpha", "0.1"]
        )
        assert rc == 2


class TestSimulateSubcommand:
    def test_happy_path_writes_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "curve.csv"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert out.exists()
        assert f"wrote {out}" in stdout
        assert "scenario two_sample" in stdout
        curve = PowerCurve.load_csv(out)
        assert curve.seed == 4242
        assert curve.replicates == 30
        # nothing else appears in the directory
        assert {p.name for p in tmp_path.iterdir()} == {"config.json", "curve.csv"}

    def test_rerun_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        seeded = write_config(tmp_path, name="seeded.json", seed=999)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        out3 = tmp_path / "c.csv"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out1),
                         "--seed", "999"]) == 0
        assert cli.main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
        assert cli.main(["simulate", "--config", str(seeded), "--out", str(out3)]) == 0
        capsys.readouterr()
        a = PowerCurve.load_csv(out1)
        b = PowerCurve.load_csv(out2)
        assert a.seed == 999
        assert b.seed == 4242
        # the flag gives the bytes of a config that holds its seed
        assert out1.read_bytes() == out3.read_bytes()

    def test_unknown_top_level_key(self, tmp_path, capsys):
        config = write_config(tmp_path, notes="hello")
        rc = cli.main(["simulate", "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "notes" in err

    def test_unknown_scenario_key(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            scenario={"name": "two_sample", "alpha": 0.05, "bandwidth": 3},
        )
        rc = cli.main(["simulate", "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bandwidth" in err

    def test_missing_alpha_named(self, tmp_path, capsys):
        config = write_config(
            tmp_path, scenario={"name": "two_sample", "replicates": 10}
        )
        rc = cli.main(["simulate", "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "alpha" in err

    def test_unknown_scenario_name(self, tmp_path, capsys):
        config = write_config(tmp_path, scenario={"name": "warp", "alpha": 0.05})
        rc = cli.main(["simulate", "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "warp" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = cli.main(["simulate", "--config", str(path)])
        assert rc == 2
        assert "JSON" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path)]) == 2

    def test_seed_in_scenario_section_unknown(self, tmp_path, capsys):
        # the seed is a top-level key only, as "out" and "workers" are
        config = write_config(
            tmp_path, seed=None,
            scenario={"name": "two_sample", "alpha": 0.05, "seed": 7, "replicates": 10},
        )
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unknown config key: 'seed'")

    def test_bad_factory_value(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            scenario={"name": "two_sample", "alpha": 0.05, "replicates": 0},
        )
        rc = cli.main(["simulate", "--config", str(config)])
        assert rc == 2

    def test_negative_design_seed_named(self, tmp_path, capsys):
        # the regression design's seed is fixed; the key is no longer known
        config = write_config(tmp_path, scenario={
            "name": "regression", "alpha": 0.05, "replicates": 2, "grid_points": 2,
            "design_seed": -1})
        out = tmp_path / "curve.csv"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unknown config key: 'design_seed' (scenario 'regression')")
        assert not out.exists()

    def test_non_finite_grid_named(self, tmp_path, capsys):
        # json.load reads NaN; the config must still be refused
        config = write_config(
            tmp_path, scenario={**TWO_SAMPLE, "grid_high": float("nan"), "grid_points": 3})
        out = tmp_path / "curve.csv"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "grid" in err
        assert not out.exists()

    def test_infinite_grid_high_named(self, tmp_path, capsys):
        # refused before np.linspace, which would warn on the infinite top
        config = write_config(
            tmp_path, scenario={**TWO_SAMPLE, "grid_high": float("inf"), "grid_points": 3})
        assert "Infinity" in config.read_text(encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "grid_high" in err

    def test_repeated_method_named(self, tmp_path, capsys):
        config = write_config(tmp_path, scenario={
            "name": "sparse_vector", "alpha": 0.05, "ks": [19, 19],
            "grid_points": 2, "replicates": 20})
        out = tmp_path / "curve.csv"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "'signflip_K19' is listed twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, doc", [(["--workers", "0"], {}), ([], {"workers": -4})],
                             ids=["flag", "config"])
    def test_workers_below_one_named(self, tmp_path, capsys, flag, doc):
        config = write_config(tmp_path, **doc)
        out = tmp_path / "curve.csv"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)] + flag)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "workers must be an integer >= 1, got" in err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        assert cli.main(["simulate", "--config", "/nope/absent.json"]) == 2

    @pytest.mark.parametrize("scenario", [
        {"name": "sparse_vector", "alpha": 0.05, "ks": 19},
        {"name": "heavy_tail", "alpha": 0.05, "dfs": "3"},
        {"name": "heavy_tail", "alpha": 0.05, "ks": []},
        {"name": "heavy_tail", "alpha": 0.05, "dfs": []},
    ])
    def test_scalar_list_key_named(self, tmp_path, capsys, scenario):
        config = write_config(tmp_path, scenario=scenario)
        rc = cli.main(["simulate", "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        key = "ks" if "ks" in scenario else "dfs"
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("key, overrides", [
        ("replicates", {"scenario": {**TWO_SAMPLE, "replicates": 10.5}}),
        ("replicates", {"scenario": {**TWO_SAMPLE, "replicates": 2.0}}),
        ("replicates", {"scenario": {**TWO_SAMPLE, "replicates": True}}),
        ("grid_points", {"scenario": {**TWO_SAMPLE, "grid_points": 2.0}}),
        ("K", {"scenario": {**TWO_SAMPLE, "K": 19.0}}),
        ("n2", {"scenario": {**TWO_SAMPLE, "n2": False}}),
        ("n", {"scenario": {**TWO_SAMPLE, "n": 7.5}}),
        ("ks", {"scenario": {"name": "sparse_vector", "alpha": 0.05, "ks": [19.0]}}),
        ("ks", {"scenario": {"name": "sparse_vector", "alpha": 0.05, "ks": [19, True]}}),
        ("dfs", {"scenario": {"name": "heavy_tail", "alpha": 0.05, "dfs": [3, 2.5]}}),
        ("seed", {"seed": 1.7}),
        ("seed", {"seed": 2.0}),
        ("seed", {"seed": "7"}),
        ("workers", {"workers": 2.5}),
        ("workers", {"workers": True}),
    ])
    def test_non_integer_named(self, tmp_path, capsys, key, overrides):
        # the function that reads each key refuses it (ks and dfs entry by entry)
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "curve.csv"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and f"{key} must be" in err
        assert not out.exists()


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_validate_mode_flags_exclusive(self, capsys):
        assert cli.main(["validate", "--quick", "--full"]) == 2

    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "invartest.cli", "theory", "margin",
             "sparse_signflip", "s_inf=4", "t=1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "margin = 2" in result.stdout
