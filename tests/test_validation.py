"""Tests for the self-check suite itself.

The quick ledger must be green and fast, the report format stable, and the
checks must have teeth: lowering the rejection rank by one doubles the null
level to 2/(K+1), and the catalog level check has to flag that; t(2)
entries in place of Cauchy ones must fail the heavy-tail check. The catalog
check must also hold on a pairing where a third of the orbit ties with t0.
"""

import math
import re
import subprocess
import sys
import time

import pytest

import invartest.engine as engine
import invartest.validation as validation
from invartest import cli
from invartest.numerics import RngStream
from invartest.validation import CheckResult, format_ledger, run_validation


class TestRunValidation:
    def test_quick_level_green(self):
        start = time.monotonic()
        results = run_validation(level="quick")
        elapsed = time.monotonic() - start
        assert len(results) == 17
        names = [r.name for r in results]
        assert len(names) == len(set(names))
        assert all(r.passed for r in results), format_ledger(results)
        assert elapsed < 120.0

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="level must be one of"):
            run_validation(level="exhaustive")

    def test_lanes_are_distinct(self):
        lanes = [validation._lane(check) for check in validation._REGISTRY]
        assert len(set(lanes)) == len(lanes)

    def test_results_do_not_depend_on_registry_order(self, monkeypatch):
        checks = [validation._check_qr, validation._check_sign_symmetry]
        monkeypatch.setattr(validation, "_REGISTRY", checks)
        forward = run_validation(level="quick")
        monkeypatch.setattr(validation, "_REGISTRY", checks[::-1])
        assert run_validation(level="quick") == forward[::-1]
        monkeypatch.setattr(validation, "_REGISTRY", checks[1:])
        assert run_validation(level="quick") == forward[1:]

    def test_does_not_import_cli(self):
        # cli imports validation, so validation importing cli is a cycle
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, invartest.validation; print('invartest.cli' in sys.modules)"],
            capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestFormatLedger:
    def test_green_ledger(self):
        results = [CheckResult("alpha", True, "fine"),
                   CheckResult("beta", True, "also fine")]
        text = format_ledger(results)
        assert "PASS  alpha: fine" in text
        assert "2/2 checks passed" in text
        assert "first failing" not in text

    def test_failure_named(self):
        results = [CheckResult("alpha", True, "fine"),
                   CheckResult("beta", False, "broken invariant")]
        text = format_ledger(results)
        assert "FAIL  beta: broken invariant" in text
        assert "1/2 checks passed" in text
        assert "first failing property: beta" in text


class TestMutationSensitivity:
    def test_lowered_order_index_fails_level_check(self, monkeypatch):
        # rejecting when k - 1 of the K randomized values fall below the
        # observed one lifts the null level from 1/(K+1) per extra rank,
        # 0.05 -> 0.10 at K = 19; every catalog entry must show it
        real = engine.order_index
        monkeypatch.setattr(engine, "order_index",
                            lambda K, alpha: real(K, alpha) - 1)
        budget = validation._BUDGETS["quick"]
        result = validation._check_catalog_rank_and_level(RngStream(20260815, 11),
                                                          budget)
        assert not result.passed
        freqs = [float(v) for v in re.findall(r"level (\d\.\d+)", result.detail)]
        assert len(freqs) == len(validation.scenario_catalog())
        band = 3.0 * math.sqrt(0.1 * 0.9 / budget["level_reps"])
        for freq in freqs:
            assert abs(freq - 0.1) <= band, result.detail

    def test_ties_are_broken_in_expectation(self, monkeypatch):
        # two rows per sample: a third of all permutations leave the split,
        # and so t0, unchanged, and the strict rank alone would reject
        # with probability (2/3)^19 / 3, far below 0.05
        tied = validation.CatalogEntry(
            "permute_twosample_tied", validation.GroupAction("permute_rows", n=4),
            validation.make_statistic("twosample_diff", n=2, n_prime=2, norm="l2",
                                      sample_shape=(4, 2)),
            validation.NoiseSpec("iid_normal", 4, 2))
        monkeypatch.setattr(validation, "scenario_catalog", lambda: [tied])
        result = validation._check_catalog_rank_and_level(RngStream(20260815, 13),
                                                          validation._BUDGETS["quick"])
        assert result.passed, result.detail

    def test_lighter_tails_fail_the_heavy_tail_check(self, monkeypatch):
        # t(2) entries exceed 100 with probability about 1e-4, against
        # 1 - 2 atan(100) / pi = 0.0064 for Cauchy entries
        real = validation.sample_noise
        monkeypatch.setattr(validation, "sample_noise", lambda spec, rng: real(
            validation.NoiseSpec("iid_student", spec.n, spec.p, df=2.0), rng))
        result = validation._check_heavy_tails(RngStream(20260815, 12),
                                               validation._BUDGETS["quick"])
        assert not result.passed, result.detail


@pytest.fixture
def levels(monkeypatch):
    """Stub run_validation with a green one-check ledger and record the
    level each call asks for; the real ledger runs in TestRunValidation."""
    asked = []

    def fake(level):
        asked.append(level)
        return [CheckResult("stub", True, f"ran at {level}")]

    monkeypatch.setattr(validation, "run_validation", fake)
    return asked


class TestCliValidate:
    def test_quick_run_exits_zero(self, capsys, levels):
        assert cli.main(["validate", "--quick"]) == 0
        assert cli.main(["validate"]) == 0
        assert levels == ["quick", "quick"]
        out = capsys.readouterr().out
        assert "PASS  stub: ran at quick" in out
        assert "1/1 checks passed" in out

    def test_full_flag_selects_full_level(self, capsys, levels):
        assert cli.main(["validate", "--full"]) == 0
        assert levels == ["full"]
        out = capsys.readouterr().out
        assert "PASS  stub: ran at full" in out
        assert "1/1 checks passed" in out

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(validation, "run_validation",
                            lambda level: [CheckResult("stub", False, "broken")])
        assert cli.main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  stub: broken" in out
        assert "first failing property: stub" in out
