"""Tests for the self-check suite itself.

The quick ledger must be green and fast, the report format stable, and the
checks must have teeth: lowering the rejection rank by one doubles the null
level to 2/(K+1), and the catalog level check has to flag that.
"""

import math
import re
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
        assert len(results) == 27
        names = [r.name for r in results]
        assert len(names) == len(set(names))
        assert all(r.passed for r in results), format_ledger(results)
        assert elapsed < 120.0

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="level must be one of"):
            run_validation(level="exhaustive")


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
        result = validation._check_engine_level(RngStream(20260815, 11), budget)
        assert not result.passed
        freqs = [float(v) for v in re.findall(r": (\d\.\d+)", result.detail)]
        assert len(freqs) == len(validation.scenario_catalog())
        band = 3.0 * math.sqrt(0.1 * 0.9 / budget["level_reps"])
        for freq in freqs:
            assert abs(freq - 0.1) <= band, result.detail


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
