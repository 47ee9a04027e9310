"""Controls for the benchmark's output checks and its tracer.

Each check must pass on the program's real output and fail on a tampered
copy of it. Run from the root of a source checkout:

    python3 -m pytest -q bench/test_checks.py
"""

import json
import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import tracing

sys.path.insert(0, run.SRC)

from invartest import engine  # noqa: E402
from invartest.engine import RandTestConfig  # noqa: E402
from invartest.numerics import RngStream  # noqa: E402

ALPHA = 0.05


def test_benchmark_json_lists_the_metrics_run_py_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        tuple(row) for row in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(row) for row in run.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_exact_order_index_and_level():
    assert checks.order_index(99, ALPHA) == 95
    assert checks.order_index(19, ALPHA) == 19
    assert checks.exact_level(99, ALPHA) == 0.05
    assert checks.exact_level(19, 0.01) == 0.0  # k = K + 1: the test never rejects


# ---------------------------------------------------------------------------
# null rejection count moved out of its band

def test_null_band_accepts_the_level_and_rejects_a_moved_count():
    n, level = 2000, checks.exact_level(19, ALPHA)
    assert checks.binomial_band_ok(100, n, level)
    assert not checks.binomial_band_ok(100 + 80, n, level)
    assert not checks.binomial_band_ok(100 - 80, n, level)


def test_top_power_check_rejects_a_weak_test():
    assert checks.power_at_least_ok(1000, 1000)
    assert not checks.power_at_least_ok(900, 1000)


# ---------------------------------------------------------------------------
# single randomization tests: p-value and orbit range

def _outcomes():
    """One real K=99 engine outcome per group kind, as the benchmark runs them."""
    gen = np.random.default_rng(5)
    out = []
    for kind in run.KINDS:
        action, stat = run.engine_spec(kind, (12, 6))
        x = gen.standard_normal((12, 6))
        x[:6, 0] += 1.0
        outcome = engine.run_randomization_test(
            x, stat, action, RandTestConfig(K=99, alpha=ALPHA), RngStream(3, 0))
        out.append((action.kind, stat.name, x, outcome))
    return out


@pytest.mark.parametrize("case", range(len(run.KINDS)))
def test_real_outcome_passes(case):
    kind, stat, x, outcome = _outcomes()[case]
    assert checks.randomization_test_ok(kind, stat, x, outcome, 99, ALPHA)


@pytest.mark.parametrize("case", range(len(run.KINDS)))
def test_p_value_off_by_one_draw_fails(case):
    kind, stat, x, outcome = _outcomes()[case]
    shifted = min(outcome.p_value + 1 / 100, 1.0) if outcome.p_value < 1 else 0.99
    assert not checks.randomization_test_ok(
        kind, stat, x, replace(outcome, p_value=shifted), 99, ALPHA)
    assert not checks.randomization_test_ok(
        kind, stat, x, replace(outcome, reject=not outcome.reject), 99, ALPHA)


@pytest.mark.parametrize("case", range(len(run.KINDS)))
def test_randomized_value_outside_orbit_fails(case):
    kind, stat, x, outcome = _outcomes()[case]
    lo, hi = checks.orbit_range(kind, stat, x)
    for bad in (hi * 1.01, lo * 0.99 if lo > 0 else -1e-3):
        values = outcome.randomized.copy()
        values[7] = bad
        assert not checks.in_range(values, lo, hi)
        # the decision is recomputed from the tampered orbit, so only the
        # range check can catch the value
        tampered = replace(outcome, randomized=values,
                           reject=bool(np.sum(values < outcome.t0) >= outcome.k),
                           p_value=(1 + int(np.sum(values >= outcome.t0))) / 100)
        assert not checks.randomization_test_ok(kind, stat, x, tampered, 99, ALPHA)


def test_wrong_t0_fails():
    kind, stat, x, outcome = _outcomes()[0]
    assert not checks.randomization_test_ok(
        kind, stat, x, replace(outcome, t0=outcome.t0 * (1 + 1e-9)), 99, ALPHA)


# ---------------------------------------------------------------------------
# closed-form power

def test_t_test_power_with_wrong_df_fails_at_benchmark_size():
    """Counts at their exact expectation pass with df = 28 and miss with
    df = 10, at the replicates one power_curve run pools. (df = 14 shifts
    the summed counts by 5.6 sd, below the 6.7 sd a 1e-9 miss rate allows.)"""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    wl = run.WORKLOADS["power_curve"]
    reps = wl.reps["two_sample"] * max(1, round(seconds / wl.round_s))
    grid = np.linspace(0.0, 3.0, 20)
    truth = [checks.t_test_power(mu, 15, 15, ALPHA) for mu in grid]
    counts = np.array([round(reps * p) for p in truth])
    assert all(checks.binomial_band_ok(c, reps, p) for c, p in zip(counts, truth))
    assert checks.deviation_sum_ok(counts, reps, truth)
    wrong = [checks.t_test_power(mu, 15, 15, ALPHA, df=10) for mu in grid]
    assert not checks.deviation_sum_ok(counts, reps, wrong)


def test_t_test_power_matches_simulation():
    gen = np.random.default_rng(11)
    from scipy import stats
    mu, reps = 1.0, 20000
    z = gen.standard_normal((reps, 15))
    y = gen.standard_normal((reps, 15)) + mu
    t = stats.ttest_ind(z, y, axis=1).statistic
    crit = stats.t.ppf(0.975, 28)
    count = int(np.sum(np.abs(t) > crit))
    assert checks.binomial_band_ok(count, reps, checks.t_test_power(mu, 15, 15, ALPHA))


def test_sparse_deterministic_power_is_alpha_at_the_null_and_matches_simulation():
    assert math.isclose(checks.sparse_deterministic_power(0.0, 32, 100, ALPHA), ALPHA,
                        rel_tol=1e-9)
    from scipy import stats
    n, p, mu, reps = 32, 100, 0.6, 20000
    gen = np.random.default_rng(12)
    c = gen.standard_normal((reps, p)) / math.sqrt(n)
    c[:, 0] += mu
    t = stats.norm.ppf(((1 - ALPHA) ** (1 / p) + 1) / 2) / math.sqrt(n)
    count = int(np.sum(np.max(np.abs(c), axis=1) > t))
    power = checks.sparse_deterministic_power(mu, n, p, ALPHA)
    assert checks.binomial_band_ok(count, reps, power)
    assert not checks.binomial_band_ok(count, reps, power + 0.05)


# ---------------------------------------------------------------------------
# draws needed and the tracer

def test_draws_needed():
    r = np.array([0.1, 0.2, 5.0, 0.3])
    assert checks.draws_needed(1.0, r, k=4) == 3  # accept once 1 > K - k = 0 at or above
    assert checks.draws_needed(1.0, r, k=2) == 2  # reject once 2 below
    assert checks.draws_needed(1.0, np.array([0.1, 0.2, 0.3]), k=3) == 3


def test_self_times_add_up_and_wrappers_come_off():
    def inner():
        return sum(range(1000))

    owner = SimpleNamespace(inner=inner)
    owner.outer = lambda: owner.inner() + owner.inner()
    tracer = tracing.Tracer()
    tracer.scope = "x"
    tracer.install([(owner, "inner", "inner"), (owner, "outer", "outer")])
    try:
        owner.outer()
    finally:
        tracer.uninstall()
    assert owner.inner is inner
    self_ns, calls = tracer.totals()
    assert calls[("x", "inner")] == 2 and calls[("x", "outer")] == 1
    root = next(end - start for _, parent, _, _, start, end in tracer.spans if parent < 0)
    assert sum(self_ns.values()) == root
