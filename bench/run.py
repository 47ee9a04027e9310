"""Benchmark of invartest: power-study throughput, null-level throughput and
generic-engine test latency.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Every workload repeats whole rounds of three parts:

  S  one ``experiments.run_experiment`` block per scenario,
  A  K=99 ``engine.run_randomization_test`` calls on 32x100 matrices, the
     group kinds interleaved,
  B  K=19 null tests over the ``validation.scenario_catalog()`` pairings.

A round runs the S block of scenario i, then slice i of A and of B, so a
slow phase of the host hits every metric alike.

The workloads differ in their inputs and in the weight of each part (see
``WORKLOADS`` and README.md). The number of rounds follows from --seconds
and a nominal round length, so a run does a fixed amount of work for its
arguments. All inputs come from --seed; the program only receives them.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 a traced run prints the per-layer
metrics instead and writes its spans under bench/out/.
"""

import time

_PROCESS_T0 = time.perf_counter()  # set-up is timed from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import trim_mean

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SCENARIOS = ("sparse_vector", "heavy_tail", "two_sample", "lowrank", "regression")
KINDS = ("signflip", "permutation", "rotation", "rotation_per_column")
ENGINE_SHAPE = (32, 100)
ENGINE_K = 99
LEVEL_K = 19
ALPHA = 0.05
PROBES = 2  # extra set-ups in fresh processes; setup_s is the median of 1 + PROBES
# test_ms drops this share of tests at each end and averages the rest. The
# host runs at two speeds for 10-40 s at a time; a median jumps between them
# with the share of a run spent in each, a trimmed mean moves in proportion.
TRIM = 0.1

END_TO_END = (
    [("setup_s", "s", "lower"), ("wall_s", "s", "lower")]
    + [(f"units_per_s.{s}", "units/s", "higher") for s in SCENARIOS]
    + [(f"test_ms.{g}", "ms", "lower") for g in KINDS]
    + [("level_tests_per_s", "tests/s", "higher"), ("peak_rss_mb", "MB", "lower")]
)

PER_LAYER = (
    [row for s in SCENARIOS for row in (
        (f"numerics.generator_us_per_unit.{s}", "us", "lower"),
        (f"numerics.generators_per_unit.{s}", "count", "lower"),
        (f"noise.sample_us_per_unit.{s}", "us", "lower"),
        (f"engine.decide_us_per_unit.{s}", "us", "lower"),
        (f"experiments.kernel_self_us_per_unit.{s}", "us", "lower"),
    )]
    + [("numerics.t_quantile_us_per_unit.two_sample", "us", "lower"),
       ("theory.bounds_ms_per_run.regression", "ms", "lower"),
       ("experiments.parallel_efficiency", "ratio", "higher")]
    + [row for g in KINDS for row in (
        (f"groups.randomize_ms_per_test.{g}", "ms", "lower"),
        (f"statistics.eval_ms_per_test.{g}", "ms", "lower"),
        (f"engine.self_ms_per_test.{g}", "ms", "lower"),
        (f"groups.randomize_calls_per_test.{g}", "count", "lower"),
        (f"statistics.calls_per_test.{g}", "count", "lower"),
        (f"engine.draws_needed_share.{g}", "ratio", "lower"),
    )]
    + [("numerics.qr_ms_per_test.rotation", "ms", "lower"),
       ("groups.randomize_us_per_level_test", "us", "lower"),
       ("statistics.eval_us_per_level_test", "us", "lower"),
       ("engine.self_us_per_level_test", "us", "lower"),
       ("numerics.qr_us_per_level_test", "us", "lower"),
       ("engine.draws_needed_share.level", "ratio", "lower")]
)


@dataclass(frozen=True)
class Workload:
    grid_points: int       # signal grid of every scenario; 1 means signal 0 only
    workers: int           # worker processes of run_experiment
    reps: dict             # scenario -> replicates per block
    engine_signal: float   # shift of the first column in the first 16 rows
    engine_tests: dict     # group kind -> K=99 tests per round
    level_tests: int       # K=19 tests per catalog pairing per round
    round_s: float         # nominal length of an untraced round on 2 cores
    traced_round_s: float  # nominal length of a traced round


_A_LIGHT = dict(signflip=8, permutation=8, rotation=2, rotation_per_column=2)

WORKLOADS = {
    # the shipped study: full grid, one worker per core, blocks of 2-16 chunks
    "power_curve": Workload(
        20, 2, dict(sparse_vector=80, heavy_tail=40, two_sample=160,
                    lowrank=20, regression=120),
        1.0, _A_LIGHT, 40, 3.8, 16.0),
    # signal 0 only, as the level checks run it, no pool
    "null_levels": Workload(
        1, 1, dict(sparse_vector=400, heavy_tail=200, two_sample=800,
                   lowrank=50, regression=800),
        0.0, _A_LIGHT, 40, 1.8, 5.0),
    # the generic engine carries most of the time; kernels at 1 worker
    "engine_tests": Workload(
        20, 1, dict(sparse_vector=10, heavy_tail=5, two_sample=20,
                    lowrank=2, regression=20),
        1.0, dict(signflip=24, permutation=24, rotation=3, rotation_per_column=3),
        120, 1.75, 5.0),
}


# ---------------------------------------------------------------------------
# set-up: import, inputs, warm-up

def import_program():
    if not os.path.isfile(os.path.join(SRC, "invartest", "__init__.py")):
        sys.exit(f"error: no invartest sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


def engine_spec(kind: str, shape: tuple[int, int]):
    """Group action and statistic as ``invartest test`` builds them."""
    from invartest.groups import GroupAction
    from invartest.statistics import make_statistic
    n, p = shape
    if kind == "signflip":
        return GroupAction("signflip_rows", n=n), make_statistic("colmean_linf", sample_shape=shape)
    if kind == "permutation":
        half = n // 2
        return (GroupAction("permute_rows", n=n),
                make_statistic("twosample_diff", n=half, n_prime=n - half, sample_shape=shape))
    if kind == "rotation":
        return GroupAction("rotate_full", p=p), make_statistic("colmean_linf", sample_shape=shape)
    return GroupAction("rotate_per_column", n=n, p=p), make_statistic("opnorm", sample_shape=shape)


def draw_noise(spec, rng: np.random.Generator) -> np.ndarray:
    """A catalog noise matrix drawn by the benchmark itself."""
    if spec.family == "iid_normal" or (spec.family == "spherical" and spec.radial == "normal"):
        return rng.standard_normal((spec.n, spec.p))  # Gaussian rows are spherical
    if spec.family == "iid_student":
        return rng.standard_t(spec.df, (spec.n, spec.p))
    raise ValueError(f"benchmark has no generator for noise family {spec.family!r}")


def split(items: list, parts: int) -> list[list]:
    """Contiguous, nearly equal slices."""
    cuts = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


class State:
    """Program objects and every input of the run, made from one seed.

    Round r holds one config per scenario, and the round's K=99 and K=19
    tests cut into as many slices as there are scenarios: slice i runs right
    after the block of scenario i.
    """

    def __init__(self, wl: Workload, seed: int, rounds: int):
        from invartest import experiments, validation
        from invartest.engine import RandTestConfig

        rng = np.random.default_rng(seed)

        def stream_seed() -> int:
            return int(rng.integers(2 ** 31))

        self.wl = wl
        self.rounds = rounds
        factories = {s: getattr(experiments, f"{s}_config") for s in SCENARIOS}
        self.specs = {g: engine_spec(g, ENGINE_SHAPE) for g in KINDS}
        self.catalog = validation.scenario_catalog()
        self.cfg_engine = RandTestConfig(K=ENGINE_K, alpha=ALPHA)
        self.cfg_level = RandTestConfig(K=LEVEL_K, alpha=ALPHA)
        kinds = []  # group kinds interleaved, so each slice mixes them
        for i in range(max(wl.engine_tests.values())):
            kinds += [g for g in KINDS if i < wl.engine_tests[g]]
        half = ENGINE_SHAPE[0] // 2
        self.configs, self.engine_inputs, self.level_inputs = [], [], []
        for _ in range(rounds):
            self.configs.append([
                factories[s](seed=stream_seed(), grid_points=wl.grid_points,
                             replicates=wl.reps[s]) for s in SCENARIOS])
            tests = []
            for g in kinds:
                x = rng.standard_normal(ENGINE_SHAPE)
                x[:half, 0] += wl.engine_signal
                tests.append((g, x, stream_seed()))
            self.engine_inputs.append(split(tests, len(SCENARIOS)))
            tests = [(idx, draw_noise(entry.noise, rng), stream_seed())
                     for _ in range(wl.level_tests)
                     for idx, entry in enumerate(self.catalog)]
            self.level_inputs.append(split(tests, len(SCENARIOS)))
        self.warm_up()

    def warm_up(self) -> None:
        """One small call of every timed path (first BLAS use, lazy imports)."""
        for cfg in self.configs[0]:
            run_block(replace(cfg, replicates=1), self.wl.workers)
        first = {}
        for g, x, seed in sum(self.engine_inputs[0], []):
            first.setdefault(g, (g, x, seed))
        engine_slice(self, list(first.values()))
        level_slice(self, self.level_inputs[0][0][:len(self.catalog)])


# ---------------------------------------------------------------------------
# timed calls into the program

def run_block(cfg, workers: int, tracer=None):
    """One scenario block, as ``invartest simulate`` runs it: (curve, seconds)."""
    from invartest import experiments
    start = time.perf_counter()
    if tracer is None:
        curve = experiments.run_experiment(cfg, workers)
    else:
        tracer.scope = "S:" + cfg.scenario
        with tracer.span("experiments.run_experiment"):
            curve = experiments.run_experiment(cfg, workers)
    return curve, time.perf_counter() - start


def engine_slice(state: State, tests, tracer=None):
    """K=99 tests, as ``invartest test`` runs them: [(kind, x, outcome, seconds)]."""
    from invartest import engine
    from invartest.numerics import RngStream
    out = []
    for g, x, seed in tests:
        action, stat = state.specs[g]
        if tracer is not None:
            tracer.scope = "A:" + g
        start = time.perf_counter()
        outcome = engine.run_randomization_test(x, stat, action, state.cfg_engine,
                                                RngStream(seed, 0))
        out.append((g, x, outcome, time.perf_counter() - start))
    return out


def level_slice(state: State, tests, tracer=None):
    """K=19 null tests on catalog pairings: ([(index, x, outcome)], seconds)."""
    from invartest import engine
    from invartest.numerics import RngStream
    if tracer is not None:
        tracer.scope = "B"
    out = []
    start = time.perf_counter()
    for idx, x, seed in tests:
        entry = state.catalog[idx]
        out.append((idx, x, engine.run_randomization_test(
            x, entry.statistic, entry.action, state.cfg_level, RngStream(seed, 0))))
    return out, time.perf_counter() - start


def units(curve) -> int:
    return len(curve.grid) * curve.replicates


# ---------------------------------------------------------------------------
# output checks

class Ledger:
    """Operations attempted and failed; a missed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)


def check_blocks(ledger: Ledger, state: State, blocks) -> None:
    """Per-block check (CSV round trip) and the run-level power checks."""
    from invartest.experiments import PowerCurve
    summed = {}
    for s, curve, _ in blocks:
        ledger.op(PowerCurve.from_csv(curve.to_csv()) == curve, f"{s}/csv_roundtrip")
        total = summed.setdefault(s, [curve, np.zeros_like(curve.counts), 0])
        total[1] += curve.counts
        total[2] += curve.replicates
    for s, (curve, counts, reps) in summed.items():
        cfg = state.configs[0][SCENARIOS.index(s)]
        for name, ok in checks.power_curve_checks(s, curve.methods, curve.grid,
                                                  counts, reps, cfg):
            ledger.op(ok, name)


def check_engine(ledger: Ledger, state: State, results) -> None:
    for g, x, outcome, _ in results:
        action, stat = state.specs[g]
        ledger.op(checks.randomization_test_ok(action.kind, stat.name, x, outcome,
                                               ENGINE_K, ALPHA), f"engine/{g}")


def check_levels(ledger: Ledger, state: State, results) -> None:
    rejections = [0] * len(state.catalog)
    tests = [0] * len(state.catalog)
    for idx, x, outcome in results:
        entry = state.catalog[idx]
        ledger.op(checks.randomization_test_ok(entry.action.kind, entry.statistic.name, x,
                                               outcome, LEVEL_K, ALPHA),
                  f"level/{entry.name}")
        rejections[idx] += outcome.reject
        tests[idx] += 1
    level = checks.exact_level(LEVEL_K, ALPHA)
    for entry, rej, n in zip(state.catalog, rejections, tests):
        ledger.op(checks.binomial_band_ok(rej, n, level), f"level/{entry.name}/null_level")


# ---------------------------------------------------------------------------
# runs

def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def probe_setups(args) -> list[float]:
    """Set-up time of PROBES fresh processes doing this run's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    out = []
    for _ in range(PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def out_of_time(start: float, args, r: int) -> bool:
    """A host far slower than the nominal round lengths stops the run early,
    after whole rounds, so it still ends well within its time limit."""
    if time.perf_counter() - start <= 3.0 * args.seconds:
        return False
    print(f"stopped after {r + 1} rounds: over 3x --seconds", file=sys.stderr)
    return True


def untraced_run(args, state: State, own_setup: float, ledger: Ledger) -> dict:
    wl = state.wl
    blocks, engine_results, level_results = [], [], []
    block_s = {s: 0.0 for s in SCENARIOS}
    block_units = {s: 0 for s in SCENARIOS}
    level_s = 0.0
    start = time.perf_counter()
    for r in range(state.rounds):
        for i, cfg in enumerate(state.configs[r]):
            curve, dt = run_block(cfg, wl.workers)
            blocks.append((cfg.scenario, curve, dt))
            block_s[cfg.scenario] += dt
            block_units[cfg.scenario] += units(curve)
            engine_results += engine_slice(state, state.engine_inputs[r][i])
            results, dt = level_slice(state, state.level_inputs[r][i])
            level_results += results
            level_s += dt
        if out_of_time(start, args, r):
            break
    wall = time.perf_counter() - start
    rss = peak_rss_mb()

    check_blocks(ledger, state, blocks)
    check_engine(ledger, state, engine_results)
    check_levels(ledger, state, level_results)
    # the same block at the other worker count gives the same CSV bytes
    other = 1 if wl.workers > 1 else 2
    for cfg, (_, curve, _) in zip(state.configs[0], blocks):
        again, _ = run_block(cfg, other)
        ledger.op(again.to_csv() == curve.to_csv(),
                  f"{cfg.scenario}/csv_bytes_{wl.workers}_vs_{other}_workers")

    setups = [own_setup] + probe_setups(args)
    latency = {g: [dt * 1e3 for k, _, _, dt in engine_results if k == g] for g in KINDS}
    for g in KINDS:
        lat = latency[g]
        p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
        print(f"test_ms.{g}: trimmed mean {trim_mean(lat, TRIM):.3f} ms, "
              f"median {statistics.median(lat):.3f} ms, p90 {p90:.3f} ms over {len(lat)} tests")
    print("setup_s samples: " + ", ".join(f"{v:.3f}" for v in setups))
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall}
    for s in SCENARIOS:
        metrics[f"units_per_s.{s}"] = block_units[s] / block_s[s]
    for g in KINDS:
        metrics[f"test_ms.{g}"] = trim_mean(latency[g], TRIM)
    metrics["level_tests_per_s"] = len(level_results) / level_s
    metrics["peak_rss_mb"] = rss
    return metrics


def traced_run(args, state: State, ledger: Ledger) -> dict:
    """Untraced blocks at 1 and 2 workers, then the round again with spans."""
    tracer = tracing.Tracer()
    pool_s = {1: {s: 0.0 for s in SCENARIOS}, 2: {s: 0.0 for s in SCENARIOS}}
    traced_s = engine_traced = engine_untraced = 0.0
    blocks, engine_results, level_results = [], [], []
    start = time.perf_counter()
    for r in range(state.rounds):
        plain = {}
        for workers in (1, 2):
            for cfg in state.configs[r]:
                curve, dt = run_block(cfg, workers)
                pool_s[workers][cfg.scenario] += dt
                plain.setdefault(cfg.scenario, []).append(curve.to_csv())
        t = time.perf_counter()
        for i in range(len(SCENARIOS)):
            engine_slice(state, state.engine_inputs[r][i])
            level_slice(state, state.level_inputs[r][i])
        engine_untraced += time.perf_counter() - t

        for i, cfg in enumerate(state.configs[r]):
            tracer.install(tracing.scenario_targets())
            try:
                curve, dt = run_block(cfg, 1, tracer)
            finally:
                tracer.uninstall()
            traced_s += dt
            blocks.append((cfg.scenario, curve, dt))
            ledger.op(all(csv == curve.to_csv() for csv in plain[cfg.scenario]),
                      f"{cfg.scenario}/csv_same_at_1_2_workers_and_traced")
            t = time.perf_counter()
            tracer.install(tracing.engine_targets())
            try:
                engine_results += engine_slice(state, state.engine_inputs[r][i], tracer)
                level_results += level_slice(state, state.level_inputs[r][i], tracer)[0]
            finally:
                tracer.uninstall()
            engine_traced += time.perf_counter() - t
        if out_of_time(start, args, r):
            break

    check_blocks(ledger, state, blocks)
    check_engine(ledger, state, engine_results)
    check_levels(ledger, state, level_results)

    self_ns, calls = tracer.totals()
    roots = {}
    for _, _, name, scope, start, end in tracer.spans:
        if name in ("experiments.run_experiment", "engine.run_randomization_test"):
            roots[scope] = roots.get(scope, 0) + end - start
    for scope, total in roots.items():
        covered = sum(v for (sc, _), v in self_ns.items() if sc == scope)
        ledger.op(covered == total, f"trace/{scope}/self_times_add_up")

    def per(scope, name, n, scale):
        return self_ns.get((scope, name), 0) / n * scale

    m = {}
    n_units = {s: sum(units(c) for sc, c, _ in blocks if sc == s) for s in SCENARIOS}
    n_runs = {s: sum(1 for sc, _, _ in blocks if sc == s) for s in SCENARIOS}
    for s in SCENARIOS:
        scope, u = "S:" + s, n_units[s]
        m[f"numerics.generator_us_per_unit.{s}"] = per(scope, "numerics.generator", u, 1e-3)
        m[f"numerics.generators_per_unit.{s}"] = calls.get((scope, "numerics.generator"), 0) / u
        m[f"noise.sample_us_per_unit.{s}"] = per(scope, "noise.sample_noise", u, 1e-3)
        m[f"engine.decide_us_per_unit.{s}"] = per(scope, "engine.decide", u, 1e-3)
        m[f"experiments.kernel_self_us_per_unit.{s}"] = per(
            scope, "experiments.run_experiment", u, 1e-3)
        layers = sum(v for (sc, _), v in self_ns.items() if sc == scope) / u * 1e-3
        print(f"{s}: traced {roots[scope] / u * 1e-3:.2f} us/unit, "
              f"sum of self times {layers:.2f} us/unit")
    m["numerics.t_quantile_us_per_unit.two_sample"] = per(
        "S:two_sample", "numerics.student_t_quantile", n_units["two_sample"], 1e-3)
    m["theory.bounds_ms_per_run.regression"] = per(
        "S:regression", "theory.bernoulli_bound", n_runs["regression"], 1e-6)
    for s in SCENARIOS:
        print(f"{s}: untraced {n_units[s] / pool_s[1][s]:.1f} units/s at 1 worker, "
              f"{n_units[s] / pool_s[2][s]:.1f} at 2 workers")
    m["experiments.parallel_efficiency"] = (
        sum(pool_s[1].values()) / (2.0 * sum(pool_s[2].values())))

    n_tests = {g: sum(1 for k, *_ in engine_results if k == g) for g in KINDS}
    for g in KINDS:
        scope, n = "A:" + g, n_tests[g]
        m[f"groups.randomize_ms_per_test.{g}"] = per(scope, "groups.randomize", n, 1e-6)
        m[f"statistics.eval_ms_per_test.{g}"] = per(scope, "statistics.eval", n, 1e-6)
        m[f"engine.self_ms_per_test.{g}"] = per(scope, "engine.run_randomization_test", n, 1e-6)
        m[f"groups.randomize_calls_per_test.{g}"] = calls.get((scope, "groups.randomize"), 0) / n
        m[f"statistics.calls_per_test.{g}"] = calls.get((scope, "statistics.eval"), 0) / n
        m[f"engine.draws_needed_share.{g}"] = statistics.fmean(
            checks.draws_needed(o.t0, o.randomized, o.k) / ENGINE_K
            for k, _, o, _ in engine_results if k == g)
    m["numerics.qr_ms_per_test.rotation"] = per(
        "A:rotation", "numerics.qr_orthonormalize", n_tests["rotation"], 1e-6)
    n = len(level_results)
    m["groups.randomize_us_per_level_test"] = per("B", "groups.randomize", n, 1e-3)
    m["statistics.eval_us_per_level_test"] = per("B", "statistics.eval", n, 1e-3)
    m["engine.self_us_per_level_test"] = per("B", "engine.run_randomization_test", n, 1e-3)
    m["numerics.qr_us_per_level_test"] = per("B", "numerics.qr_orthonormalize", n, 1e-3)
    m["engine.draws_needed_share.level"] = statistics.fmean(
        checks.draws_needed(o.t0, o.randomized, o.k) / LEVEL_K for _, _, o in level_results)

    print(f"trace overhead: part S {traced_s / sum(pool_s[1].values()) - 1.0:+.1%}, "
          f"parts A+B {engine_traced / engine_untraced - 1.0:+.1%}")
    path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.csv.gz")
    tracer.write(path)
    print(f"wrote {len(tracer.spans)} spans to {os.path.relpath(path, ROOT)}")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time")
    args = parser.parse_args(argv)

    import_program()
    wl = WORKLOADS[args.workload]
    nominal = wl.traced_round_s if args.trace else wl.round_s
    state = State(wl, args.seed, max(1, round(args.seconds / nominal)))
    own_setup = time.perf_counter() - _PROCESS_T0
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    ledger = Ledger()
    if args.trace:
        metrics, table = traced_run(args, state, ledger), PER_LAYER
    else:
        metrics, table = untraced_run(args, state, own_setup, ledger), END_TO_END
    for name, unit, _ in table:
        print(f"{args.workload}  {name} = {metrics[name]:.6g} {unit}")
    for miss in ledger.misses:
        print(f"MISSED CHECK: {miss}", file=sys.stderr)
    print(f"{state.rounds} rounds, {ledger.attempted} operations, {ledger.failed} failed")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
