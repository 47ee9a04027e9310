"""Monte Carlo power experiments.

``run_experiment`` produces power curves over a signal grid for five
scenarios: the sparse location scenario with deterministic, signflip, and
rotation tests; its heavy-tailed variant; a two-sample permutation-versus-t
comparison; a low-rank matrix detection check; and a regression signflip
check. Each scenario is a setup (per-chunk constants) plus a per-unit
function under one unit loop.

Determinism contract: every (grid point, replicate) unit owns the stream
RngStream(seed, g * replicates + r); the noise draw uses child(0) and method
i uses child(1 + i).  No unit reads another unit's stream, and rejections
are summed as integers, so any chunking of the units, and hence any worker
count, gives the same output.  A lowrank method stops drawing once its
decision is settled and reads only a prefix of its own child(1 + i); the
values it does read are those of the full draw, so the output is unchanged.
A chunk derives all its units' streams in one pass
(``numerics.stream_generators``); each generator is bit-identical to
RngStream(seed, u).child(c).generator(), which
``tests/test_numerics.py::TestStreamGenerators`` checks against NumPy's
SeedSequence.  The CSV bytes are fixed by (config, seed) for a given NumPy:
NEP 19 keeps the bit generators stable but lets Generator methods change
between releases.
"""

from __future__ import annotations

import io
import json
import logging
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .engine import decide, decide_stopping, order_index
from .groups import _column_sphere_images, _gaussian_rows, _permutations, _signs
from .noise import NoiseSpec, sample_noise
from .numerics import (
    RngStream,
    normal_quantile,
    pseudo_inverse,
    stream_generators,
    student_t_quantile,
)
from .statistics import batch_opnorm, opnorm_against
from .theory import (
    ConsistencyInputs,
    bernoulli_bound_design,
    bernoulli_bound_regression,
    consistency_margin,
)

__all__ = [
    "SCENARIOS",
    "ScenarioConfig",
    "PowerCurve",
    "sparse_vector_config",
    "heavy_tail_config",
    "two_sample_config",
    "lowrank_config",
    "regression_config",
    "run_experiment",
    "two_sample_t_test",
]

logger = logging.getLogger(__name__)

SCENARIOS = ("sparse_vector", "heavy_tail", "two_sample", "lowrank", "regression")

CSV_HEADER = "scenario,method,signal,reps,rejections,power,se,seed"

# units per work item; each unit owns its stream and the counts are integer
# sums, so the chunk size does not change the output
_CHUNK = 200

_METHOD_RE = re.compile(r"^(signflip|rotation|permutation)_K(\d+)(?:_t(\d+))?$")


@dataclass(frozen=True)
class _Method:
    label: str
    kind: str  # "deterministic", "t_test", or a group name
    K: int = 0
    k: int = 0
    df: float | None = None


def _parse_method(label: str, alpha: float) -> _Method:
    if label == "deterministic":
        return _Method(label, "deterministic")
    if label == "t_test":
        return _Method(label, "t_test")
    m = _METHOD_RE.match(label)
    if m is None:
        raise ValueError(f"unrecognized method label {label!r}")
    kind, K, df = m.group(1), int(m.group(2)), m.group(3)
    if K < 1:
        raise ValueError(f"method {label!r} has K < 1")
    return _Method(label, kind, K, order_index(K, alpha),
                   float(df) if df is not None else None)


# method kinds each scenario accepts, and whether labels carry a df suffix
_SCENARIO_METHODS = {
    "sparse_vector": (("deterministic", "signflip", "rotation"), False),
    "heavy_tail": (("signflip",), True),
    "two_sample": (("permutation", "t_test"), False),
    "lowrank": (("rotation",), False),
    "regression": (("signflip",), False),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a power experiment needs, minus the worker count.

    The master seed lives here so that (config, seed) fully determines the
    output; design_seed fixes the regression design matrix independently of
    the replicate streams.
    """

    scenario: str
    n: int
    p: int
    n2: int | None
    noise: NoiseSpec | None
    grid: tuple[float, ...]
    methods: tuple[str, ...]
    alpha: float
    replicates: int
    seed: int
    design_seed: int = 12345

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not self.grid:
            raise ValueError("signal grid must be nonempty")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if len(self.grid) * self.replicates > 2 ** 32:
            # a unit's stream id is one 32-bit word of its spawn key
            raise ValueError(
                f"grid has {len(self.grid)} points x replicates {self.replicates} = "
                f"{len(self.grid) * self.replicates} units, more than 2**32"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        if len(set(self.grid)) != len(self.grid):
            raise ValueError("grid values must be distinct")
        allowed, need_df = _SCENARIO_METHODS[self.scenario]
        parsed = [_parse_method(label, self.alpha) for label in self.methods]
        for meth in parsed:
            if meth.kind not in allowed:
                raise ValueError(
                    f"method {meth.label!r} not valid for scenario {self.scenario!r}"
                )
            if need_df and meth.kind != "deterministic" and meth.df is None:
                raise ValueError(f"method {meth.label!r} needs a _t<df> suffix here")
            if not need_df and meth.df is not None:
                raise ValueError(f"method {meth.label!r}: df suffix not valid here")
        if self.scenario == "two_sample" and self.n2 is None:
            raise ValueError("two_sample scenario needs n2")
        if any(meth.kind == "t_test" for meth in parsed):
            for name in ("n", "n2"):
                if getattr(self, name) < 2:
                    raise ValueError(
                        f"t_test needs at least 2 observations per sample, "
                        f"got {name} = {getattr(self, name)}"
                    )
        if self.noise is None:
            raise ValueError("noise spec is required")
        rows = self.n + self.n2 if self.scenario == "two_sample" else self.n
        cols = 1 if self.scenario in ("two_sample", "regression") else self.p
        if (self.noise.n, self.noise.p) != (rows, cols):
            raise ValueError(
                f"noise spec is {self.noise.n}x{self.noise.p}, scenario "
                f"{self.scenario!r} draws {rows}x{cols}"
            )
        for meth in parsed:
            if meth.k > meth.K:
                raise ValueError(
                    f"method {meth.label!r}: k = {meth.k} exceeds K = {meth.K} at "
                    f"alpha = {self.alpha}, so the test can never reject"
                )


@dataclass(eq=False)
class PowerCurve:
    """Rejection counts per (grid point, method) plus derived power and SE."""

    scenario: str
    methods: tuple[str, ...]
    grid: tuple[float, ...]
    counts: np.ndarray  # shape (len(grid), len(methods)), int64
    replicates: int
    seed: int
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (len(self.grid), len(self.methods)):
            raise ValueError(
                f"counts shape {self.counts.shape} does not match "
                f"{len(self.grid)} grid points x {len(self.methods)} methods"
            )
        if np.any(self.counts < 0) or np.any(self.counts > self.replicates):
            raise ValueError("rejection counts must lie in [0, replicates]")

    @property
    def power(self) -> np.ndarray:
        return self.counts / self.replicates

    @property
    def se(self) -> np.ndarray:
        p = self.power
        return np.sqrt(p * (1.0 - p) / self.replicates)

    def series(self, method: str) -> np.ndarray:
        """Power over the grid for one method label."""
        return self.power[:, self.methods.index(method)]

    def se_series(self, method: str) -> np.ndarray:
        return self.se[:, self.methods.index(method)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerCurve):
            return NotImplemented
        return (
            self.scenario == other.scenario
            and self.methods == other.methods
            and self.grid == other.grid
            and np.array_equal(self.counts, other.counts)
            and self.replicates == other.replicates
            and self.seed == other.seed
            and self.notes == other.notes
        )

    def to_csv(self) -> str:
        """Serialize with 17 significant digits so parsing round-trips."""
        out = io.StringIO()
        for key in sorted(self.notes):
            out.write(f"# note {key}: {json.dumps(self.notes[key])}\n")
        out.write(CSV_HEADER + "\n")
        power = self.power
        se = self.se
        for g, signal in enumerate(self.grid):
            for m, method in enumerate(self.methods):
                out.write(
                    "%s,%s,%.17g,%d,%d,%.17g,%.17g,%d\n"
                    % (self.scenario, method, signal, self.replicates,
                       self.counts[g, m], power[g, m], se[g, m], self.seed)
                )
        return out.getvalue()

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "PowerCurve":
        notes: dict = {}
        rows = []
        header_seen = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("note "):
                    key, _, raw = body[len("note "):].partition(":")
                    notes[key.strip()] = json.loads(raw)
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise ValueError(f"line {lineno}: unexpected header {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ValueError(f"line {lineno}: expected 8 fields, got {len(parts)}")
            rows.append(parts)
        if not rows:
            raise ValueError("no data rows found")
        scenario = rows[0][0]
        seed = int(rows[0][7])
        replicates = int(rows[0][3])
        methods: list[str] = []
        grid: list[float] = []
        cells: dict[tuple[int, int], int] = {}
        for parts in rows:
            if parts[0] != scenario:
                raise ValueError("mixed scenarios in one file")
            if int(parts[3]) != replicates or int(parts[7]) != seed:
                raise ValueError("inconsistent reps or seed across rows")
            signal = float(parts[2])
            if parts[1] not in methods:
                methods.append(parts[1])
            if not grid or signal != grid[-1]:
                if signal in grid[:-1]:
                    raise ValueError("grid values out of order")
                if signal not in grid:
                    grid.append(signal)
            g = grid.index(signal)
            m = methods.index(parts[1])
            cells[(g, m)] = int(parts[4])
        if len(cells) != len(grid) * len(methods):
            raise ValueError("incomplete grid x method table")
        counts = np.zeros((len(grid), len(methods)), dtype=np.int64)
        for (g, m), c in cells.items():
            counts[g, m] = c
        return cls(scenario, tuple(methods), tuple(grid), counts,
                   replicates, seed, notes)

    @classmethod
    def load_csv(cls, path) -> "PowerCurve":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv(fh.read())


# ---------------------------------------------------------------------------
# default configurations

def _signal_grid(high: float, points: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(0.0, high, points))


def sparse_vector_config(
    seed: int,
    *,
    n: int = 32,
    p: int = 100,
    grid_points: int = 20,
    replicates: int = 1000,
    alpha: float = 0.05,
    ks: tuple[int, ...] = (19, 99),
) -> ScenarioConfig:
    """Sparse location scenario: X = 1 s^T + N with s = mu e1, iid normal N."""
    methods = ["deterministic"]
    methods += [f"signflip_K{k}" for k in ks]
    methods += [f"rotation_K{k}" for k in ks]
    return ScenarioConfig(
        scenario="sparse_vector",
        n=n, p=p, n2=None,
        noise=NoiseSpec("iid_normal", n, p),
        grid=_signal_grid(4.0 * math.sqrt(math.log(p)), grid_points),
        methods=tuple(methods),
        alpha=alpha, replicates=replicates, seed=seed,
    )


def heavy_tail_config(
    seed: int,
    *,
    n: int = 32,
    p: int = 100,
    grid_points: int = 20,
    replicates: int = 1000,
    alpha: float = 0.05,
    ks: tuple[int, ...] = (19, 99),
    dfs: tuple[int, ...] = (3, 5),
) -> ScenarioConfig:
    """Sparse scenario with iid Student t entries; signflip tests only."""
    for key, values in (("dfs", dfs), ("ks", ks)):
        if not values:
            raise ValueError(f"heavy_tail needs at least one entry in {key!r}")
    methods = [f"signflip_K{k}_t{df}" for df in dfs for k in ks]
    return ScenarioConfig(
        scenario="heavy_tail",
        n=n, p=p, n2=None,
        noise=NoiseSpec("iid_student", n, p, df=float(min(dfs))),
        grid=_signal_grid(4.0 * math.sqrt(math.log(p)), grid_points),
        methods=tuple(methods),
        alpha=alpha, replicates=replicates, seed=seed,
    )


def two_sample_config(
    seed: int,
    *,
    n: int = 15,
    n2: int = 15,
    grid_points: int = 20,
    grid_high: float = 3.0,
    replicates: int = 1000,
    alpha: float = 0.05,
    K: int = 99,
) -> ScenarioConfig:
    """Two Gaussian samples shifted by mu; permutation test versus t-test."""
    return ScenarioConfig(
        scenario="two_sample",
        n=n, p=1, n2=n2,
        noise=NoiseSpec("iid_normal", n + n2, 1),
        grid=_signal_grid(grid_high, grid_points),
        methods=(f"permutation_K{K}", "t_test"),
        alpha=alpha, replicates=replicates, seed=seed,
    )


def lowrank_config(
    seed: int,
    *,
    n: int = 50,
    p: int = 50,
    grid_points: int = 20,
    grid_high: float | None = None,
    replicates: int = 500,
    alpha: float = 0.05,
    K: int = 19,
) -> ScenarioConfig:
    """Rank-one matrix signal sqrt(n/2) tau u v^T against per-column rotations."""
    if grid_high is None:
        grid_high = 6.0 * math.sqrt(n)
    return ScenarioConfig(
        scenario="lowrank",
        n=n, p=p, n2=None,
        noise=NoiseSpec("iid_normal", n, p),
        grid=_signal_grid(grid_high, grid_points),
        methods=(f"rotation_K{K}",),
        alpha=alpha, replicates=replicates, seed=seed,
    )


def regression_config(
    seed: int,
    *,
    n: int = 100,
    p: int = 20,
    grid_points: int = 20,
    grid_high: float = 6.0,
    replicates: int = 500,
    alpha: float = 0.05,
    K: int = 99,
    design_seed: int = 12345,
) -> ScenarioConfig:
    """Fixed Gaussian design, beta = tau e1, heteroskedastic symmetric noise."""
    return ScenarioConfig(
        scenario="regression",
        n=n, p=p, n2=None,
        noise=NoiseSpec("heteroskedastic_sign_symmetric", n, 1),
        grid=_signal_grid(grid_high, grid_points),
        methods=(f"signflip_K{K}",),
        alpha=alpha, replicates=replicates, seed=seed,
        design_seed=design_seed,
    )


_CONFIG_FACTORIES = {
    "sparse_vector": sparse_vector_config,
    "heavy_tail": heavy_tail_config,
    "two_sample": two_sample_config,
    "lowrank": lowrank_config,
    "regression": regression_config,
}


# ---------------------------------------------------------------------------
# scenarios under one unit loop: setup(cfg, methods) computes per-chunk
# constants; unit(cfg, constants, signal, noise generator, (method, generator)
# pairs) draws one unit and yields one rejection per method, in method order.
# Every group draw goes through the helpers in groups.py; each unit keeps
# only its statistic's arithmetic on the draw.


def _sparse_setup(cfg: ScenarioConfig, parsed) -> tuple[float, dict]:
    """The deterministic threshold, and the noise spec of each df in sorted
    order: one Student t spec per df for heavy_tail, cfg.noise otherwise."""
    t_det = normal_quantile(((1.0 - cfg.alpha) ** (1.0 / cfg.p) + 1.0) / 2.0)
    t_det /= math.sqrt(cfg.n)
    dfs = sorted({meth.df for meth in parsed})
    return t_det, {df: cfg.noise if df is None else replace(cfg.noise, df=df)
                   for df in dfs}


def _sparse_unit(cfg: ScenarioConfig, const, mu: float, noise, methods):
    t_det, specs = const
    drawn = {}
    for df, spec in specs.items():  # one matrix per df, drawn in sorted order
        x = sample_noise(spec, noise)
        x[:, 0] += mu
        c = x.mean(axis=0)
        drawn[df] = x, float(np.max(np.abs(c))), float(np.linalg.norm(c))
    for meth, gen in methods:
        x, t0, radius = drawn[meth.df]
        if meth.kind == "deterministic":
            yield t0 > t_det
        elif meth.kind == "signflip":
            vals = np.max(np.abs(_signs(meth.K, cfg.n, gen) @ x), axis=1) / cfg.n
            yield decide(t0, vals, meth.k)
        else:  # rotation acts on rows, hence on the column-mean vector
            # a Gaussian z over its norm is uniform on the sphere, so
            # max|z| / |z| * radius is the lazy image's sup norm
            z, norms = _gaussian_rows((meth.K, cfg.p), gen)
            vals = np.max(np.abs(z), axis=1) / norms * radius
            yield decide(t0, vals, meth.k)


def _two_sample_setup(cfg: ScenarioConfig, parsed) -> float | None:
    """The t-test's two-sided critical value, or None when no t_test is
    listed (a permutation-only config may have a sample of size 1)."""
    if not any(meth.kind == "t_test" for meth in parsed):
        return None
    return student_t_quantile(1.0 - cfg.alpha / 2.0, cfg.n + cfg.n2 - 2)


def _two_sample_unit(cfg: ScenarioConfig, t_crit, mu: float, noise, methods):
    # np.add.reduce(.) / n is what ndarray.mean computes, without its wrapper
    n = cfg.n
    w = sample_noise(cfg.noise, noise)[:, 0]
    w[n:] += mu
    centered = w - np.add.reduce(w) / w.size  # grand mean is the nuisance direction
    t0 = abs(float(np.add.reduce(centered[:n]) / n
                   - np.add.reduce(centered[n:]) / cfg.n2))
    for meth, gen in methods:
        if meth.kind == "t_test":
            t = _pooled_t(w[:n], w[n:])
            yield t is not None and abs(t) > t_crit
        else:
            shuffled = centered[_permutations(meth.K, w.size, gen)]
            vals = np.abs(np.add.reduce(shuffled[:, :n], axis=1) / n
                          - np.add.reduce(shuffled[:, n:], axis=1) / cfg.n2)
            yield decide(t0, vals, meth.k)


def _lowrank_setup(cfg: ScenarioConfig, parsed) -> np.ndarray:
    u = np.full(cfg.n, 1.0 / math.sqrt(cfg.n))
    v = np.full(cfg.p, 1.0 / math.sqrt(cfg.p))
    return math.sqrt(cfg.n / 2.0) * np.outer(u, v)


def _lowrank_unit(cfg: ScenarioConfig, base: np.ndarray, tau: float, noise, methods):
    x = sample_noise(cfg.noise, noise) + tau * base
    t0 = float(batch_opnorm(x[None])[0])  # the opnorm statistic, as the engine's t0
    for meth, gen in methods:
        def orbit(b):
            # row blocks of the column images are prefixes of one draw of
            # all K, so stopping early leaves every drawn value as it was;
            # decide_stopping counts only which side of t0 each value lies on
            return opnorm_against(_column_sphere_images(x, b, gen), t0)
        yield decide_stopping(t0, orbit, meth.K, meth.k)


def regression_design(cfg: ScenarioConfig) -> np.ndarray:
    """The scenario's fixed design matrix, a function of design_seed only."""
    gen = RngStream(cfg.design_seed, 0).generator()
    return gen.standard_normal((cfg.n, cfg.p))


def _regression_setup(cfg: ScenarioConfig, parsed) -> tuple[np.ndarray, np.ndarray]:
    design = regression_design(cfg)
    return design[:, 0], pseudo_inverse(design)


def _regression_unit(cfg: ScenarioConfig, const, tau: float, noise, methods):
    column, pinv = const
    eps = sample_noise(cfg.noise, noise)[:, 0]
    y = tau * column + eps
    t0 = float(np.max(np.abs(pinv @ y)))
    for meth, gen in methods:
        b = _signs(meth.K, cfg.n, gen)
        b *= y[None, :]
        vals = np.max(np.abs(pinv @ b.T), axis=0)
        yield decide(t0, vals, meth.k)


# (setup, unit) per scenario; heavy_tail is the sparse scenario under
# Student t noise
_SCENARIO_UNITS = {
    "sparse_vector": (_sparse_setup, _sparse_unit),
    "heavy_tail": (_sparse_setup, _sparse_unit),
    "two_sample": (_two_sample_setup, _two_sample_unit),
    "lowrank": (_lowrank_setup, _lowrank_unit),
    "regression": (_regression_setup, _regression_unit),
}


def _chunk(cfg: ScenarioConfig, lo: int, hi: int) -> np.ndarray:
    """Rejection counts of units [lo, hi); top level so that worker
    processes can unpickle it."""
    parsed = [_parse_method(lbl, cfg.alpha) for lbl in cfg.methods]
    setup, unit = _SCENARIO_UNITS[cfg.scenario]
    const = setup(cfg, parsed)
    counts = np.zeros((len(cfg.grid), len(parsed)), dtype=np.int64)
    # the noise stream is child 0 and method m's is child 1 + m; deterministic
    # and t_test (K = 0) draw nothing, so get no generator
    children = [0] + [1 + m for m, meth in enumerate(parsed) if meth.K]
    gens = stream_generators(cfg.seed, [(u, c) for u in range(lo, hi)
                                        for c in children])
    for u in range(lo, hi):
        g = u // cfg.replicates
        noise = next(gens)
        methods = [(meth, next(gens) if meth.K else None) for meth in parsed]
        counts[g] += list(unit(cfg, const, cfg.grid[g], noise, methods))
    return counts


def _run_units(cfg: ScenarioConfig, workers: int) -> np.ndarray:
    n_units = len(cfg.grid) * cfg.replicates
    bounds = [(lo, min(lo + _CHUNK, n_units)) for lo in range(0, n_units, _CHUNK)]
    workers = min(workers, len(bounds))
    if workers <= 1:
        parts = [_chunk(cfg, lo, hi) for lo, hi in bounds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_chunk, repeat(cfg),
                                  [b[0] for b in bounds], [b[1] for b in bounds]))
    total = np.zeros((len(cfg.grid), len(cfg.methods)), dtype=np.int64)
    for part in parts:
        total += part
    return total


# mean absolute value of a t(3) variable, used for a representative noise
# magnitude profile in the regression margin report
_MEAN_ABS_T3 = 2.0 * math.sqrt(3.0) / math.pi


def _regression_margin_notes(cfg: ScenarioConfig) -> dict:
    """Finite-sample margin for the realized design at the top grid point.

    The critical value is bounded by the Bernoulli bound of the noise
    process at representative magnitudes E|eps_i|, and the signal deflation
    uses the design-only bound; both at tail weight l = sqrt(2 log(2/alpha)).
    """
    design = regression_design(cfg)
    el = math.sqrt(2.0 * math.log(2.0 / cfg.alpha))
    mc = 2000
    scale = 1.0 + np.arange(cfg.n) / cfg.n
    # paths far above any method index, so these streams never collide with
    # the per-unit children
    noise_bound = bernoulli_bound_regression(
        design, scale * _MEAN_ABS_T3, el, mc, RngStream(cfg.seed, 0, (1000,)))
    design_bound = bernoulli_bound_design(
        design, el, mc, RngStream(cfg.seed, 0, (1001,)))
    tau_top = cfg.grid[-1]
    s_inf = float(np.max(np.abs(
        pseudo_inverse(design) @ design @ (tau_top * np.eye(cfg.p)[:, 0]))))
    report = consistency_margin(ConsistencyInputs(
        "regression", s_inf=s_inf, u_plus=design_bound.u_plus,
        t=noise_bound.u_plus))
    return {
        "margin_tau_top": report.margin,
        "deterministic_margin_tau_top": report.deterministic_margin,
        "tau_top": tau_top,
        "u_plus_design": design_bound.u_plus,
        "t_bound": noise_bound.u_plus,
        "b_design": design_bound.b_estimate,
        "r_design": design_bound.r_value,
        "b_noise": noise_bound.b_estimate,
        "r_noise": noise_bound.r_value,
        "l": el,
        "mc": mc,
    }


def run_experiment(cfg: ScenarioConfig, workers: int = 1) -> PowerCurve:
    """Power curve of every method in cfg over its signal grid.

    A regression curve's notes carry the design's consistency-margin report;
    a margin below 1 records that the sufficient condition is not met at
    these dimensions, not that the test is invalid.
    """
    counts = _run_units(cfg, workers)
    notes = _regression_margin_notes(cfg) if cfg.scenario == "regression" else {}
    return PowerCurve(cfg.scenario, cfg.methods, cfg.grid, counts,
                      cfg.replicates, cfg.seed, notes=notes)


def _pooled_t(z: np.ndarray, y: np.ndarray) -> float | None:
    """The pooled-variance t statistic of two 1-D float samples of at least 2
    values each, or None when the pooled variance is 0.

    Means and ``var(ddof=1)`` are taken as ``np.add.reduce`` then true
    division, the reductions ndarray.mean and ndarray.var run inside, so the
    value is bitwise (z.mean() - y.mean()) / sqrt(pooled * (1/n + 1/m))
    without the cost of their wrappers.
    """
    n, m = z.size, y.size
    mz = np.add.reduce(z) / n
    my = np.add.reduce(y) / m
    dz = z - mz
    dy = y - my
    var_z = np.add.reduce(dz * dz) / (n - 1)
    var_y = np.add.reduce(dy * dy) / (m - 1)
    pooled = ((n - 1) * var_z + (m - 1) * var_y) / (n + m - 2)
    if pooled <= 0.0:
        return None
    return (mz - my) / math.sqrt(pooled * (1.0 / n + 1.0 / m))


def two_sample_t_test(z, y, alpha: float) -> bool:
    """Pooled-variance two-sided two-sample t-test for univariate samples."""
    z = np.asarray(z, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if z.size < 2 or y.size < 2:
        raise ValueError("both samples need at least 2 observations")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t = _pooled_t(z, y)
    if t is None:
        logger.warning("zero pooled variance in two-sample t-test; not rejecting")
        return False
    return bool(abs(t) > student_t_quantile(1.0 - alpha / 2.0, z.size + y.size - 2))
