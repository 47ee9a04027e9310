"""Monte Carlo power experiments.

``run_experiment`` produces power curves over a signal grid for five
scenarios: the sparse location scenario with deterministic, signflip, and
rotation tests; its heavy-tailed variant; a two-sample permutation-versus-t
comparison; a low-rank matrix detection check; and a regression signflip
check. Each scenario is a setup (per-chunk constants) plus a per-unit
function under one unit loop.

Determinism contract: every (grid point, replicate) unit owns the stream
RngStream(seed, g * replicates + r); the noise draw uses child(0) and method
i uses child(1 + i).  Rejections are summed as integers over fixed-size unit
chunks, so the worker count never changes the output.
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

from .engine import decide, order_index
from .noise import NoiseSpec, sample_noise
from .numerics import RngStream, normal_quantile, pseudo_inverse, student_t_quantile
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

# units per work item; fixed so that chunk boundaries (and hence the integer
# sums) do not depend on the worker count
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
# constants; unit(cfg, constants, signal, noise stream, (method, generator)
# pairs) draws one unit and yields one rejection per method, in method order

def _signflips(gen: np.random.Generator, K: int, n: int) -> np.ndarray:
    """K uniform sign vectors of length n as a (K, n) float array."""
    return gen.integers(0, 2, size=(K, n)) * 2.0 - 1.0


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
    noise_gen = noise.generator()
    drawn = {}
    for df, spec in specs.items():  # one matrix per df, drawn in sorted order
        x = sample_noise(spec, noise_gen)
        x[:, 0] += mu
        c = x.mean(axis=0)
        drawn[df] = x, float(np.max(np.abs(c))), float(np.linalg.norm(c))
    for meth, gen in methods:
        x, t0, radius = drawn[meth.df]
        if meth.kind == "deterministic":
            yield t0 > t_det
        elif meth.kind == "signflip":
            vals = np.max(np.abs(_signflips(gen, meth.K, cfg.n) @ x), axis=1) / cfg.n
            yield decide(t0, vals, meth.k)
        else:  # rotation acts on rows, hence on the column-mean vector
            # a Gaussian z over its norm is uniform on the sphere, so
            # max|z| / |z| * radius is the lazy image's sup norm
            z = gen.standard_normal((meth.K, cfg.p))
            vals = np.max(np.abs(z), axis=1) / np.linalg.norm(z, axis=1) * radius
            yield decide(t0, vals, meth.k)


def _two_sample_unit(cfg: ScenarioConfig, const, mu: float, noise, methods):
    n = cfg.n
    w = sample_noise(cfg.noise, noise)[:, 0]
    z = w[:n]
    y = w[n:] + mu
    w = np.concatenate([z, y])
    centered = w - w.mean()  # grand mean is the nuisance direction
    t0 = abs(float(centered[:n].mean() - centered[n:].mean()))
    for meth, gen in methods:
        if meth.kind == "t_test":
            yield two_sample_t_test(z, y, cfg.alpha)
        else:
            # argsort of iid uniforms is a uniform permutation
            perms = np.argsort(gen.random((meth.K, w.size)), axis=1)
            shuffled = centered[perms]
            vals = np.abs(shuffled[:, :n].mean(axis=1) - shuffled[:, n:].mean(axis=1))
            yield decide(t0, vals, meth.k)


def _lowrank_setup(cfg: ScenarioConfig, parsed) -> np.ndarray:
    u = np.full(cfg.n, 1.0 / math.sqrt(cfg.n))
    v = np.full(cfg.p, 1.0 / math.sqrt(cfg.p))
    return math.sqrt(cfg.n / 2.0) * np.outer(u, v)


def _lowrank_unit(cfg: ScenarioConfig, base: np.ndarray, tau: float, noise, methods):
    x = sample_noise(cfg.noise, noise) + tau * base
    t0 = float(np.linalg.svd(x, compute_uv=False)[0])
    col_norms = np.linalg.norm(x, axis=0)
    for meth, gen in methods:
        # lazy per-column rotation: each Gaussian column, scaled to unit
        # length (zero columns stay zero), becomes a uniform point on the
        # sphere of its own radius
        z = gen.standard_normal((meth.K, cfg.n, cfg.p))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        z /= np.where(norms > 0.0, norms, 1.0)
        z *= col_norms[None, None, :]
        vals = np.linalg.svd(z, compute_uv=False)[:, 0]
        yield decide(t0, vals, meth.k)


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
        b = _signflips(gen, meth.K, cfg.n)
        b *= y[None, :]
        vals = np.max(np.abs(pinv @ b.T), axis=0)
        yield decide(t0, vals, meth.k)


# (setup or None, unit) per scenario; heavy_tail is the sparse scenario under
# Student t noise
_SCENARIO_UNITS = {
    "sparse_vector": (_sparse_setup, _sparse_unit),
    "heavy_tail": (_sparse_setup, _sparse_unit),
    "two_sample": (None, _two_sample_unit),
    "lowrank": (_lowrank_setup, _lowrank_unit),
    "regression": (_regression_setup, _regression_unit),
}


def _chunk(cfg: ScenarioConfig, lo: int, hi: int) -> np.ndarray:
    """Rejection counts of units [lo, hi); top level so that worker
    processes can unpickle it."""
    parsed = [_parse_method(lbl, cfg.alpha) for lbl in cfg.methods]
    setup, unit = _SCENARIO_UNITS[cfg.scenario]
    const = setup(cfg, parsed) if setup else None
    counts = np.zeros((len(cfg.grid), len(parsed)), dtype=np.int64)
    for u in range(lo, hi):
        g = u // cfg.replicates
        stream = RngStream(cfg.seed, u)
        # deterministic and t_test (K = 0) draw nothing, so get no generator
        gens = [stream.child(1 + m).generator() if meth.K else None
                for m, meth in enumerate(parsed)]
        counts[g] += list(unit(cfg, const, cfg.grid[g], stream.child(0),
                               zip(parsed, gens)))
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


def two_sample_t_test(z, y, alpha: float) -> bool:
    """Pooled-variance two-sided two-sample t-test for univariate samples."""
    z = np.asarray(z, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if z.size < 2 or y.size < 2:
        raise ValueError("both samples need at least 2 observations")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n, m = z.size, y.size
    df = n + m - 2
    pooled = ((n - 1) * z.var(ddof=1) + (m - 1) * y.var(ddof=1)) / df
    if pooled <= 0.0:
        logger.warning("zero pooled variance in two-sample t-test; not rejecting")
        return False
    t = (z.mean() - y.mean()) / math.sqrt(pooled * (1.0 / n + 1.0 / m))
    return bool(abs(t) > student_t_quantile(1.0 - alpha / 2.0, df))
