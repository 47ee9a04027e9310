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
count, gives the same output.  A lowrank method and a sparse_vector
rotation method stop drawing once the decision is settled
(``engine.decide_stopping``, first blocks set in ``_chunk``) and read only
a prefix of their own child(1 + i); the values they do read are those of
the full draw, and the size of a block never changes a decision, so the
output is unchanged.  The signflip, permutation and regression methods
draw all K values: there a value costs less than a block's calls.
A chunk derives all its units' streams in one pass
(``numerics.stream_generators``); each generator is bit-identical to
RngStream(seed, u).child(c).generator(), which
``tests/test_numerics.py::TestStreamGenerators`` checks against NumPy's
SeedSequence.  The CSV bytes are fixed by (config, seed) for a given NumPy:
NEP 19 keeps the bit generators stable but lets Generator methods change
between releases.

Workers: a call with several chunks and ``workers > 1`` maps the chunks
over one forked process pool per process, kept across calls (``_pool``,
``_worker_init``). Forked workers do not see later changes to the parent,
such as monkeypatches.
"""

from __future__ import annotations

import ctypes
import io
import json
import logging
import math
import multiprocessing
import os
import re
import signal
import sys
import threading
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .engine import decide, decide_stopping, order_index
from .groups import _column_gaussians, _gaussian_rows, _permutations, _signs
from .noise import NoiseSpec, heteroskedastic_mean_abs, sample_noise
from .numerics import (
    RngStream,
    check_integer,
    normal_quantile,
    pseudo_inverse,
    stream_generators,
    student_t_quantile,
)
from .statistics import (
    _U,
    batch_opnorm,
    sphere_opnorm_against,
)
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


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a power experiment needs, minus the worker count.

    The master seed lives here so that (config, seed) fully determines the
    output. ``parsed`` holds the methods' parses, in method
    order; it is derived from methods and alpha, so ``replace`` parses again.
    """

    scenario: str
    n: int
    p: int
    n2: int | None
    noise: NoiseSpec
    grid: tuple[float, ...]
    methods: tuple[str, ...]
    alpha: float
    replicates: int
    seed: int
    parsed: tuple[_Method, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        for name, low in (("n", 1), ("p", 1), ("replicates", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), low)
        if self.n2 is not None:
            check_integer("n2", self.n2, 1)
        if not self.grid:
            raise ValueError("signal grid must be nonempty")
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
        for i, label in enumerate(self.methods):
            if label in self.methods[:i]:
                raise ValueError(f"method {label!r} is listed twice")
        if not all(map(math.isfinite, self.grid)):
            raise ValueError(f"grid values must be finite, got grid {self.grid}")
        if len(set(self.grid)) != len(self.grid):
            raise ValueError("grid values must be distinct")
        row = _SCENARIO_ROWS[self.scenario]
        parsed = tuple(_parse_method(label, self.alpha) for label in self.methods)
        object.__setattr__(self, "parsed", parsed)
        for meth in parsed:
            if meth.kind not in row.kinds:
                raise ValueError(
                    f"method {meth.label!r} not valid for scenario {self.scenario!r}"
                )
            if row.needs_df and meth.kind != "deterministic" and meth.df is None:
                raise ValueError(f"method {meth.label!r} needs a _t<df> suffix here")
            if not row.needs_df and meth.df is not None:
                raise ValueError(f"method {meth.label!r}: df suffix not valid here")
        if self.scenario == "two_sample":
            if self.n2 is None:
                raise ValueError("two_sample scenario needs n2")
            if self.p != 1:
                raise ValueError(
                    f"two_sample draws one column and does not read p, got p = {self.p}")
        elif self.n2 is not None:
            raise ValueError(f"{self.scenario} does not read n2, got n2 = {self.n2}")
        if any(meth.kind == "t_test" for meth in parsed):
            for name in ("n", "n2"):
                if getattr(self, name) < 2:
                    raise ValueError(
                        f"t_test needs at least 2 observations per sample, "
                        f"got {name} = {getattr(self, name)}"
                    )
        if self.noise is None:
            raise ValueError("noise spec is required")
        family = {"heavy_tail": "iid_student",
                  "regression": "heteroskedastic_sign_symmetric"}.get(self.scenario)
        if family is not None and self.noise.family != family:
            raise ValueError(f"{self.scenario} draws {family} noise, not {self.noise.family!r}")
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
        check_integer("replicates", self.replicates, 1)
        check_integer("seed", self.seed, 0)
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
            rows.append((lineno, parts))
        if not rows:
            raise ValueError("no data rows found")
        _, first = rows[0]
        scenario, replicates, seed = first[0], int(first[3]), int(first[7])
        methods: list[str] = []
        grid: list[float] = []
        cells: dict[tuple[int, int], tuple[int, list[str]]] = {}
        for lineno, parts in rows:
            if parts[0] != scenario:
                raise ValueError("mixed scenarios in one file")
            if int(parts[3]) != replicates or int(parts[7]) != seed:
                raise ValueError("inconsistent reps or seed across rows")
            signal = float(parts[2])
            if not math.isfinite(signal):
                raise ValueError(f"line {lineno}: signal {parts[2]} is not finite")
            if parts[1] not in methods:
                methods.append(parts[1])
            if not grid or signal != grid[-1]:
                if signal in grid[:-1]:
                    raise ValueError("grid values out of order")
                if signal not in grid:
                    grid.append(signal)
            cell = grid.index(signal), methods.index(parts[1])
            if cell in cells:
                raise ValueError(f"line {lineno}: a second row for signal {parts[2]}, "
                                 f"method {parts[1]!r}")
            cells[cell] = lineno, parts
        if len(cells) != len(grid) * len(methods):
            raise ValueError("incomplete grid x method table")
        counts = [[int(cells[g, m][1][4]) for m in range(len(methods))]
                  for g in range(len(grid))]
        curve = cls(scenario, tuple(methods), tuple(grid), counts, replicates, seed, notes)
        # power and se are functions of the count, written by %.17g, which
        # round-trips; a field that parses to another value is refused
        power, se = curve.power, curve.se
        for (g, m), (lineno, parts) in cells.items():
            for name, raw, value in (("power", parts[5], power[g, m]), ("se", parts[6], se[g, m])):
                try:
                    ok = float(raw) == value
                except ValueError:
                    ok = False
                if not ok:
                    raise ValueError(f"line {lineno}: {name} {raw!r} is not {value:.17g}, "
                                     f"the value of {parts[4]} rejections in {replicates}")
        return curve

    @classmethod
    def load_csv(cls, path) -> "PowerCurve":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv(fh.read())


# ---------------------------------------------------------------------------
# default configurations

def _signal_grid(high: float, points: int) -> tuple[float, ...]:
    check_integer("grid_points", points, 1)
    if not math.isfinite(high):  # np.linspace would warn and fill the grid with nan
        raise ValueError(f"grid_high must be finite, got {high}")
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
    for k in ks:
        check_integer("each entry of ks", k, 1)
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
    """Sparse scenario with iid Student t entries; signflip tests only. Each
    ``_t<df>`` method label sets the df of its noise; the spec's df is unused."""
    for key, values in (("dfs", dfs), ("ks", ks)):
        if not values:
            raise ValueError(f"heavy_tail needs at least one entry in {key!r}")
        for value in values:
            check_integer(f"each entry of {key}", value, 1)
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
    for name, value in (("n", n), ("n2", n2), ("K", K)):  # n + n2 sizes the noise
        check_integer(name, value, 1)
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
    """Rank-one matrix signal sqrt(n/2) tau u v^T against per-column rotations;
    grid_high defaults to 6 sqrt(n)."""
    check_integer("K", K, 1)
    return ScenarioConfig(
        scenario="lowrank",
        n=n, p=p, n2=None,
        noise=NoiseSpec("iid_normal", n, p),  # checks n before the grid reads it
        grid=_signal_grid(6.0 * math.sqrt(n) if grid_high is None else grid_high,
                          grid_points),
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
) -> ScenarioConfig:
    """Fixed Gaussian design, beta = tau e1, heteroskedastic symmetric noise."""
    check_integer("K", K, 1)
    return ScenarioConfig(
        scenario="regression",
        n=n, p=p, n2=None,
        noise=NoiseSpec("heteroskedastic_sign_symmetric", n, 1),
        grid=_signal_grid(grid_high, grid_points),
        methods=(f"signflip_K{K}",),
        alpha=alpha, replicates=replicates, seed=seed,
    )


# ---------------------------------------------------------------------------
# scenarios under one unit loop: setup(cfg) computes per-chunk constants;
# unit(cfg, constants, signal, noise generator, (method, generator, first
# block) triples, the first block set by ``_chunk``) draws one unit and
# yields one rejection per method, in method order. Every group draw goes
# through the helpers in groups.py; each unit keeps only its statistic's
# arithmetic on the draw.


def _sparse_setup(cfg: ScenarioConfig) -> tuple[float, dict]:
    """The deterministic threshold, and the noise spec of each df in sorted
    order: one Student t spec per df for heavy_tail, cfg.noise otherwise."""
    t_det = normal_quantile(((1.0 - cfg.alpha) ** (1.0 / cfg.p) + 1.0) / 2.0)
    t_det /= math.sqrt(cfg.n)
    dfs = sorted({meth.df for meth in cfg.parsed})
    return t_det, {df: cfg.noise if df is None else replace(cfg.noise, df=df)
                   for df in dfs}


def _signflip_rejects(t0: float, m: np.ndarray, c: float, bound: float, meth, gen) -> bool:
    """``decide`` on the K values max_j |sum_i s_i m_ij| / c of an n x p m, from
    one matrix product of the drawn signs with m; t0 is the all-plus value with
    the rows of m summed in order (``np.add.reduce`` over axis 0).

    Each product s_i m_ij is exact, so two ways of computing a value differ only
    in summation order: each of its p sums is off by at most (n - 1) u S' in any
    order (S' = max_j sum_i |m_ij| <= ``bound``, u = 2^-53; Higham, Accuracy and
    Stability, 2002, 3.1, to first order) and the division by c adds at most
    u S' / c, so two ways differ by at most 2 n u S' / c. A value further than
    that from t0 lies on the same side of t0 either way; those within
    8 n u bound / c are recomputed as t0 is, and all-equal signs tie exactly."""
    s = _signs(meth.K, len(m), gen)
    vals = np.max(np.abs(s @ m), axis=1) / c
    band = np.abs(vals - t0) <= 8.0 * len(m) * _U * bound / c
    if band.any():
        vals[band] = np.max(np.abs(np.add.reduce(s[band, :, None] * m, axis=1)), axis=1) / c
    return decide(t0, vals, meth.k)


def _sparse_unit(cfg: ScenarioConfig, const, mu: float, noise, methods):
    """A signflip value is max_j |sum_i s_i x_ij| / n, decided by
    ``_signflip_rejects`` with m = x, c = n and bound = max_j sum_i |x_ij|;
    t0 is the max of the column means over the rows (``ndarray.mean``)."""
    t_det, specs = const
    drawn = {}
    for df, spec in specs.items():  # one matrix per df, drawn in sorted order
        x = sample_noise(spec, noise)
        x[:, 0] += mu
        c = x.mean(axis=0)
        bound = float(np.add.reduce(np.abs(x)).max())
        drawn[df] = x, float(np.max(np.abs(c))), float(np.linalg.norm(c)), bound
    for meth, gen, first in methods:
        x, t0, radius, bound = drawn[meth.df]
        if meth.kind == "deterministic":
            yield t0 > t_det
        elif meth.kind == "signflip":
            yield _signflip_rejects(t0, x, cfg.n, bound, meth, gen)
        else:  # rotation acts on rows, hence on the column-mean vector
            # a Gaussian z over its norm is uniform on the sphere, so
            # max|z| / |z| * radius is the lazy image's sup norm; row blocks
            # of the draw are prefixes of one draw of all K
            def orbit(b, gen=gen, radius=radius):
                z, norms = _gaussian_rows((b, cfg.p), gen)
                return np.abs(z).max(axis=1) / norms * radius
            yield decide_stopping(t0, orbit, meth.K, meth.k, first)


def _two_sample_setup(cfg: ScenarioConfig) -> float | None:
    """The t-test's two-sided critical value, or None when no t_test is
    listed (a permutation-only config may have a sample of size 1)."""
    if not any(meth.kind == "t_test" for meth in cfg.parsed):
        return None
    return student_t_quantile(1.0 - cfg.alpha / 2.0, cfg.n + cfg.n2 - 2)


def _mean_gaps(rows: np.ndarray, n: int) -> np.ndarray:
    """|mean of the first n - mean of the rest| along the last axis, as
    ndarray.mean computes them; a row has the same bits in any stack."""
    return np.abs(np.add.reduce(rows[..., :n], axis=-1) / n
                  - np.add.reduce(rows[..., n:], axis=-1) / (rows.shape[-1] - n))


def _two_sample_unit(cfg: ScenarioConfig, t_crit, mu: float, noise, methods):
    """Each permutation's halves are sorted before the gather, so every half
    is summed in index order, as t0's are; equal index sets give equal bits,
    and a permutation that keeps or swaps the halves ties with t0 exactly."""
    n = cfg.n
    w = sample_noise(cfg.noise, noise)[:, 0]
    w[n:] += mu
    centered = w - np.add.reduce(w) / w.size  # grand mean is the nuisance direction
    t0 = float(_mean_gaps(centered, n))
    for meth, gen, _ in methods:
        if meth.kind == "t_test":
            t = _pooled_t(w[:n], w[n:])
            yield t is not None and abs(t) > t_crit
        else:
            perms = _permutations(meth.K, w.size, gen)
            perms[:, :n].sort()
            perms[:, n:].sort()
            yield decide(t0, _mean_gaps(centered[perms], n), meth.k)


def _lowrank_setup(cfg: ScenarioConfig) -> np.ndarray:
    u = np.full(cfg.n, 1.0 / math.sqrt(cfg.n))
    v = np.full(cfg.p, 1.0 / math.sqrt(cfg.p))
    return math.sqrt(cfg.n / 2.0) * np.outer(u, v)


def _lowrank_unit(cfg: ScenarioConfig, base: np.ndarray, tau: float, noise, methods):
    """Each orbit block is drawn raw (``_column_gaussians``) and decided by
    ``sphere_opnorm_against``, which forms only the images it cannot certify
    from the Gram of their draw. A value below t0 is one whose image, as
    ``_column_sphere_images`` gives it, has a ``batch_opnorm`` value below
    t0.

    The orbit starts at one value whatever the previous decision, unlike a
    sparse rotation's. At the shipped 50x50, K = 19 config, on grid points
    2, 5, 10 and 19, where every unit rejects, a first block of 1 (five
    calls) took 1082-1275 us per unit against 1354-1602 us for one block of
    K (200 units a point, one BLAS thread, best of 5, two rounds). A block
    of 19 holds 380 KB temporaries, which glibc's malloc gives fresh pages
    on every call; with its trim and mmap thresholds raised, the two cost
    about the same."""
    x = sample_noise(cfg.noise, noise) + tau * base
    t0 = float(batch_opnorm(x[None])[0])  # the opnorm statistic, as the engine's t0
    radii = np.linalg.norm(x, axis=0)  # the column norms every image takes
    for meth, gen, _ in methods:
        # row blocks of the draw are prefixes of one draw of all K, so
        # stopping early leaves every drawn value as it was;
        # decide_stopping counts only which side of t0 each value lies on
        def orbit(b, gen=gen):
            return sphere_opnorm_against(_column_gaussians(x.shape, b, gen), radii, t0)
        yield decide_stopping(t0, orbit, meth.K, meth.k, 1)


def regression_design(cfg: ScenarioConfig) -> np.ndarray:
    """The scenario's fixed design matrix, a function of n and p only: its
    seed, 12345, is apart from the replicate streams."""
    gen = RngStream(12345, 0).generator()
    return gen.standard_normal((cfg.n, cfg.p))


def _regression_setup(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The signal column, C-ordered pinv^T (its rows summed in order) and ||pinv||_inf."""
    design = regression_design(cfg)
    pinv = pseudo_inverse(design)
    return design[:, 0], np.ascontiguousarray(pinv.T), float(np.linalg.norm(pinv, np.inf))


def _regression_unit(cfg: ScenarioConfig, const, tau: float, noise, methods):
    """The OLS sup norm max_j |sum_i s_i pinv_ji y_i| of each sign vector,
    decided by ``_signflip_rejects`` with m = pinv^T * y, c = 1 and bound =
    ||pinv||_inf ||y||_inf; t0 is max_j |sum_i m_ij|, the column sums of m."""
    column, pinv_t, pinv_norm = const
    y = tau * column + sample_noise(cfg.noise, noise)[:, 0]
    m = pinv_t * y[:, None]
    t0 = float(np.max(np.abs(np.add.reduce(m, axis=0))))
    bound = pinv_norm * float(np.max(np.abs(y)))
    for meth, gen, _ in methods:
        yield _signflip_rejects(t0, m, 1.0, bound, meth, gen)


# one row per scenario: its config factory, the method kinds it accepts,
# whether their labels carry a _t<df> suffix, and its setup and unit;
# heavy_tail is the sparse scenario under Student t noise
_Scenario = namedtuple("_Scenario", "factory kinds needs_df setup unit")
_SCENARIO_ROWS = {
    "sparse_vector": _Scenario(sparse_vector_config, ("deterministic", "signflip", "rotation"),
                               False, _sparse_setup, _sparse_unit),
    "heavy_tail": _Scenario(heavy_tail_config, ("signflip",), True,
                            _sparse_setup, _sparse_unit),
    "two_sample": _Scenario(two_sample_config, ("permutation", "t_test"), False,
                            _two_sample_setup, _two_sample_unit),
    "lowrank": _Scenario(lowrank_config, ("rotation",), False, _lowrank_setup, _lowrank_unit),
    "regression": _Scenario(regression_config, ("signflip",), False,
                            _regression_setup, _regression_unit),
}
SCENARIOS = tuple(_SCENARIO_ROWS)


def _chunk(cfg: ScenarioConfig, lo: int, hi: int) -> np.ndarray:
    """Rejection counts of units [lo, hi); top level so that worker
    processes can unpickle it."""
    row = _SCENARIO_ROWS[cfg.scenario]
    const = row.setup(cfg)
    counts = np.zeros((len(cfg.grid), len(cfg.methods)), dtype=np.int64)
    # the noise stream is child 0 and method m's is child 1 + m; deterministic
    # and t_test (K = 0) draw nothing, so get no generator
    children = [0] + [1 + m for m, meth in enumerate(cfg.parsed) if meth.K]
    gens = stream_generators(cfg.seed, [(u, c) for u in range(lo, hi)
                                        for c in children])
    # each method's previous decision sets a sparse rotation's first orbit
    # block: after a reject, all K values, since a reject needs at least k
    # and one block of sphere rows is cheapest; otherwise K - k + 1, the
    # fewest that settle an accept. Lowrank starts at 1, which costs it less
    # (_lowrank_unit). The block size never changes a decision, so the
    # chunking does not either.
    rejected = [False] * len(cfg.parsed)
    for u in range(lo, hi):
        g = u // cfg.replicates
        noise = next(gens)
        methods = [(meth, next(gens) if meth.K else None,
                    meth.K if prev else meth.K - meth.k + 1)
                   for meth, prev in zip(cfg.parsed, rejected)]
        rejected = list(row.unit(cfg, const, cfg.grid[g], noise, methods))
        counts[g] += rejected
    return counts


# the workers are forked, not spawned: a child starts from the parent's
# imported state instead of re-importing __main__, so a script that calls
# run_experiment without a __main__ guard works. Python 3.14 makes
# forkserver the default on Linux, so fork is asked for by name there.
_MP_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None
_POOL = None  # (pid, workers, executor, BLAS thread stops) of the kept pool
# held from taking the pool to the last result, so that a call from another
# thread cannot shut the pool down under a call that is using it
_POOL_LOCK = threading.Lock()


def _openblas_libs() -> list[ctypes.CDLL]:
    """Each OpenBLAS library this process has loaded (NumPy and SciPy each
    bundle their own), found by path in /proc/self/maps; none where that
    file is missing."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def _openblas_threads(threads: int | None = None) -> list[int]:
    """The thread count of each loaded OpenBLAS, first set to ``threads``
    when given, through its ``*_set_num_threads`` and ``*_get_num_threads``
    symbols; a library without them keeps its default and is skipped."""
    names = [(f"{stem}_get_num_threads{suffix}", f"{stem}_set_num_threads{suffix}")
             for stem in ("openblas", "scipy_openblas") for suffix in ("", "64_")]
    counts = []
    for lib in _openblas_libs():
        pair = next(((getattr(lib, g), getattr(lib, p)) for g, p in names
                     if hasattr(lib, g) and hasattr(lib, p)), None)
        if pair is None:
            continue
        get, put = pair
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        if threads is not None:
            put(threads)
        counts.append(get())
    return counts


def _worker_init(workers: int, parent: int | None) -> None:
    """Give each OpenBLAS in this worker its share of the cores, so that
    the workers together run one BLAS thread per core instead of one per
    core each. Given the ``parent`` pid, on Linux, also ask for SIGTERM
    when the parent dies: a kept worker otherwise waits on its call queue
    for ever once the parent is killed, since the exit hook that stops it
    runs only on a normal exit. Linux sends that signal when the forking
    thread ends, so only a pool forked from the main thread asks for it."""
    if parent is not None and sys.platform == "linux":
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
        prctl(1, signal.SIGTERM, 0, 0, 0)  # 1 is PR_SET_PDEATHSIG
        if os.getppid() != parent:  # the parent died before the request
            os._exit(1)
    _openblas_threads(max(1, (os.cpu_count() or 1) // workers))


def _pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` workers, kept across calls.

    It is forked at the first call that needs it and again for another
    worker count, after one of its workers has died, or in a child of the
    process that forked it. concurrent.futures shuts it down at exit.

    A kept pool is also handed out with this process's own OpenBLAS
    threads stopped, as OpenBLAS's fork handler stops them at every fork:
    they spin for a while after each BLAS call, which would take cores from
    the workers; the next BLAS call here starts them again."""
    global _POOL
    if _POOL is not None:
        pid, n, pool, stops = _POOL
        if pid == os.getpid():
            # _broken is set by concurrent.futures once a worker has died
            if n == workers and not pool._broken:
                for stop in stops:
                    stop()
                return pool
            pool.shutdown()
    main = threading.current_thread() is threading.main_thread()
    pool = ProcessPoolExecutor(workers, mp_context=_MP_CONTEXT, initializer=_worker_init,
                               initargs=(workers, os.getpid() if main else None))
    stops = [lib.blas_thread_shutdown_ for lib in _openblas_libs()
             if hasattr(lib, "blas_thread_shutdown_")]
    for stop in stops:
        stop.argtypes, stop.restype = [], ctypes.c_int
    _POOL = (os.getpid(), workers, pool, stops)
    return pool


def _run_units(cfg: ScenarioConfig, workers: int) -> np.ndarray:
    n_units = len(cfg.grid) * cfg.replicates
    bounds = [(lo, min(lo + _CHUNK, n_units)) for lo in range(0, n_units, _CHUNK)]
    workers = min(workers, len(bounds))
    if workers <= 1:
        parts = [_chunk(cfg, lo, hi) for lo, hi in bounds]
    else:
        with _POOL_LOCK:
            parts = list(_pool(workers).map(_chunk, repeat(cfg), *zip(*bounds)))
    return np.sum(parts, axis=0)


def _regression_margin_notes(cfg: ScenarioConfig) -> dict:
    """Finite-sample margin for the realized design at the top grid point.

    The critical value is bounded by the Bernoulli bound of the noise
    process at representative magnitudes E|eps_i|, and the signal deflation
    uses the design-only bound; both at tail weight l = sqrt(2 log(2/alpha)).
    """
    design = regression_design(cfg)
    el = math.sqrt(2.0 * math.log(2.0 / cfg.alpha))
    mc = 2000
    # paths far above any method index, so these streams never collide with
    # the per-unit children
    noise_bound = bernoulli_bound_regression(
        design, heteroskedastic_mean_abs(cfg.n), el, mc, RngStream(cfg.seed, 0, (1000,)))
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
    check_integer("workers", workers, 1)
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
