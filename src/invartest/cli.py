"""Command-line interface.

Four subcommands: ``simulate`` runs a configured power experiment and writes
its CSV; ``test`` applies a randomization test to a data file; ``theory``
evaluates the closed-form quantities; ``validate`` runs the self-check
suite.  Exit codes are 0 (success), 1 (runtime or validation failure), and
2 (usage or configuration error); nothing else.

The CLI checks only the shape of its input (a JSON object of known keys,
lists where lists belong, a numeric data table); the library function that
reads each value checks it, so ``"replicates": 2.5`` is refused there as
``replicates must be an integer >= 1, got 2.5``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import warnings

import numpy as np

from . import experiments as exp
from .engine import RandTestConfig, run_randomization_test
from .groups import GroupAction
from .numerics import RngStream, check_integer
from .statistics import make_statistic
from .theory import (
    REAL_FIELDS,
    ConsistencyInputs,
    bernoulli_bound_design,
    bernoulli_bound_regression,
    chi2_shift_gaussian,
    consistency_margin,
    varL_lowrank_exact,
    varL_sparse,
)

__all__ = ["main"]


class UsageError(ValueError):
    """Bad input or configuration; like any ValueError, maps to exit code 2."""


_TEST_STATS = ("colmean_linf", "linf", "opnorm", "twosample_diff")
_TEST_GROUPS = ("signflip", "permutation", "rotation", "rotation_per_column")
_THEORY_SUBCOMMANDS = ("varL-sparse", "varL-lowrank", "margin", "bernoulli-bound")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="invartest",
        description="Group-invariance randomization tests and power experiments.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured power experiment")
    sim.add_argument("--config", required=True, help="JSON configuration file")
    sim.add_argument("--out", default=None, help="output CSV path")
    sim.add_argument("--seed", type=int, default=None,
                     help="master seed; overrides the config")
    sim.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: available parallelism)")

    tst = sub.add_parser("test", help="randomization test on a CSV data matrix")
    tst.add_argument("--data", required=True, help="numeric CSV file")
    tst.add_argument("--stat", required=True, choices=_TEST_STATS,
                     help="twosample_diff compares the first half of the rows "
                          "against the second half")
    tst.add_argument("--group", required=True, choices=_TEST_GROUPS)
    tst.add_argument("--K", required=True, type=int, dest="K",
                     help="number of sampled group elements")
    tst.add_argument("--alpha", required=True, type=float)
    tst.add_argument("--seed", type=int, default=None)

    thy = sub.add_parser("theory", help="closed-form theory quantities")
    thy.add_argument("subcommand", choices=_THEORY_SUBCOMMANDS)
    thy.add_argument("params", nargs="*",
                     help="key=value pairs; margin takes the proposition "
                          "name as a bare first argument")

    val = sub.add_parser("validate", help="run the self-check suite")
    mode = val.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=False)
    mode.add_argument("--full", action="store_true", default=False)
    return top


# ---------------------------------------------------------------------------
# simulate

def _resolve_seed(flag_seed, config_seed) -> int:
    """Flag beats config; with neither, draw from entropy (the caller prints
    the chosen value so the run can be reproduced)."""
    seed = flag_seed if flag_seed is not None else config_seed
    seed = np.random.SeedSequence().entropy if seed is None else seed
    check_integer("seed", seed, 0)
    return seed


_TOP_LEVEL_KEYS = {"scenario", "out", "seed", "workers"}


def _load_scenario_config(path: str, flag_seed) -> tuple[exp.ScenarioConfig, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise UsageError(f"unknown config key: {sorted(unknown)[0]!r}")
    if "scenario" not in doc:
        raise UsageError("config needs a 'scenario' section")
    section = doc["scenario"]
    if not isinstance(section, dict):
        raise UsageError("'scenario' must be an object")
    if "name" not in section:
        raise UsageError("scenario section needs 'name'")
    name = section["name"]
    if name not in exp.SCENARIOS:
        raise UsageError(f"unknown scenario name {name!r}; "
                         f"choose from {', '.join(exp.SCENARIOS)}")
    factory = exp._SCENARIO_ROWS[name].factory
    params = inspect.signature(factory).parameters
    allowed = (set(params) | {"name"}) - {"seed"}  # the seed is top-level
    unknown = set(section) - allowed
    if unknown:
        raise UsageError(f"unknown config key: {sorted(unknown)[0]!r} "
                         f"(scenario {name!r})")
    if "alpha" not in section:
        raise UsageError("scenario section is missing required key 'alpha'")
    seed = _resolve_seed(flag_seed, doc.get("seed"))
    kwargs = {k: v for k, v in section.items() if k != "name"}
    for key in ("ks", "dfs"):
        if key in kwargs:
            if not isinstance(kwargs[key], list):
                raise UsageError(f"config key {key!r} must be a list, "
                                 f"got {json.dumps(kwargs[key])}")
            kwargs[key] = tuple(kwargs[key])
    try:
        cfg = factory(seed, **kwargs)
    except (TypeError, ValueError) as e:
        raise UsageError(f"invalid scenario configuration: {e}") from e
    return cfg, doc


def _print_summary(curve: exp.PowerCurve) -> None:
    print(f"scenario {curve.scenario}: {len(curve.grid)} grid points x "
          f"{len(curve.methods)} methods, {curve.replicates} replicates, "
          f"seed {curve.seed}")
    width = max(len(m) for m in curve.methods)
    header = "signal".rjust(10) + "  " + "  ".join(m.rjust(width)
                                                   for m in curve.methods)
    print(header)
    power = curve.power
    for g, signal in enumerate(curve.grid):
        cells = "  ".join(f"{power[g, m]:.4f}".rjust(width)
                          for m in range(len(curve.methods)))
        print(f"{signal:10.4f}  {cells}")
    for key in sorted(curve.notes):
        print(f"note {key}: {curve.notes[key]}")


def _cmd_simulate(args) -> int:
    cfg, doc = _load_scenario_config(args.config, args.seed)
    workers = args.workers if args.workers is not None else doc.get("workers")
    if workers is None:
        workers = os.cpu_count() or 1
    out = args.out if args.out is not None else doc.get("out")
    if out is None:
        out = f"{cfg.scenario}_power.csv"
    curve = exp.run_experiment(cfg, workers=workers)
    curve.save_csv(out)
    _print_summary(curve)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# test

def _read_data_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as e:
        raise UsageError(f"cannot read data: {e}") from e
    if not lines:
        raise UsageError("data file is empty")
    rows = [ln.split(",") for ln in lines]
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1  # first cell is not numeric: treat the first row as a header
        if len(rows) == 1:
            raise UsageError("data file holds only a header row") from None
    width = len(rows[start])
    out = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise UsageError(f"row {i} has {len(row)} cells, expected {width}")
        vals = []
        for j, cell in enumerate(row, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise UsageError(
                    f"non-numeric cell at row {i}, column {j}: {cell.strip()!r}"
                ) from None
        out.append(vals)
    return np.asarray(out, dtype=float)


def _build_action(group: str, shape: tuple[int, int]) -> GroupAction:
    n, p = shape
    if group == "signflip":
        return GroupAction("signflip_rows", n=n)
    if group == "permutation":
        return GroupAction("permute_rows", n=n)
    if group == "rotation":
        return GroupAction("rotate_full", p=p)
    return GroupAction("rotate_per_column", n=n, p=p)


def _cmd_test(args) -> int:
    data = _read_data_matrix(args.data)
    cfg = RandTestConfig(K=args.K, alpha=args.alpha)
    if args.stat == "linf" and data.shape[1] != 1:
        raise UsageError(
            f"statistic 'linf' expects a single data column, got {data.shape[1]}"
        )
    if args.stat == "twosample_diff":
        if data.shape[0] < 2:
            raise UsageError("statistic 'twosample_diff' needs at least two rows")
        half = data.shape[0] // 2
        stat = make_statistic("twosample_diff", n=half,
                              n_prime=data.shape[0] - half,
                              sample_shape=data.shape)
    else:
        stat = make_statistic(args.stat, sample_shape=data.shape)
    action = _build_action(args.group, data.shape)
    seed = _resolve_seed(args.seed, None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = run_randomization_test(data, stat, action, cfg, RngStream(seed, 0))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    print(f"data {data.shape[0]}x{data.shape[1]}, statistic {stat.name}, "
          f"group {args.group}, K={args.K}, alpha={args.alpha}, seed {seed}")
    print(f"t0 = {outcome.t0:.17g}")
    print(f"k = {outcome.k} (rejection needs at least k of the K+1 values "
          f"strictly below t0)")
    print(f"reject = {outcome.reject}")
    print(f"p_value = {outcome.p_value:.17g}")
    _print_orbit_diagnostics(outcome, args.group, data.shape[0])
    return 0


def _finite_group_order(group: str, n: int, bound: int) -> int | None:
    """The order of the signflip (2^n) or permutation (n!) group on n rows
    when it is below bound; None for rotations and for larger groups."""
    if group not in ("signflip", "permutation"):
        return None
    order = 1
    for i in range(1, n + 1):
        order *= 2 if group == "signflip" else i
        if order >= bound:
            return None
    return order


def _print_orbit_diagnostics(outcome, group: str, rows: int) -> None:
    """Ties with t0, the orbit's spread and a small group's order, on stderr
    so that stdout stays the test's result alone. A tie never rejects and
    counts toward the p-value, so ties make the test conservative."""
    values = outcome.randomized
    K = values.size
    ties = int(np.count_nonzero(values == outcome.t0))
    print(f"orbit: {ties} of the K={K} values tie with t0", file=sys.stderr)
    print(f"orbit: min = {values.min():.17g}, median = {np.median(values):.17g}, "
          f"max = {values.max():.17g}", file=sys.stderr)
    order = _finite_group_order(group, rows, K + 1)
    if order is not None:
        print(f"orbit: the group has {order} elements, fewer than K+1 = {K + 1}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# theory

def _parse_kv(tokens: list[str]) -> tuple[list[str], dict]:
    """Split bare words from key=value pairs; values become int when they
    parse as int, float otherwise, else stay strings."""
    bare = []
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            bare.append(tok)
            continue
        key, _, raw = tok.partition("=")
        key = key.strip()
        if not key:
            raise UsageError(f"malformed parameter {tok!r}")
        if key in kv:
            raise UsageError(f"duplicate parameter {key!r}")
        try:
            kv[key] = int(raw)
        except ValueError:
            try:
                kv[key] = float(raw)
            except ValueError:
                kv[key] = raw
    return bare, kv


def _take(kv: dict, key: str, kind=None, *, required=True, default=None):
    """Pop key's value, converted by kind; with none, as parsed (a count)."""
    if key not in kv:
        if required:
            raise UsageError(f"missing parameter {key!r}")
        return default
    value = kv.pop(key)
    try:
        return value if kind is None else kind(value)
    except (TypeError, ValueError) as e:
        raise UsageError(f"parameter {key!r}: {e}") from e


def _reject_leftover(kv: dict) -> None:
    if kv:
        raise UsageError(f"unknown parameter {sorted(kv)[0]!r}")


def _theory_varl_sparse(bare, kv) -> None:
    if bare:
        raise UsageError(f"unexpected argument {bare[0]!r}")
    n = _take(kv, "n")
    p = _take(kv, "p")
    chi2 = _take(kv, "chi2", float, required=False)
    tau = _take(kv, "tau", float, required=False)
    _reject_leftover(kv)
    if (chi2 is None) == (tau is None):
        raise UsageError("give exactly one of tau= or chi2=")
    if tau is not None:
        chi2 = chi2_shift_gaussian(tau)
        echo = f"tau={tau:g} (chi2={chi2:.12g})"
    else:
        echo = f"chi2={chi2:g}"
    value = varL_sparse(n, p, chi2)
    print(f"varL-sparse n={n} p={p} {echo}")
    print(f"value = {value:.12g}")


def _theory_varl_lowrank(bare, kv) -> None:
    if bare:
        raise UsageError(f"unexpected argument {bare[0]!r}")
    n = _take(kv, "n")
    tau = _take(kv, "tau", float)
    _reject_leftover(kv)
    value = varL_lowrank_exact(n, tau)
    print(f"varL-lowrank n={n} tau={tau:g}")
    print(f"value = {value:.12g}")


def _theory_margin(bare, kv) -> None:
    if len(bare) != 1:
        raise UsageError("margin needs a proposition name, e.g. "
                         "'margin sparse_signflip s_inf=4 t=1'")
    fields = {}
    for key in (*REAL_FIELDS, "psi"):
        value = _take(kv, key, float, required=False)
        if value is not None:
            fields[key] = value
    for key in ("n", "p"):
        value = _take(kv, key, required=False)
        if value is not None:
            fields[key] = value
    _reject_leftover(kv)
    report = consistency_margin(ConsistencyInputs(bare[0], **fields))
    echo = " ".join(f"{k}={v:g}" for k, v in fields.items())
    print(f"margin {report.proposition} {echo}")
    print(f"margin = {report.margin:.12g} (above 1 means the condition holds)")
    if report.deterministic_margin is not None:
        print(f"deterministic_margin = {report.deterministic_margin:.12g}")
    if report.theorem_margin is not None:
        print(f"theorem_margin = {report.theorem_margin:.12g}")


def _theory_bernoulli(bare, kv) -> None:
    if bare:
        raise UsageError(f"unexpected argument {bare[0]!r}")
    kind = _take(kv, "kind", str, required=False, default="design")
    if kind not in ("design", "regression"):
        raise UsageError(f"kind must be 'design' or 'regression', got {kind!r}")
    data = _take(kv, "data", str)
    el = _take(kv, "l", float)
    mc = _take(kv, "mc", required=False, default=2000)
    seed = _take(kv, "seed", required=False)
    eps = _take(kv, "eps", float, required=False, default=1.0)
    _reject_leftover(kv)
    x = _read_data_matrix(data)
    seed = _resolve_seed(seed, None)
    stream = RngStream(seed, 0)
    if kind == "design":
        bound = bernoulli_bound_design(x, el, mc, stream)
    else:
        bound = bernoulli_bound_regression(x, np.full(x.shape[0], eps), el, mc, stream)
    print(f"bernoulli-bound kind={kind} data={data} l={el:g} mc={mc} seed={seed}")
    print(f"b_estimate = {bound.b_estimate:.12g} "
          f"(mc standard error {bound.mc_standard_error:.3g})")
    print(f"r_value = {bound.r_value:.12g}")
    print(f"u_plus = {bound.u_plus:.12g}")


def _cmd_theory(args) -> int:
    bare, kv = _parse_kv(list(args.params))
    handler = {
        "varL-sparse": _theory_varl_sparse,
        "varL-lowrank": _theory_varl_lowrank,
        "margin": _theory_margin,
        "bernoulli-bound": _theory_bernoulli,
    }[args.subcommand]
    handler(bare, kv)
    return 0


# ---------------------------------------------------------------------------
# validate

def _cmd_validate(args) -> int:
    from . import validation

    level = "full" if args.full else "quick"
    results = validation.run_validation(level)
    print(validation.format_ledger(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
        return code if isinstance(code, int) else 2
    handlers = {
        "simulate": _cmd_simulate,
        "test": _cmd_test,
        "theory": _cmd_theory,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ValueError as e:  # UsageError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
