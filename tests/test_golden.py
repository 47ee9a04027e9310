"""Golden outputs: the exact bytes of a small power study per scenario, the
exact stdout of ``invartest test`` per group kind, and one engine outcome.

Any change to how streams are consumed, to a quantile function or to a
decision rule shows up here. A change that alters these bytes on purpose
records new digests and says so in CHANGES.md.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import invartest
from invartest import cli
from invartest import experiments as exp
from invartest.engine import RandTestConfig, run_randomization_test
from invartest.groups import GroupAction
from invartest.numerics import RngStream
from invartest.statistics import TestStatistic, make_statistic

# small fixed configs whose grids sit where the power curves rise, so that
# most cells are neither 0 nor all replicates
GOLDEN_CONFIGS = {
    "sparse_vector": lambda: replace(
        exp.sparse_vector_config(3101, replicates=100), grid=(0.0, 0.4, 0.6, 0.8)),
    "heavy_tail": lambda: replace(
        exp.heavy_tail_config(3102, replicates=100), grid=(0.0, 0.4, 0.6, 0.8)),
    "two_sample": lambda: replace(
        exp.two_sample_config(3103, replicates=200), grid=(0.0, 0.5, 1.0, 1.5)),
    "lowrank": lambda: replace(
        exp.lowrank_config(3104, replicates=40), grid=(0.0, 1.0, 2.0, 3.0)),
    # k = 90 of K = 99 at alpha 0.1, so an accept needs ten values at or
    # above t0 and the orbit stops after several blocks, not after one value
    "lowrank_K99": lambda: replace(
        exp.lowrank_config(3108, n=12, p=12, replicates=40, alpha=0.1, K=99),
        grid=(0.0, 1.0, 2.0, 3.0)),
    "regression": lambda: replace(
        exp.regression_config(3105, replicates=100), grid=(0.0, 0.5, 1.0, 1.5)),
    # far grids, where lowrank certifies images from the Gram of their raw
    # draw and scales only those that certificate misses; the digests were
    # recorded on the code that formed every image
    "lowrank_far": lambda: replace(
        exp.lowrank_config(3113, replicates=40), grid=(0.0, 4.0, 12.0, 40.0)),
    "lowrank_far_wide": lambda: replace(
        exp.lowrank_config(3114, n=32, p=128, replicates=40), grid=(0.0, 5.0, 6.0, 40.0)),
    "lowrank_far_tall": lambda: replace(
        exp.lowrank_config(3115, n=128, p=32, replicates=40), grid=(0.0, 1.5, 2.5, 40.0)),
    # near the null, where most sparse rotation orbits stop after a few
    # values and a unit after a reject reads its orbit in one block; the
    # digest was recorded on the code that drew all K values
    "sparse_null": lambda: replace(
        exp.sparse_vector_config(3116, ks=(19, 99), replicates=200), grid=(0.0, 0.3)),
}

# sha256 of the CSV; for regression, of the data rows only (header included)
GOLDEN_SHA256 = {
    "sparse_vector": "5a18e190e0b15f5aba3b5baab7d482586d76ac47da1b72c77f23667400398504",
    "heavy_tail": "1a576dc2963210e1c3c21a07e528534ce9b3779f91913cc929b325976e5f1419",
    "two_sample": "d6e09dc9b61ad28a40eb70801e9dd61e194c358896dcee41ba85d64c058c3dbd",
    "lowrank": "a0705e64325f79986c524422d37e0134161e4be7196509bc115a7d603b5cdbc6",
    "lowrank_K99": "2b258460c4b0c919e83ecb58044fc30ef26117b0631e0af31225034bc73bf287",
    "regression": "e9cb35b5098234f7e51b23d3538c731fc47bcb3c6e805982b09c8698f618966b",
    "lowrank_far": "6d0bd7e75578249d5df536075db3929411a0a99e346c1c9f6c43825bd0b52d58",
    "lowrank_far_wide": "93e31a4ff963f9edb96761cac154893de27cd6e57c04d767c6c5ac108cbf96d3",
    "lowrank_far_tall": "b587bfe249a30ef3d33d92ccb5c3a9b160d08e8f954bd7010c35e794b90ef905",
    "sparse_null": "9740bc5650ea14937ca48dfb7cdcd3da68583c83089b1a2db2f55d1df2695115",
}

# Monte Carlo means summed by BLAS, so pinned to a relative tolerance
GOLDEN_REGRESSION_NOTES = {
    "margin_tau_top": -6.1851066497584934,
    "deterministic_margin_tau_top": 0.7504995300740481,
    "tau_top": 1.5,
    "u_plus_design": 9.24131981688015,
    "t_bound": 0.9993344032154154,
    "b_design": 2.4420424838420165,
    "r_design": 2.5032286814473705,
    "b_noise": 0.4091650813264723,
    "r_noise": 0.21727732244194703,
    "l": 2.716203031481239,
    "mc": 2000,
}


def _data_rows(csv: str) -> str:
    return "".join(ln + "\n" for ln in csv.splitlines() if not ln.startswith("#"))


def csv_digest(scenario: str) -> str:
    csv = exp.run_experiment(GOLDEN_CONFIGS[scenario]()).to_csv()
    if scenario == "regression":
        csv = _data_rows(csv)
    return hashlib.sha256(csv.encode()).hexdigest()


def digests() -> dict:
    return {s: csv_digest(s) for s in GOLDEN_CONFIGS}


def _fresh_interpreter_env(threads: str, **extra) -> dict:
    """The environment of a fresh interpreter, which imports this invartest
    and these test modules and reads its OpenBLAS thread count at load."""
    paths = [os.path.dirname(os.path.dirname(invartest.__file__)),
             os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, paths)), **extra)


def _in_fresh_interpreter(call: str, env: dict, *args):
    """``test_golden.<call>(*args)`` in a fresh interpreter with environment
    ``env``, through JSON, and that interpreter's stderr."""
    script = ("import json, sys, test_golden as g; "
              f"print(json.dumps(g.{call}(*json.loads(sys.argv[1]))))")
    result = subprocess.run([sys.executable, "-c", script, json.dumps(args)], env=env,
                            capture_output=True, text=True, check=True, timeout=600)
    return json.loads(result.stdout), result.stderr


class TestGoldenPowerCurves:
    @pytest.mark.parametrize("scenario", sorted(GOLDEN_CONFIGS))
    def test_csv_digest(self, scenario):
        assert csv_digest(scenario) == GOLDEN_SHA256[scenario]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_digests_do_not_depend_on_blas_threads(self, threads):
        assert _in_fresh_interpreter("digests", _fresh_interpreter_env(threads))[0] == GOLDEN_SHA256

    def test_regression_notes(self):
        notes = exp.run_experiment(GOLDEN_CONFIGS["regression"]()).notes
        assert notes.keys() == GOLDEN_REGRESSION_NOTES.keys()
        for key, value in GOLDEN_REGRESSION_NOTES.items():
            assert notes[key] == pytest.approx(value, rel=1e-12), key


_TEST_PREAMBLE = "data 10x4, statistic {stat}, group {group}, K=19, alpha=0.05, seed 3107\n"
_K_LINE = "k = 19 (rejection needs at least k of the K+1 values strictly below t0)\n"

# the opnorm t0 that invartest test prints is the root of LAPACK's top
# eigenvalue, whose last bits depend on the OpenBLAS kernel: this value under
# SkylakeX, 5.5326327847000014 under Haswell, Sandybridge and Nehalem. So that
# line is checked against the opnorm statistic computed where it was printed,
# and against this value within batch_opnorm's accuracy, (n p + m^2 + 2) u at
# 10x4 (statistics.sphere_opnorm_against derives it); every other line is exact
GOLDEN_OPNORM_T0 = 5.5326327847000032
OPNORM_T0_RTOL = (10 * 4 + 4 ** 2 + 2) * 2.0 ** -53

GOLDEN_TEST_STDOUT = {
    "signflip": (
        "colmean_linf",
        _TEST_PREAMBLE.format(stat="colmean_linf", group="signflip")
        + "t0 = 1.1290175013620352\n" + _K_LINE
        + "reject = False\np_value = 0.10000000000000001\n",
    ),
    "permutation": (
        "twosample_diff",
        _TEST_PREAMBLE.format(stat="twosample_diff_linf", group="permutation")
        + "t0 = 2.1009626907921075\n" + _K_LINE
        + "reject = True\np_value = 0.050000000000000003\n",
    ),
    "rotation": (
        "colmean_linf",
        _TEST_PREAMBLE.format(stat="colmean_linf", group="rotation")
        + "t0 = 1.1290175013620352\n" + _K_LINE
        + "reject = False\np_value = 0.10000000000000001\n",
    ),
    "rotation_per_column": (
        "opnorm",
        _TEST_PREAMBLE.format(stat="opnorm", group="rotation_per_column")
        + "t0 = 5.5326327847000032\n" + _K_LINE
        + "reject = False\np_value = 0.69999999999999996\n",
    ),
}


# colmean_linf under rotate_full on a 4x10 matrix rotates the column sums
# (uniform points on a sphere of R^10); the pin below on the same matrix
# takes the Stiefel path
GOLDEN_WIDE_ROTATION_STDOUT = (
    "data 4x10, statistic colmean_linf, group rotation, K=19, alpha=0.05, seed 3110\n"
    "t0 = 1.7888045613273236\n" + _K_LINE
    + "reject = True\np_value = 0.050000000000000003\n"
)


def _write_matrix(path, data):
    path.write_text(
        "".join(",".join(repr(float(v)) for v in row) + "\n" for row in data),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def golden_matrix(tmp_path):
    """A 10x4 Gaussian matrix with a 2.5 shift on the first half of column 0."""
    data = np.random.Generator(np.random.PCG64(3106)).standard_normal((10, 4))
    data[:5, 0] += 2.5
    return _write_matrix(tmp_path / "data.csv", data)


@pytest.fixture
def wide_matrix(tmp_path):
    """A 4x10 Gaussian matrix with a 1.0 shift on column 0."""
    data = np.random.Generator(np.random.PCG64(3109)).standard_normal((4, 10))
    data[:, 0] += 1.0
    return _write_matrix(tmp_path / "wide.csv", data)


def _argv(path, stat, group, seed, K=19):
    return ["test", "--data", str(path), "--stat", stat, "--group", group,
            "--K", str(K), "--alpha", "0.05", "--seed", str(seed)]


def _run_test(path, stat, group, seed, capsys):
    rc = cli.main(_argv(path, stat, group, seed))
    captured = capsys.readouterr()
    assert rc == 0
    # stderr holds the two orbit diagnostic lines (ties; min, median, max),
    # no warning, and no group-order line: every group here exceeds K+1
    assert [line.partition(":")[0] for line in captured.err.splitlines()] == ["orbit"] * 2
    return captured.out


def opnorm_t0(path) -> float:
    data = cli._read_data_matrix(str(path))
    return make_statistic("opnorm", sample_shape=data.shape)(data)


def run_command(argv) -> tuple[str, float | None]:
    """The stdout of ``invartest test`` on argv and, for the opnorm
    statistic, its value on the data, both from this interpreter."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    opnorm = argv[argv.index("--stat") + 1] == "opnorm"
    return out.getvalue(), opnorm_t0(argv[argv.index("--data") + 1]) if opnorm else None


def run_commands(runs) -> list:
    return [run_command(argv) for argv in runs]


def golden_outputs(data, wide) -> tuple[dict, dict]:
    """The ten digests, and ``run_command`` of each of the five pinned
    commands on the matrices at paths ``data`` and ``wide``."""
    runs = {group: run_command(_argv(data, stat, group, 3107))
            for group, (stat, _) in GOLDEN_TEST_STDOUT.items()}
    runs["wide_rotation"] = run_command(_argv(wide, "colmean_linf", "rotation", 3110))
    return digests(), runs


def assert_pinned(out: str, expected: str, t0: float | None = None) -> None:
    """``out`` is ``expected``; for opnorm (``t0`` its value, from the
    interpreter that printed ``out``) the t0 line is instead t0 bitwise, and
    within OPNORM_T0_RTOL of GOLDEN_OPNORM_T0."""
    if t0 is None:
        assert out == expected
        return
    lines, pinned = out.splitlines(keepends=True), expected.splitlines(keepends=True)
    assert lines[0] == pinned[0] and lines[2:] == pinned[2:]
    assert pinned[1] == f"t0 = {GOLDEN_OPNORM_T0:.17g}\n"
    assert lines[1] == f"t0 = {t0:.17g}\n"
    assert abs(t0 - GOLDEN_OPNORM_T0) <= OPNORM_T0_RTOL * GOLDEN_OPNORM_T0


class TestGoldenTestCommand:
    @pytest.mark.parametrize("group", sorted(GOLDEN_TEST_STDOUT))
    def test_stdout(self, group, golden_matrix, capsys):
        stat, expected = GOLDEN_TEST_STDOUT[group]
        t0 = opnorm_t0(golden_matrix) if stat == "opnorm" else None
        assert_pinned(_run_test(golden_matrix, stat, group, 3107, capsys), expected, t0)

    def test_wide_rotation_stdout(self, wide_matrix, capsys):
        out = _run_test(wide_matrix, "colmean_linf", "rotation", 3110, capsys)
        assert out == GOLDEN_WIDE_ROTATION_STDOUT

    def test_rotation_per_column_does_not_depend_on_blas_threads(self, golden_matrix,
                                                                 tmp_path):
        # opnorm forms its Gram matrices with BLAS; a 32x100 K=99 test
        # evaluates them in blocks of 10 images
        data = np.random.Generator(np.random.PCG64(3112)).standard_normal((32, 100))
        large = _write_matrix(tmp_path / "large.csv", data)
        runs = [_argv(path, "opnorm", "rotation_per_column", 3107, K)
                for path, K in ((golden_matrix, 19), (large, 99))]
        outs = [_in_fresh_interpreter("run_commands", _fresh_interpreter_env(threads), runs)[0]
                for threads in ("1", "2")]
        (out, t0), _ = outs[0]
        assert_pinned(out, GOLDEN_TEST_STDOUT["rotation_per_column"][1], t0)
        assert outs[1] == outs[0]


# OpenBLAS core types and the CPU flag each needs, newest first
_CORETYPES = (("SkylakeX", "avx512f"), ("Haswell", "avx2"), ("Sandybridge", "avx"),
              ("Nehalem", "sse4_2"))


def _named_cores(stderr: str) -> list[str]:
    """The core each OpenBLAS loaded under OPENBLAS_VERBOSE=2 names: NumPy
    and SciPy bundle one each, and each prints one ``Core:`` line."""
    return [line.partition(":")[2].strip() for line in stderr.splitlines()
            if line.startswith("Core:")]


@functools.cache
def _host() -> tuple[str, set[str], set[str]]:
    """Why no core type can be forced here (empty if one can), the cores
    OpenBLAS picks for this CPU, and the CPU's flags."""
    if sys.platform != "linux" or platform.machine() != "x86_64":
        return "OPENBLAS_CORETYPE is checked on Linux x86-64 only", set(), set()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        return f"NumPy's BLAS is {blas}, not OpenBLAS", set(), set()
    with open("/proc/cpuinfo") as info:
        flags = {flag for line in info if line.startswith("flags")
                 for flag in line.split(":", 1)[1].split()}
    probe = subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                           env=dict(os.environ, OPENBLAS_VERBOSE="2"),
                           capture_output=True, text=True, check=True, timeout=600)
    return "", set(_named_cores(probe.stderr)), flags


def _skip_reason(core: str) -> str:
    """Empty if ``core`` is one of the first two core types of _CORETYPES
    that this CPU can run, other than the one OpenBLAS picks for it."""
    why, host, flags = _host()
    needs = dict(_CORETYPES)[core]
    if why:
        return why
    if core in host:
        return f"{core} is the core OpenBLAS picks here, which every other test runs"
    if needs not in flags:
        return f"this CPU lacks {needs}, which {core} needs"
    others = [c for c, flag in _CORETYPES if flag in flags and c not in host]
    return "" if core in others[:2] else f"two other core types run before {core}"


class TestGoldenAcrossBlasKernels:
    """The ten digests and the five stdout pins under OpenBLAS kernels this
    CPU can run other than its own, forced per process by
    OPENBLAS_CORETYPE. The kernels run are the first two of _CORETYPES the
    CPU has, whatever they print."""

    @pytest.mark.parametrize("core", [core for core, _ in _CORETYPES])
    def test_pins_hold_under_another_kernel(self, core, golden_matrix, wide_matrix):
        why = _skip_reason(core)
        if why:
            pytest.skip(why)
        env = _fresh_interpreter_env("1", OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
        (sha256, runs), err = _in_fresh_interpreter("golden_outputs", env, str(golden_matrix),
                                                    str(wide_matrix))
        if set(_named_cores(err)) != {core}:
            pytest.skip(f"OPENBLAS_CORETYPE={core} gave the cores {_named_cores(err)}")
        assert sha256 == GOLDEN_SHA256
        for group, (_, expected) in GOLDEN_TEST_STDOUT.items():
            out, t0 = runs[group]
            assert_pinned(out, expected, t0)
        assert_pinned(runs["wide_rotation"][0], GOLDEN_WIDE_ROTATION_STDOUT)


# rotate_full on a 4x10 matrix with a statistic that declares no summary,
# so the engine draws Stiefel frames of R^10 and evaluates full images:
# (t0, k, reject, p-value, sha256 of the K randomized values' bytes)
GOLDEN_STIEFEL_OUTCOME = (
    2.01413936527815, 19, False, 0.15,
    "fd551064cd7f40ada09c83e0e5cafbc4742d90cdeadcee72481c192a8b9f28f3",
)


class TestGoldenEngine:
    def test_stiefel_outcome(self):
        x = np.random.Generator(np.random.PCG64(3109)).standard_normal((4, 10))
        x[:, 0] += 1.0
        corner = TestStatistic("abs_x00", 1.0, lambda ys: np.abs(ys[:, 0, 0]), (4, 10))
        out = run_randomization_test(x, corner, GroupAction("rotate_full", p=10),
                                     RandTestConfig(19, 0.05), RngStream(3111))
        digest = hashlib.sha256(out.randomized.tobytes()).hexdigest()
        assert (out.t0, out.k, out.reject, out.p_value, digest) == GOLDEN_STIEFEL_OUTCOME
