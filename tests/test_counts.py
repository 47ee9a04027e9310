"""The one integer rule for a count (``numerics.check_integer``), applied by
every function that reads a count the CLI passes on and by the public
constructors that take one."""

import re

import numpy as np
import pytest

from invartest import cli
from invartest.engine import RandTestConfig
from invartest.experiments import (
    PowerCurve,
    heavy_tail_config,
    lowrank_config,
    regression_config,
    run_experiment,
    sparse_vector_config,
    two_sample_config,
)
from invartest.groups import GroupAction
from invartest.noise import NoiseSpec
from invartest.numerics import RngStream, check_integer, stream_generators
from invartest.theory import (
    ConsistencyInputs,
    bernoulli_bound_design,
    bernoulli_bound_regression,
    tau_star_sparse,
    varL_lowrank_exact,
    varL_sparse,
)

_LOWRANK = dict(s_op=1.0, s_2inf=1.0, t2=1.0)
_ROTATION = dict(s_inf=1.0, s_2=1.0, t2=1.0)

# reader: (a call with the value in the key's place, the key as the
# refusal names it, the least value the key takes)
READERS = {
    "grid_points": (lambda v: two_sample_config(1, grid_points=v), "grid_points", 1),
    "two_sample_n": (lambda v: two_sample_config(1, n=v), "n", 1),
    "two_sample_n2": (lambda v: two_sample_config(1, n2=v), "n2", 1),
    "two_sample_K": (lambda v: two_sample_config(1, K=v), "K", 1),
    "lowrank_n": (lambda v: lowrank_config(1, n=v), "n", 1),
    "lowrank_K": (lambda v: lowrank_config(1, K=v), "K", 1),
    "regression_K": (lambda v: regression_config(1, K=v), "K", 1),
    "sparse_vector_ks": (lambda v: sparse_vector_config(1, ks=(19, v)), "each entry of ks", 1),
    "heavy_tail_ks": (lambda v: heavy_tail_config(1, ks=(19, v)), "each entry of ks", 1),
    "heavy_tail_dfs": (lambda v: heavy_tail_config(1, dfs=(3, v)), "each entry of dfs", 1),
    "varL_sparse_n": (lambda v: varL_sparse(v, 4, 1.0), "n", 1),
    "varL_sparse_p": (lambda v: varL_sparse(5, v, 1.0), "p", 1),
    "tau_star_sparse_n": (lambda v: tau_star_sparse(v, 4), "n", 1),
    "tau_star_sparse_p": (lambda v: tau_star_sparse(5, v), "p", 1),
    "varL_lowrank_exact_n": (lambda v: varL_lowrank_exact(v, 1.0), "n", 1),
    "margin_lowrank_n": (lambda v: ConsistencyInputs("lowrank", **_LOWRANK, n=v, p=3), "n", 1),
    "margin_lowrank_p": (lambda v: ConsistencyInputs("lowrank", **_LOWRANK, n=3, p=v), "p", 1),
    "margin_sparse_rotation_p": (lambda v: ConsistencyInputs("sparse_rotation", **_ROTATION, p=v),
                                 "p", 2),
    "bound_design_mc": (lambda v: bernoulli_bound_design(np.eye(3), 1.0, v, RngStream(1)),
                        "mc", 100),
    "bound_regression_mc": (lambda v: bernoulli_bound_regression(
        np.eye(3), np.ones(3), 1.0, v, RngStream(1)), "mc", 100),
    "cli_flag_seed": (lambda v: cli._resolve_seed(v, None), "seed", 0),
    "cli_config_seed": (lambda v: cli._resolve_seed(None, v), "seed", 0),
    "run_experiment_workers": (lambda v: run_experiment(
        two_sample_config(1, grid_points=1, replicates=1), workers=v), "workers", 1),
    "stream_generators_seed": (lambda v: stream_generators(v, [(0, 0)]), "seed", 0),
    "RandTestConfig_K": (lambda v: RandTestConfig(K=v, alpha=0.05), "K", 1),
    "signflip_rows_n": (lambda v: GroupAction("signflip_rows", n=v), "n", 1),
    "permute_rows_n": (lambda v: GroupAction("permute_rows", n=v), "n", 1),
    "rotate_per_column_n": (lambda v: GroupAction("rotate_per_column", n=v, p=2), "n", 1),
    "rotate_per_column_p": (lambda v: GroupAction("rotate_per_column", n=3, p=v), "p", 1),
    "rotate_full_p": (lambda v: GroupAction("rotate_full", p=v), "p", 1),
    "NoiseSpec_n": (lambda v: NoiseSpec("iid_normal", v, 3), "n", 1),
    "NoiseSpec_p": (lambda v: NoiseSpec("iid_normal", 3, v), "p", 1),
    "PowerCurve_replicates": (lambda v: PowerCurve(
        "two_sample", ("t_test",), (0.0,), [[0]], v, 1), "replicates", 1),
    "PowerCurve_seed": (lambda v: PowerCurve(
        "two_sample", ("t_test",), (0.0,), [[0]], 10, v), "seed", 0),
}

BELOW = "below the bound"


@pytest.mark.parametrize("value", [True, 2.5, "3", BELOW])
@pytest.mark.parametrize("reader", list(READERS))
def test_reader_refuses_a_non_count(reader, value):
    call, key, low = READERS[reader]
    value = low - 1 if value == BELOW else value
    what = "a non-negative integer" if low == 0 else f"an integer >= {low}"
    with pytest.raises(ValueError, match=f"^{key} must be {what}, got {re.escape(repr(value))}$"):
        call(value)


def test_rule():
    check_integer("n", np.uint8(0), 0)
    check_integer("n", 2 ** 70, 1)
    for value, low, message in ((np.True_, 0, "n must be a non-negative integer, got np.True_"),
                                (4, 5, "n must be an integer >= 5, got 4"),
                                (3.0, 1, "n must be an integer >= 1, got 3.0"),
                                (None, 1, "n must be an integer >= 1, got None")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_integer("n", value, low)
