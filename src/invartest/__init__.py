"""Group-invariance randomization tests for signal-plus-noise models.

The package provides exact-level randomization tests built from sampled
group transforms (sign flips, permutations, rotations), Monte Carlo power
experiments over signal grids, and the closed-form quantities behind the
tests' consistency conditions and minimax detection rates.
"""

from .engine import (
    RandTestConfig,
    RandTestOutcome,
    brute_force_full_group_test,
    order_index,
    project_out_nuisance,
    run_randomization_test,
)
from .experiments import (
    PowerCurve,
    ScenarioConfig,
    heavy_tail_config,
    lowrank_config,
    regression_config,
    run_experiment,
    sparse_vector_config,
    two_sample_config,
    two_sample_t_test,
)
from .groups import GroupAction
from .noise import NoiseSpec, sample_noise
from .numerics import (
    RngStream,
    normal_cdf,
    normal_quantile,
    operator_norm,
    pseudo_inverse,
    qr_orthonormalize,
    student_t_quantile,
)
from .statistics import (
    TestStatistic,
    check_psi_subadditive,
    make_statistic,
    shipped_statistics,
)
from .theory import (
    BernoulliBound,
    ConsistencyInputs,
    MarginReport,
    bernoulli_bound_design,
    bernoulli_bound_regression,
    chi2_shift_gaussian,
    consistency_margin,
    tau_star_sparse,
    varL_lowrank_exact,
    varL_sparse,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliBound",
    "ConsistencyInputs",
    "GroupAction",
    "MarginReport",
    "NoiseSpec",
    "PowerCurve",
    "RandTestConfig",
    "RandTestOutcome",
    "RngStream",
    "ScenarioConfig",
    "TestStatistic",
    "bernoulli_bound_design",
    "bernoulli_bound_regression",
    "brute_force_full_group_test",
    "check_psi_subadditive",
    "chi2_shift_gaussian",
    "consistency_margin",
    "heavy_tail_config",
    "lowrank_config",
    "make_statistic",
    "normal_cdf",
    "normal_quantile",
    "operator_norm",
    "order_index",
    "project_out_nuisance",
    "pseudo_inverse",
    "qr_orthonormalize",
    "regression_config",
    "run_experiment",
    "run_randomization_test",
    "sample_noise",
    "shipped_statistics",
    "sparse_vector_config",
    "student_t_quantile",
    "tau_star_sparse",
    "two_sample_config",
    "two_sample_t_test",
    "varL_lowrank_exact",
    "varL_sparse",
]
