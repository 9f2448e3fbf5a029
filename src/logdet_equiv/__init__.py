"""Deterministic equivalents for log-determinants of noisily perturbed matrices.

The library validates, numerically and at desk scale, the equivalence

    (1/N) log |det (A + delta G)|  ~  (1/N) sum_{j : s_j > alpha} log s_j

for non-normal matrices ``A`` with singular values ``s_j``, small noise
amplitudes ``delta``, and random ``G`` — including the full block-matrix
(Grushin) construction that drives the argument, exposed as executable,
checkable algebra rather than prose.
"""

from .linalg import (
    DimensionError,
    NumericalError,
    SvdFactorization,
    as_matrix,
    log_abs_det,
    operator_norm,
    singular_values,
    smallest_singular_value,
    svd_paired,
    svd_tolerance,
)
from .grushin import (
    CheckRecord,
    ContractionError,
    DeflationError,
    GrushinSystem,
    InverseBlocks,
    PerturbedSystem,
    assemble,
    assemble_perturbed,
    build_grushin,
    default_alpha,
    grushin_det_identity,
    interlacing_check,
    invert_perturbed,
    inverse_blocks,
    neumann_tail_bound,
    norm_estimates,
    perturbation_drift_bound,
    perturbed_norm_estimates,
    schur_logdet,
)
from .equivalents import (
    CONVENTIONS,
    EquivalenceParams,
    ErrorBudget,
    ParameterError,
    admissible_delta_range,
    auto_alpha,
    bpz_equivalent,
    count_below,
    deterministic_equivalent,
    error_budget,
    n_star,
)
from .noise import (
    NOISE_KINDS,
    NormGrowthFit,
    ProbeResult,
    anti_concentration_probe,
    fit_growth,
    markov_tail_check,
    norm_growth_probe,
    sample,
    substream_seed,
)
from .ensembles import (
    MATRIX_KINDS,
    MatrixSpec,
    known_singvals,
    norm_cap,
    parse_matrix_arg,
    read_matrix_csv,
    realize,
    spectrum_of,
    svd_floor,
    write_matrix_csv,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    FieldPoint,
    ParamConfig,
    TrialRecord,
    ZGrid,
    config_from_dict,
    config_to_dict,
    log_potential_field,
    read_config,
    run_grushin_suite,
    run_theorem1,
    run_theorem2,
    write_config,
    write_results,
)

__version__ = "0.1.0"
