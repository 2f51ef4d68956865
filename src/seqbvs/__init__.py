"""Sequential Bayesian variable selection with anytime-valid model
confidence sets under missing data."""

__version__ = "0.1.0"

from .bayes_lm import GramStats, log_bf_null, model_sweep, posterior_model_probs
from .data_gen import (
    DGPConfig,
    MissingDataset,
    MissingnessConfig,
    apply_missingness,
    equicorrelated_cov,
    gen_covariates,
    gen_responses,
)
from .errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    OutputError,
    SeqbvsError,
    ShapeError,
    SizeLimitError,
)
from .experiment import (
    CrossingStats,
    ExperimentConfig,
    ReplicationResult,
    aggregate,
    count_crossings,
    run_experiment,
    run_replication,
)
from .imputation import ImputationConfig, impute
from .inclusion import (
    METHODS,
    InclusionTrajectory,
    bvs_inclusion,
    mixed_inclusion,
    smcs_inclusion,
    zero_out,
)
from .model_space import ModelSpace, ModelVector, enumerate_models
from .smcs import EProcessState, SmcsConfig, loss_from_log_marginals, step

__all__ = [
    "METHODS",
    "ConfigError",
    "CrossingStats",
    "DGPConfig",
    "DataError",
    "EProcessState",
    "ExperimentConfig",
    "GramStats",
    "ImputationConfig",
    "InclusionTrajectory",
    "InsufficientDataError",
    "MissingDataset",
    "MissingnessConfig",
    "ModelSpace",
    "ModelVector",
    "OutputError",
    "ReplicationResult",
    "SeqbvsError",
    "ShapeError",
    "SizeLimitError",
    "SmcsConfig",
    "aggregate",
    "apply_missingness",
    "bvs_inclusion",
    "count_crossings",
    "enumerate_models",
    "equicorrelated_cov",
    "gen_covariates",
    "gen_responses",
    "impute",
    "log_bf_null",
    "loss_from_log_marginals",
    "mixed_inclusion",
    "model_sweep",
    "posterior_model_probs",
    "run_experiment",
    "run_replication",
    "smcs_inclusion",
    "step",
    "zero_out",
]
