"""Sequential Bayesian variable selection with anytime-valid model
confidence sets under missing data."""

__version__ = "0.1.0"

from .bayes_lm import (
    GramStats,
    log_bf_null,
    model_r_squared,
    model_sweep,
    posterior_model_probs,
    update_stats,
)
from .data_gen import (
    DGPConfig,
    MissingDataset,
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
    SequencingError,
    ShapeError,
    SizeLimitError,
)
from .experiment import (
    CrossingStats,
    ExperimentConfig,
    MissingnessConfig,
    ReplicationResult,
    aggregate,
    count_crossings,
    default_config,
    run_experiment,
    run_replication,
)
from .imputation import ImputationConfig, ImputedSet, impute
from .inclusion import (
    METHODS,
    InclusionTrajectory,
    ZeroOutResult,
    bvs_inclusion,
    mixed_inclusion,
    smcs_inclusion,
    zero_out,
)
from .model_space import ModelSpace, ModelVector, enumerate_models
from .smcs import (
    EProcessState,
    LossRecord,
    SmcsConfig,
    confidence_set,
    l2_predictive_loss,
    loss_from_log_marginals,
    step,
    step_pairwise,
)

__all__ = [name for name in dir() if not name.startswith("_")]
