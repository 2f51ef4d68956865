"""End-to-end sequential study: generate, mask, impute, sweep, track sets.

One replication draws a dataset of size n_max, masks covariate cells once,
and then replays the stream: for every n from n_min to n_max it re-imputes
the first n rows from scratch (M completions; consecutive sizes share one
stacked impute call, each on its own stream), sweeps all models on the M
completions, and hands the (M, m) log-BF table to one step function,
advance_step.  The step pools the table once: the pooled vector gives both
the posterior and the mean pairwise log-Bayes-factor losses that advance
the E-processes, whose state is all a step carries to the next (L is
linear, so loss_mode "increment" telescopes to L(v_t) less that state's
running loss sum).  It returns the four covariate inclusion vectors and the
set size.  Time is indexed t = n - n_min + 1.

Replications are deterministic given (base_seed, rep_index): every random
stream is derived from numpy's SeedSequence([base_seed, rep_index, tag]),
with tags 1 (covariates), 2 (noise), 3 (mask) and 1000 + n (imputation at
sample size n), so reps and time steps are reproducible individually and
independent of scheduling.  SEED_RULE states the rule from those tags for
the manifest.

Crossing counts use the tie rule "prob == 0.5 counts as active" and compare
each entry with the one before it.  NaN (an empty confidence set, smcs
method only) can only end a series, since an emptied set stays empty: its
entries host no event, and a probability after a NaN is refused.  The crossing
kernel works along axis 0 of a whole stack at a time: aggregate takes a
whole run's per-rep counts and cumulative curves from one call on a
(T, reps, methods, p) stack.  A time step's M completions make one stacked
GramStats for one batched model_sweep.  ReplicationResult holds exactly what
trajectories.csv holds and checks every rule of a record, whether run, read
back from the CSV or built by hand; check_run_records checks a list of them
(one (T, p), no repeated rep id) for aggregate and the CSV writer.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .bayes_lm import (
    MODEL_PRIORS,
    POOLING_RULES,
    GramStats,
    model_sweep,
    posterior_from_imputations,
)
from .data_gen import (
    DGPConfig,
    MissingDataset,
    apply_missingness,
    gen_covariates,
    gen_responses,
    validate_missingness,
)
from .errors import ConfigError, DataError, InsufficientDataError
from .imputation import ImputationConfig, impute, min_size, stack_sizes
from .inclusion import (
    METHODS,
    InclusionTrajectory,
    bvs_inclusion,
    mixed_inclusion,
    smcs_inclusion,
    zero_out,
)
from .model_space import ModelSpace, enumerate_models
from .smcs import EProcessState, SmcsConfig, loss_from_log_marginals, step

log = logging.getLogger(__name__)

_STREAM_COVARIATES = 1
_STREAM_NOISE = 2
_STREAM_MASK = 3
_STREAM_IMPUTE_BASE = 1000
SEED_RULE = (
    f"SeedSequence([base_seed, rep_index, tag]); tags: {_STREAM_COVARIATES} covariates, "
    f"{_STREAM_NOISE} noise, {_STREAM_MASK} mask, {_STREAM_IMPUTE_BASE}+n imputation at sample size n"
)

LOSS_MODES = ("cumulative", "increment")
G_RULES = ("unit-info",)

PROFILES = {"desk": {"reps": 20, "M": 10}, "full": {"reps": 100, "M": 50}}

# rounding slack allowed outside [0, 1] for a probability
PROB_SLACK = 1e-12


@dataclass
class MissingnessConfig:
    rate: float = 0.4
    mechanism: str = "mcar"

    def __post_init__(self) -> None:
        validate_missingness(self.rate, self.mechanism)


@dataclass
class ExperimentConfig:
    reps: int = PROFILES["desk"]["reps"]
    n_min: int = 19
    n_max: int = 100
    dgp: DGPConfig = field(default_factory=DGPConfig)
    imp: ImputationConfig = field(default_factory=lambda: ImputationConfig(M=PROFILES["desk"]["M"]))
    smcs: SmcsConfig = field(default_factory=SmcsConfig)
    missing: MissingnessConfig = field(default_factory=MissingnessConfig)
    g_rule: str = field(default="unit-info", init=False)  # g = n; recorded in the manifest, not a key
    model_prior: str = "uniform"
    base_seed: int = 0
    loss_mode: str = "cumulative"
    pooling: str = "geometric"

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0 (a SeedSequence entropy), got {self.base_seed}")
        if not self.n_min < self.n_max:
            raise ConfigError(f"need n_min < n_max, got {self.n_min} >= {self.n_max}")
        floor = min_size(self.dgp.p)
        if self.n_min < floor:
            raise ConfigError(f"n_min={self.n_min} is below the imputation minimum {floor} at p={self.dgp.p}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if self.pooling not in POOLING_RULES:
            raise ConfigError(f"pooling must be one of {POOLING_RULES}, got {self.pooling!r}")
        if self.model_prior not in MODEL_PRIORS:
            raise ConfigError(f"model_prior must be one of {MODEL_PRIORS}, got {self.model_prior!r}")

    @property
    def t_max(self) -> int:
        return self.n_max - self.n_min + 1


def default_config(profile: str = "desk") -> ExperimentConfig:
    """The paper-style setup at the given profile (desk: 20 reps, M=10)."""
    if profile not in PROFILES:
        raise ConfigError(f"profile must be one of {tuple(PROFILES)}, got {profile!r}")
    sizes = PROFILES[profile]
    return ExperimentConfig(reps=sizes["reps"], imp=ImputationConfig(M=sizes["M"]))


def g_for_n(rule: str, n: int) -> float:
    """Prior scale for sample size n: 'unit-info' is Zellner's g = n, model_sweep's default."""
    if rule not in G_RULES:
        raise ConfigError(f"g_rule must be one of {G_RULES}, got {rule!r}")
    return float(n)


def stream_rng(base_seed: int, rep_index: int, tag: int) -> np.random.Generator:
    """Named random stream under the documented splittable-seed rule."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, rep_index, tag]))


@dataclass
class ReplicationResult:
    """One replication as trajectories.csv holds it, checked on construction.

    One InclusionTrajectory per METHODS key and of that method, all (T, p)
    with T = n_max - n_min + 1, and (T,) integer set sizes in 0..2**p that
    never grow.  Probabilities are NaN or within PROB_SLACK of [0, 1]; NaN
    stands only in smcs, in every covariate of exactly the rows of set size
    0.  A broken rule raises DataError naming it, the rep and the t.  A passed
    crossings, final_included or had_nan is checked against the trajectories
    and not stored.
    """

    rep: int
    n_min: int
    n_max: int
    trajectories: dict[str, InclusionTrajectory]
    set_sizes: np.ndarray  # (T,) size of the confidence set per time index
    _: KW_ONLY
    crossings: InitVar[dict[str, np.ndarray] | None] = None  # per method, (p,) ints
    final_included: InitVar[dict[str, np.ndarray] | None] = None  # per method, (p,) bools at t_max
    had_nan: InitVar[dict[str, bool] | None] = None  # a trailing NaN run of an emptied set (smcs only)

    def __post_init__(self, crossings, final_included, had_nan) -> None:
        t_max = self.n_max - self.n_min + 1

        def broken(rule: str, t: object = f"1..{t_max}") -> DataError:
            return DataError(f"a replication record has {rule} at rep {self.rep}, t {t}")

        methods = {key: traj.method for key, traj in self.trajectories.items()}
        if methods != dict(zip(METHODS, METHODS)):
            raise broken(f"trajectories of methods {methods}, not each of {METHODS} under its own name")
        shapes = {traj.probs.shape for traj in self.trajectories.values()}
        shape = min(shapes)
        if len(shapes) > 1 or len(shape) != 2 or shape[0] != t_max:
            raise broken(f"trajectories of shapes {sorted(shapes)}, not one (T, p) with T = n_max - n_min + 1")
        self.set_sizes = sizes = np.asarray(self.set_sizes)
        if sizes.shape != (t_max,) or sizes.dtype.kind not in "iu":
            raise broken(f"set sizes of {sizes.dtype} {sizes.shape}, not (T,) integers")
        stack = np.stack([self.trajectories[meth].probs for meth in METHODS], axis=1)  # (T, methods, p)
        outside = (stack < -PROB_SLACK) | (stack > 1.0 + PROB_SLACK)  # ±inf is outside too
        # NaN is wanted exactly in the smcs rows of an empty set
        misplaced = np.isnan(stack) != ((sizes == 0)[:, None, None] & (np.array(METHODS) == "smcs")[:, None])
        nan_rules = [f"NaN in {meth}" for meth in METHODS]
        nan_rules[METHODS.index("smcs")] = "an smcs NaN pattern that disagrees with set_size == 0"
        m = 2 ** shape[1]
        # (T, methods or 1, p or 1) masks, one rule per method; only a broken one is reduced to its first method, then t
        for bad, rules in (
            (outside, [f"a probability outside [0, 1] in {meth}" for meth in METHODS]),
            (misplaced, nan_rules),
            (((sizes < 0) | (sizes > m))[:, None, None], [f"a set size outside 0..{m}"]),
            ((np.diff(sizes, prepend=sizes[:1]) > 0)[:, None, None], ["a set size that grows with t"]),
        ):
            if bad.any():
                i, t = np.argwhere(bad.any(axis=2).T)[0]
                raise broken(rules[i], t + 1)
        for name, given, derive in (
            ("crossings", crossings, lambda: count_crossings(stack)),
            ("final_included", final_included, lambda: stack[-1] >= 0.5),
            # NaN can only end a series, so a column with NaN has it in the last row
            ("had_nan", had_nan, lambda: np.isnan(stack[-1]).any(axis=1).tolist()),
        ):
            if given is not None and not all(np.array_equal(given.get(k), v) for k, v in zip(METHODS, derive())):
                raise broken(f"{name} that disagree with its trajectories")


@dataclass
class CrossingStats:
    """Aggregates over replications in the shapes of the report tables."""

    reps: int
    p: int
    t_max: int
    mean_crossings: dict[str, np.ndarray]  # per method, (p,)
    final_freq: dict[str, np.ndarray]  # per method, (p,)
    total_mean: dict[str, float]  # mean over reps of summed crossings
    total_var: dict[str, float]  # sample variance of summed crossings
    cum_mean: dict[str, np.ndarray]  # (T,) mean cumulative total crossings
    cum_sd: dict[str, np.ndarray]  # (T,) sd of cumulative total crossings


def crossing_events(probs: np.ndarray) -> np.ndarray:
    """Crossing indicators along axis 0 of a (T, ...) probability array.

    Each trailing position (a column) is its own series over t.  side(t) is
    active iff prob >= 0.5; entry t is 1 when it is not NaN and its side
    differs from the side of entry t - 1.  A column's NaN entries (the smcs
    rows of an emptied set) must form a trailing run, as an emptied set
    stays empty: they host no event, and a probability after a NaN raises
    DataError.  So entry t - 1 of a valid entry t is valid too.  Returns
    int64 of the input's shape.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim == 0:
        raise DataError("a series needs a time axis")
    if probs.size == 0:
        raise DataError("cannot count crossings of an empty series")
    nan = np.isnan(probs)
    if np.any(nan[:-1] & ~nan[1:]):
        raise DataError("a probability follows a NaN in its series; NaN may only end a series")
    side = probs >= 0.5
    changed = np.zeros(probs.shape, dtype=bool)
    changed[1:] = side[1:] != side[:-1]
    return (changed & ~nan).astype(np.int64)


def count_crossings(probs: np.ndarray) -> int | np.ndarray:
    """0.5-threshold side changes: an int for a (T,) series, int64 of the trailing shape otherwise."""
    counts = crossing_events(probs).sum(axis=0)
    return int(counts) if counts.ndim == 0 else counts


def _imputed_stream(data: MissingDataset, config: ExperimentConfig, rep_index: int):
    """The GramStats of each size's M completions, n = n_min..n_max in order (stats.n is n).

    A stack of sizes is imputed per call, and each size's stats are formed
    while the stack is alive.  Only the stats outlive it, and their list is
    dropped before the next call builds its stack.
    """
    sizes = range(config.n_min, config.n_max + 1)
    per_call = stack_sizes(config.n_max, config.imp.M, config.dgp.p)
    for first in range(0, len(sizes), per_call):
        chunk = sizes[first : first + per_call]
        streams = {n: stream_rng(config.base_seed, rep_index, _STREAM_IMPUTE_BASE + n) for n in chunk}
        try:
            stacked = impute(data, config.imp, streams)
        except InsufficientDataError as exc:
            # the row and observed-cell counts only grow with n, so only the first call, at n_min, can fail
            raise ConfigError(f"imputation infeasible at n_min={config.n_min} ({exc}); increase n_min") from exc
        stats = [GramStats.from_data(completions, data.y[:n]) for n, completions in zip(chunk, stacked)]
        del stacked
        yield from stats
        del stats


def advance_step(
    eprocess: EProcessState, tables: np.ndarray, config: ExperimentConfig, space: ModelSpace
) -> tuple[EProcessState, dict[str, np.ndarray], int]:
    """One time step from the (M, m) per-imputation log-BF table at n.

    Returns the new state, each method's (p,) inclusion probabilities and
    the set size.  The table is pooled once; the pooled vector drives both
    the posterior (bvs, zero_out, mixed) and the mean pairwise loss
    L(pooled) of the E-processes.  Under loss_mode "increment" the step
    takes L(pooled) less the running loss sum, which is L of the change
    since the previous step because L is linear.
    """
    pooled, post = posterior_from_imputations(tables, space, config.model_prior, config.pooling)
    loss = loss_from_log_marginals(pooled)
    if config.loss_mode == "increment":
        loss -= eprocess.cum_losses
    eprocess = step(eprocess, loss, config.smcs)
    set_size = int(np.count_nonzero(eprocess.member))
    p_bvs = bvs_inclusion(post, space)
    p_smcs = smcs_inclusion(eprocess.member, space)
    p_zero_out = zero_out(post, eprocess.member, space).probs
    p_mixed = mixed_inclusion(p_bvs, p_smcs, set_size, space.m)
    probs = dict(zip(METHODS, (p_bvs, p_smcs, p_zero_out, p_mixed)))
    return eprocess, probs, set_size


def run_replication(config: ExperimentConfig, rep_index: int) -> ReplicationResult:
    """One full sequential pass; deterministic given (base_seed, rep_index).

    Each size's GramStats from the imputed stream feeds one model_sweep and
    one advance_step.
    """
    dgp = config.dgp
    space = enumerate_models(dgp.p)
    x_full = gen_covariates(config.n_max, dgp.cov, stream_rng(config.base_seed, rep_index, _STREAM_COVARIATES))
    y_full = gen_responses(x_full, dgp, stream_rng(config.base_seed, rep_index, _STREAM_NOISE))
    data = apply_missingness(
        x_full,
        config.missing.rate,
        config.missing.mechanism,
        stream_rng(config.base_seed, rep_index, _STREAM_MASK),
        y=y_full,
    )

    trajectories = {meth: InclusionTrajectory(meth, np.full((config.t_max, dgp.p), np.nan)) for meth in METHODS}
    set_sizes = np.zeros(config.t_max, dtype=np.int64)
    eprocess = EProcessState.fresh(space.m)
    for t, stats in enumerate(_imputed_stream(data, config, rep_index)):
        # the (M, m) table, at model_sweep's default g = n, is bound only inside the step, so it is
        # freed before the next sweep
        eprocess, probs, set_sizes[t] = advance_step(eprocess, model_sweep(stats, space), config, space)
        for meth, row in probs.items():
            trajectories[meth].probs[t] = row

    return ReplicationResult(rep_index, config.n_min, config.n_max, trajectories, set_sizes)


def check_run_records(results: list[ReplicationResult]) -> None:
    """DataError naming the rep unless the records make one run as trajectories.csv holds it.

    Every record has the first one's (T, p) and its own rep id, as
    outputs.read_trajectories_csv requires of a file.  An empty list passes.
    """
    shapes = [r.trajectories["bvs"].probs.shape for r in results]
    seen = set()
    for r, shape in zip(results, shapes):
        if shape != shapes[0]:
            raise DataError(f"reps differ in (T, p): rep {r.rep} has {shape}, not rep {results[0].rep}'s {shapes[0]}")
        if r.rep in seen:
            raise DataError(f"reps repeat an id: rep {r.rep} comes more than once")
        seen.add(r.rep)


def aggregate(results: list[ReplicationResult]) -> CrossingStats:
    """Mean crossings, final inclusion frequencies, and crossing-total curves.

    Everything follows the trajectories alone, as analyze does from the CSV:
    one crossing count on the run's (T, reps, methods, p) stack gives the
    per-rep counts, their totals and the cumulative curves, and the stack's
    last row the final calls.  Each table is one reduction over the reps
    axis for every method at once.
    """
    if not results:
        raise DataError("aggregate needs at least one replication")
    check_run_records(results)
    stack = np.stack([r.trajectories[meth].probs for r in results for meth in METHODS], axis=1)
    t_max, reps, p = stack.shape[0], len(results), stack.shape[2]
    stack = stack.reshape(t_max, reps, len(METHODS), p)  # (T, reps, methods, p)
    events = crossing_events(stack)
    counts = events.sum(axis=0)  # (reps, methods, p)
    # reduced as C-contiguous (methods, reps) and (methods, reps, T) arrays, so
    # each method adds its reps in the order of a lone (reps,) or (reps, T)
    # array; another layout can sum in another order and change the sds in
    # their last bits
    totals = np.ascontiguousarray(counts.sum(axis=2).T, dtype=float)
    cum = np.ascontiguousarray(np.cumsum(events.sum(axis=3), axis=0).transpose(2, 1, 0), dtype=float)
    total_var = totals.var(axis=1, ddof=1) if reps > 1 else np.zeros(len(METHODS))
    cum_sd = cum.std(axis=1, ddof=1) if reps > 1 else np.zeros((len(METHODS), t_max))

    return CrossingStats(
        reps=reps,
        p=p,
        t_max=t_max,
        mean_crossings=dict(zip(METHODS, counts.mean(axis=0))),
        final_freq=dict(zip(METHODS, (stack[-1] >= 0.5).mean(axis=0))),
        total_mean=dict(zip(METHODS, totals.mean(axis=1).tolist())),
        total_var=dict(zip(METHODS, total_var.tolist())),
        cum_mean=dict(zip(METHODS, cum.mean(axis=1))),
        cum_sd=dict(zip(METHODS, cum_sd)),
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ReplicationResult]:
    """All replications, ordered by rep index regardless of scheduling.

    Progress is logged at INFO on this module's logger, one line per
    replication as its result arrives in rep order (with workers > 1 the
    pool's ordered results are consumed lazily).  The pool has
    min(workers, config.reps) processes, and one runs serially (a pool may
    start all its workers up front); workers < 1 raises ConfigError.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, config.reps)
    results = []
    if workers > 1:  # imported only here: with multiprocessing and socket it adds 15-20 ms to every start
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for res in (pool.map if pool else map)(run_replication, [config] * config.reps, range(config.reps)):
            results.append(res)
            log.info("replication %d/%d done", len(results), config.reps)
    return results
