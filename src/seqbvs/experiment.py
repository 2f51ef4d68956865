"""End-to-end sequential study: generate, mask, impute, sweep, track sets.

One replication draws a dataset of size n_max, masks covariate cells once,
and then replays the stream: for every n from n_min to n_max it re-imputes
the first n rows from scratch (M completions; consecutive sizes share one
stacked impute call, each on its own stream), sweeps all models on the M
completions, and hands the (M, m) log-BF table to one step function,
advance_step.  The step pools the table once: the pooled vector gives both
the posterior and the mean pairwise log-Bayes-factor losses that advance
the E-processes.  It returns the four covariate inclusion vectors, the set
size and the zero-out fallback flag.  Time is indexed t = n - n_min + 1.

Replications are deterministic given (base_seed, rep_index): every random
stream is derived from numpy's SeedSequence([base_seed, rep_index, tag]),
with tags 1 (covariates), 2 (noise), 3 (mask) and 1000 + n (imputation at
sample size n), so reps and time steps are reproducible individually and
independent of scheduling.

Crossing counts use the tie rule "prob == 0.5 counts as active"; NaN spans
(empty confidence sets, smcs method only) are bridged over, so a side change
across a span counts once, at the first valid entry after it.  The crossing
kernel works along axis 0 of a whole (T, p) trajectory at a time, and a
time step's M completions make one stacked GramStats for one batched
model_sweep.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

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
from .imputation import ImputationConfig, impute, stack_sizes
from .inclusion import (
    METHODS,
    InclusionTrajectory,
    bvs_inclusion,
    mixed_inclusion,
    smcs_inclusion,
    zero_out,
)
from .model_space import ModelSpace, enumerate_models
from .smcs import EProcessState, SmcsConfig, confidence_set, loss_from_log_marginals, step

log = logging.getLogger(__name__)

_STREAM_COVARIATES = 1
_STREAM_NOISE = 2
_STREAM_MASK = 3
_STREAM_IMPUTE_BASE = 1000

LOSS_MODES = ("cumulative", "increment")

PROFILES = {"desk": {"reps": 20, "M": 10}, "full": {"reps": 100, "M": 50}}


@dataclass
class MissingnessConfig:
    rate: float = 0.4
    mechanism: str = "mcar"

    def __post_init__(self) -> None:
        validate_missingness(self.rate, self.mechanism)


@dataclass
class ExperimentConfig:
    reps: int = 20
    n_min: int = 19
    n_max: int = 100
    dgp: DGPConfig = field(default_factory=DGPConfig)
    imp: ImputationConfig = field(default_factory=lambda: ImputationConfig(M=10))
    smcs: SmcsConfig = field(default_factory=SmcsConfig)
    missing: MissingnessConfig = field(default_factory=MissingnessConfig)
    g_rule: str = "unit-info"
    model_prior: str = "uniform"
    base_seed: int = 0
    loss_mode: str = "cumulative"
    pooling: str = "geometric"

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if not self.n_min < self.n_max:
            raise ConfigError(f"need n_min < n_max, got {self.n_min} >= {self.n_max}")
        if self.imp.min_n <= self.dgp.p + 2:
            raise ConfigError(f"imp.min_n must exceed p + 2 = {self.dgp.p + 2}, got {self.imp.min_n}")
        if self.n_min < self.imp.min_n:
            raise ConfigError(f"n_min={self.n_min} is below the imputation minimum imp.min_n={self.imp.min_n}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if self.pooling not in POOLING_RULES:
            raise ConfigError(f"pooling must be one of {POOLING_RULES}, got {self.pooling!r}")
        if self.model_prior not in MODEL_PRIORS:
            raise ConfigError(f"model_prior must be one of {MODEL_PRIORS}, got {self.model_prior!r}")
        g_for_n(self.g_rule, self.n_min)  # validates the rule string

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
    """Prior scale for sample size n.

    'unit-info' is g = n; 'scaled:<c>' spreads one unit of prior information
    over c observations (g = n/c); 'fixed:<value>' holds g constant.
    """
    if rule == "unit-info":
        return float(n)
    if rule.startswith("fixed:") or rule.startswith("scaled:"):
        kind, _, raw = rule.partition(":")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad g rule {rule!r}") from exc
        if not 0.0 < value < math.inf:
            raise ConfigError(f"g rule parameter must be positive and finite, got {value}")
        return value if kind == "fixed" else float(n) / value
    raise ConfigError(
        f"unknown g rule {rule!r}; expected 'unit-info', 'scaled:<c>' or 'fixed:<value>'"
    )


def stream_rng(base_seed: int, rep_index: int, tag: int) -> np.random.Generator:
    """Named random stream under the documented splittable-seed rule."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, rep_index, tag]))


@dataclass
class ReplicationResult:
    """Everything recorded for one replication."""

    rep: int
    n_min: int
    n_max: int
    trajectories: dict[str, InclusionTrajectory]
    set_sizes: np.ndarray  # (T,) size of the confidence set per time index
    crossings: dict[str, np.ndarray]  # per method, (p,) ints
    final_included: dict[str, np.ndarray]  # per method, (p,) bools at t_max
    had_nan: dict[str, bool]  # NaN spans bridged over when counting crossings
    zero_out_fallbacks: int = 0

    @classmethod
    def from_probs(
        cls,
        rep: int,
        n_min: int,
        n_max: int,
        probs: dict[str, np.ndarray],
        set_sizes: np.ndarray,
        zero_out_fallbacks: int = 0,
    ) -> ReplicationResult:
        """The record of per-method (T, p) trajectories; crossings, final calls and NaN flags follow from them."""
        return cls(
            rep=rep,
            n_min=n_min,
            n_max=n_max,
            trajectories={meth: InclusionTrajectory(meth, probs[meth]) for meth in METHODS},
            set_sizes=set_sizes,
            crossings={meth: count_crossings(probs[meth]) for meth in METHODS},
            final_included={meth: probs[meth][-1] >= 0.5 for meth in METHODS},
            had_nan={meth: bool(np.isnan(probs[meth]).any()) for meth in METHODS},
            zero_out_fallbacks=zero_out_fallbacks,
        )


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
    """Crossing indicators along axis 0 of a (T,) or (T, p) probability array.

    side(t) is active iff prob >= 0.5; entry t is 1 when the side differs
    from the side at the previous non-NaN entry of the same column.  NaN
    entries never host an event and are bridged over: a running maximum of
    the valid indices (np.maximum.accumulate) carries each column's last
    valid row forward, so an event needs a valid entry, an earlier valid
    entry and a side change between the two.  Returns int64 of the input's
    shape.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.size == 0:
        raise DataError("cannot count crossings of an empty series")
    valid = ~np.isnan(probs)
    side = probs >= 0.5
    rows = np.arange(probs.shape[0]).reshape((-1,) + (1,) * (probs.ndim - 1))
    last_valid = np.maximum.accumulate(np.where(valid, rows, -1), axis=0)
    prev = np.concatenate([np.full_like(last_valid[:1], -1), last_valid[:-1]])
    prev_side = np.take_along_axis(side, np.maximum(prev, 0), axis=0)
    return (valid & (prev >= 0) & (side != prev_side)).astype(np.int64)


def count_crossings(probs: np.ndarray) -> int | np.ndarray:
    """0.5-threshold side changes: an int for a (T,) series, (p,) int64 for (T, p)."""
    counts = crossing_events(probs).sum(axis=0)
    return int(counts) if counts.ndim == 0 else counts


def _imputed_stream(data: MissingDataset, config: ExperimentConfig, rep_index: int):
    """(n, completions) for n = n_min..n_max, imputed a stack of sizes per call; each size's completions are a copy."""
    sizes = range(config.n_min, config.n_max + 1)
    per_call = stack_sizes(config.n_max, config.imp.M, config.dgp.p)
    for first in range(0, len(sizes), per_call):
        chunk = sizes[first : first + per_call]
        streams = {n: stream_rng(config.base_seed, rep_index, _STREAM_IMPUTE_BASE + n) for n in chunk}
        try:
            stacked = impute(data, config.imp, streams)
        except InsufficientDataError as exc:
            # observed counts only grow with n, so the first call fails at n_min
            if first == 0:
                raise ConfigError(f"imputation infeasible at n_min={config.n_min} ({exc}); increase n_min") from exc
            raise
        # a copy at hand-off, so that only the stack, and no completion the
        # caller still holds, is alive when the next call builds its stack;
        # popping leaves no view behind in a loop variable
        stacked.reverse()
        for n in chunk:
            yield n, stacked.pop().copy()


class StepState(NamedTuple):
    """What one time step hands to the next."""

    eprocess: EProcessState
    pooled: np.ndarray | None  # the last step's pooled log BFs; None before the first


class StepRecord(NamedTuple):
    """The per-step outputs stored in a replication's trajectories."""

    probs: dict[str, np.ndarray]  # per method, (p,) inclusion probabilities
    set_size: int
    fallback: bool  # zero_out used the unrestricted posterior


def advance_step(
    state: StepState, tables: np.ndarray, config: ExperimentConfig, space: ModelSpace
) -> tuple[StepState, StepRecord]:
    """One time step from the (M, m) per-imputation log-BF table at n.

    The table is pooled once; the pooled vector drives both the posterior
    (bvs, zero_out, mixed) and the mean pairwise loss of the E-processes,
    which under loss_mode "increment" is taken of its change since the
    previous step.
    """
    pooled, post = posterior_from_imputations(tables, space, config.model_prior, config.pooling)
    increment = config.loss_mode == "increment" and state.pooled is not None
    loss = loss_from_log_marginals(pooled - state.pooled if increment else pooled)
    eprocess = step(state.eprocess, loss, config.smcs)
    members = confidence_set(eprocess)
    p_bvs = bvs_inclusion(post, space)
    p_smcs = smcs_inclusion(members, space)
    zo = zero_out(post, members, space)
    p_mixed = mixed_inclusion(p_bvs, p_smcs, members.size, space.m)
    probs = dict(zip(METHODS, (p_bvs, p_smcs, zo.probs, p_mixed)))
    return StepState(eprocess, pooled), StepRecord(probs, members.size, zo.fallback)


def run_replication(config: ExperimentConfig, rep_index: int) -> ReplicationResult:
    """One full sequential pass; deterministic given (base_seed, rep_index)."""
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

    probs = {meth: np.full((config.t_max, dgp.p), np.nan) for meth in METHODS}
    set_sizes = np.zeros(config.t_max, dtype=np.int64)
    state = StepState(EProcessState.fresh(space.m), None)
    zero_out_fallbacks = 0
    for n, completions in _imputed_stream(data, config, rep_index):
        # the (M, m) table is bound only inside the step, so it is freed before the next sweep
        stats = GramStats.from_data(completions, data.y[:n])
        state, record = advance_step(state, model_sweep(stats, space, g_for_n(config.g_rule, n)), config, space)
        t = n - config.n_min
        for meth, row in record.probs.items():
            probs[meth][t] = row
        set_sizes[t] = record.set_size
        zero_out_fallbacks += record.fallback

    return ReplicationResult.from_probs(rep_index, config.n_min, config.n_max, probs, set_sizes, zero_out_fallbacks)


def aggregate(results: list[ReplicationResult]) -> CrossingStats:
    """Mean crossings, final inclusion frequencies, and crossing-total curves."""
    if not results:
        raise DataError("aggregate needs at least one replication")
    p = results[0].trajectories["bvs"].probs.shape[1]
    t_max = results[0].trajectories["bvs"].probs.shape[0]
    reps = len(results)

    mean_crossings = {}
    final_freq = {}
    total_mean = {}
    total_var = {}
    cum_mean = {}
    cum_sd = {}
    for meth in METHODS:
        counts = np.stack([r.crossings[meth] for r in results])  # (reps, p)
        finals = np.stack([r.final_included[meth] for r in results])
        mean_crossings[meth] = counts.mean(axis=0)
        final_freq[meth] = finals.mean(axis=0)
        totals = counts.sum(axis=1).astype(float)
        total_mean[meth] = float(totals.mean())
        total_var[meth] = float(totals.var(ddof=1)) if reps > 1 else 0.0
        cum = np.stack(
            [np.cumsum(crossing_events(r.trajectories[meth].probs).sum(axis=1)) for r in results]
        ).astype(float)  # (reps, T)
        cum_mean[meth] = cum.mean(axis=0)
        cum_sd[meth] = cum.std(axis=0, ddof=1) if reps > 1 else np.zeros(t_max)

    return CrossingStats(
        reps=reps,
        p=p,
        t_max=t_max,
        mean_crossings=mean_crossings,
        final_freq=final_freq,
        total_mean=total_mean,
        total_var=total_var,
        cum_mean=cum_mean,
        cum_sd=cum_sd,
    )


def _run_one(args: tuple[ExperimentConfig, int]) -> ReplicationResult:
    return run_replication(*args)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ReplicationResult]:
    """All replications, ordered by rep index regardless of scheduling.

    Progress is logged at INFO on this module's logger, one line per
    replication as its result arrives in rep order (with workers > 1 the
    pool's ordered results are consumed lazily).
    """
    jobs = [(config, r) for r in range(config.reps)]
    results = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for res in (pool.map if pool else map)(_run_one, jobs):
            results.append(res)
            log.info("replication %d/%d done", len(results), config.reps)
    return results
