"""End-to-end sequential study: generate, mask, impute, sweep, track sets.

One replication draws a dataset of size n_max, masks covariate cells once,
and then replays the stream: for every n from n_min to n_max it re-imputes
the first n rows from scratch (M completions; consecutive sizes share one
stacked impute call, each on its own stream), sweeps all models on the M
completions and pools the (M, m) log-BF table at once into one row of a
(T, m) block: its mean log BF per model and the posterior that gives.  One
step function, advance_step, then takes the whole block of sample sizes.
The pooled vectors give the mean pairwise log-Bayes-factor losses that
advance the E-processes, whose state is all a block carries to the next (L
is linear, so loss_mode "increment" telescopes to L(v_t) less that state's
running loss sum, taken row by row).  The state's exit step per model gives
the confidence set at every row of the block, and the step returns the
four covariate inclusion vectors of each row and the set sizes.  A block
holds block_rows(m) sample sizes, so a step's (T, m) temporaries stay
within CELL_BUDGET values (one row at p = 20), and it gives the bits of its
rows stepped one at a time.  Time is indexed t = n - n_min + 1.

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
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import KW_ONLY, InitVar, dataclass, field
from types import MappingProxyType

import numpy as np

from .bayes_lm import MODEL_PRIORS, GramStats, model_sweep, posterior_from_imputations
from .data_gen import (
    DGPConfig,
    MissingDataset,
    MissingnessConfig,
    apply_missingness,
    gen_covariates,
    gen_responses,
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
from .model_space import CELL_BUDGET, ModelSpace, enumerate_models
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

# rounding slack allowed outside [0, 1] for a probability
PROB_SLACK = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole study, by default at the desk setting (20 reps, M = 10).

    Frozen, as are its sections; dataclasses.replace makes a new, checked config.
    """

    reps: int = 20
    n_min: int = 19
    n_max: int = 100
    dgp: DGPConfig = field(default_factory=DGPConfig)
    imp: ImputationConfig = field(default_factory=ImputationConfig)
    smcs: SmcsConfig = field(default_factory=SmcsConfig)
    missing: MissingnessConfig = field(default_factory=MissingnessConfig)
    g_rule: str = field(default="unit-info", init=False)  # g = n; recorded in the manifest, not a key
    model_prior: str = "uniform"
    base_seed: int = 0
    loss_mode: str = "cumulative"

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
        if self.model_prior not in MODEL_PRIORS:
            raise ConfigError(f"model_prior must be one of {MODEL_PRIORS}, got {self.model_prior!r}")

    @property
    def t_max(self) -> int:
        return self.n_max - self.n_min + 1


def g_for_n(rule: str, n: int) -> float:
    """Prior scale for sample size n: 'unit-info' is Zellner's g = n, model_sweep's default."""
    if rule not in G_RULES:
        raise ConfigError(f"g_rule must be one of {G_RULES}, got {rule!r}")
    return float(n)


def stream_rng(base_seed: int, rep_index: int, tag: int) -> np.random.Generator:
    """Named random stream under the documented splittable-seed rule."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, rep_index, tag]))


@dataclass(frozen=True)
class ReplicationResult:
    """One replication as trajectories.csv holds it, checked on construction.

    One InclusionTrajectory per METHODS key and of that method, all (T, p)
    with T = n_max - n_min + 1, and (T,) integer set sizes in 0..2**p that
    never grow.  Probabilities are NaN or within PROB_SLACK of [0, 1]; NaN
    stands only in smcs, in every covariate of exactly the rows of set size
    0.  A broken rule raises DataError naming it, the rep and the t.  A passed
    crossings, final_included or had_nan is checked against the trajectories
    and not stored.  The record is frozen, its trajectories a read-only
    mapping and its arrays read-only copies of those given, so it holds
    what was checked.
    """

    rep: int
    n_min: int
    n_max: int
    trajectories: Mapping[str, InclusionTrajectory]
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
        sizes = np.array(self.set_sizes)
        sizes.flags.writeable = False
        object.__setattr__(self, "set_sizes", sizes)
        object.__setattr__(self, "trajectories", MappingProxyType(dict(self.trajectories)))
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

    def __getstate__(self) -> dict:
        return {**self.__dict__, "trajectories": dict(self.trajectories)}  # a mappingproxy does not pickle

    def __setstate__(self, state: dict) -> None:
        # an unpickled or deep-copied array comes back writeable: a process pool's records are unpickled
        self.__dict__.update(state, trajectories=MappingProxyType(state["trajectories"]))
        self.set_sizes.flags.writeable = False


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


def block_rows(m: int) -> int:
    """How many sample sizes one advance_step takes at m models.

    The step holds about eight (T, m) arrays at once (the E-process's sums,
    terms and suprema, the membership, the folds' weights), so a block of
    CELL_BUDGET // (8 m) rows keeps them within CELL_BUDGET values: 32 rows
    at p = 10, 2 at p = 14 and one from p = 15 on.
    """
    return max(1, CELL_BUDGET // (8 * m))


def advance_step(
    eprocess: EProcessState, pooled: np.ndarray, post: np.ndarray, config: ExperimentConfig, space: ModelSpace
) -> tuple[EProcessState, np.ndarray, np.ndarray]:
    """A block of T time steps from their (T, m) pooled log BFs and posteriors.

    Returns the state at the block's last step, the (T, methods, p)
    inclusion probabilities in METHODS order and the (T,) set sizes.  The
    pooled vectors drive the mean pairwise losses L(pooled) of the
    E-processes, and the posteriors bvs, zero_out and mixed.  Under
    loss_mode "increment" each row takes L(pooled) less the running loss
    sum, which is L of the change since the row before because L is
    linear.  Row t's confidence set is the models whose exit step is 0 or
    after t.
    """
    loss = loss_from_log_marginals(pooled)
    if config.loss_mode == "increment":
        running = eprocess.cum_losses
        for row in loss:
            row -= running
            running = running + row
    t_first = eprocess.t + 1
    eprocess = step(eprocess, loss, config.smcs)
    times = np.arange(t_first, eprocess.t + 1)[:, None]
    member = (eprocess.left_at == 0) | (eprocess.left_at > times)
    set_sizes = np.count_nonzero(member, axis=1)
    p_bvs = bvs_inclusion(post, space)
    p_smcs = smcs_inclusion(member, space)
    p_zero_out = zero_out(post, member, space).probs
    p_mixed = mixed_inclusion(p_bvs, p_smcs, set_sizes, space.m)
    return eprocess, np.stack([p_bvs, p_smcs, p_zero_out, p_mixed], axis=1), set_sizes


def run_replication(config: ExperimentConfig, rep_index: int) -> ReplicationResult:
    """One full sequential pass; deterministic given (base_seed, rep_index).

    Each size's GramStats from the imputed stream feeds one model_sweep,
    whose table is pooled into the next row of the block; a full block, and
    the last one, feeds one advance_step.
    """
    dgp = config.dgp
    space = enumerate_models(dgp.p)
    x_full = gen_covariates(config.n_max, dgp.cov, stream_rng(config.base_seed, rep_index, _STREAM_COVARIATES))
    y_full = gen_responses(x_full, dgp, stream_rng(config.base_seed, rep_index, _STREAM_NOISE))
    data = apply_missingness(x_full, config.missing, stream_rng(config.base_seed, rep_index, _STREAM_MASK), y=y_full)

    probs = np.empty((config.t_max, len(METHODS), dgp.p))
    set_sizes = np.empty(config.t_max, dtype=np.int64)
    rows = min(block_rows(space.m), config.t_max)
    pooled, post = np.empty((rows, space.m)), np.empty((rows, space.m))
    eprocess = EProcessState.fresh(space.m)
    done = 0
    for t, stats in enumerate(_imputed_stream(data, config, rep_index)):
        # the (M, m) table, at model_sweep's default g = n, is bound only while it is pooled, so it
        # is freed before the next sweep
        row = t - done
        pooled[row], post[row] = posterior_from_imputations(model_sweep(stats, space), space, config.model_prior)
        if row + 1 == rows or t + 1 == config.t_max:
            block = slice(done, t + 1)
            eprocess, probs[block], set_sizes[block] = advance_step(
                eprocess, pooled[: row + 1], post[: row + 1], config, space
            )
            done = t + 1

    trajectories = {meth: InclusionTrajectory(meth, probs[:, i]) for i, meth in enumerate(METHODS)}
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
