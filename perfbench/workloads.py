"""The benchmark's workloads: config text and the inputs made from a seed.

Each workload is stated in the repository's own config language and built
with ``seqbvs.config.build_config``; the seed given to the benchmark becomes
``run.base_seed`` and seeds the synthetic replay inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DESK_STREAM = """\
# the desk study users run: p=10 (1,024 models), M=10 completions,
# 5 chained-equation sweeps, 40% MCAR, n = 19..100, code defaults for
# g, pooling and loss; one replication per round, outputs with plots
dgp.p=10
imp.M=10
imp.sweeps=5
missing.rate=0.4
missing.mechanism=mcar
run.n_min=19
run.n_max=100
run.reps=1
"""

WIDE_SWEEP = """\
# sweep-bound: p=14 (16,384 models) with only M=2 completions, so the
# all-subsets sweep dominates; outputs without plots
dgp.p=14
dgp.beta=1,2,0,0,0,1,2,0,0,0,0,0,0,0
dgp.rho=0.5
imp.M=2
imp.sweeps=5
missing.rate=0.4
missing.mechanism=mcar
run.n_min=19
run.n_max=40
run.reps=1
"""

REPLAY_IO = """\
# output round trip only: 20 synthetic replications shaped like a desk run
# directory (82 t x 4 methods x 10 covariates), written with plots, read back
dgp.p=10
run.n_min=19
run.n_max=100
run.reps=20
"""

# tiny sizes for the benchmark's own tests; later lines override earlier ones
SMOKE = {
    "desk_stream": "imp.M=2\nimp.sweeps=1\nrun.n_max=22\n",
    "wide_sweep": "run.n_max=20\n",
    "replay_io": "run.reps=2\n",
}


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    simulate: bool  # run_replication per rep, or synthetic results replayed
    plots: bool
    out_repeats: int  # output round trips per round, for enough emit/analyze samples


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_stream", DESK_STREAM, simulate=True, plots=True, out_repeats=5),
        Workload("wide_sweep", WIDE_SWEEP, simulate=True, plots=False, out_repeats=10),
        Workload("replay_io", REPLAY_IO, simulate=False, plots=True, out_repeats=1),
    )
}


def build(workload: Workload, seed: int, smoke: bool):
    """The workload's ExperimentConfig with base_seed = seed."""
    from seqbvs.config import build_config, parse_config_text

    text = workload.config_text + f"run.base_seed={seed}\n"
    if smoke:
        text += SMOKE[workload.name]
    return build_config(parse_config_text(text))


def sweep_inputs(config) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Complete (X, y, g) from the workload's DGP at n_min and n_max, for the sweep check."""
    from seqbvs.data_gen import gen_covariates, gen_responses
    from seqbvs.experiment import g_for_n

    rng = np.random.default_rng([config.base_seed, 0xC4EC])
    x_full = gen_covariates(config.n_max, config.dgp.cov, rng)
    y_full = gen_responses(x_full, config.dgp, rng)
    return [(x_full[:n], y_full[:n], g_for_n(config.g_rule, n)) for n in (config.n_min, config.n_max)]


def synthetic_results(config, seed: int) -> list:
    """Seeded ReplicationResults with NaN smcs spans and non-increasing set sizes.

    Actives drift toward inclusion and inactives wander around the 0.5 rule,
    so the crossing counts are not trivial; a third of the replications
    empty their confidence set part way.
    """
    from seqbvs.experiment import ReplicationResult, count_crossings
    from seqbvs.inclusion import METHODS, InclusionTrajectory

    rng = np.random.default_rng([seed, 0x5EB])
    p, t_max = config.dgp.p, config.t_max
    m = 1 << p
    active = np.array(config.dgp.true_model.bits, dtype=bool)
    results = []
    for rep in range(config.reps):
        drift = np.where(active, 0.12, -0.01)
        bvs = 1.0 / (1.0 + np.exp(-np.cumsum(drift + 0.5 * rng.standard_normal((t_max, p)), axis=0)))
        sizes = np.floor(m * np.cumprod(rng.uniform(0.85, 1.0, t_max))).astype(np.int64)
        if rep % 3 == 0:
            sizes[int(rng.integers(t_max // 2, t_max)) :] = 0
        sizes = np.maximum(np.minimum.accumulate(sizes), 0)
        counts = rng.binomial(sizes[:, None], np.where(active, 0.9, 0.45), size=(t_max, p))
        nonempty = sizes[:, None] > 0
        smcs = np.where(nonempty, counts / np.maximum(sizes, 1)[:, None], np.nan)
        zero_out = np.clip(bvs + 0.05 * rng.standard_normal((t_max, p)), 0.0, 1.0)
        w = (sizes / m)[:, None]
        mixed = np.where(nonempty, w * np.nan_to_num(smcs) + (1.0 - w) * bvs, bvs)
        probs = {"bvs": bvs, "smcs": smcs, "zero_out": zero_out, "mixed": mixed}
        results.append(
            ReplicationResult(
                rep=rep,
                n_min=config.n_min,
                n_max=config.n_max,
                trajectories={meth: InclusionTrajectory(meth, probs[meth]) for meth in METHODS},
                set_sizes=sizes,
                crossings={meth: np.array([count_crossings(probs[meth][:, k]) for k in range(p)]) for meth in METHODS},
                final_included={meth: probs[meth][-1] >= 0.5 for meth in METHODS},
                had_nan={meth: bool(np.isnan(probs[meth]).any()) for meth in METHODS},
            )
        )
    return results


@dataclass
class Inputs:
    config: object  # seqbvs ExperimentConfig
    m: int
    replay: list | None  # synthetic results, replay workloads only
    sweep: list[tuple[np.ndarray, np.ndarray, float]]


def setup(workload: Workload, seed: int, smoke: bool) -> Inputs:
    """Everything before the first timed call: config, model space, inputs."""
    from seqbvs.model_space import enumerate_models

    config = build(workload, seed, smoke)
    space = enumerate_models(config.dgp.p)
    replay = None if workload.simulate else synthetic_results(config, seed)
    return Inputs(config, space.m, replay, sweep_inputs(config))

