"""Correctness checks on the outputs of a benchmark run.

Each check returns None when it holds and a one-line reason when it fails.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

SWEEP_TOL = 1e-8
# summed posterior mass may overshoot 1 by rounding; the same slack as the
# range check of seqbvs.inclusion.InclusionTrajectory
PROB_SLACK = 1e-12
SAMPLE_MODELS = 48
# the sampled models are the same for every seed, so a failure names a model
_SAMPLE_SEED = 20250926


def sample_models(p: int) -> np.ndarray:
    """Null, full, every singleton and a fixed random draw of model indices."""
    m = 1 << p
    fixed = [0, m - 1] + [1 << k for k in range(p)]
    drawn = np.random.default_rng(_SAMPLE_SEED).choice(m, size=min(SAMPLE_MODELS, m), replace=False)
    return np.unique(np.concatenate([fixed, drawn]))


def check_sweep(x_mat: np.ndarray, y: np.ndarray, g: float) -> str | None:
    """model_sweep agrees with per-model log_bf_null; the null entry is exactly 0."""
    from seqbvs.bayes_lm import GramStats, log_bf_null, model_sweep
    from seqbvs.model_space import enumerate_models

    space = enumerate_models(x_mat.shape[1])
    stats = GramStats.from_data(x_mat, y)
    swept = model_sweep(stats, space, g)
    if swept[0] != 0.0:
        return f"null model log BF is {swept[0]!r}, not exactly 0"
    for i in sample_models(space.p):
        ref = log_bf_null(stats, space.model(int(i)), g)
        if not abs(swept[i] - ref) <= SWEEP_TOL:
            return f"model {i} at n={stats.n}: sweep {swept[i]!r} vs log_bf_null {ref!r}"
    return None


def check_results(results, m: int) -> str | None:
    """Probabilities in [0, 1], NaN only in smcs rows, set sizes never increase."""
    for res in results:
        for meth, traj in res.trajectories.items():
            probs = traj.probs
            nan = np.isnan(probs)
            if nan.any() and meth != "smcs":
                return f"rep {res.rep}: NaN in {meth}"
            vals = probs[~nan]
            if vals.size and (vals.min() < -PROB_SLACK or vals.max() > 1.0 + PROB_SLACK):
                return f"rep {res.rep}: {meth} probability {vals.min()!r}..{vals.max()!r} outside [0, 1]"
        sizes = np.asarray(res.set_sizes)
        if sizes.size and (sizes.min() < 0 or sizes.max() > m):
            return f"rep {res.rep}: set size outside 0..{m}"
        empty_rows = np.isnan(res.trajectories["smcs"].probs).any(axis=1)
        if np.any(empty_rows != (sizes == 0)):
            return f"rep {res.rep}: smcs NaN rows do not match the empty sets"
        if np.any(np.diff(sizes) > 0):
            return f"rep {res.rep}: set size increases"
    return None


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
