"""Closed-form Bayes factors for all Gaussian linear models on a stream.

Marginal likelihoods use Zellner's g-prior on the slopes (default g = n,
unit information) with flat priors on the intercept and log sigma.  All
values are stored relative to the null (intercept-only) model, whose entry
is exactly zero; absolute marginals under the improper intercept/scale
prior are defined only up to a constant that cancels in every Bayes factor.

Sufficient statistics live in GramStats, one augmented cross-product
matrix z'z of z = (1, x, y) per data set, so any model's log Bayes factor
is available from O(p^2) state.

The all-subsets sweep (model_sweep) is one pass over the subset lattice
(Furnival 1971; Goodnight 1979): in little-endian model order every model
whose highest covariate is j is its parent, the same model without j, plus
one sweep pivot on column j, so the residual sums of squares of all 2**p
models come out of p batched rank-1 updates.  The M completions of one time
step share that pass: their models sit side by side on the last axis of
each level's block, and the result is copied once into a C-ordered (M, m)
table, so pooling across the completions adds whole contiguous rows.  When
the widest level of all M would exceed CELL_BUDGET values (see model_space;
not at desk or wide_sweep sizes), the pass runs over chunks of completions,
each written into its own rows of the table.
log_bf_null scores one model at a time by a least-squares solve of its
unit-diagonal Gram system (model_r_squared) and shares no lattice code
with the sweep, so it is the sweep's independent reference.

posterior_from_imputations pools a step's M completions by their mean log
Bayes factor per model, a consensus of the completions' evidence.  It is not
the observed-data Bayes factor, the complete-data one averaged over
p(x_mis | x_obs) (derived in the imputation docstring), which is not
estimated: at the desk setting's n >= 60 that average has an effective
sample size of 1 to 13 in 20,000 exact draws of x_mis, so a mean over M = 10
or 50 completions returns the best completion's Bayes factor less log M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientDataError, ShapeError
from .model_space import CELL_BUDGET, ModelSpace, ModelVector

R2_CEIL = 1.0 - 1e-12

# A sweep pivot at or below this fraction of the column's raw sum of squares
# is treated as zero: the column is (numerically) constant or a linear
# combination of the columns already in the model and adds no fit.
_PIVOT_EPS = 1e-10

MODEL_PRIORS = ("uniform", "scott-berger")


@dataclass
class GramStats:
    """The augmented cross-product matrix szz = z'z of z = (1, x, y).

    One data set gives szz (p+2, p+2); a stack of M completions of the same
    n rows, sharing y, gives one matrix per completion, (M, p+2, p+2).
    """

    n: int
    szz: np.ndarray  # (p+2, p+2), or (M, p+2, p+2)

    @classmethod
    def from_data(cls, x_mat: np.ndarray, y: np.ndarray) -> GramStats:
        """Batch accumulation of n observations.

        x_mat is (n, p), or (M, n, p) for M completions of the same rows,
        which one batched product turns into one stack.  Cross-products
        that overflow raise DataError: an inf sum would read as a constant y.
        """
        x_mat = np.asarray(x_mat, dtype=float)
        y = np.asarray(y, dtype=float)
        if x_mat.ndim not in (2, 3) or y.shape != (x_mat.shape[-2],):
            raise ShapeError(f"incompatible shapes X {x_mat.shape}, y {y.shape}")
        if x_mat.ndim == 3 and len(x_mat) == 0:
            raise ShapeError("a stack of completions needs at least one completion")
        if not (np.all(np.isfinite(x_mat)) and np.all(np.isfinite(y))):
            raise DataError("observations must be finite")
        shape = x_mat.shape[:-1] + (1,)
        z = np.concatenate([np.ones(shape), x_mat, np.broadcast_to(y[:, None], shape)], axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            szz = np.swapaxes(z, -1, -2) @ z
        if not np.all(np.isfinite(szz)):
            raise DataError("cross-products of the observations overflow; the data are too large in scale")
        return cls(n=x_mat.shape[-2], szz=szz)

    @property
    def p(self) -> int:
        return self.szz.shape[-1] - 2


def centered_moments(stats: GramStats) -> np.ndarray:
    """The centred cross-products [[A, b], [b', syy_c]] of (x, y) from the raw sums, per completion of a stack."""
    mean = stats.szz[..., 0, 1:] / stats.n
    return stats.szz[..., 1:, 1:] - stats.n * (mean[..., :, None] * mean[..., None, :])


def model_r_squared(stats: GramStats, gamma: ModelVector) -> float:
    """Coefficient of determination of one model from the Gram statistics.

    R^2 = b_S' A_SS^+ b_S / syy_c for the model's columns S, from one
    least-squares solve of A_SS scaled to unit diagonal: lstsq's rank
    cut-off is relative to the largest singular value, so the scaling keeps
    a column of tiny scale, while a column that is a linear combination of
    the others adds no fit.  A column whose centred sum of squares is at or
    below _PIVOT_EPS times its raw one is constant and is left out, as in
    the sweep.  No kept column, or a constant y, gives R^2 = 0.
    """
    moments = centered_moments(stats)
    cols = np.nonzero(np.array(gamma.bits))[0]
    cols = cols[np.diag(moments)[cols] > _PIVOT_EPS * np.diag(stats.szz)[cols + 1]]
    syy_c = moments[-1, -1]
    if cols.size == 0 or syy_c <= 0.0:
        return 0.0
    scale = np.sqrt(np.diag(moments)[cols])
    rhs = moments[cols, -1] / scale
    coef = np.linalg.lstsq(moments[np.ix_(cols, cols)] / np.outer(scale, scale), rhs, rcond=None)[0]
    return float(min(max(coef @ rhs / syy_c, 0.0), R2_CEIL))


def _prior_scale(g: float | None, n: int) -> float:
    """Zellner's g: n (unit information) when None; DataError unless finite and > 0."""
    if g is None:
        return float(n)
    if not 0.0 < g < math.inf:
        raise DataError(f"g must be finite and > 0, got {g}")
    return g


def log_bf_null(stats: GramStats, gamma: ModelVector, g: float | None = None) -> float:
    """Log Bayes factor of model gamma against the intercept-only model.

    log BF = ((n-1-k)/2) log(1+g) - ((n-1)/2) log(1 + g(1-R^2)), with k the
    number of included covariates and g defaulting to n (unit information);
    a g that is not finite and > 0 raises DataError.
    """
    if stats.szz.ndim != 2:
        raise ShapeError(f"log_bf_null needs one data set's statistics, not a stack of {len(stats.szz)}")
    g = _prior_scale(g, stats.n)
    k = gamma.size
    if k == 0:
        return 0.0
    n = stats.n
    if n < k + 2:
        raise InsufficientDataError(f"need n >= k+2 = {k + 2} observations, have {n}")
    r2 = model_r_squared(stats, gamma)
    return 0.5 * (n - 1 - k) * math.log1p(g) - 0.5 * (n - 1) * math.log1p(g * (1.0 - r2))


def _lattice_rss(moments: np.ndarray, raw_ss: np.ndarray) -> np.ndarray:
    """Residual sum of squares of every model of M completions, a C-ordered (M, m) table.

    Inputs are stacked per completion: moments (M, p+1, p+1), from
    centered_moments, and raw_ss (M, p).  Inside the pass the models are on
    the last axis, with the completions interleaved: level j,
    `block[:, :, c + M * i]`, is the centred cross-product matrix of the
    columns (x_j, ..., x_{p-1}, y) of completion c after regression on model
    i, a subset of the first j covariates, a (p+1-j, p+1-j, M * 2**j) block;
    level 0 is moments itself.  Dropping column j keeps model i; sweeping on
    it gives model i + 2**j, so appending [kept, swept] along the last axis
    is the next level, written in place into its two halves, swept = rest -
    (inv * col_a) * col_b.  A pivot at or below _PIVOT_EPS * raw_ss[c, j]
    leaves the swept block equal to the kept one.  The last level's (m * M,)
    residuals are transposed into (M, m) with one copy.  The completions
    never mix, so a pass over a part of them gives their rows bit for bit.
    """
    n_comp = len(moments)
    block = moments.transpose(1, 2, 0)
    for j in range(raw_ss.shape[1]):
        pivot = block[0, 0]
        col = block[1:, 0]
        keep = (pivot.reshape(-1, n_comp) > _PIVOT_EPS * raw_ss[:, j]).ravel()
        inv = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=keep)
        rest = block[1:, 1:]
        k = pivot.size
        block = np.empty(rest.shape[:2] + (2 * k,))
        block[:, :, :k] = rest
        swept = block[:, :, k:]
        np.multiply(inv * col[:, None, :], col[None, :, :], out=swept)
        np.subtract(rest, swept, out=swept)
    return np.ascontiguousarray(block[0, 0].reshape(-1, n_comp).T)


def _lattice_chunk(p: int) -> int:
    """How many completions one lattice pass takes: its widest level stays within CELL_BUDGET values.

    Level j holds (p + 1 - j)**2 * 2**j values per completion; the widest
    is about 2.25 * 2**p for p >= 2.
    """
    widest = max((p + 1 - j) ** 2 << j for j in range(p + 1))
    return max(1, CELL_BUDGET // widest)


def model_sweep(stats: GramStats, space: ModelSpace, g: float | None = None) -> np.ndarray:
    """Log Bayes factors against the null for every model in the space.

    `stats` from one data set gives an (m,) vector; a stack of M
    completions gives a C-ordered (M, m) table.  The lattice pass
    (_lattice_rss) and the closed form, which maps R^2 and the model size to
    log BF, run over chunks of completions (_lattice_chunk), each written
    into its rows of the table, so memory stays bounded at large p; the rows
    do not depend on the chunking.  The null entry is exactly 0.  A
    completion whose y is constant has R^2 = 0 under every model, as in
    model_r_squared, so each model gets its complexity penalty
    -(k/2) log(1+g).  g defaults to n; a g that is not finite and > 0
    raises DataError.
    """
    if space.p != stats.p:
        raise ShapeError(f"model space has p={space.p}, statistics have p={stats.p}")
    n = stats.n
    g = _prior_scale(g, n)
    if n < space.p + 2:
        raise InsufficientDataError(f"need n >= p+2 = {space.p + 2} observations, have {n}")
    single = stats.szz.ndim == 2
    if single:
        stats = GramStats(n, stats.szz[None])
    moments = centered_moments(stats)
    syy_c = moments[:, -1, -1]
    raw_ss = np.diagonal(stats.szz, axis1=1, axis2=2)[:, 1:-1]
    varies = syy_c > 0.0
    denom = np.where(varies, syy_c, 1.0)
    penalty = 0.5 * (n - 1.0 - space.sizes) * np.log1p(g)

    def log_bf_rows(part: slice) -> np.ndarray:
        rows = _lattice_rss(moments[part], raw_ss[part])
        # the closed form in place, R^2 first, then log BF: written as one
        # expression, its (M, m) temporaries made the sweeps of a p = 14,
        # M = 2 replication ~6% slower
        np.divide(rows, denom[part, None], out=rows)
        np.subtract(1.0, rows, out=rows)
        np.clip(rows, 0.0, R2_CEIL, out=rows)
        rows[~varies[part]] = 0.0
        np.subtract(1.0, rows, out=rows)
        np.multiply(rows, g, out=rows)
        np.log1p(rows, out=rows)
        np.multiply(rows, 0.5 * (n - 1), out=rows)
        np.subtract(penalty, rows, out=rows)
        return rows

    n_comp, step = len(syy_c), _lattice_chunk(space.p)
    if step >= n_comp:
        # one pass: its own rows are the table.  A table allocated ahead of
        # the pass made the pass ~20% slower inside a p = 14, M = 2
        # replication
        log_bf = log_bf_rows(slice(None))
    else:
        log_bf = np.empty((n_comp, space.m))
        for lo in range(0, n_comp, step):
            log_bf[lo : lo + step] = log_bf_rows(slice(lo, lo + step))
    return log_bf[0] if single else log_bf


def _log_model_prior(space: ModelSpace, prior: str) -> np.ndarray:
    if prior == "uniform":
        return np.full(space.m, -math.log(space.m))
    if prior == "scott-berger":
        p = space.p
        log_binom = np.array(
            [math.lgamma(p + 1) - math.lgamma(k + 1) - math.lgamma(p - k + 1) for k in range(p + 1)]
        )
        return -math.log(p + 1) - log_binom[space.sizes]
    raise DataError(f"unknown model prior {prior!r}; expected one of {MODEL_PRIORS}")


def posterior_model_probs(
    log_bf: np.ndarray,
    space: ModelSpace,
    prior: str = "uniform",
) -> np.ndarray:
    """Posterior model probabilities from relative log marginals.

    The softmax runs along the last axis, which holds the m models: an (m,)
    vector gives one posterior, an (M, m) table one posterior per row.
    """
    log_bf = np.asarray(log_bf, dtype=float)
    if log_bf.shape[-1:] != (space.m,):
        raise ShapeError(f"expected {space.m} log marginals on the last axis, got {log_bf.shape}")
    if not np.all(np.isfinite(log_bf)):
        raise DataError("log marginals must be finite")
    logits = log_bf + _log_model_prior(space, prior)
    weights = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


def posterior_from_imputations(
    tables: np.ndarray, space: ModelSpace, prior: str = "uniform"
) -> tuple[np.ndarray, np.ndarray]:
    """The mean log Bayes factor over an (M, m) table's rows, and the posterior it gives.

    Systematic complexity penalties survive the mean while zero-mean
    per-completion noise cancels; its Monte Carlo variance falls as 1/M.
    """
    tables = np.asarray(tables, dtype=float)
    if tables.ndim != 2:
        raise ShapeError(f"expected M x m table, got shape {tables.shape}")
    pooled = tables.mean(axis=0)
    return pooled, posterior_model_probs(pooled, space, prior)
