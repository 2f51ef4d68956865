"""Closed-form Bayes factors for all Gaussian linear models on a stream.

Marginal likelihoods use Zellner's g-prior on the slopes (default g = n,
unit information) with flat priors on the intercept and log sigma.  All
values are stored relative to the null (intercept-only) model, whose entry
is exactly zero; absolute marginals under the improper intercept/scale
prior are defined only up to a constant that cancels in every Bayes factor.

Sufficient statistics live in GramStats, so any model's log Bayes factor
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
log_bf_null solves one model at a time with a Cholesky factor and is the
independent reference for the sweep.
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
    """Cross-product accumulators for the augmented regressors z = (1, x).

    One data set gives sxx (p+1, p+1) and sxy (p+1,).  A stack of M
    completions of the same n rows, sharing y, gives sxx (M, p+1, p+1) and
    sxy (M, p+1); n and syy are shared.
    """

    n: int
    sxx: np.ndarray  # (p+1, p+1), or (M, p+1, p+1)
    sxy: np.ndarray  # (p+1,), or (M, p+1)
    syy: float

    @classmethod
    def from_data(cls, x_mat: np.ndarray, y: np.ndarray) -> GramStats:
        """Batch accumulation of n observations.

        x_mat is (n, p), or (M, n, p) for M completions of the same rows,
        which one batched product turns into one stack.
        """
        x_mat = np.asarray(x_mat, dtype=float)
        y = np.asarray(y, dtype=float)
        if x_mat.ndim not in (2, 3) or y.shape != (x_mat.shape[-2],):
            raise ShapeError(f"incompatible shapes X {x_mat.shape}, y {y.shape}")
        if x_mat.ndim == 3 and len(x_mat) == 0:
            raise ShapeError("a stack of completions needs at least one completion")
        if not (np.all(np.isfinite(x_mat)) and np.all(np.isfinite(y))):
            raise DataError("observations must be finite")
        z = np.concatenate([np.ones(x_mat.shape[:-1] + (1,)), x_mat], axis=-1)
        z_t = np.swapaxes(z, -1, -2)
        return cls(n=x_mat.shape[-2], sxx=z_t @ z, sxy=z_t @ y, syy=float(y @ y))

    @property
    def p(self) -> int:
        return self.sxx.shape[-1] - 1


def centered_moments(stats: GramStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centered cross-products (A, b, syy_c) derived from the raw sums, per completion of a stack."""
    n = stats.n
    xbar = stats.sxx[..., 0, 1:] / n
    ybar = stats.sxy[..., 0] / n
    a_mat = stats.sxx[..., 1:, 1:] - n * (xbar[..., :, None] * xbar[..., None, :])
    bvec = stats.sxy[..., 1:] - n * xbar * ybar[..., None]
    syy_c = stats.syy - n * ybar * ybar
    return a_mat, bvec, syy_c


def _subset_ssr(a_mat: np.ndarray, bvec: np.ndarray, cols: np.ndarray, raw_ss: np.ndarray) -> float:
    """b_S' A_SS^-1 b_S with Cholesky and jitter retries on singularity.

    A column whose centred sum of squares is at or below _PIVOT_EPS times
    its raw one is constant and adds no fit, as in the sweep.
    """
    cols = cols[np.diag(a_mat)[cols] > _PIVOT_EPS * raw_ss[cols]]
    if cols.size == 0:
        return 0.0
    sub = a_mat[np.ix_(cols, cols)]
    rhs = bvec[cols]
    scale = float(np.trace(sub)) / len(cols)
    jitter = 0.0
    for _ in range(6):
        try:
            chol = np.linalg.cholesky(sub + jitter * np.eye(len(cols)))
            z = np.linalg.solve(chol, rhs)
            return float(z @ z)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * scale if jitter == 0.0 else jitter * 100.0
    raise np.linalg.LinAlgError("model Gram matrix not SPD even with ridge jitter")


def model_r_squared(stats: GramStats, gamma: ModelVector) -> float:
    """Coefficient of determination of one model from the Gram statistics."""
    if gamma.size == 0:
        return 0.0
    a_mat, bvec, syy_c = centered_moments(stats)
    if syy_c <= 0.0:
        return 0.0
    cols = np.nonzero(np.array(gamma.bits))[0]
    r2 = _subset_ssr(a_mat, bvec, cols, np.diag(stats.sxx)[1:]) / syy_c
    return float(min(max(r2, 0.0), R2_CEIL))


def log_bf_null(stats: GramStats, gamma: ModelVector, g: float | None = None) -> float:
    """Log Bayes factor of model gamma against the intercept-only model.

    log BF = ((n-1-k)/2) log(1+g) - ((n-1)/2) log(1 + g(1-R^2)), with k the
    number of included covariates and g defaulting to n (unit information).
    """
    k = gamma.size
    if k == 0:
        return 0.0
    n = stats.n
    if n < k + 2:
        raise InsufficientDataError(f"need n >= k+2 = {k + 2} observations, have {n}")
    if g is None:
        g = float(n)
    r2 = model_r_squared(stats, gamma)
    return 0.5 * (n - 1 - k) * math.log1p(g) - 0.5 * (n - 1) * math.log1p(g * (1.0 - r2))


def _lattice_rss(a_mat: np.ndarray, bvec: np.ndarray, syy_c: np.ndarray, raw_ss: np.ndarray) -> np.ndarray:
    """Residual sum of squares of every model of M completions, a C-ordered (M, m) table.

    Inputs are stacked per completion: a_mat (M, p, p), bvec (M, p),
    syy_c (M,), raw_ss (M, p).  Inside the pass the models are on the last
    axis, with the completions interleaved: before level j,
    `block[:, :, c + M * i]` is the centred cross-product matrix of the
    columns (x_j, ..., x_{p-1}, y) of completion c after regression on model
    i, a subset of the first j covariates, so a level is a (p+1-j, p+1-j,
    M * 2**j) block.  Dropping column j keeps model i; sweeping on it gives
    model i + 2**j, so appending [kept, swept] along the last axis is the
    next level; it is written in place into the next level's two halves,
    swept = rest - (inv * col_a) * col_b.  A pivot at or below
    _PIVOT_EPS * raw_ss[c, j] leaves the swept block equal to the kept one.
    The last level's (m * M,) residuals are transposed into (M, m) with one
    copy.  The completions never mix, so a pass over a part of them gives
    their rows bit for bit.
    """
    n_comp = len(syy_c)
    top = np.concatenate([a_mat, bvec[:, :, None]], axis=2)
    bottom = np.concatenate([bvec, syy_c[:, None]], axis=1)[:, None, :]
    block = np.concatenate([top, bottom], axis=1).transpose(1, 2, 0)
    for j in range(bvec.shape[1]):
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
    -(k/2) log(1+g).  g defaults to n.
    """
    if space.p != stats.p:
        raise ShapeError(f"model space has p={space.p}, statistics have p={stats.p}")
    n = stats.n
    if n < space.p + 2:
        raise InsufficientDataError(f"need n >= p+2 = {space.p + 2} observations, have {n}")
    single = stats.sxx.ndim == 2
    if single:
        stats = GramStats(n, stats.sxx[None], stats.sxy[None], stats.syy)
    a_mat, bvec, syy_c = centered_moments(stats)
    raw_ss = np.diagonal(stats.sxx, axis1=1, axis2=2)[:, 1:]
    if g is None:
        g = n
    varies = syy_c > 0.0
    denom = np.where(varies, syy_c, 1.0)
    penalty = 0.5 * (n - 1.0 - space.sizes) * np.log1p(g)

    def log_bf_rows(part: slice) -> np.ndarray:
        rows = _lattice_rss(a_mat[part], bvec[part], syy_c[part], raw_ss[part])
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


POOLING_RULES = ("arithmetic", "geometric", "mixture")


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
    hi = np.max(logits, axis=-1, keepdims=True)
    probs = np.exp(logits - (np.log(np.sum(np.exp(logits - hi), axis=-1, keepdims=True)) + hi))
    return probs / probs.sum(axis=-1, keepdims=True)


def posterior_from_imputations(
    tables: np.ndarray,
    space: ModelSpace,
    prior: str = "uniform",
    pooling: str = "geometric",
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled log Bayes factors and the posterior, from one pooling of an (M, m) table.

    arithmetic pools to the log of the mean Bayes factor (log-sum-exp per
    model), which the most favourable completion dominates when the spread
    is large.  geometric pools to the mean log Bayes factor: systematic
    complexity penalties survive while zero-mean per-completion noise
    cancels.  Both form the posterior from the pooled vector.  mixture pools
    geometrically, but its posterior is the mean of the per-completion
    posteriors (renormalised), the completed-data mixture that caps any
    completion's influence at 1/M.  Both non-geometric rules run over the
    table one row at a time, so their temporaries are (m,) vectors rather
    than (M, m) tables.
    """
    tables = np.asarray(tables, dtype=float)
    if tables.ndim != 2:
        raise ShapeError(f"expected M x m table, got shape {tables.shape}")
    if pooling == "arithmetic":
        hi = np.max(tables, axis=0)
        pooled = hi + np.log(sum(np.exp(row - hi) for row in tables) / len(tables))
    elif pooling in ("geometric", "mixture"):
        pooled = tables.mean(axis=0)
    else:
        raise DataError(f"unknown pooling rule {pooling!r}; expected one of {POOLING_RULES}")
    if pooling == "mixture":
        probs = sum(posterior_model_probs(row, space, prior) for row in tables) / len(tables)
        return pooled, probs / probs.sum()
    return pooled, posterior_model_probs(pooled, space, prior)
