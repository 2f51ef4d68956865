"""Multiple imputation of masked covariate cells by chained equations.

Each of the M completions starts from column-wise mean draws with
observed-residual noise, then runs a fixed number of chained-equation
sweeps: every column with missing cells is regressed on all other covariate
columns under a ridge prior on their standardised slopes, coefficients are
drawn from the conjugate normal posterior, and the missing cells are
redrawn from the fitted normal predictive.  Observed cells are never
touched.  A call imputes no size below min_size(p) = max(MIN_N, p + 3)
rows, and every column needs MIN_COL_OBS observed cells at its smallest
size; both floors are fixed, with no config key.

One call imputes a stack of sample sizes: the completions of every size and
chain sit in one (T, M, n_hi, p + 1) array [1, x] over the first n_hi rows,
each column less the mean of its observed cells (added back at the end),
and the rows beyond a size are zero in every column (the intercept too), so
they add nothing to a product.  Each (sweep, column) step then fits all T*M
chains at once: batched products give each chain's augmented cross-product
matrix [D, z]'[D, z] over the rows where the column is observed, for the
design D = [1, X] (the intercept and the other columns) and the column z.
The right operand of each product is a copy of the gathered rows: numpy
runs A'A of one buffer as BLAS syrk plus a loop that mirrors the triangle,
twice the time of the gemm it runs on two buffers at these small shapes.
The fit needs no pass over the rows: the row count and the column sums sit
in the intercept's row.  With X's rows and columns scaled by their inverse
sds and _RIDGE * q on X's diagonal, one Cholesky factor of the whole
product pivots on the intercept first, which centres the rest (Goodnight
1979), and leaves the factor L of n_obs times the correlations of X plus
the ridge, and in its last row L^-1 c for the scaled X'z.  One back
substitution gives the standardised slopes and their draw sigma_hat L^-T xi,
as in mice's `norm` method (van Buuren 2018, Flexible Imputation of Missing
Data, Algorithm 3.1).  They map back to raw slopes through the column sds,
the free intercept follows from the means, and the residual sum of squares
for sigma_hat comes from the same factor.  The small linear algebra keeps
the chain axis last, on (q, q, B), (q, r, B) and (q, B) arrays, so each
numpy call runs one contiguous loop over the B chains, and the back
substitution runs one row at a time.  The draw is a continuous function of
the data, so sums that add in another order (a padded stack, another chunk
of sizes) move the completions by roundoff only.

Memory is set by the stack, which holds at most CELL_BUDGET values (see
model_space).  Next to it a step holds one sweep's normals for every chain
(about half the stack's size) and arrays of one value, or one small matrix,
per chain; the observed rows are gathered a bounded chunk of chains at a
time, and each step's temporaries die with it.  At desk size (M = 10,
n = 100, p = 10) a call stacks 23 sample sizes, a stack of up to 2 MB, and a
whole desk stream peaks at about 3.73 MB (tracemalloc).  The completions
handed back are views into the stack and keep it alive:
experiment._imputed_stream reduces each size to its GramStats and drops the
views before its next call.

Sample size n draws only from its own stream, and chain j from child j of
that stream's spawn(M), in the order a lone chain would use: the initial
fill of each column with missing cells, then per (sweep, column) p
coefficient normals followed by the noise of the missing cells.  Each
chain's normals are drawn one sweep at a time.  In a given stack of sizes,
chain j's completion does not depend on M, bit for bit; it matches the same
size imputed alone, and the one-chain-at-a-time loop kept
as a reference in the tests, up to roundoff.

The response is not a predictor.  The observed-data Bayes factor of a model
against the null is the complete-data Bayes factor averaged over
p(x_mis | x_obs): the null model's marginal of y does not involve x, the
covariate model is shared by all models, and a missingness mechanism that
depends only on observed values (MCAR, or MAR on the always-observed y as
in `mar_y`) contributes the same factor to every model's marginal, so it
cancels.  That average does not condition on y.  Completions filled in from
y would let each complete-data Bayes factor score y against cells predicted
from y.  Under `mar_y` the rows where a column is observed are selected by
y, so when y depends on x the fit is not the population regression of x_k
on the others; it is still the null model's posterior predictive, which is
what the average asks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_gen import MissingDataset
from .errors import ConfigError, InsufficientDataError, ShapeError
from .model_space import CELL_BUDGET


@dataclass(frozen=True)
class ImputationConfig:
    """M completions per sample size, each after `sweeps` chained-equation sweeps."""

    M: int = 10
    sweeps: int = 5

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if self.sweeps < 1:
            raise ConfigError(f"sweeps must be >= 1, got {self.sweeps}")


# A column's initial fill draws around the mean and spread of its observed
# cells at the smallest size imputed, and a spread takes two of them.
MIN_COL_OBS = 2
# The fewest rows imputed: the comment starts its sequence at n = 19 because
# its imputation method could not run on fewer rows at p = 10.
MIN_N = 19


def min_size(p: int) -> int:
    """The smallest sample size impute takes at p covariates: MIN_N, and above p + 2 at any p."""
    return max(MIN_N, p + 3)


# A column's conditional fit puts a normal prior worth _RIDGE * q pseudo-rows
# (q the design width: 1.5 rows at p = 10) on the slopes of the design
# columns standardised over the fit's rows; the intercept is free (Hastie,
# Tibshirani & Friedman, ESL, section 3.4.1).  Around n = 19 with ten
# covariates a column has 8-16 observed rows for 10 predictors, where least
# squares is near-saturated and its coefficients unbounded along the
# design's null space; the prior keeps the point fit and the draw finite,
# fades as _RIDGE * q / n_obs, and does not depend on the columns' units.  A
# weak inverse-gamma prior worth _SIGMA_PRIOR_WEIGHT rows at the column's
# observed variance keeps the residual scale proper at saturation.
_SIGMA_PRIOR_WEIGHT = 2.0
_RIDGE = 0.15
# A centred square sum below this share of the n m^2 subtracted from the raw
# one is roundoff of the subtraction (a few thousand ulps), not spread.
_CONSTANT_TOL = 1e-10


# The stack of one impute call holds at most CELL_BUDGET values,
# T * M * n_hi * (p + 1): at desk size (M = 10, n = 100, p = 10) that is 23
# sample sizes per call, four calls per replication.  The observed rows of a
# (sweep, column) fit are gathered in chunks of at most _GATHER_CELLS values,
# which keeps a chunk and the cross-products below the fit's own arrays.
_GATHER_CELLS = CELL_BUDGET // 8


def stack_sizes(n_max: int, M: int, p: int) -> int:
    """How many consecutive sample sizes up to n_max one impute call should stack."""
    return max(1, CELL_BUDGET // (M * n_max * (p + 1)))


def _backward(low_t: np.ndarray, rhs_t: np.ndarray) -> np.ndarray:
    """x with low^T @ x = rhs, for a (q, q, B) lower-triangular stack and (q, r, B) right-hand sides."""
    x = rhs_t.copy()
    for i in reversed(range(len(x))):
        x[i] /= low_t[i, i]
        x[:i] -= low_t[i, :i, None] * x[i]
    return x


def _ridge_fit(aug_t: np.ndarray, coef_noise_t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ridge fits of a stack of chains, their draw directions, and the residual and centred sums of squares of z.

    aug_t is the (q + 1, q + 1, B) stack of [D, z]'[D, z] for D = [1, X]
    and the column z, overwritten here.  coef_noise_t is (q, B) standard
    normals xi.  Returns, in the raw coordinates of D and both (q, B), the
    point fits (G + diag(0, f S_jj / n_obs))^-1 D'z with G = D'D,
    f = _RIDGE * q and S the centred X'X, and the draw directions: slopes
    L^-T xi[1:] / d for the column sds d, intercept xi[0] / sqrt(n_obs) less
    the column means times those; then the (B,) rss and S_zz.  A column
    constant on the rows gets slope 0.  The factor of the whole product
    holds L and, in its last row, h = L^-1 c; h does not read the corner,
    which only has to keep the matrix definite.
    """
    q = len(aug_t) - 1
    ridge = _RIDGE * q
    diag = np.arange(1, q + 1)
    n_obs = aug_t[0, 0]
    sums = aug_t[0, 1:]
    mean = sums / n_obs
    # the centred square sums of (X, z): n_obs times their variances
    centred = aug_t[diag, diag] - sums * mean
    s_zz = np.maximum(centred[-1], 0.0)  # roundoff can take a constant z's below 0
    # a column whose centred square sum is within roundoff of the n m^2 it
    # was taken from is constant on the rows: its standardised column is 0
    varies = centred[:-1] > _CONSTANT_TOL * sums[:-1] * mean[:-1]
    inv_scale = np.divide(n_obs, centred[:-1], out=np.zeros_like(mean[:-1]), where=varies)
    np.sqrt(inv_scale, out=inv_scale)
    aug_t[1:q] *= inv_scale[:, None]
    aug_t[:, 1:q] *= inv_scale
    aug_t[diag[:-1], diag[:-1]] += ridge
    # z'z + 1 more in the corner keeps the last pivot's square at z'z + 1 or
    # more, less roundoff, however close z is to the span of D
    aug_t[q, q] += aug_t[q, q] + 1.0
    # the factor in numpy's layout is a temporary, so it does not outlive its use
    factor = np.linalg.cholesky(aug_t.transpose(2, 0, 1))
    factor_t = np.ascontiguousarray(factor[:, 1:, 1:q].transpose(1, 2, 0))
    del factor
    half, factor_t = factor_t[-1], factor_t[:-1]
    solved = _backward(factor_t, np.concatenate([half[:, None], coef_noise_t[1:, None, :]], axis=1))
    # rss = S_zz - 2 b'c + b'(S + ridge I) b - ridge b'b with (S + ridge I) b = c,
    # and b'c = |L^-1 c|^2 (clamped at 0, which roundoff can cross)
    fit_sq = np.einsum("ib,ib->b", half, half) + ridge * np.einsum("ib,ib->b", solved[:, 0], solved[:, 0])
    rss = np.maximum(s_zz - fit_sq, 0.0)
    raw = np.empty((2, q, len(n_obs)))
    raw[:, 1:] = solved.transpose(1, 0, 2) * inv_scale
    raw[0, 0] = mean[-1]
    raw[1, 0] = coef_noise_t[0] / np.sqrt(n_obs)
    raw[:, 0] -= np.einsum("ib,kib->kb", mean[:-1], raw[:, 1:])
    return raw[0], raw[1], rss, s_zz


def _cross_products(flat: np.ndarray, rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Cross-products of [1, x] over the given rows of each chain of the (B, n_hi, p + 1) stack, columns in order.

    Returns one copy of the products, chain axis last; order lists the
    design columns and then column k, for [D, z]'[D, z].  The rows are
    gathered a chunk of chains at a time, at most _GATHER_CELLS values per
    chunk; each chain's product is computed on its own, so the chunking does
    not change a bit of the result, and the full products die on return.
    The right operand is a copy of the gathered rows: numpy sends A'A of
    one buffer to BLAS syrk plus a loop that mirrors the triangle, which at
    these shapes (about 230 chains of 41 x 11) takes twice as long as the
    gemm it sends two buffers to.
    """
    chains, width = len(flat), flat.shape[2]
    full = np.empty((chains, width, width))
    step = max(1, _GATHER_CELLS // (len(rows) * width))
    for lo in range(0, chains, step):
        part = np.take(flat[lo : lo + step], rows, axis=1)
        np.matmul(part.transpose(0, 2, 1), part.copy(), out=full[lo : lo + step])
        del part  # freed before the next chunk is gathered
    return full.transpose(1, 2, 0)[order[:, None], order]


def _redraw(flat: np.ndarray, order: np.ndarray, obs: np.ndarray, miss: np.ndarray, normals: np.ndarray) -> None:
    """One (sweep, column) step: refit a column of every chain of the stack, then redraw its missing rows in place.

    flat is the (B, n_hi, p + 1) stack [1, x]; order lists the design
    columns and then the column k, and obs and miss are the rows where k is
    observed and missing; a chain's rows beyond its sample size are zero.
    normals holds each chain's p coefficient normals, then one per missing
    row.  The coefficients are one draw from
    N(beta_hat, sigma_hat^2 (G + P)^-1), P the ridge prior's precision in
    the raw coordinates.  Every temporary dies on return.
    """
    design, k = order[:-1], order[-1]
    q = len(design)
    aug_t = _cross_products(flat, obs, order)
    # the intercept column is 1 on a chain's rows and 0 beyond; the fit
    # leaves this corner as it found it
    n_obs = aug_t[0, 0]
    beta_t, spread_t, rss, s_zz = _ridge_fit(aug_t, normals[:, :q].T)
    s0_sq = s_zz / n_obs + 1e-12
    dof = np.maximum(n_obs - q, 1.0)
    sigma_hat = np.sqrt((rss + _SIGMA_PRIOR_WEIGHT * s0_sq) / (dof + _SIGMA_PRIOR_WEIGHT))
    coef = np.zeros((len(flat), flat.shape[2]))
    coef[:, design] = (beta_t + sigma_hat * spread_t).T
    # every row's prediction, read at the missing ones; rows beyond a chain's
    # size are zero and draw 0, so they stay 0
    pred = np.matmul(flat, coef[:, :, None])[:, miss, 0]
    flat[:, miss, k] = pred + sigma_hat[:, None] * normals[:, q:]


def _draw_index(n_miss: np.ndarray, n_coef: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Where each column's normals sit in one chain's block of draws, per sample size.

    n_miss is (K, T): the missing cells of each column with missing cells,
    at each of the T sizes.  At a size, the block holds for each column with
    a missing cell there, in column order, n_coef coefficient normals and
    then one normal per missing cell in row order.  Returns, per column, a
    (T, 1, n_coef + most missing cells) index into the block, shared by
    every chain of a size, -1 where the column draws nothing at that size;
    and the (T,) block lengths.
    """
    width = np.where(n_miss > 0, n_coef + n_miss, 0)
    start = np.cumsum(width, axis=0) - width
    index = []
    for col_width, col_start, most in zip(width, start, n_miss.max(axis=1)):
        span = np.arange(n_coef + most)
        index.append(np.where(span < col_width[:, None], col_start[:, None] + span, -1)[:, None, :])
    return index, width.sum(axis=0)


def impute(
    data: MissingDataset,
    config: ImputationConfig,
    streams: dict[int, np.random.Generator],
) -> list[np.ndarray]:
    """The (M, n, p) completions of the first n rows of data, for each n in streams.

    streams maps each sample size to its random stream; the result follows
    its order.  Every completion agrees with data.X on the observed cells.
    The completions are views into one stack that holds them all: copy a
    size's completions to keep them without the stack.

    Raises InsufficientDataError when a size is below min_size(p) (the
    imputer needs a minimum number of rows) or when some covariate column
    has fewer than MIN_COL_OBS observed entries at the smallest size.
    """
    if not streams:
        raise ShapeError("impute needs at least one sample size")
    sizes = np.fromiter(streams, dtype=np.int64, count=len(streams))
    n_rows, p = data.X.shape
    n_lo, n_hi = int(sizes.min()), int(sizes.max())
    if n_hi > n_rows:
        raise ShapeError(f"sample size {n_hi} exceeds the {n_rows} rows of the data")
    if n_lo < min_size(p):
        raise InsufficientDataError(f"n={n_lo} below the imputation minimum {min_size(p)} at p={p}")
    col_obs = data.mask[:n_lo].sum(axis=0)
    if np.any(col_obs < MIN_COL_OBS):
        worst = int(np.argmin(col_obs))
        raise InsufficientDataError(
            f"column {worst + 1} has only {int(col_obs[worst])} observed values at n={n_lo} "
            f"(need >= {MIN_COL_OBS})"
        )

    x, mask = data.X[:n_hi], data.mask[:n_hi]
    cols = [k for k in range(p) if not mask[:, k].all()]
    # the stack holds each column less the mean of its observed cells, and
    # the completions get it back at the end: the fits centre from
    # cross-products, which keep a column's digits only while its offset is
    # small next to its spread
    offset = x.mean(axis=0, where=mask) if cols else np.zeros(p)
    x = x - offset
    t_count, chains = len(sizes), config.M
    in_size = np.arange(n_hi) < sizes[:, None]  # (T, n_hi)
    stack = np.zeros((t_count, chains, n_hi, p + 1))
    stack[..., 0] = in_size[:, None, :]
    stack[..., 1:] = np.where(mask & in_size[:, :, None], x, 0.0)[:, None]
    completions = [stack[t, :, :n, 1:] for t, n in enumerate(sizes)]
    if not cols:
        return completions
    miss_rows = [np.flatnonzero(~mask[:, k]) for k in cols]
    obs_rows = [np.flatnonzero(mask[:, k]) for k in cols]
    # each fit's product columns: the intercept and the other covariates, then column k
    orders = [np.append(np.delete(np.arange(p + 1), k + 1), k + 1) for k in cols]
    n_miss = np.array([(rows < sizes[:, None]).sum(axis=1) for rows in miss_rows])  # (K, T)
    sweep_index, sweep_len = _draw_index(n_miss, p)  # q = p: intercept plus p - 1 others
    # one sweep's normals for every chain; the last slot stays 0 and is what
    # index -1 reads
    width = int(sweep_len.max()) + 1
    noise = np.zeros((t_count, chains, width))
    row_start = (np.arange(t_count * chains) * width).reshape(t_count, chains, 1)
    children = [rng.spawn(chains) for rng in streams.values()]

    def normals(index: np.ndarray) -> np.ndarray:
        # (T, M, slots): every chain's normals at a column's slots.  The flat
        # index is built per read, so no (T, M, slots) index outlives it; a
        # flat take is several times faster than take_along_axis here
        return noise.take(row_start + index % width)

    def draw(lengths: np.ndarray) -> None:
        # standard_normal fills element by element, so one call per chain and
        # sweep gives the numbers that one call per (sweep, column) would
        for size_children, size_noise, length in zip(children, noise, lengths):
            for child, chain_noise in zip(size_children, size_noise):
                child.standard_normal(out=chain_noise[:length])

    fill_index, fill_len = _draw_index(n_miss, 0)
    draw(fill_len)
    for k, miss, obs, index in zip(cols, miss_rows, obs_rows, fill_index):
        vals = np.where(obs < sizes[:, None], x[obs, k], np.nan)  # (T, observed rows)
        mean = np.nanmean(vals, axis=1)[:, None, None]
        scale = np.nanstd(vals, axis=1)[:, None, None]
        in_miss = (miss < sizes[:, None])[:, None, :]
        stack[:, :, miss, k + 1] = np.where(in_miss, mean + scale * normals(index), 0.0)
    del fill_index  # the sweeps do not need it

    flat = stack.reshape(t_count * chains, n_hi, p + 1)
    for _ in range(config.sweeps):
        draw(sweep_len)
        for order, miss, obs, index in zip(orders, miss_rows, obs_rows, sweep_index):
            _redraw(flat, order, obs, miss, normals(index).reshape(len(flat), -1))
    stack[..., 1:] += offset
    np.copyto(stack[..., 1:], data.X[:n_hi], where=mask)  # the observed cells, bit for bit
    return completions
