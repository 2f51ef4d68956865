"""Multiple imputation of masked covariate cells by chained equations.

Each of the M completions starts from column-wise mean draws with
observed-residual noise, then runs a fixed number of chained-equation
sweeps: every column with missing cells is regressed (eigenvalue-floored
least squares) on all other covariate columns, coefficients are drawn from
their asymptotic normal, and the missing cells are redrawn from the fitted
normal predictive.  Observed cells are never touched.

One call imputes a stack of sample sizes: the completions of every size and
chain sit in one (T, M, n_hi, p + 1) array [1, x] over the first n_hi rows,
and the rows beyond a size are zero in every column (the intercept too), so
they add nothing to a product.  Each (sweep, column) step then fits all T*M
chains at once: batched products give each chain's (p + 1) x (p + 1)
cross-product matrix of [1, x] over the rows where the column is observed,
which holds the Gram matrix G = D'D of the design D (the intercept and the
other columns), D'z for the column z, z'z and sum z.  From these one
function, _redraw, fits, draws and fills: every step draws each chain's
coefficients, and the missing cells are then read off [1, x] beta, formed
over every row of the stack.  The draw goes through a Cholesky factor, as
in van Buuren (2018, Flexible Imputation of Missing Data, Algorithm 3.1):
beta = G_f^-1 D'z + sigma_hat L_f^-T xi, where G_f is G when every
eigenvalue clears the floor f and V diag(max(lambda, f)) V' otherwise, and
L_f is its Cholesky factor.  sigma_hat needs no pass over the rows: the
residual sum of squares is z'z - 2 beta_hat'D'z + beta_hat'G beta_hat with
the unfloored G, and the centred one z'z - (sum z)^2 / n_obs.  The small
linear algebra keeps the chain axis last from the cross-products to the
coefficients, on (q, q, B), (q, r, B) and (q, B) arrays, so each numpy call
runs one contiguous loop over the B chains: a vectorised elimination pass
finds the chains whose G - f I has no Cholesky factor (only those go
through `eigh`), and the forward and back substitutions run one row at a
time.  The draw is a continuous function of the data, so sums that add in
another order (a padded stack, another chunk of sizes) move the completions
by roundoff only.

Memory is set by the stack, which holds at most CELL_BUDGET values (see
model_space).  Next to it a step holds one sweep's normals for every chain
(about half the stack's size) and arrays of one value, or one small matrix,
per chain; the observed rows are gathered a bounded chunk of chains at a
time, and each step's temporaries die with it.  At desk size (M = 10,
n = 100, p = 10) a call stacks 23 sample sizes, a stack of up to 2 MB, and a
whole desk stream peaks at about 3.8 MB (tracemalloc).  The completions
handed back are views into the stack: a caller that keeps a size copies it,
as experiment._imputed_stream does, one size at a time.

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


@dataclass
class ImputationConfig:
    M: int = 50
    sweeps: int = 5
    min_n: int = 19
    min_col_obs: int = 2

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if self.sweeps < 1:
            raise ConfigError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.min_col_obs < 2:
            raise ConfigError(f"min_col_obs must be >= 2, got {self.min_col_obs}")


# Weak inverse-gamma regularisation of the residual variance and an
# eigenvalue floor on the observed Gram matrix keep the normal predictive
# proper when the conditional fit is (near-)saturated, as happens around
# n = 19 with ten covariates (8-16 observed rows for 10 predictors): there the
# raw least-squares fit has residual variance ~ 0 and unbounded coefficients
# along the observed design's null space.  The floor applies to the point fit
# and the coefficient draw alike.  It is _EIG_FLOOR * trace(gram) / n_obs,
# i.e. _EIG_FLOOR times the information that q rows carry about an average
# design column.  It does not grow with n_obs while the Gram eigenvalues do, so
# once every eigenvalue clears it the fit is exact least squares.  At
# saturation (n_obs = q) it is _EIG_FLOOR times the mean Gram diagonal; 0.15
# there keeps, for unit-scale covariates, the floor that 0.05 gave when the
# response column (variance ~25 in the default DGP) was part of the design
# and set most of the trace.
_SIGMA_PRIOR_WEIGHT = 2.0
_EIG_FLOOR = 0.15


# The stack of one impute call holds at most CELL_BUDGET values,
# T * M * n_hi * (p + 1): at desk size (M = 10, n = 100, p = 10) that is 23
# sample sizes per call, four calls per replication.  The observed rows of a
# (sweep, column) fit are gathered in chunks of at most _GATHER_CELLS values,
# which keeps a chunk and the cross-products below the fit's own arrays.
_GATHER_CELLS = CELL_BUDGET // 8


def stack_sizes(n_max: int, M: int, p: int) -> int:
    """How many consecutive sample sizes up to n_max one impute call should stack."""
    return max(1, CELL_BUDGET // (M * n_max * (p + 1)))


def _floor_binds(gram_t: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """(B,) flags of the (q, q, B) Gram stack's matrices with an eigenvalue at or below their floor.

    That is when gram - floor * I has no Cholesky factor: one symmetric
    elimination step per column, vectorised over the stack, meets a pivot
    that is not positive.  (np.linalg.cholesky fails the whole stack when
    one matrix fails.)  Step j leaves pivot j in place, so the pivots are
    read off the diagonal at the end; a chain that has met a failing pivot
    carries on with meaningless values, which only its own flag reads.
    """
    q = len(gram_t)
    diag = np.arange(q)
    rest = gram_t.copy()
    rest[diag, diag] -= floor
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(q - 1):
            scaled = rest[j, None, j + 1 :] / rest[j, j]
            rest[j + 1 :, j + 1 :] -= rest[j + 1 :, j, None] * scaled
    return ~(rest[diag, diag] > 0.0).all(axis=0)


def _forward(low_t: np.ndarray, rhs_t: np.ndarray) -> np.ndarray:
    """x with low @ x = rhs, for a (q, q, B) lower-triangular stack and (q, r, B) right-hand sides."""
    x = rhs_t.copy()
    for i in range(len(x)):
        x[i] /= low_t[i, i]
        x[i + 1 :] -= low_t[i + 1 :, i, None] * x[i]
    return x


def _backward(low_t: np.ndarray, rhs_t: np.ndarray) -> np.ndarray:
    """x with low^T @ x = rhs, for a (q, q, B) lower-triangular stack and (q, r, B) right-hand sides."""
    x = rhs_t.copy()
    for i in reversed(range(len(x))):
        x[i] /= low_t[i, i]
        x[:i] -= low_t[i, :i, None] * x[i]
    return x


def _floored_fit(
    gram_t: np.ndarray, cross_t: np.ndarray, n_obs: np.ndarray, coef_noise_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Floored least-squares fits of a stack of chains, and their draw directions.

    gram_t is the (q, q, B) stack of D'D, cross_t the (q, B) stack of D'z,
    n_obs the (B,) row counts and coef_noise_t (q, B) standard normals xi;
    the floor is _EIG_FLOOR * trace(gram) / n_obs.  Returns the point fits
    G_f^-1 D'z and the draw directions L_f^-T xi, both (q, B).
    """
    floor = np.maximum(_EIG_FLOOR * np.trace(gram_t) / n_obs, 1e-12)
    # the floored stack and the factor in numpy's layout are temporaries, so
    # neither outlives its use
    factor = np.linalg.cholesky(_lift(gram_t, floor).transpose(2, 0, 1))
    factor_t = np.ascontiguousarray(factor.transpose(1, 2, 0))
    del factor
    rhs_t = np.concatenate([_forward(factor_t, cross_t[:, None, :]), coef_noise_t[:, None, :]], axis=1)
    solved = _backward(factor_t, rhs_t)
    return solved[:, 0], solved[:, 1]


def _lift(gram_t: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """G_f of each chain, (q, q, B): G where every eigenvalue clears the floor, V diag(max(lambda, f)) V' elsewhere.

    Only the chains where the floor binds pay for `eigh`, and only then is
    the stack copied.
    """
    binds = _floor_binds(gram_t, floor)
    if not binds.any():
        return gram_t
    eigval, eigvec = np.linalg.eigh(gram_t[:, :, binds].transpose(2, 0, 1))
    lifted = eigvec * np.maximum(eigval, floor[binds, None])[:, None, :]
    gram_f_t = gram_t.copy()
    gram_f_t[:, :, binds] = np.matmul(lifted, eigvec.transpose(0, 2, 1)).transpose(1, 2, 0)
    return gram_f_t


def _cross_products(flat: np.ndarray, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-products of [1, x] over the given rows of each chain of the (B, n_hi, p + 1) stack, split for column k.

    Returns, chain axis last, the Gram matrices G = D'D of the design D (the
    intercept and every column but k), (q, q, B); the products D'z with
    column k, (q, B); and the row counts, z'z and sum z, (3, B).  The rows
    are gathered a chunk of chains at a time, at most _GATHER_CELLS values
    per chunk; each chain's product is computed on its own, so the chunking
    does not change a bit of the result.  The pieces are copies, so the full
    products are freed on return.
    """
    chains, width = len(flat), flat.shape[2]
    full = np.empty((chains, width, width))
    step = max(1, _GATHER_CELLS // (len(rows) * width))
    for lo in range(0, chains, step):
        part = np.take(flat[lo : lo + step], rows, axis=1)
        np.matmul(part.transpose(0, 2, 1), part, out=full[lo : lo + step])
        del part  # freed before the next chunk is gathered
    full_t = full.transpose(1, 2, 0)
    design = np.delete(np.arange(width), k)
    return full_t[design[:, None], design], full_t[design, k], full_t[[0, k, 0], [0, k, k]]


def _redraw(flat: np.ndarray, k: int, obs: np.ndarray, miss: np.ndarray, normals: np.ndarray) -> None:
    """One (sweep, column) step: refit column k of every chain of the stack, then redraw its missing rows in place.

    flat is the (B, n_hi, p + 1) stack [1, x], obs and miss the rows where
    column k is observed and missing; a chain's rows beyond its sample size
    are zero.  normals holds each chain's p coefficient normals, then one
    per missing row.  The coefficients are one draw from N(beta_hat,
    sigma_hat^2 G_f^-1).  Every temporary dies on return, so none outlives
    the step.
    """
    width = flat.shape[2]
    design = np.delete(np.arange(width), k)  # the intercept and the other covariates
    q = len(design)
    gram_t, cross_t, (n_obs, zz, z_sum) = _cross_products(flat, obs, k)
    # n_obs: the intercept column is 1 on a chain's rows and 0 beyond
    beta_t, spread_t = _floored_fit(gram_t, cross_t, n_obs, normals[:, :q].T)
    # residual and centred sums of squares of column k from the cross-products
    # alone: rss = z'z - 2 beta_hat'D'z + beta_hat'G beta_hat with the
    # unfloored G (clamped at 0, which roundoff can cross), and
    # n s0^2 = z'z - (sum z)^2 / n_obs
    fitted_sq = np.einsum("ib,ijb,jb->b", beta_t, gram_t, beta_t)
    rss = np.maximum(zz - 2.0 * np.einsum("ib,ib->b", beta_t, cross_t) + fitted_sq, 0.0)
    s0_sq = (zz - z_sum * z_sum / n_obs) / n_obs + 1e-12
    dof = np.maximum(n_obs - q, 1.0)
    sigma_hat = np.sqrt((rss + _SIGMA_PRIOR_WEIGHT * s0_sq) / (dof + _SIGMA_PRIOR_WEIGHT))
    coef = np.zeros((len(flat), width))
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

    Raises InsufficientDataError when a size is below config.min_n (the
    imputer needs a minimum number of rows) or when some covariate column
    has fewer than config.min_col_obs observed entries at the smallest size.
    """
    if not streams:
        raise ShapeError("impute needs at least one sample size")
    sizes = np.fromiter(streams, dtype=np.int64, count=len(streams))
    n_rows, p = data.X.shape
    if config.min_n <= p + 2:
        raise ConfigError(f"min_n must exceed p + 2 = {p + 2}, got {config.min_n}")
    n_lo, n_hi = int(sizes.min()), int(sizes.max())
    if n_hi > n_rows:
        raise ShapeError(f"sample size {n_hi} exceeds the {n_rows} rows of the data")
    if n_lo < config.min_n:
        raise InsufficientDataError(f"n={n_lo} below the imputation minimum min_n={config.min_n}")
    col_obs = data.mask[:n_lo].sum(axis=0)
    if np.any(col_obs < config.min_col_obs):
        worst = int(np.argmin(col_obs))
        raise InsufficientDataError(
            f"column {worst + 1} has only {int(col_obs[worst])} observed values at n={n_lo} "
            f"(need >= {config.min_col_obs})"
        )

    x, mask = data.X[:n_hi], data.mask[:n_hi]
    t_count, chains = len(sizes), config.M
    in_size = np.arange(n_hi) < sizes[:, None]  # (T, n_hi)
    stack = np.zeros((t_count, chains, n_hi, p + 1))
    stack[..., 0] = in_size[:, None, :]
    stack[..., 1:] = np.where(mask & in_size[:, :, None], x, 0.0)[:, None]
    completions = [stack[t, :, :n, 1:] for t, n in enumerate(sizes)]

    cols = [k for k in range(p) if not mask[:, k].all()]
    if not cols:
        return completions
    miss_rows = [np.flatnonzero(~mask[:, k]) for k in cols]
    obs_rows = [np.flatnonzero(mask[:, k]) for k in cols]
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
        for k, miss, obs, index in zip(cols, miss_rows, obs_rows, sweep_index):
            _redraw(flat, k + 1, obs, miss, normals(index).reshape(len(flat), -1))
    return completions
