"""Multiple imputation of masked covariate cells by chained equations.

Each of the M completions starts from column-wise mean draws with
observed-residual noise, then runs a fixed number of chained-equation
sweeps: every column with missing cells is regressed (eigenvalue-floored
least squares) on all other covariate columns, coefficients are drawn from
their asymptotic normal, and the missing cells are redrawn from the fitted
normal predictive.  Observed cells are never touched.

The M chains advance in lockstep.  The completions are one (M, n, p) array,
and each (sweep, column) step builds the (M, n, p) conditional designs
[1, other covariates] once and fits every chain with one batched Gram
product, one batched eigendecomposition and batched matrix-vector products.
Chain j draws only from child j of rng.spawn(M), in the order the chain
would use on its own: the initial fill of each column with missing cells,
then per (sweep, column) p coefficient normals (when coef_draw) followed by
the noise of the missing cells.  Its arithmetic is the one-chain arithmetic
as well (the same BLAS calls on C-contiguous operands), so chain j's
completion does not depend on M or on the other chains, and it equals,
bit for bit, the one-chain-at-a-time loop kept as a reference in the tests.

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
from .errors import ConfigError, InsufficientDataError


@dataclass
class ImputationConfig:
    M: int = 50
    sweeps: int = 5
    min_n: int = 19
    min_col_obs: int = 2
    coef_draw: bool = True  # draw coefficients from their asymptotic normal

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


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product, (M, a, b) x (M, b) -> (M, a)."""
    return np.matmul(mats, vecs[:, :, None])[:, :, 0]


def _floored_fit_draw(
    d_obs: np.ndarray,
    z_obs: np.ndarray,
    coef_noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Floored least-squares fits of M chains, with optional coefficient draws.

    d_obs is the (M, n_obs, q) design on the observed rows, z_obs the
    (M, n_obs) target, both C-contiguous so that each chain's products and
    sums run as they would on its own 2-d arrays.  Returns (beta, sigma_hat) of
    shapes (M, q) and (M,): beta is the floored point fit plus, when
    coef_noise holds (M, q) standard normals, one draw from its
    (stabilised) asymptotic normal.
    """
    n_obs, q = d_obs.shape[1:]
    d_obs_t = d_obs.transpose(0, 2, 1)
    gram = np.matmul(d_obs_t, d_obs)
    floor = np.maximum(_EIG_FLOOR * np.trace(gram, axis1=1, axis2=2) / n_obs, 1e-12)
    eigval, eigvec = np.linalg.eigh(gram)
    inv_eig = 1.0 / np.maximum(eigval, floor[:, None])
    beta = _mv(eigvec, inv_eig * _mv(eigvec.transpose(0, 2, 1), _mv(d_obs_t, z_obs)))
    resid = z_obs - _mv(d_obs, beta)
    rss = np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0]
    dof = max(n_obs - q, 1)
    s0_sq = np.var(z_obs, axis=1) + 1e-12
    sigma_hat = np.sqrt((rss + _SIGMA_PRIOR_WEIGHT * s0_sq) / (dof + _SIGMA_PRIOR_WEIGHT))
    if coef_noise is not None:
        beta = beta + sigma_hat[:, None] * _mv(eigvec, np.sqrt(inv_eig) * coef_noise)
    return beta, sigma_hat


def impute(
    data: MissingDataset,
    config: ImputationConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """The (M, n, p) completions of the masked covariates.

    Every completion agrees with data.X on the observed cells.

    Raises InsufficientDataError when n < config.min_n (the imputer needs a
    minimum number of rows) or when some covariate column has fewer than
    config.min_col_obs observed entries.
    """
    n, p = data.X.shape
    if config.min_n <= p + 2:
        raise ConfigError(f"min_n must exceed p + 2 = {p + 2}, got {config.min_n}")
    if n < config.min_n:
        raise InsufficientDataError(f"n={n} below the imputation minimum min_n={config.min_n}")
    col_obs = data.mask.sum(axis=0)
    if np.any(col_obs < config.min_col_obs):
        worst = int(np.argmin(col_obs))
        raise InsufficientDataError(
            f"column {worst + 1} has only {int(col_obs[worst])} observed values "
            f"(need >= {config.min_col_obs})"
        )

    if data.mask.all():
        return np.repeat(data.X[None, :, :], config.M, axis=0)

    mask = data.mask
    cols = [k for k in range(p) if not mask[:, k].all()]
    n_miss = {k: int(n - mask[:, k].sum()) for k in cols}
    n_coef = p if config.coef_draw else 0  # q = p: intercept plus p - 1 others
    n_draws = sum(n_miss.values()) + config.sweeps * sum(n_coef + n_miss[k] for k in cols)
    # Every chain's whole stream in one call, laid out in the order the draws
    # are used; standard_normal fills element by element, so this equals the
    # per-step calls.
    noise = np.stack([child.standard_normal(n_draws) for child in rng.spawn(config.M)])
    at = 0

    def take(count: int) -> np.ndarray:
        nonlocal at
        at += count
        return noise[:, at - count : at]

    filled = np.repeat(data.X[None, :, :], config.M, axis=0)
    for k in cols:
        obs_vals = data.X[mask[:, k], k]
        filled[:, ~mask[:, k], k] = float(obs_vals.mean()) + float(obs_vals.std()) * take(n_miss[k])

    ones = np.ones((config.M, n, 1))
    for _ in range(config.sweeps):
        for k in cols:
            obs, miss = mask[:, k], ~mask[:, k]
            design = np.concatenate([ones, filled[:, :, [c for c in range(p) if c != k]]], axis=2)
            # a boolean row gather of a 3-d array comes back in a transposed
            # layout; copied C-contiguous, every product and sum runs in the
            # order a single chain's fit would use
            beta, sigma_hat = _floored_fit_draw(
                np.ascontiguousarray(design[:, obs]),
                np.ascontiguousarray(filled[:, obs, k]),
                take(n_coef) if config.coef_draw else None,
            )
            pred = _mv(np.ascontiguousarray(design[:, miss]), beta)
            filled[:, miss, k] = pred + sigma_hat[:, None] * take(n_miss[k])
    return filled
