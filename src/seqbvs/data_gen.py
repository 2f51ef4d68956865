"""Synthetic data streams: correlated Gaussian covariates, linear responses,
and covariate missingness.

The default configuration reproduces the replication setting: p = 10
covariates, true coefficients (1, 2, 0, 0, 0, 1, 2, 0, 0, 0), noise variance
2.5, equicorrelated covariates (rho = 0.5), and 40% of covariate cells
missing.  Responses are never masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .model_space import MAX_P, ModelVector

DEFAULT_BETA = (1.0, 2.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0)
DEFAULT_SIGMA2 = 2.5
DEFAULT_RHO = 0.5

MECHANISMS = ("mcar", "mar_y")


def equicorrelated_cov(p: int, rho: float) -> np.ndarray:
    """Equicorrelated covariance: unit variances, constant correlation rho.

    ConfigError unless -1/(p-1) < rho < 1 and the matrix factors: near the
    ends of that range (rho = nextafter(1, 0) at p = 10) the Cholesky that
    gen_covariates takes fails in floating point.
    """
    lo = -1.0 / (p - 1) if p > 1 else -1.0
    message = f"rho={rho} does not give a positive definite matrix for p={p}"
    if not lo < rho < 1.0:
        raise ConfigError(message)
    cov = np.full((p, p), rho, dtype=float)
    np.fill_diagonal(cov, 1.0)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(message) from exc
    return cov


@dataclass(frozen=True)
class DGPConfig:
    """True data-generating process for one experiment.

    p, beta, sigma2 and rho are set; cov (equicorrelated at rho) and
    true_model (the covariates with nonzero beta) follow from them.  The
    section is frozen and beta and cov are read-only copies, so it holds
    what was checked.
    """

    p: int = 10
    beta: np.ndarray = DEFAULT_BETA  # any length-p sequence, held as a read-only float copy
    sigma2: float = DEFAULT_SIGMA2
    rho: float = DEFAULT_RHO
    cov: np.ndarray = field(init=False)
    true_model: ModelVector = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.p <= MAX_P:
            raise ConfigError(f"p must be in 1..{MAX_P}, got {self.p}")
        beta = np.array(self.beta, dtype=float)
        if beta.shape != (self.p,):
            raise ShapeError(f"beta must have length p={self.p}, got {beta.shape}")
        if not np.all(np.isfinite(beta)):
            raise ConfigError(f"beta must be finite, got {beta}")
        if not 0.0 < self.sigma2 < np.inf:
            raise ConfigError(f"sigma2 must be positive and finite, got {self.sigma2}")
        cov = equicorrelated_cov(self.p, self.rho)
        beta.flags.writeable = cov.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "true_model", ModelVector(tuple(int(b != 0.0) for b in beta)))

    def __setstate__(self, state: dict) -> None:
        # an unpickled or deep-copied array comes back writeable: a process pool's configs are unpickled
        self.__dict__.update(state)
        self.beta.flags.writeable = self.cov.flags.writeable = False


@dataclass(frozen=True)
class MissingnessConfig:
    """Covariate cells masked at marginal rate in [0, 1), under a mechanism named as in MECHANISMS."""

    rate: float = 0.4
    mechanism: str = "mcar"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"missingness rate must be in [0, 1), got {self.rate}")
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}, got {self.mechanism!r}")


@dataclass(frozen=True)
class MissingDataset:
    """Responses, covariates with NaN at masked cells, and the observed mask.

    mask is a bool array of X's 2-D shape, and mask[j, k] is True exactly
    when X[j, k] is observed; observed cells and responses are finite, and
    responses carry no missing entries.  Masked cells of X are not read.
    The dataset is frozen and its arrays are read-only copies of those
    given, so it holds what was checked.
    """

    y: np.ndarray
    X: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        y, x_mat, mask = (np.array(a) for a in (self.y, self.X, self.mask))
        if x_mat.ndim != 2 or mask.shape != x_mat.shape or mask.dtype != bool:
            raise ShapeError(
                f"mask must be a bool array of X's 2-D shape {x_mat.shape}, got {mask.dtype} {mask.shape}"
            )
        if y.shape != (x_mat.shape[0],):
            raise ShapeError(f"y length {y.shape} does not match X rows {x_mat.shape[0]}")
        if not np.all(np.isfinite(y)):
            raise DataError("responses must be finite (never masked)")
        if not np.all(np.isfinite(x_mat[mask])):
            raise DataError("observed covariates must be finite")
        for name, value in (("y", y), ("X", x_mat), ("mask", mask)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        # an unpickled or deep-copied array comes back writeable
        self.__dict__.update(state)
        for value in state.values():
            value.flags.writeable = False


def gen_covariates(n: int, cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. mean-zero multivariate normal rows with covariance cov."""
    cov = np.asarray(cov, dtype=float)
    chol = np.linalg.cholesky(cov)  # raises LinAlgError for non-SPD input
    z = rng.standard_normal((n, cov.shape[0]))
    return z @ chol.T


def gen_responses(x_mat: np.ndarray, config: DGPConfig, rng: np.random.Generator) -> np.ndarray:
    """y = X beta + eps with eps ~ N(0, sigma2), no intercept in the DGP."""
    x_mat = np.asarray(x_mat, dtype=float)
    if x_mat.ndim != 2 or x_mat.shape[1] != config.p:
        raise ShapeError(f"X must be n x {config.p}, got {x_mat.shape}")
    eps = rng.standard_normal(x_mat.shape[0]) * np.sqrt(config.sigma2)
    return x_mat @ config.beta + eps


def _expit(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _calibrate_mar_intercept(y: np.ndarray, slope: float, rate: float) -> float:
    """Bisection for a such that mean(expit(a + slope*y)) == rate."""
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.mean(_expit(mid + slope * y))) < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def apply_missingness(
    x_mat: np.ndarray, missing: MissingnessConfig, rng: np.random.Generator, y: np.ndarray
) -> MissingDataset:
    """Mask covariate cells at the section's marginal rate.

    mcar: each cell independently with probability `rate`.  mar_y: cell
    (j, k) with probability expit(a + b*y_j), slope b fixed at 1/sd(y) and
    intercept a calibrated so the expected marginal rate equals `rate`;
    responses themselves are never masked.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    y = np.asarray(y, dtype=float)
    if x_mat.ndim != 2 or y.shape != (len(x_mat),):
        raise ShapeError(f"X must be 2-D with one row per response, got X {x_mat.shape} and y {y.shape}")

    n, p = x_mat.shape
    if missing.rate == 0.0:
        mask = np.ones((n, p), dtype=bool)
    elif missing.mechanism == "mcar":
        mask = rng.random((n, p)) >= missing.rate
    else:
        sd = float(np.std(y))
        slope = 1.0 / sd if sd > 0 else 0.0
        intercept = _calibrate_mar_intercept(y, slope, missing.rate)
        p_missing = _expit(intercept + slope * y)
        mask = rng.random((n, p)) >= p_missing[:, None]

    return MissingDataset(y=y, X=np.where(mask, x_mat, np.nan), mask=mask)
