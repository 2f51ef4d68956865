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


def equicorrelated_cov(p: int, rho: float = DEFAULT_RHO) -> np.ndarray:
    """Equicorrelated covariance: unit variances, constant correlation rho."""
    lo = -1.0 / (p - 1) if p > 1 else -1.0
    if not lo < rho < 1.0:
        raise ConfigError(f"rho={rho} does not give a positive definite matrix for p={p}")
    cov = np.full((p, p), rho, dtype=float)
    np.fill_diagonal(cov, 1.0)
    return cov


@dataclass
class DGPConfig:
    """True data-generating process for one experiment."""

    p: int = 10
    beta: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_BETA))
    sigma2: float = DEFAULT_SIGMA2
    cov: np.ndarray | None = None
    true_model: ModelVector = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.p <= MAX_P:
            raise ConfigError(f"p must be in 1..{MAX_P}, got {self.p}")
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.shape != (self.p,):
            raise ShapeError(f"beta must have length p={self.p}, got {self.beta.shape}")
        if not np.all(np.isfinite(self.beta)):
            raise ConfigError(f"beta must be finite, got {self.beta}")
        if not 0.0 < self.sigma2 < np.inf:
            raise ConfigError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.cov is None:
            self.cov = equicorrelated_cov(self.p)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != (self.p, self.p):
            raise ShapeError(f"cov must be {self.p}x{self.p}, got {self.cov.shape}")
        if not np.all(np.isfinite(self.cov)):
            raise ConfigError("cov must be finite")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise DataError("cov must be symmetric")
        try:
            np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("cov must be positive definite") from exc
        self.true_model = ModelVector(tuple(int(b != 0.0) for b in self.beta))


@dataclass
class MissingDataset:
    """Responses, covariates with NaN at masked cells, and the observed mask.

    mask[j, k] is True exactly when X[j, k] is observed; responses carry no
    missing entries.
    """

    y: np.ndarray
    X: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        if self.X.shape != self.mask.shape:
            raise ShapeError(f"mask shape {self.mask.shape} != X shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ShapeError(f"y length {self.y.shape} does not match X rows {self.X.shape[0]}")
        if not np.all(np.isfinite(self.y)):
            raise DataError("responses must be finite (never masked)")


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


def validate_missingness(rate: float, mechanism: str) -> str:
    """The mechanism's canonical name; ConfigError for a rate outside [0, 1) or an unknown mechanism."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"missingness rate must be in [0, 1), got {rate}")
    mech = mechanism.lower().replace("-", "_")
    if mech not in MECHANISMS:
        raise ConfigError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
    return mech


def apply_missingness(
    x_mat: np.ndarray,
    rate: float,
    mechanism: str,
    rng: np.random.Generator,
    y: np.ndarray,
) -> MissingDataset:
    """Mask covariate cells at the given marginal rate.

    mcar: each cell independently with probability `rate`.  mar_y: cell
    (j, k) with probability expit(a + b*y_j), slope b fixed at 1/sd(y) and
    intercept a calibrated so the expected marginal rate equals `rate`;
    responses themselves are never masked.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    mech = validate_missingness(rate, mechanism)
    y = np.asarray(y, dtype=float)

    n, p = x_mat.shape
    if rate == 0.0:
        mask = np.ones((n, p), dtype=bool)
    elif mech == "mcar":
        mask = rng.random((n, p)) >= rate
    else:
        sd = float(np.std(y))
        slope = 1.0 / sd if sd > 0 else 0.0
        intercept = _calibrate_mar_intercept(y, slope, rate)
        p_missing = _expit(intercept + slope * y)
        mask = rng.random((n, p)) >= p_missing[:, None]

    x_masked = x_mat.copy()
    x_masked[~mask] = np.nan
    return MissingDataset(y=y.copy(), X=x_masked, mask=mask)
