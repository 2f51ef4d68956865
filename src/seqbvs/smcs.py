"""Per-model E-processes and the resulting sequential model confidence set.

For every candidate model i the engine tracks the running supremum of

    log E_{i,r} = logsumexp_{j != i}( lam * sum_{s<=r} (L_{i,s} - L_{j,s}) )
                  - log(m-1) - r/8

over r, in log space throughout (the exponents grow without bound).  The
set of models whose supremum stays at or below log(1/alpha) is the
confidence set; it is nested over time because the supremum never
decreases.  When the per-model losses are built from log Bayes factors the
pairwise cumulative differences reduce to differences of the per-model
cumulative sums, so the engine needs only O(m) state.

A fresh state (no data) treats every model as a member: the supremum over
an empty index set is taken as -inf (E = 0 convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, ShapeError


@dataclass
class SmcsConfig:
    """Error level alpha and the sub-exponential tuning parameter lambda.

    Either pass `lam` directly or a scale `varsigma`, in which case
    lam = 1 / (8 varsigma^2).  Defaults give alpha = 0.1 and, when neither is
    passed, varsigma = 0.65, hence lam ~= 0.296.
    """

    alpha: float = 0.1
    lam: float | None = None
    varsigma: float | None = None

    def __post_init__(self) -> None:
        if self.lam is None and self.varsigma is None:
            self.varsigma = 0.65
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.lam is not None and not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if self.varsigma is not None:
            if not 0.0 < self.varsigma < math.inf:
                raise ConfigError(f"varsigma must be positive and finite, got {self.varsigma}")
            try:
                implied = 1.0 / (8.0 * self.varsigma**2)
            except (ZeroDivisionError, OverflowError) as exc:
                raise ConfigError(f"varsigma={self.varsigma}: varsigma**2 is out of float range") from exc
            if self.lam is None:
                self.lam = implied
            elif not math.isclose(self.lam, implied, rel_tol=1e-9):
                raise ConfigError(
                    f"lam={self.lam} inconsistent with varsigma={self.varsigma} "
                    f"(implies lam={implied})"
                )

    @property
    def log_threshold(self) -> float:
        return math.log(1.0 / self.alpha)


@dataclass
class EProcessState:
    """Running E-process statistics for all m models at time t."""

    m: int
    t: int
    cum_losses: np.ndarray  # (m,) running sums of the per-model losses
    log_sup: np.ndarray  # (m,) running supremum of log E over r <= t
    member: np.ndarray  # (m,) bool, log_sup <= log(1/alpha)

    @classmethod
    def fresh(cls, m: int) -> EProcessState:
        if m < 2:
            raise ConfigError(f"need at least 2 models, got {m}")
        return cls(
            m=m,
            t=0,
            cum_losses=np.zeros(m),
            log_sup=np.full(m, -np.inf),
            member=np.ones(m, dtype=bool),
        )


def loss_from_log_marginals(log_bf: np.ndarray) -> np.ndarray:
    """Mean pairwise log-Bayes-factor loss of every model, shape (m,).

    L_i = (1/(m-1)) * sum_{j != i} (l_j - l_i) = (sum_j l_j - m*l_i)/(m-1).
    """
    log_bf = np.asarray(log_bf, dtype=float)
    m = log_bf.size
    if m < 2:
        raise ConfigError(f"loss needs at least 2 models, got {m}")
    total = log_bf.sum()
    return (total - m * log_bf) / (m - 1)


def _rt_log_terms(cum_losses: np.ndarray, lam: float, t: int) -> np.ndarray:
    """log of the r = t term of every model's E-process, O(m).

    The leave-one-out sums are shifted by the top model's exponent, so every
    model but the top one keeps the top's weight of 1 in its sum:
    w.sum() - w_i >= max(1, w.sum() / 2) and no digits cancel.  The top
    model's own sum is taken directly over the rest.
    """
    m = cum_losses.size
    v = -lam * cum_losses
    top = np.argmax(v)
    rest = np.delete(v, top)
    hi = rest.max()
    lse_top = hi + np.log(np.exp(rest - hi).sum())
    del rest  # so that at most four (m,) vectors are live at once
    w = np.exp(v - v[top])
    with np.errstate(divide="ignore"):  # log 0 at the top when the rest underflow
        lse_without = v[top] + np.log(w.sum() - w)
    lse_without[top] = lse_top
    return -v + lse_without - math.log(m - 1) - t / 8.0


def step(state: EProcessState, losses: np.ndarray, config: SmcsConfig) -> EProcessState:
    """Advance to time state.t + 1 with the (m,) per-model losses observed there."""
    losses = np.asarray(losses, dtype=float)
    if losses.shape != (state.m,):
        raise ShapeError(f"expected {state.m} losses, got {losses.shape}")
    if not np.all(np.isfinite(losses)):
        raise DataError("losses must be finite")
    t = state.t + 1
    cum = state.cum_losses + losses
    log_sup = np.maximum(state.log_sup, _rt_log_terms(cum, config.lam, t))
    return replace(
        state,
        t=t,
        cum_losses=cum,
        log_sup=log_sup,
        member=log_sup <= config.log_threshold,
    )


def confidence_set(state: EProcessState) -> np.ndarray:
    """Indices of the models currently in the confidence set (may be empty)."""
    return np.nonzero(state.member)[0]
