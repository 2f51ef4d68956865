"""Per-model E-processes and the resulting sequential model confidence set.

For every candidate model i the engine tracks the running supremum of

    log E_{i,r} = logsumexp_{j != i}( lam * sum_{s<=r} (L_{i,s} - L_{j,s}) )
                  - log(m-1) - r/8

over r, in log space throughout (the exponents grow without bound).  The
set of models whose supremum stays at or below log(1/alpha) is the
confidence set.  It is nested over time because the supremum never
decreases: a model that leaves never returns, and an emptied set stays
empty (Arnold, Gavrilopoulos, Schulz & Ziegel 2024).  So the state keeps one
exit step per model, `left_at`: the t at which the model left, 0 while it is
a member.  The (m,) bool mask `member` is derived from it, and so is the
membership at any earlier t, (left_at == 0) | (left_at > t).  When the
per-model losses are built from log Bayes factors the pairwise cumulative
differences reduce to differences of the per-model cumulative sums, so the
engine needs only O(m) state.

step advances over a block of T time steps at once, a (T, m) array of
losses; an (m,) vector is the one-row block.  The block's running sums and
suprema add and compare row after row, as T single steps would, and every
reduction runs along a C-contiguous last axis, so a block gives the bits of
its rows stepped one at a time.

A fresh state (no data) treats every model as a member: the supremum over
an empty index set is taken as -inf (E = 0 convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, ShapeError


@dataclass(frozen=True)
class SmcsConfig:
    """Error level alpha and the scale varsigma of the pairwise loss differences.

    The sub-exponential tuning parameter is derived, lam = 1 / (8 varsigma^2),
    and cannot be set on its own.  Defaults give alpha = 0.1 and
    varsigma = 0.65, hence lam ~= 0.296.
    """

    alpha: float = 0.1
    varsigma: float = 0.65
    lam: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.varsigma < math.inf:
            raise ConfigError(f"varsigma must be positive and finite, got {self.varsigma}")
        try:
            object.__setattr__(self, "lam", 1.0 / (8.0 * self.varsigma**2))
        except (ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"varsigma={self.varsigma}: varsigma**2 is out of float range") from exc

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
    left_at: np.ndarray  # (m,) ints: the t at which log_sup first passed log(1/alpha), 0 while it has not

    @classmethod
    def fresh(cls, m: int) -> EProcessState:
        if m < 2:
            raise ConfigError(f"need at least 2 models, got {m}")
        return cls(
            m=m, t=0, cum_losses=np.zeros(m), log_sup=np.full(m, -np.inf), left_at=np.zeros(m, dtype=np.int64)
        )

    @property
    def member(self) -> np.ndarray:
        """(m,) bool mask of the confidence set at t."""
        return self.left_at == 0


def loss_from_log_marginals(log_bf: np.ndarray) -> np.ndarray:
    """Mean pairwise log-Bayes-factor loss of every model, along the last axis of (m,) or (T, m).

    L_i = (1/(m-1)) * sum_{j != i} (l_j - l_i) = (sum_j l_j - m*l_i)/(m-1).
    """
    log_bf = np.asarray(log_bf, dtype=float)
    m = log_bf.shape[-1] if log_bf.ndim else 1
    if m < 2:
        raise ConfigError(f"loss needs at least 2 models, got {m}")
    loss = m * log_bf
    np.subtract(log_bf.sum(axis=-1, keepdims=True), loss, out=loss)
    loss /= m - 1
    return loss


def _rt_log_terms(cum_losses: np.ndarray, lam: float, t: int | np.ndarray) -> np.ndarray:
    """log of the r = t term of every model's E-process, O(m) per row of (m,) or (T, m) running sums.

    t is an int, or the (T, 1) times of the rows.  The leave-one-out sums are
    shifted by the top model's exponent, so every model but the top one
    keeps the top's weight of 1 in its sum: w.sum() - w_i >= max(1, w.sum() / 2)
    and no digits cancel.  The top model's own sum is taken directly over
    the rest.
    """
    m = cum_losses.shape[-1]
    v = -lam * cum_losses.reshape(-1, m)
    rows = np.arange(len(v))
    top = np.argmax(v, axis=1)
    # one row's top is deleted by two slice copies, a block's by a mask
    rest = np.delete(v.reshape(-1), top + m * rows).reshape(len(v), m - 1)
    # each (T, m) operation below runs in place, in the order the formulas
    # read, so that at most three (T, m) arrays are live at once
    hi = rest.max(axis=1)
    rest -= hi[:, None]
    lse_top = hi + np.log(np.exp(rest, out=rest).sum(axis=1))
    del rest
    v_top = v[rows, top][:, None]
    # lse_without = v_top + log(w.sum() - w) with w = exp(v - v_top)
    lse_without = np.subtract(v, v_top)
    np.exp(lse_without, out=lse_without)
    np.subtract(lse_without.sum(axis=1, keepdims=True), lse_without, out=lse_without)
    with np.errstate(divide="ignore"):  # log 0 at the top when the rest underflow
        np.log(lse_without, out=lse_without)
    lse_without += v_top
    lse_without[rows, top] = lse_top
    # -v + lse_without - log(m - 1) - t / 8
    np.negative(v, out=v)
    v += lse_without
    v -= math.log(m - 1)
    v -= t / 8.0
    return v.reshape(cum_losses.shape)


def step(state: EProcessState, losses: np.ndarray, config: SmcsConfig) -> EProcessState:
    """Advance by one time step per row of the (m,) or (T, m) per-model losses observed there."""
    losses = np.asarray(losses, dtype=float)
    if losses.ndim not in (1, 2) or losses.shape[-1:] != (state.m,):
        raise ShapeError(f"expected (m,) or (T, m) losses with m = {state.m}, got {losses.shape}")
    if not np.all(np.isfinite(losses)):
        raise DataError("losses must be finite")
    losses = losses.reshape(-1, state.m)
    t = state.t + len(losses)
    # running sums and suprema row by row: numpy accumulates along axis 0
    # one column at a time, 2-16x slower than a loop over the rows here
    cum = np.empty_like(losses)
    prev = state.cum_losses
    for row, loss in zip(cum, losses):
        prev = np.add(prev, loss, out=row)
    log_sup = _rt_log_terms(cum, config.lam, np.arange(state.t + 1, t + 1)[:, None])
    prev = state.log_sup
    for row in log_sup:
        prev = np.maximum(prev, row, out=row)
    # a member out at t left in this block.  The supremum never decreases, so one in for its
    # first k rows left at state.t + 1 + k; the rows are added one by one, as numpy reduces a
    # short axis 0 one column at a time.  Written as negations so that a NaN supremum is out, as
    # it is not <= the threshold
    leaving = np.flatnonzero(~(log_sup[-1] <= config.log_threshold) & (state.left_at == 0))
    left_at = state.left_at.copy()
    left_at[leaving] = state.t + 1 + sum(log_sup[:, leaving] <= config.log_threshold)
    # copies, so that the state does not keep the block alive
    return replace(state, t=t, cum_losses=cum[-1].copy(), log_sup=log_sup[-1].copy(), left_at=left_at)
