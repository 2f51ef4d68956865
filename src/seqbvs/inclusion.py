"""Covariate inclusion probabilities under the four methods.

bvs: sums of posterior model probabilities over models containing the
covariate.  smcs: the fraction of confidence-set members containing it.
zero_out: the posterior restricted to the confidence set and renormalised.
mixed: the convex combination weighting smcs by |set|/m and bvs by the rest.

Empty confidence sets are legal: smcs yields NaN, zero_out falls back to
the unrestricted posterior (flagged), and mixed degrades to bvs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .model_space import ModelSpace

METHODS = ("bvs", "smcs", "zero_out", "mixed")

_MIN_RESTRICTED_MASS = 1e-300


@dataclass
class InclusionTrajectory:
    """Time-indexed inclusion probabilities of all covariates for one method.

    probs has shape (T, p); row r holds time index r + 1.  Entries are in
    [0, 1], except NaN rows for the smcs method when the set was empty.
    """

    method: str
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise DataError(f"method must be one of {METHODS}, got {self.method!r}")
        self.probs = np.asarray(self.probs, dtype=float)
        finite = self.probs[np.isfinite(self.probs)]
        if finite.size and (finite.min() < -1e-12 or finite.max() > 1.0 + 1e-12):
            raise DataError("inclusion probabilities must lie in [0, 1]")


def bvs_inclusion(post: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Posterior inclusion probability of every covariate."""
    post = np.asarray(post, dtype=float)
    if post.shape != (space.m,):
        raise DataError(f"expected {space.m} probabilities, got {post.shape}")
    if np.any(post < 0) or abs(post.sum() - 1.0) > 1e-9:
        raise DataError("posterior must be a probability vector over the models")
    # in little-endian model order covariate k is in the upper half of every
    # block of 2**(k+1) consecutive models
    return np.array([post.reshape(-1, 2, 1 << k)[:, 1].sum() for k in range(space.p)])


def smcs_inclusion(members: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Fraction of confidence-set members containing each covariate.

    An empty set has no defined counting probability: returns all-NaN.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        return np.full(space.p, np.nan)
    return space.bits[members].mean(axis=0)


class ZeroOutResult(NamedTuple):
    probs: np.ndarray
    fallback: bool  # True when the unrestricted posterior was used


def zero_out(post: np.ndarray, members: np.ndarray, space: ModelSpace) -> ZeroOutResult:
    """Inclusion from the posterior restricted to the confidence set.

    Falls back to the unrestricted posterior when the set is empty or the
    restricted mass is numerically zero.
    """
    post = np.asarray(post, dtype=float)
    members = np.asarray(members, dtype=np.int64)
    if members.size:
        mass = float(post[members].sum())
        if mass >= _MIN_RESTRICTED_MASS:
            restricted = np.zeros(space.m)
            restricted[members] = post[members] / mass
            return ZeroOutResult(bvs_inclusion(restricted, space), False)
    return ZeroOutResult(bvs_inclusion(post / post.sum(), space), True)


def mixed_inclusion(
    p_bvs: np.ndarray,
    p_smcs: np.ndarray,
    set_size: int,
    m: int,
) -> np.ndarray:
    """Convex mixture w*smcs + (1-w)*bvs with w = set_size/m.

    set_size = 0 returns bvs unchanged (NaN * 0 defined as 0).
    """
    p_bvs = np.asarray(p_bvs, dtype=float)
    p_smcs = np.asarray(p_smcs, dtype=float)
    if not 0 <= set_size <= m:
        raise DataError(f"set_size {set_size} outside 0..{m}")
    if set_size == 0:
        return p_bvs.copy()
    w = set_size / m
    return w * p_smcs + (1.0 - w) * p_bvs
