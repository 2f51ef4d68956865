"""Covariate inclusion probabilities under the four methods.

bvs: sums of posterior model probabilities over models containing the
covariate.  smcs: the fraction of confidence-set members containing it.
zero_out: the posterior restricted to the confidence set and renormalised.
mixed: the convex combination weighting smcs by |set|/m and bvs by the rest.
smcs and zero_out take the set as it is kept, the (m,) bool mask
EProcessState.member.

Empty confidence sets are legal: smcs yields NaN, zero_out falls back to
the unrestricted posterior (flagged), and mixed degrades to bvs exactly.
An InclusionTrajectory's values are checked by experiment.ReplicationResult.

bvs, smcs and zero_out share one marginal kernel (_marginals) over a weight
per model: the posterior, the posterior masked to the set, or the mask
itself as 0/1 weights.  It folds the weights pairwise, p passes of halving
length, so each call is O(m) with no (m, p) gather of the bits.
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

    probs has shape (T, p), row r at time index r + 1; ReplicationResult checks it.
    """

    method: str
    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=float)


def _marginals(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Weight of the models containing each covariate, and the total weight.

    w holds one weight per model in little-endian order.  Folding it
    pairwise, w[0::2] + w[1::2], sums out the lowest covariate and leaves a
    weight per model of the rest, again in little-endian order; before fold
    k the odd entries are exactly the models containing covariate k.  The p
    folds halve w each time, so the whole pass is O(m), and its temporaries
    add up to fewer than m entries.
    """
    out = np.empty(w.size.bit_length() - 1)
    for k in range(out.size):
        odd = w[1::2]
        out[k] = odd.sum()
        w = w[0::2] + odd
    return out, float(w[0])


def _checked_posterior(post: np.ndarray, space: ModelSpace) -> np.ndarray:
    post = np.asarray(post, dtype=float)
    if post.shape != (space.m,):
        raise DataError(f"expected {space.m} probabilities, got {post.shape}")
    # written as negations so that NaN, which fails every comparison, is refused
    if not np.all(post >= 0) or not abs(post.sum() - 1.0) <= 1e-9:
        raise DataError("posterior must be a probability vector over the models")
    return post


def bvs_inclusion(post: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Posterior inclusion probability of every covariate."""
    return _marginals(_checked_posterior(post, space))[0]


def _checked_member(member: np.ndarray, space: ModelSpace) -> np.ndarray:
    member = np.asarray(member)
    if member.shape != (space.m,) or member.dtype != bool:
        raise DataError(f"expected a ({space.m},) bool membership mask, got {member.dtype} {member.shape}")
    return member


def smcs_inclusion(member: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Fraction of confidence-set members containing each covariate.

    member is the (m,) bool mask of the set.  An empty set has no defined
    counting probability: returns all-NaN.
    """
    in_set, size = _marginals(_checked_member(member, space).astype(float))
    return in_set / size if size else np.full(space.p, np.nan)


class ZeroOutResult(NamedTuple):
    probs: np.ndarray
    fallback: bool  # True when the unrestricted posterior was used


def zero_out(post: np.ndarray, member: np.ndarray, space: ModelSpace) -> ZeroOutResult:
    """Inclusion from the posterior restricted to the set of the (m,) bool mask member.

    Falls back to the unrestricted posterior when the restricted mass is
    numerically zero, as it is for an empty set.
    """
    post = _checked_posterior(post, space)
    in_set, mass = _marginals(np.where(_checked_member(member, space), post, 0.0))
    if mass >= _MIN_RESTRICTED_MASS:
        return ZeroOutResult(in_set / mass, False)
    in_set, mass = _marginals(post)
    return ZeroOutResult(in_set / mass, True)


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
