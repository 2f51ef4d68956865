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

Every method takes a block of time steps as a leading axis: (T, m)
posteriors and masks give (T, p) probabilities, and an (m,) vector is the
one-row block.  bvs, smcs and zero_out share one marginal kernel
(_marginals) over a weight per model: the posterior, the posterior masked
to the set, or the mask itself as 0/1 weights.  It folds the weights
pairwise along the last axis, p passes of halving length, so each call is
O(m) per row with no (m, p) gather of the bits, and a row of a block gets
the bits it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .model_space import ModelSpace

METHODS = ("bvs", "smcs", "zero_out", "mixed")

_MIN_RESTRICTED_MASS = 1e-300


@dataclass(frozen=True)
class InclusionTrajectory:
    """Time-indexed inclusion probabilities of all covariates for one method.

    probs has shape (T, p), row r at time index r + 1, and is a read-only
    copy of the array given; ReplicationResult checks it.
    """

    method: str
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", np.array(self.probs, dtype=float))
        self.probs.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # an unpickled or deep-copied array comes back writeable: a process pool's records are unpickled
        self.__dict__.update(state)
        self.probs.flags.writeable = False


def _marginals(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight of the models containing each covariate, and the total weight, per row.

    w holds one weight per model in little-endian order along its last
    axis.  Folding it pairwise, w[0::2] + w[1::2], sums out the lowest
    covariate and leaves a weight per model of the rest, again in
    little-endian order; before fold k the odd entries are exactly the
    models containing covariate k.  The p folds halve w each time, so the
    whole pass is O(m) per row, and its temporaries add up to fewer than m
    entries per row.  The rows fold as one flat array, since a pair never
    straddles two rows, and each row's odd entries are summed on their own:
    numpy's per-call cost is lower on 1-D views than on 2-D ones, which
    made a one-row block fold about 30% slower than its row alone.
    Returns (..., p) and (...) arrays.
    """
    lead, m = w.shape[:-1], w.shape[-1]
    w = w.reshape(-1)
    out = np.empty((w.size // m, m.bit_length() - 1))
    for col in out.T:
        odd = w[1::2]
        np.add.reduce(odd.reshape(len(out), -1), axis=1, out=col)
        w = w[0::2] + odd
    return out.reshape(lead + out.shape[1:]), w.reshape(lead)


def _checked_posterior(post: np.ndarray, space: ModelSpace) -> np.ndarray:
    post = np.asarray(post, dtype=float)
    if post.ndim not in (1, 2) or post.shape[-1:] != (space.m,):
        raise DataError(f"expected {space.m} probabilities per row, got {post.shape}")
    # written as negations so that NaN, which fails every comparison, is refused
    if not np.all(post >= 0) or not np.all(abs(post.sum(axis=-1) - 1.0) <= 1e-9):
        raise DataError("posterior must be a probability vector over the models")
    return post


def bvs_inclusion(post: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Posterior inclusion probability of every covariate, (p,) per (m,) posterior row."""
    return _marginals(_checked_posterior(post, space))[0]


def _checked_member(member: np.ndarray, space: ModelSpace) -> np.ndarray:
    member = np.asarray(member)
    if member.ndim not in (1, 2) or member.shape[-1:] != (space.m,) or member.dtype != bool:
        raise DataError(
            f"expected a ({space.m},) or (T, {space.m}) bool membership mask, got {member.dtype} {member.shape}"
        )
    return member


def smcs_inclusion(member: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Fraction of confidence-set members containing each covariate, (p,) per row.

    member is the (m,) or (T, m) bool mask of the set.  An empty set has no
    defined counting probability: its row is all-NaN.
    """
    in_set, size = _marginals(_checked_member(member, space).astype(float))
    size = size[..., None]
    return np.divide(in_set, size, out=np.full_like(in_set, np.nan), where=size > 0)


class ZeroOutResult(NamedTuple):
    probs: np.ndarray
    fallback: int  # how many rows used the unrestricted posterior


def zero_out(post: np.ndarray, member: np.ndarray, space: ModelSpace) -> ZeroOutResult:
    """Inclusion from the posterior restricted to the set of the bool mask member, per row.

    post and member are both (m,) or both (T, m).  A row falls back to the
    unrestricted posterior when its restricted mass is numerically zero, as
    it is for an empty set.
    """
    post = _checked_posterior(post, space)
    member = _checked_member(member, space)
    if member.shape != post.shape:
        raise DataError(f"a bool membership mask of {member.shape} for posteriors of {post.shape}")
    in_set, mass = _marginals(np.where(member, post, 0.0))
    # written as a negation so that a NaN mass falls back too
    fell = ~(mass >= _MIN_RESTRICTED_MASS)
    if fell.any():
        in_set[fell], mass[fell] = _marginals(post.reshape(-1, space.m)[fell.reshape(-1)])
    return ZeroOutResult(in_set / mass[..., None], int(np.count_nonzero(fell)))


def mixed_inclusion(
    p_bvs: np.ndarray,
    p_smcs: np.ndarray,
    set_size: int | np.ndarray,
    m: int,
) -> np.ndarray:
    """Convex mixture w*smcs + (1-w)*bvs with w = set_size/m, per row.

    set_size is an int for (p,) probabilities or (T,) ints for (T, p) rows.
    A row of set_size 0 returns bvs unchanged (NaN * 0 defined as 0).
    """
    p_bvs = np.asarray(p_bvs, dtype=float)
    p_smcs = np.asarray(p_smcs, dtype=float)
    set_size = np.asarray(set_size)
    if not np.all((set_size >= 0) & (set_size <= m)):
        raise DataError(f"set_size {set_size} outside 0..{m}")
    w = (set_size / m)[..., None]
    return np.where(w > 0, w * p_smcs + (1.0 - w) * p_bvs, p_bvs)
