"""Enumeration and indexing of the 2**p candidate regression models.

A model is a binary inclusion vector over the p covariates.  The index of a
model is the little-endian integer of its bits: covariate 1 is the lowest
bit, so index 0 is the null model and index 2**p - 1 the full model.  This
ordering is fixed and is the one used in all persisted output.

The intercept is not part of the inclusion vector; every model is fit with
an intercept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError

MAX_P = 20

# Values (float64, 2 MB) that one batched pass holds in its main array: the
# imputer's stack of sample sizes (imputation.stack_sizes) and the widest
# level of the all-subsets sweep over a chunk of completions
# (bayes_lm._lattice_chunk).  A larger budget pays less numpy dispatch per
# sample size.  2**18 gives 23 sample sizes per desk call, under which a
# desk imputation stream stays within 4 MB (tracemalloc: 3.7 MB; 24 sizes
# read 3.9 MB), and desk, full and wide_sweep tables still come from one
# lattice pass.
CELL_BUDGET = 1 << 18


@dataclass(frozen=True)
class ModelVector:
    """Binary inclusion vector (gamma_1, ..., gamma_p) for one model."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0 or any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be a non-empty sequence of 0/1")

    @property
    def index(self) -> int:
        """Little-endian integer index of this model."""
        return sum(b << k for k, b in enumerate(self.bits))

    @property
    def size(self) -> int:
        """Number of included covariates."""
        return sum(self.bits)


class ModelSpace:
    """The complete ordered list of all 2**p models.

    `sizes` holds the per-model covariate counts (uint8); `model(i)` reads
    the bits of i, so no (m, p) inclusion matrix is kept.  Instances are
    immutable after construction and safe to share across threads.
    """

    def __init__(self, p: int) -> None:
        if not 1 <= p <= MAX_P:
            raise SizeLimitError(f"p must be in 1..{MAX_P}, got {p}")
        self.p = p
        self.m = 1 << p
        sizes = np.zeros(1, dtype=np.uint8)
        for k in range(p):  # models 2**k .. 2**(k+1)-1 are models 0 .. 2**k-1 plus covariate k+1
            sizes = np.concatenate([sizes, sizes + 1])
        sizes.setflags(write=False)
        self.sizes = sizes

    def model(self, i: int) -> ModelVector:
        if not 0 <= i < self.m:
            raise IndexError(f"model index {i} outside 0..{self.m - 1}")
        return ModelVector(tuple((int(i) >> k) & 1 for k in range(self.p)))

    def __repr__(self) -> str:
        return f"ModelSpace(p={self.p}, m={self.m})"


def enumerate_models(p: int) -> ModelSpace:
    """Build the full model space for p covariates (p <= 20 memory guard)."""
    return ModelSpace(p)

