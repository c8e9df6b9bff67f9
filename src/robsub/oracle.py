"""The SVD baseline that fits are scored against.

Nothing here shares code with the sampling pipelines but the R factor
``sketch.r_factor``: the baseline is a closed-form upper bound on the
optimal cost (exact at p=2 with unit weights).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .core import LossSpec, Subspace, residual_cost
from .sketch import r_factor


def svd_truncation_cost(a, k: int, w=None, loss: LossSpec = None) -> Tuple[Subspace, float]:
    """Rank-k right-singular subspace and its v-cost.

    Globally optimal for the p=2 loss with unit weights; for other losses
    any subspace upper-bounds the optimum, so this is the natural baseline.
    The right singular vectors of A are those of the small R of
    ``sketch.r_factor(A)`` (the Cholesky factor of the Gram A^T A when that
    is well conditioned, else a streaming R-only QR), so a sparse A is
    never densified whole and the n x d left factor is never formed.  A
    NaN or infinity in A raises ValueError from that R factor.
    """
    if loss is None:
        raise TypeError("loss is required")
    n, d = a.shape
    if not (1 <= k <= min(n, d)):
        raise ValueError(f"k={k} outside [1, min(n,d)={min(n, d)}]")
    _, _, vt = np.linalg.svd(r_factor(a), full_matrices=False)
    sub = Subspace(vt[:k].T)
    return sub, residual_cost(a, sub, w, loss)
