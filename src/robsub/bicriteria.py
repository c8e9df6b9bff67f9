"""Constant-factor bicriteria subspaces by one right sketch and one row sample.

The driver sketches the input on the right down to d' = poly(k) columns,
scores the rows of the sketched product A S^T once with leverage scores,
and draws one sample of the rows expecting P_M of them; the row space of
the sampled input rows is the bicriteria subspace.  A S^T is never
formed: it is a ``sketch.RightSketchPart``, computed one block of rows at
a time on each read.  This is dv07's sequential row selection with the
sample chosen all at once, as the source paper argues it may be.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

from .conditioning import weighted_leverage_scores
from .core import LossSpec, Subspace, check_finite, spawn_rng
from . import sampling, sketch
from .sketch import RightSketchPart, make_sparse_sketch, orthonormal_union, rank_revealing_factor

# nonzeros per column of a sparse right sketch: ceil(2 / eps) at eps = 1/2
_SKETCH_NNZ = 4
_SKETCH_COLS_C = 40.0   # right-sketch width m = min(max(k + 1, c k^2), d)
_P_M_C = 50.0           # multiplier c of P_M, the rows the sample expects


def _p_m(k: int, n: int, loss: LossSpec) -> int:
    """P_M, the rows the sample expects: c k^2, times ceil(log2(n + 2)^3) at p = 2."""
    base = _P_M_C * k * k
    if loss.is_m2:
        base *= math.ceil(math.log2(n + 2) ** 3)
    return int(base)


def const_approx(a, k: int, loss: LossSpec, seed: int = 0,
                 trace: Optional[dict] = None) -> Subspace:
    """Bicriteria subspace: sketch right, sample rows once, span the sampled input rows.

    The sample expects P_M rows, so the output dimension is at most P_M
    in expectation (not for certain); its cost is within a
    modest factor of the best rank-k cost (over the randomness of sketch
    and sample).  The n x m product A S^T is scored as a
    ``sketch.RightSketchPart``, so the stage holds A, a block of the
    product (at most 2048 rows, and 0.5 MB past 32 columns), O((m + d) m)
    for the sketch and basis, and, past the p-stable row cap, the sketch
    Pi A of at most nnz(A) entries; never the n x m product.  When every
    row is kept (n <= P_M) no product with S is taken: the subspace is the
    row space of A and carries the R factor of A it was read from
    (``Subspace.r``).
    ``trace`` receives the realized and expected rows of the sample
    (``bicriteria_rows``, ``bicriteria_rows_expected``).
    """
    n, d = a.shape
    if n == 0:
        raise ValueError("input matrix has no rows")
    if k < 1:
        raise ValueError("k must be >= 1")
    check_finite(a)
    if k > min(n, d):
        warnings.warn(f"k={k} exceeds min(n, d)={min(n, d)}; clamping", RuntimeWarning)
        k = min(n, d)

    p_m = _p_m(k, n, loss)
    if n <= p_m:
        # no sample is drawn, so the right sketch would go unread; the R of
        # A is kept for the caller's final sample, which reads A
        sampling.record("bicriteria", n, n, trace)
        r = sketch.r_factor(a)
        return Subspace(rank_revealing_factor(a, r)[1], r)
    m = int(min(max(k + 1, _SKETCH_COLS_C * k * k), d))
    right = make_sparse_sketch(int(spawn_rng(seed, 61).integers(2**31)),
                               m=m, d=d, s=min(_SKETCH_NNZ, m))
    scores = weighted_leverage_scores(RightSketchPart(a, right), loss,
                                      seed=int(spawn_rng(seed, 53, 0).integers(2**31)))
    sample = sampling.sample("bicriteria", scores.gamma, p_m,
                             int(spawn_rng(seed, 59, 0, 0).integers(2**31)), trace)
    # the kept rows' weights 1/q leave their span unchanged
    return orthonormal_union([a[sample.indices]], d=d)
