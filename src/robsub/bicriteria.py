"""Constant-factor bicriteria subspaces by one right sketch and one row sample.

The stage must return a subspace of dimension at most P_M whose cost is
within a constant factor of the best rank-k cost.  When min(n, d) <= P_M
the row space of A does so whole: its dimension is rank(A) <= min(n, d),
its cost is 0, and it holds an optimal rank-k subspace, as projecting a
subspace onto it moves no row farther from it.  It is read from one SVD
of the R factor of A, whose singular values the pipelines' final sample
reuses.

Otherwise the driver sketches the input on the right down to d' = poly(k)
columns (or keeps A itself when d' >= d), scores the rows of the sketched
product A S^T once with leverage scores, and draws one sample of the
rows expecting P_M of them; the row space of the sampled input rows is
the bicriteria subspace.  A S^T is never formed: it is a
``core.ComputedPart`` of A and ``SparseSketch.right_operator()``,
computed one block of rows at a time on each read.  This is dv07's
sequential row selection with the sample chosen all at once, as the
source paper argues it may be.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

from .conditioning import leverage_score_blocks
from .core import ComputedPart, LossSpec, Subspace, spawn_rng
from . import sampling
from .sketch import make_sparse_sketch, orthonormal_union, rank_revealing_factor

# nonzeros per column of a sparse right sketch: ceil(2 / eps) at eps = 1/2
_SKETCH_NNZ = 4
_SKETCH_COLS_C = 40.0   # right-sketch width m = max(k + 1, c k^2), when below d
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

    When min(n, d) <= P_M every row is kept and no product with S is
    taken: the subspace is the row space of A, of cost 0 and dimension
    rank(A) <= P_M, read from the SVD of the R factor of A
    (``sketch.rank_revealing_factor``), and it carries A's singular values
    (``Subspace.sv``), so a fit factors A once.  Otherwise the sample
    expects P_M rows, so the output dimension is at most P_M in
    expectation (not for certain); its cost is within a modest factor of
    the best rank-k cost (over the randomness of sketch and sample).  The
    n x m product A S^T (m < d; A itself when m >= d) is scored as
    a ``core.ComputedPart``, so the stage holds A, a block of the
    product (at most 2048 rows, and 0.5 MB past 32 columns), O((m + d) m)
    for the sketch and basis, and, past the p-stable row cap, the sketch
    Pi A of at most nnz(A) entries, and the sample's O(chunk + P_M),
    drawn as the scores stream; never the n x m product, nor n scores.
    ``trace`` receives the realized and expected rows of the sample
    (``bicriteria_rows``, ``bicriteria_rows_expected``; n and n when every
    row is kept).  No pass checks A on its own: a NaN or infinity raises
    ValueError from ``sketch.r_factor`` of A, or of the scored operand.
    """
    n, d = a.shape
    if n == 0:
        raise ValueError("input matrix has no rows")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > min(n, d):
        warnings.warn(f"k={k} exceeds min(n, d)={min(n, d)}; clamping", RuntimeWarning)
        k = min(n, d)

    p_m = _p_m(k, n, loss)
    if min(n, d) <= p_m:
        # the row space of A meets the contract whole; its singular values are
        # kept for the caller's final sample, which reads A
        sampling.record("bicriteria", n, n, trace)
        sv, v = rank_revealing_factor(a)
        return Subspace(v, sv)
    m = int(max(k + 1, _SKETCH_COLS_C * k * k))
    scored = a  # at m >= d a square S^T would save no work and may lose a direction of A
    if m < d:
        r = make_sparse_sketch(int(spawn_rng(seed, 61).integers(2**31)), m=m, d=d,
                               s=min(_SKETCH_NNZ, m))
        scored = ComputedPart(a, r.right_operator())
    scores = leverage_score_blocks(scored, loss, seed=int(spawn_rng(seed, 53, 0).integers(2**31)))
    sample = sampling.sample_stream("bicriteria", scores, p_m,
                                    int(spawn_rng(seed, 59, 0, 0).integers(2**31)), trace)
    # the kept rows' weights 1/q leave their span unchanged
    return orthonormal_union([a[sample.indices]], d=d)
