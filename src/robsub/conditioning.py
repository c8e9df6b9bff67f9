"""Well-conditioned bases and leverage scores.

A basis U for the column space of A is carried implicitly as a
change-of-basis matrix: U = A F with F = V diag(1/sv), where sv and V are
the singular values above the rank tolerance of the operand and their
right singular vectors (``sketch.rank_revealing_factor``, the SVD of the
operand's small R), the one routine and rank rule behind every basis of
the library.  R comes from ``sketch.r_factor``, in memory independent of
the row count: the Cholesky factor of the operand's Gram, summed one
block of 2048 rows at a time, when it is certified well conditioned, and
otherwise a streaming R-only QR, which folds one densified block of 2048
rows at a time into a running R.  Any F that makes the operand times F
orthonormal serves: the conditioning bounds of Dasgupta et al. (2009) and
Meng & Mahoney (2013) use nothing else.  At p = 2 the operand is A
itself, so U is an exact orthonormal factor, whose squared row norms are
the leverage scores of every orthonormal basis of the column space.  For
p in [1, 2) it is the sketched product Pi A when that has fewer rows than
A, with Pi = S D a sparse p-stable embedding with one nonzero per column
(the sparse Cauchy transform of Meng & Mahoney 2013 at p = 1), so Pi A
costs O(nnz(A)) and Pi U is orthonormal; otherwise it is A.

Leverage scores bound the fractional contribution any single row can make
to the v-measure, and drive all row sampling downstream.
``leverage_score_blocks`` is the one entry point: it builds one basis
over every row of its operand (a matrix or a ``core.RowView``, whose parts
are read one block of rows at a time, never stacked), and yields each
row's doubled score in the pass over its block of the basis, for samples
drawn as the scores stream.  A part computed on read, the product A R of
a ``core.ComputedPart`` (the bicriteria stage's right-sketched A S^T), is
never formed: its p-stable sketch is (Pi A) R, computed block by block
from Pi A, and the basis is read as A (R F), with R folded into the
change of basis.
Every sample is drawn once from unit-weight rows, so no input weights
reach the scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import Optional

import numpy as np

from .core import (_FACTOR_BLOCK, ComputedPart, LossSpec, RowView, is_sparse, matmul_dense,
                   row_view, spawn_rng)
from .sketch import make_pstable_sketch, rank_revealing_factor

# p < 2 size rule of well_conditioned_basis: c_pi m0^2 hash buckets and their cap
_C_PI = 20.0
_STABLE_ROW_CAP = 8192


@dataclass(frozen=True)
class WellConditionedBasis:
    """Implicit row access to a well-conditioned basis U = A F."""

    change_of_basis: np.ndarray   # (m0, m) factor F = V diag(1/sv) of the operand: U = A F
    p: float
    m: int
    _a: RowView                   # n x m0 operand A, read a block of rows at a time

    def iter_row_blocks(self, fn, right=None):
        """(lo, hi, fn(rows lo:hi of U)) in order, or of U @ right taken as
        A @ (F @ right), summed part by part.  Blocks are ``_FACTOR_BLOCK``
        rows, fewer as the operand's computed parts cap them.  A
        ``ComputedPart`` A R is read as A (R F), so none of its rows is formed.
        As in ``RowView.blocks``, each block of U is freed when ``fn`` returns,
        before the next is formed, and the rows of A it came from are freed
        before ``fn`` reads it."""
        f = self.change_of_basis if right is None else self.change_of_basis @ right
        parts, fs = [], []
        for c, part in zip(self._a.columns(), self._a.parts):
            if isinstance(part, ComputedPart):
                parts.append(part.a)
                fs.append(part.right @ f[c])
            else:
                parts.append(part)
                fs.append(f[c])
        size = self._a.rows_per_block(_FACTOR_BLOCK)
        u = RowView(parts, self._a.scale).blocks(size, lambda rows: _block_product(rows, fs))
        return starmap(lambda lo, hi, block: (lo, hi, fn(block)), u)


def _block_product(blocks, fs) -> np.ndarray:
    """The sum of each part's row block times its factor: a one-column dense
    part adds its outer product in place."""
    # imported on first use: scipy.linalg adds about 0.13 s to the package's import
    from scipy.linalg import blas

    (block, *others), (first, *rest) = blocks, fs
    out = matmul_dense(block, first)
    for fc, part in zip(rest, others):
        if part.shape[1] == 1 and not is_sparse(part):
            out = blas.dger(1.0, fc[0], part[:, 0], a=out.T, overwrite_a=1).T
        else:
            out += matmul_dense(part, fc)
    return out


def well_conditioned_basis(a, p: float = 2.0, seed: int = 0) -> WellConditionedBasis:
    """Build a well-conditioned basis for the column space of A.

    The change of basis F = V diag(1/sv) comes from
    ``sketch.rank_revealing_factor``: the R factor of the operand
    (``sketch.r_factor``: a Cholesky factor of its Gram when that is well
    conditioned, else a streaming R-only QR; a sparse A is never densified
    whole, and the memory does not grow with n), then the SVD of the small
    R, keeping the singular values above ``sketch.RANK_TOL`` times the
    largest.  With m0 the column count of A:

    * p = 2: the operand is A, whatever n is, so A F is orthonormal and
      its squared row norms are the exact leverage scores.
    * p in [1, 2): the operand is Pi A, with Pi = S D the sparse embedding
      of ``PStableSketch`` that hashes the n rows into s buckets after
      scaling each by a p-stable draw, so that Pi A F is orthonormal;
      s = c_pi * m0^2, capped at 8192 (and at least 2 m0), and the sketch
      is taken when s < n, A itself otherwise.  This is the sparse Cauchy
      transform of Meng & Mahoney (2013) at p = 1.

    Here c_pi = 20; it and the cap are the module constants _C_PI and
    _STABLE_ROW_CAP.  The reported width m is the numerical rank, which
    drops below m0 when the columns of A are dependent, and is 0 when A
    has rank zero, an empty A included.  A may be dense, sparse or a
    ``RowView``.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p={p} outside [1, 2]")
    view = row_view(a)
    n, m0 = view.shape
    s = int(min(max(2 * m0, math.ceil(_C_PI * m0 * m0)), max(_STABLE_ROW_CAP, 2 * m0)))
    operand = view  # the identity is an exact subspace embedding
    if p < 2.0 and 0 < s < n:  # s = 0 only when A has no column
        operand = make_pstable_sketch(spawn_rng(seed, 19).integers(2**31), s, n, p).apply(view)
    sv, v = rank_revealing_factor(operand)
    f = v / sv
    return WellConditionedBasis(f, float(p), f.shape[1], view)


# ---------------------------------------------------------------------------
# leverage scores


@dataclass(frozen=True)
class LeverageScores:
    """Per-row scores gamma, and 0 when the operand has rank zero (a basis of width
    m = 0, which scores no row), else 1."""

    gamma: np.ndarray
    bucket_count: int

    def __post_init__(self):
        # min and max pass on a NaN and reach any infinity, and form no n-vector
        g = self.gamma
        if g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise ValueError("scores must be finite")

    @property
    def gamma_total(self) -> float:
        return float(self.gamma.sum())


def _row_scores(loss: LossSpec, p: float, block: np.ndarray) -> np.ndarray:
    """Twice the unweighted scores of a block of basis rows U_i: 2 ||U_i||_p^p,
    or 2 max(||U_i|| / c_m, ||U_i||^2) for a general p=2 loss."""
    if p == 2.0:
        sums = np.einsum("ij,ij->i", block, block)
    else:
        mag = np.abs(block)
        sums = (mag if p == 1.0 else mag ** p).sum(axis=1)
    if not loss.is_lp:
        sums = np.maximum(np.sqrt(sums) / loss.c_m, sums)
    sums *= 2.0
    return sums


def leverage_score_blocks(a, loss: LossSpec, seed: int = 0, gauss_t: Optional[int] = None):
    """Leverage scores of the rows of ``a`` (a matrix or a ``RowView``), as
    (lo, hi, scores of rows lo:hi), one block of U at a time, in row order.

    One basis U is built over every row, and per-row scores are twice the
    unweighted form below; an operand of rank zero gives a basis of width
    m = 0 and yields no block.  Besides A it takes the basis's
    O((m0 + 2048) m0) and a block of U.

    For |x|^p losses the unweighted score of row i is ||U_i||_p^p.  It
    bounds the row's sensitivity when U is the exact orthonormal factor:
    with q the dual exponent, ||x||_q <= ||x||_2 = ||U x||_2 <= ||U x||_p,
    so |U_i x|^p <= ||U_i||_p^p ||U x||_p^p.  For a sketched basis the
    bound holds up to the sketch's distortion, a factor common to every
    row that would set only how many rows to draw, not which (Dasgupta,
    Drineas, Harb, Kumar & Mahoney 2009).  General p=2 losses use the
    exact orthonormal basis and take the max of the linear and quadratic
    branches of the row norm, max(||U_i|| / c_m, ||U_i||^2).
    With ``gauss_t`` set below the basis width m, the squared basis row
    norms are replaced by those of U G for a Gaussian G with that many
    columns scaled by 1/sqrt(gauss_t) (Drineas, Magdon-Ismail, Mahoney &
    Woodruff 2012).  At gauss_t >= m the estimate, A (F G), would cost no
    less than the exact norms of A F, so those are taken.
    """
    basis = well_conditioned_basis(a, p=loss.p if loss.is_lp else 2.0,
                                   seed=int(spawn_rng(seed, 29, 1).integers(2**31)))
    if basis.m == 0:
        return
    g, p = None, basis.p
    if gauss_t is not None and gauss_t < basis.m:
        g = spawn_rng(seed, 31, 1).standard_normal((basis.m, gauss_t))
        g /= math.sqrt(gauss_t)
        p = 2.0  # the squared row norms of U G
    yield from basis.iter_row_blocks(lambda block: _row_scores(loss, p, block), right=g)


def weighted_leverage_scores(a, loss: LossSpec, seed: int = 0,
                             gauss_t: Optional[int] = None) -> LeverageScores:
    """``leverage_score_blocks`` as one n-vector, with 0 for a rank-zero operand, else 1."""
    gamma, built = np.zeros(row_view(a).shape[0]), 0
    for lo, hi, scores in leverage_score_blocks(a, loss, seed, gauss_t):
        gamma[lo:hi], built = scores, 1
    return LeverageScores(gamma, built)
