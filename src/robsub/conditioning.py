"""Well-conditioned bases and leverage scores.

A basis U for the column space of A is carried implicitly as a
change-of-basis matrix: U = A F with F = P_r R_r^(-1), where R P = Q' R'
is a column-pivoted QR of the small R of the sketched product Pi A, R_r
the leading block of R' whose diagonal lies above the rank tolerance, and
P_r the pivot columns it keeps.  R comes from ``sketch.r_factor``, in
memory independent of the row count: the Cholesky factor of the Gram
(Pi A)^T (Pi A), summed one block of 2048 rows at a time, when it is
certified well conditioned, and otherwise a streaming R-only QR, which
folds one densified block of 2048 rows at a time into a running R.  Any
F that makes Pi A F orthonormal serves: the conditioning bounds of
Dasgupta et al. (2009) and Meng & Mahoney (2013) use nothing else, so no
SVD is taken.  The sketch Pi = S D is a sparse embedding with one nonzero
per column, so Pi A costs O(nnz(A)) and Pi U is orthonormal: for p in
[1, 2) a p-stable one (the sparse Cauchy transform of Meng & Mahoney 2013
at p = 1), and for p = 2 CountSketch (Clarkson & Woodruff 2013), which
distorts Euclidean norms by at most a constant factor beta.  Where the
sketch would not be smaller than A, Pi is the identity and U is an exact
orthonormal factor, whose row norms at p = 2 are the leverage scores of
every orthonormal basis of the column space.

Leverage scores bound the fractional contribution any single row can make
to the v-measure, and drive all row sampling downstream.
``weighted_leverage_scores`` is the one entry point: it partitions rows
into dyadic weight buckets (one bucket when the weights are all one),
builds one basis per bucket, and doubles the per-row scores.  A bucket is
never copied out of its source: its basis holds the source and the
bucket's row indices (a ``core.RowView``), its sketch places the bucket's
columns at those rows of an operator over every source row, and its QR
and row-norm passes gather one block of its rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    LossSpec,
    RowView,
    WeightVector,
    as_weights,
    is_sparse,
    matmul_dense,
    row_view,
    spawn_rng,
)
from .sketch import make_pstable_sketch, orthonormalizer

_ROW_BLOCK = 8192
# size rule of well_conditioned_basis: c_pi m0^2 hash buckets, the p < 2 cap
# on them and the p = 2 row floor for sketching
_C_PI = 20.0
_STABLE_ROW_CAP = 8192
# beta of a CountSketch-conditioned p = 2 basis, 1 + eps at eps = 1/2; see
# well_conditioned_basis
_P2_SKETCH_BETA = 1.5


@dataclass(frozen=True)
class WellConditionedBasis:
    """Implicit row access to a well-conditioned basis U = A F."""

    change_of_basis: np.ndarray   # (m0, m) factor F = P_r R_r^(-1) of a pivoted QR: U = A F
    p: float
    n: int
    m: int
    _a: RowView                   # n x m0 operand A, read a block of rows at a time
    sketched: bool                # F comes from a sketch Pi A, not from A itself

    def iter_row_blocks(self, block_rows: int = _ROW_BLOCK, right=None):
        """Row blocks of U, or of U @ right taken as A @ (F @ right)."""
        f = self.change_of_basis if right is None else self.change_of_basis @ right
        for lo, hi, block in self._a.blocks(block_rows):
            yield lo, hi, matmul_dense(block, f)

    def row_norms_lp(self) -> np.ndarray:
        """||U_i||_p for every row, computed blockwise."""
        out = np.empty(self.n)
        for lo, hi, block in self.iter_row_blocks():
            out[lo:hi] = np.sum(np.abs(block) ** self.p, axis=1) ** (1.0 / self.p)
        return out


def well_conditioned_basis(a, p: float = 2.0, seed: int = 0,
                           factor: Optional[np.ndarray] = None) -> WellConditionedBasis:
    """Build a well-conditioned basis for the column space of A.

    The change of basis F = P_r R_r^(-1) comes from ``sketch.orthonormalizer``:
    the R factor of the operand (``sketch.r_factor``: a Cholesky factor of
    its Gram when that is well conditioned, else a streaming R-only QR;
    a sparse A is never densified whole, and the memory does not grow
    with n), then a column-pivoted QR of the small R, keeping the pivots
    whose diagonal entry exceeds ``sketch.RANK_TOL`` times the first.  The
    operand is either Pi A, with Pi = S D the sparse embedding of
    ``PStableSketch`` that hashes the n rows into s buckets after scaling
    each by a p-stable draw (a random sign at p = 2), so that Pi A F is
    orthonormal; or A itself, so that A F is orthonormal.  With m0 the
    column count of A, the size rule is:

    * p in [1, 2): s = c_pi * m0^2, capped at 8192 (and at least 2 m0);
      the sketch is taken when s < n.  This is the sparse Cauchy transform
      of Meng & Mahoney (2013) at p = 1.
    * p = 2: s = ceil(c_pi * m0^2), uncapped; the sketch (CountSketch) is
      taken only when n > max(s, 8192), and otherwise the exact
      factor with beta = 1.  A sketched basis has beta = 1.5: when Pi is a
      (1 +- 1/2) subspace embedding of the column space,
      ||x|| = ||Pi U x|| <= 1.5 ||U x||, and the singular values of U lie in
      [2/3, 2].  By the second moment of CountSketch,
      E ||(Pi Q)^T Pi Q - I||_F^2 <= (m0^2 + m0) / s for an orthonormal Q,
      that fails with probability at most 16 (1 + 1/m0) / (9 c_pi), about
      0.09 at c_pi = 20.  Measured on 300 000 x 21 Gaussian rows with 50
      rows scaled by 100, the singular values of U lay in [0.93, 1.15]
      over three seeds.

    Here c_pi = 20; it and the cap are the module constants _C_PI and
    _STABLE_ROW_CAP.  The reported width m is the numerical rank, which
    drops below m0 when the columns of A are dependent.  A may be dense,
    sparse or a ``RowView``.  ``factor`` is ``sketch.r_factor(A)`` when the
    caller already holds it: an unsketched basis is then built from it,
    with no second factorization.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p={p} outside [1, 2]")
    view = row_view(a)
    n, m0 = view.shape
    if n == 0 or m0 == 0:
        raise ValueError("empty operand")

    if p == 2.0:
        s = math.ceil(_C_PI * m0 * m0)
        sketched = n > max(s, _STABLE_ROW_CAP)
    else:
        s = int(min(max(2 * m0, math.ceil(_C_PI * m0 * m0)), max(_STABLE_ROW_CAP, 2 * m0)))
        sketched = s < n
    if sketched:
        pi = make_pstable_sketch(spawn_rng(seed, 19).integers(2**31), s, n, p)
        f = orthonormalizer(pi.apply(view))
    else:
        # no sketch when exact factorization is cheaper; identity is an
        # exact subspace embedding
        f = orthonormalizer(view, factor)

    if f.shape[1] == 0:
        raise ValueError("operand has numerical rank zero")
    return WellConditionedBasis(f, float(p), n, f.shape[1], view, sketched)


# ---------------------------------------------------------------------------
# leverage scores


@dataclass(frozen=True)
class LeverageScores:
    """Per-row scores gamma and the number of weight buckets with a basis."""

    gamma: np.ndarray
    bucket_count: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.gamma)):
            raise ValueError("scores must be finite")

    @property
    def gamma_total(self) -> float:
        return float(self.gamma.sum())


def _row_scores(loss: LossSpec, basis: WellConditionedBasis, norms: np.ndarray) -> np.ndarray:
    if loss.is_lp:
        return norms ** loss.p
    beta = _P2_SKETCH_BETA if basis.sketched else 1.0
    return np.maximum(beta * norms / loss.c_m, (beta * norms) ** 2)


def weighted_leverage_scores(
    a,
    w,
    loss: LossSpec,
    seed: int = 0,
    gauss_t: Optional[int] = None,
    factor: Optional[np.ndarray] = None,
) -> LeverageScores:
    """Leverage scores under dyadic weight buckets.

    Rows are split into buckets 2^(j-1) <= w_i < 2^j (with ``w`` None,
    one bucket of unit weights); each bucket that is not all zero gets its
    own basis U over its rows of ``a`` (a matrix or a ``RowView``), read
    by index, and per-row scores are twice the unweighted form below.

    For |x|^p losses the unweighted score of row i is ||U_i||_p^p.  It
    bounds the row's sensitivity when U is the exact orthonormal factor:
    with q the dual exponent, ||x||_q <= ||x||_2 = ||U x||_2 <= ||U x||_p,
    so |U_i x|^p <= ||U_i||_p^p ||U x||_p^p.  For a sketched basis the
    bound holds up to the sketch's distortion, a factor common to every
    row that would set only how many rows to draw, not which (Dasgupta,
    Drineas, Harb, Kumar & Mahoney 2009).  General p=2 losses use an
    orthonormal basis, scaled by the CountSketch beta when sketched, and
    take the max of the linear and quadratic branches of the row norm.
    With ``gauss_t`` set below the basis width m, the basis row norms are
    replaced by the Euclidean norms of U G for a Gaussian G with that many
    columns scaled by 1/sqrt(gauss_t) (Drineas, Magdon-Ismail, Mahoney &
    Woodruff 2012).  At gauss_t >= m the estimate, A (F G), would cost no
    less than the exact norms of A F, so those are taken.
    ``factor``, ``sketch.r_factor(a)`` when the caller holds it, is handed
    to the basis of a lone bucket, which holds every row of ``a``.
    """
    n = a.shape[0]
    wv = as_weights(w, n)
    weights = WeightVector(wv)
    buckets = weights.bucket_indices()
    gamma = np.zeros(n)
    basis_p = loss.p if loss.is_lp else 2.0
    src = row_view(a)
    bases = 0
    levels = np.flatnonzero(np.bincount(buckets))  # the occupied buckets, in order
    for j in levels:
        # a lone bucket holds every row: read them all, with no index vector
        rows = slice(None) if levels.size == 1 else np.flatnonzero(buckets == j)
        sub = src if levels.size == 1 else row_view(src, rows)
        if not any(np.any(b.data if is_sparse(b) else b) for _, _, b in sub.blocks(_ROW_BLOCK)):
            continue  # all-zero bucket contributes score 0
        bases += 1
        basis = well_conditioned_basis(
            sub, p=basis_p, seed=int(spawn_rng(seed, 29, int(j)).integers(2**31)),
            factor=factor if levels.size == 1 else None)
        if gauss_t is not None and gauss_t < basis.m:
            g = spawn_rng(seed, 31, int(j)).standard_normal((basis.m, gauss_t))
            g /= math.sqrt(gauss_t)
            norms = np.empty(basis.n)
            for lo, hi, block in basis.iter_row_blocks(right=g):
                norms[lo:hi] = np.sqrt(np.einsum("ij,ij->i", block, block))
        else:
            norms = basis.row_norms_lp()
        gamma[rows] = 2.0 * _row_scores(loss, basis, norms)
    return LeverageScores(gamma, bases)
