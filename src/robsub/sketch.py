"""Random sketching primitives.

Three sketch families, each a pure function of its seed:

* sparse sign sketches (s nonzeros of magnitude 1/sqrt(s) per column),
  applied on the right in O(s * nnz) work to reduce column count;
* Gaussian sketches for cheap row-norm estimation, optionally deflating
  a known subspace on the fly;
* sparse p-stable embeddings Pi = S D (the sparse Cauchy transform at
  p=1, CountSketch at p=2), applied in O(nnz) work to condition bases
  for l_p.

Also provides the rank-revealing factor (R-only QR, one dense block of
2048 rows at a time, then the SVD of the small R) behind every exact
basis, and the orthonormal union of row blocks built on it, which the
samplers feed into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import RowView, Subspace, check_finite, is_sparse, matmul_dense, row_view, spawn_rng

# rows of the operand gathered and densified at a time by rank_revealing_factor
_FACTOR_BLOCK = 2048
# singular values at or below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-8


@dataclass(frozen=True)
class SparseSketch:
    """Sign sketch S with shape (rows, cols); each column holds s nonzeros.

    Products with data matrices are taken as A @ S.T, so ``cols`` must match
    the data column count and ``rows`` is the reduced width.
    """

    rows: int
    cols: int
    s: int
    seed: int
    positions: np.ndarray  # (cols, s) row indices, distinct per column
    values: np.ndarray     # (cols, s) signed magnitudes +-1/sqrt(s)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for j in range(self.cols):
            out[self.positions[j], j] = self.values[j]
        return out

    def right_operator(self) -> sp.csc_matrix:
        """S^T as a (cols, rows) sparse matrix, the factor applied on the right."""
        indptr = np.arange(self.cols + 1) * self.s
        return sp.csc_matrix(
            (self.values.ravel(), self.positions.ravel(), indptr),
            shape=(self.rows, self.cols),
        ).T.tocsc()


def make_sparse_sketch(seed: int, m: int, d: int, s: int) -> SparseSketch:
    """Build a sparse embedding sketch of shape (m, d) with sparsity s."""
    if not (1 <= s <= m):
        raise ValueError(f"sparsity s={s} outside [1, m={m}]")
    if d < 1:
        raise ValueError("d must be positive")
    rng = spawn_rng(seed, 11)
    # s distinct target rows per column, uniform over the m rows
    keys = rng.random((d, m))
    positions = np.argsort(keys, axis=1)[:, :s].astype(np.int64)
    signs = rng.integers(0, 2, size=(d, s)) * 2 - 1
    values = signs / math.sqrt(s)
    return SparseSketch(m, d, s, int(seed), positions, values)


def apply_right(a, r: SparseSketch, return_work: bool = False):
    """Compute A @ S^T, the column-reducing sketch product.

    The multiply-add count of the scatter is exactly s * nnz(A); pass
    ``return_work=True`` to get it back alongside the product.
    """
    if a.shape[1] != r.cols:
        raise ValueError(f"matrix has {a.shape[1]} columns, sketch expects {r.cols}")
    op = r.right_operator()
    out = matmul_dense(a, op)
    if not return_work:
        return out
    if is_sparse(a):
        per_col = np.diff(a.tocsc().indptr)
    else:
        per_col = np.count_nonzero(np.asarray(a), axis=0)
    madds = int(per_col.sum()) * r.s
    return out, madds


@dataclass(frozen=True)
class GaussianSketch:
    """d x t matrix of i.i.d. normals with mean 0 and variance 1/t."""

    d: int
    t: int
    seed: int
    g: np.ndarray


def make_gaussian_sketch(seed: int, d: int, t: int) -> GaussianSketch:
    if t < 1:
        raise ValueError("t must be >= 1")
    rng = spawn_rng(seed, 13)
    g = rng.standard_normal((d, t)) / math.sqrt(t)
    return GaussianSketch(d, t, int(seed), g)


def gaussian_row_norm_estimates(a, deflate: Subspace | None, g: GaussianSketch) -> np.ndarray:
    """Row norms ||A_i (I - W W^T) G||_2 without forming A (I - W W^T).

    Deflates the sketch, not A: computed as A (G - W (W^T G)), in nnz(A) t
    work with no n x dim(W) product; with no deflation this is just the
    sketched row norm ||A_i G||_2.
    """
    if a.shape[1] != g.d:
        raise ValueError(f"matrix has {a.shape[1]} columns, sketch expects {g.d}")
    gm = g.g
    if deflate is not None and deflate.dim > 0:
        if deflate.d != a.shape[1]:
            raise ValueError("deflation subspace dimension mismatch")
        gm = gm - deflate.u @ (deflate.u.T @ gm)
    return np.linalg.norm(matmul_dense(a, gm), axis=1)


def rank_revealing_factor(t):
    """Singular values above RANK_TOL * sigma_max of t, with their right singular vectors.

    Builds the R of an economic R-only QR of t (blocked Householder, Q never
    formed) one block of ``_FACTOR_BLOCK`` rows at a time, as a one-level
    TSQR (Demmel, Grigori, Hoemmen & Langou 2012): each block is densified
    and reduced to its own R, and the stacked block Rs are reduced once
    more.  The SVD of the small R then gives t = (Q U) diag(sv) V^T with
    Q U orthonormal: t V diag(1/sv) is an orthonormal basis of the column
    space of t, and V one of its row space.  t may be dense, sparse or a
    ``RowView``; at most one row block of it is gathered and dense at a
    time, and a t of at most ``_FACTOR_BLOCK`` rows is factored in one QR.
    Returns (sv, V) with V of shape (t.shape[1], rank).  Raises ValueError
    when t holds a NaN or infinity.
    """
    # a t with no rows is one empty block, whose R is empty
    rs = [np.linalg.qr(block.toarray() if is_sparse(block) else block, mode="r")
          for _, _, block in row_view(t).blocks(_FACTOR_BLOCK)]
    r = rs[0] if len(rs) == 1 else np.linalg.qr(np.vstack(rs), mode="r")
    check_finite(r)  # a NaN or inf anywhere in t reaches R
    _, sv, vt = np.linalg.svd(r, full_matrices=False)
    rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size and sv[0] > 0.0 else 0
    return sv[:rank], vt[:rank].T


def orthonormal_union(blocks, d: int | None = None) -> Subspace:
    """Orthonormal basis for the span of all rows across the given blocks.

    Rank-revealing: the basis is the right singular vectors of the stacked
    rows (``rank_revealing_factor``) whose singular value exceeds RANK_TOL
    times the largest.  Sparse blocks stay sparse: the stack is CSR when
    any block is sparse, and a single block is factored as given.  An
    empty input yields the empty subspace.
    """
    mats = [b if is_sparse(b) else np.atleast_2d(np.asarray(b, dtype=float))
            for b in blocks if b is not None and b.shape[0] > 0]
    if not mats:
        if d is None:
            raise ValueError("cannot infer ambient dimension from empty input")
        return Subspace.empty(d)
    width = mats[0].shape[1]
    if any(m.shape[1] != width for m in mats):
        raise ValueError("blocks disagree on column count")
    if len(mats) == 1:
        stack = mats[0]
    elif any(is_sparse(m) for m in mats):
        stack = sp.vstack(mats, format="csr")
    else:
        stack = np.vstack(mats)
    _, v = rank_revealing_factor(stack)
    return Subspace(v)


# ---------------------------------------------------------------------------
# p-stable sketches


def _stable_draws(rng: np.random.Generator, size, p: float) -> np.ndarray:
    """Standard symmetric p-stable variates (Chambers-Mallows-Stuck)."""
    if p == 1.0:
        return rng.standard_cauchy(size)
    theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    expo = rng.exponential(1.0, size)
    lead = np.sin(p * theta) / np.cos(theta) ** (1.0 / p)
    tail = (np.cos((1.0 - p) * theta) / expo) ** ((1.0 - p) / p)
    return lead * tail


@dataclass(frozen=True)
class PStableSketch:
    """Sparse s x n p-stable embedding Pi = S D, a pure function of its seed.

    D is diagonal and S hashes each of the n input rows to one of the s
    output rows, so Pi has a single nonzero per column and Pi @ B costs
    O(nnz(B)).  For p < 2 the diagonal holds n i.i.d. standard p-stable
    draws; at p=1 this is the sparse Cauchy transform of Meng & Mahoney
    (2013), "Low-distortion subspace embeddings in input-sparsity time and
    applications to robust linear regression".  At p=2 it holds random
    signs, which makes Pi CountSketch, an l_2 subspace embedding with
    O(m^2) rows (Clarkson & Woodruff 2013).  Gaussian draws, though
    2-stable, spread the singular values of the conditioned basis far
    wider: over 20 seeds of 20 000 x 8 Gaussian rows with 30 rows scaled by
    100, sketched to 1 280 rows, they lay in [0.46, 2.49] against
    [0.77, 1.45] with signs.
    """

    s: int
    n: int
    p: float
    seed: int

    def _operator(self) -> sp.csc_matrix:
        """Pi as an (s, n) sparse matrix: column j holds D_jj in row h(j)."""
        rng = spawn_rng(self.seed, 17)
        buckets = rng.integers(0, self.s, size=self.n)
        if self.p == 2.0:
            diag = rng.integers(0, 2, size=self.n) * 2.0 - 1.0
        else:
            diag = _stable_draws(rng, self.n, self.p)
        return sp.csc_matrix((diag, buckets, np.arange(self.n + 1)), shape=(self.s, self.n))

    def row_block(self, start: int, stop: int) -> np.ndarray:
        """Materialize rows [start, stop) of Pi densely: used by tests."""
        return self._operator()[start:stop].toarray()

    def apply(self, b):
        """Compute Pi @ B in O(nnz(B)) work: dense for a dense or sparse B, and for
        a ``RowView`` B the view of Pi times each part, gathering no row."""
        if b.shape[0] != self.n:
            raise ValueError(f"operand has {b.shape[0]} rows, sketch expects {self.n}")
        op = self._operator()
        return b.left_product(op) if isinstance(b, RowView) else matmul_dense(op, b)


def make_pstable_sketch(seed: int, s: int, n: int, p: float) -> PStableSketch:
    """Sparse embedding Pi = S D with s rows for n-row operands, p in [1, 2]."""
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p={p} outside [1, 2]")
    if s < 1 or n < 1:
        raise ValueError("sketch dimensions must be positive")
    return PStableSketch(int(s), int(n), float(p), int(seed))
