"""Random sketching primitives.

Three sketch families, each a pure function of its seed:

* sparse sign sketches (s nonzeros of magnitude 1/sqrt(s) per column),
  applied on the right in O(s * nnz) work to reduce column count;
* Gaussian sketches, plain d x t arrays, for the residual row-norm
  estimates of residual sampling, deflating a known subspace on the fly;
* sparse p-stable embeddings Pi = S D for p in [1, 2) (the sparse
  Cauchy transform at p=1), applied in O(nnz) work to condition bases
  for l_p; p = 2 bases need none, as they take the exact factor.

Also provides the R factor of a dense, sparse or row-view operand, which
serves every basis, each reweighted least-squares step of IRLS and the SVD
baseline: the Cholesky factor of the Gram t^T t, summed one block of 2048
rows at a time (in sum_i nnz_i^2 work for a sparse t), when LAPACK's
condition estimate certifies it, and otherwise a streaming R-only QR that
folds one dense block of 2048 rows at a time into one (width + 2048) x
width buffer.  On that small R are built the rank-revealing factor (its
SVD) and the orthonormal union of row blocks, which the samplers feed
into, and the change of basis F that makes t F orthonormal (from its
pivoted QR), which every well-conditioned basis takes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    _FACTOR_BLOCK,
    ComputedPart,
    RowView,
    Subspace,
    check_finite,
    is_sparse,
    matmul_dense,
    row_view,
    spawn_rng,
)

# singular values at or below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-8
# the least reciprocal condition estimate at which r_factor keeps the
# Cholesky factor of the Gram; see r_factor
_GRAM_RCOND = 1e-5
# rows of A @ S^T that apply_right forms per product.  A dense block's product
# takes two temporaries of its size, a C-ordered copy of its transpose and the
# transposed product.  Reading a dense 8000 x 20 part (lp_dense_outliers' p-stable
# sketch) in 2048-row blocks took 0.60 ms of CPU and 0.50 MB a block at 512 rows,
# and 0.72 ms and 0.99 MB at 2048 (1 BLAS thread, 2-vCPU Xeon)
_RIGHT_BLOCK = 512


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

    def right_operator(self) -> sp.csc_matrix:
        """S^T as a (cols, rows) sparse matrix, the factor applied on the right.

        Built on the first call and kept: a product read block by block
        takes it once per block, and a build costs about 0.4 ms.
        """
        return self._right_operator

    @functools.cached_property
    def _right_operator(self) -> sp.csc_matrix:
        indptr = np.arange(self.cols + 1) * self.s
        return sp.csc_matrix(
            (self.values.ravel(), self.positions.ravel(), indptr),
            shape=(self.rows, self.cols),
        ).T.tocsc()

    @functools.cached_property
    def _left_operator(self) -> sp.csr_matrix:
        """S as a (rows, cols) CSR matrix, the transpose of ``right_operator()``
        on its arrays: scipy takes a dense B @ S^T as (S @ B^T)^T, and
        transposes S^T anew on each call."""
        return self.right_operator().T


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


def apply_right(a, r: SparseSketch) -> np.ndarray:
    """Compute A @ S^T, the column-reducing sketch product, in s * nnz(A) multiply-adds.

    The dense, C-ordered output is written one block of ``_RIGHT_BLOCK``
    rows at a time, so beside it only one block's product is held.  Each
    row is that of the product taken whole, to the bit.
    """
    if a.shape[1] != r.cols:
        raise ValueError(f"matrix has {a.shape[1]} columns, sketch expects {r.cols}")
    op = r.right_operator()
    out = np.empty((a.shape[0], r.rows))
    for lo, hi, (rows,) in row_view(a).blocks(_RIGHT_BLOCK):
        if is_sparse(rows):
            (rows @ op).toarray(out=out[lo:hi])
        else:
            out[lo:hi] = (r._left_operator @ rows.T).T
    return out


class RightSketchPart(ComputedPart):
    """The rows of A @ S^T, computed on read by ``apply_right`` (a ``core.ComputedPart``).

    Its left product with a sparse op is the part of (op @ A) @ S^T, so
    a p-stable sketch of it takes O(nnz(A)) work on A and forms no row
    of A @ S^T; op @ A has at most nnz(A) entries for a CSR A, and at
    most as many as A for a dense one when op has fewer rows than A.
    """

    def __init__(self, a, r: SparseSketch):
        if a.shape[1] != r.cols:
            raise ValueError(f"matrix has {a.shape[1]} columns, sketch expects {r.cols}")
        super().__init__(a, r.rows)
        self.r = r

    def compute(self, rows) -> np.ndarray:
        return apply_right(rows, self.r)

    def left_product(self, op) -> "RightSketchPart":
        # a CSR A is read as the CSC A^T, which scipy multiplies in place; op @ A
        # would first copy A to CSC, then the CSC product to CSR
        return RightSketchPart((self.a.T @ op.T).T if is_sparse(self.a) else op @ self.a,
                               self.r)


def make_gaussian_sketch(seed: int, d: int, t: int) -> np.ndarray:
    """d x t matrix of i.i.d. normals with mean 0 and variance 1/t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return spawn_rng(seed, 13).standard_normal((d, t)) / math.sqrt(t)


def gaussian_row_norm_estimates(a, deflate: Subspace | None, g: np.ndarray) -> np.ndarray:
    """Row norms ||A_i (I - W W^T) G||_2 without forming A (I - W W^T).

    Deflates the sketch, not A: computed as A (G - W (W^T G)), in nnz(A) t
    work with no n x dim(W) product; with no deflation this is just the
    sketched row norm ||A_i G||_2.  G is a d x t ``make_gaussian_sketch``.
    """
    if a.shape[1] != g.shape[0]:
        raise ValueError(f"matrix has {a.shape[1]} columns, sketch expects {g.shape[0]}")
    if deflate is not None and deflate.dim > 0:
        if deflate.d != a.shape[1]:
            raise ValueError("deflation subspace dimension mismatch")
        g = g - deflate.u @ (deflate.u.T @ g)
    return np.linalg.norm(matmul_dense(a, g), axis=1)


def r_factor(t) -> np.ndarray:
    """An R with t = Q R for an orthonormal Q: min(n, width) x width, upper triangular.

    Q is never formed.  The Gram route is tried first (CholeskyQR;
    Yamamoto, Nakatsukasa, Yanagisawa & Fukaya 2015): G = t^T t is summed
    over blocks of ``_FACTOR_BLOCK`` rows (a sparse block by a sparse
    product, which densifies no block, a dense one by BLAS dsyrk), in
    sum_i nnz_i^2 work for a sparse t, and R is its Cholesky factor (LAPACK
    dpotrf).  That R is kept when n >= width, G is finite with no diagonal
    entry below n times the smallest normal number (so no product that
    underflowed moves G by more than its rounding), dpotrf succeeds and
    LAPACK dtrcon's estimate of the reciprocal 1-norm condition number of
    R is at least ``_GRAM_RCOND`` = 1e-5.  Then sigma_min(t) >= about
    1e-6 sigma_max(t), far above both ``RANK_TOL`` and the sqrt(eps)
    sigma_max(t) below which the Gram's rounding hides singular values,
    so the rank decisions of ``rank_revealing_factor`` and
    ``orthonormalizer`` are those of a QR; R^T R equals t^T t to rounding,
    and t R^(-1) is orthonormal to O(eps kappa^2).  The threshold is the
    loosest at which the dense L1 benchmark's operands (kappa 6e3-1.3e4,
    estimates 3e-5-8e-5) still take the Gram route.

    Every other t (rank-deficient, ill-conditioned, wide, or with a Gram
    that overflows or underflows) is factored by a streaming TSQR
    (Demmel, Grigori, Hoemmen & Langou 2012), in which each block of
    B = ``_FACTOR_BLOCK`` rows is written, dense, below the running R in
    one Fortran-ordered buffer of min(n, width + B) rows, and the buffer
    is factored in place, R <- qr([R; block]) (LAPACK dgeqrf); a t of at
    most B rows is one block, factored once.  Either route takes memory
    O((width + B) width) whatever the row count n.  t may be dense, sparse
    or a ``RowView``, whose parts fill their own blocks of G or columns of
    the buffer, so no block of the stack is formed.  Raises ValueError when
    t holds a NaN or infinity, which fails G's check and reaches the R.
    """
    view = row_view(t)
    if 0 in view.shape:
        return np.zeros((0, view.shape[1]))  # dgeqrf_lwork rejects an empty t
    r = _gram_r(view)
    if r is None:
        r = _streamed_r(view)
        check_finite(r)  # a NaN or inf anywhere in t reaches R
    return r


def rank_revealing_factor(t, r=None):
    """Singular values above RANK_TOL * sigma_max of t, with their right singular vectors.

    The SVD of the small R of ``r_factor(t)`` gives t = (Q U) diag(sv) V^T
    with Q U orthonormal: V is an orthonormal basis of the row space of t.
    t may be dense, sparse or a ``RowView``; ``r`` is ``r_factor(t)`` when
    the caller already holds it.  Returns (sv, V) with V of shape
    (t.shape[1], rank).  Raises ValueError when t holds a NaN or infinity.
    """
    _, sv, vt = np.linalg.svd(r_factor(t) if r is None else r, full_matrices=False)
    rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size and sv[0] > 0.0 else 0
    return sv[:rank], vt[:rank].T


def orthonormalizer(t, r=None) -> np.ndarray:
    """A change of basis F with t F an orthonormal basis of the column space of t.

    From a column-pivoted QR of the small R of ``r_factor(t)``, R P = Q' R':
    the rank is the count of |R'_ii| > RANK_TOL |R'_11|, and with R'_11 the
    leading rank x rank block, F = P[:, :rank] R'_11^(-1), as
    t P[:, :rank] = Q Q'[:, :rank] R'_11.  No SVD is taken, and F is
    (t.shape[1], rank).  t may be dense, sparse or a ``RowView``; ``r`` is
    ``r_factor(t)`` when the caller already holds it.  Raises ValueError
    when t holds a NaN or infinity.
    """
    # imported on first use: scipy.linalg adds about 0.13 s to the package's import
    from scipy.linalg import lapack, qr

    r = r_factor(t) if r is None else r
    width = r.shape[1]
    if r.shape[0] == 0:
        return np.zeros((width, 0))
    rp, piv = qr(r, mode="r", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(rp))
    rank = int(np.sum(diag > RANK_TOL * diag[0])) if diag[0] > 0.0 else 0
    f = np.zeros((width, rank))
    if rank:
        inv, info = lapack.dtrtri(rp[:rank, :rank])
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtri failed with info={info}")
        f[piv[:rank]] = inv
    return f


def _gram_r(view: RowView) -> np.ndarray | None:
    """Cholesky factor R of the Gram t^T t of the view, or None when r_factor's
    rule does not certify it."""
    # imported on first use: scipy.linalg adds about 0.13 s to the package's import
    from scipy.linalg import blas, lapack

    n, width = view.shape
    if width == 0 or n < width:
        return None
    g = np.zeros((width, width), order="F")
    cols = view.columns()
    for _, _, parts in view.blocks(_FACTOR_BLOCK):
        # the upper triangle, all dpotrf reads: each part's Gram and products with later parts
        for i, (ci, block) in enumerate(zip(cols, parts)):
            if is_sparse(block):
                g[ci, ci] += (block.T @ block).toarray()
            else:
                g[ci, ci] = blas.dsyrk(1.0, block.T, beta=1.0, c=g[ci, ci], overwrite_c=1)
            for cj, other in zip(cols[i + 1:], parts[i + 1:]):
                g[ci, cj] += matmul_dense(block.T, other)
    if not np.all(np.isfinite(g)) or g.diagonal().min() <= n * np.finfo(float).tiny:
        return None
    r, info = lapack.dpotrf(g, overwrite_a=1)
    if info != 0 or lapack.dtrcon(r)[0] < _GRAM_RCOND:
        return None
    return r


def _streamed_r(view: RowView) -> np.ndarray:
    """R of a QR of the view, folding one row block at a time into one buffer."""
    # imported on first use: scipy.linalg adds about 0.13 s to the package's import
    from scipy.linalg import lapack

    n, width = view.shape
    buf = np.empty((min(n, width + view.rows_per_block(_FACTOR_BLOCK)), width), order="F")
    lwork = int(lapack.dgeqrf_lwork(*buf.shape)[0])
    top = 0  # rows of the running R at the head of buf
    for lo, hi, parts in view.blocks(_FACTOR_BLOCK):
        end = top + hi - lo
        buf[end:] = 0.0
        for c, block in zip(view.columns(), parts):
            if is_sparse(block):
                # on the gathered copy, in place: a scatter keeps only one of
                # repeated entries, and CSR sums them far faster than COO
                block.sum_duplicates()
                coo = block.tocoo()
                buf[top:end, c] = 0.0
                buf[top + coo.row, c.start + coo.col] = coo.data
            else:
                buf[top:end, c] = block
        buf, _, _, info = lapack.dgeqrf(buf, lwork=lwork, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
        top = min(end, width)
        for j in range(top - 1):
            buf[j + 1:top, j] = 0.0  # the Householder vectors under R's diagonal
    # a copy, unless R fills the buffer: a caller that keeps R (a handed-over
    # factor) must not keep the (width + block) x width buffer alive with it
    return buf if top == buf.shape[0] else np.array(buf[:top], order="F")


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
    O(nnz(B)).  For p in [1, 2) the diagonal holds n i.i.d. standard
    p-stable draws; at p=1 this is the sparse Cauchy transform of Meng &
    Mahoney (2013), "Low-distortion subspace embeddings in input-sparsity
    time and applications to robust linear regression".  No p = 2 basis
    is sketched: its exact factor costs no more than the pass that scores
    its rows.
    """

    s: int
    n: int
    p: float
    seed: int

    def _operator(self) -> sp.csc_matrix:
        """Pi as an (s, n) sparse matrix: column j holds D_jj in row h(j)."""
        rng = spawn_rng(self.seed, 17)
        buckets = rng.integers(0, self.s, size=self.n)
        diag = _stable_draws(rng, self.n, self.p)
        return sp.csc_matrix((diag, buckets, np.arange(self.n + 1)), shape=(self.s, self.n))

    def apply(self, b):
        """Compute Pi @ B in O(nnz(B)) work: dense for a dense or sparse B, and for
        a ``RowView`` B the view of Pi times each part, gathering no row.  A
        ``RightSketchPart`` A S^T gives the part (Pi A) S^T, so Pi reads A
        and no row of A S^T is formed."""
        if b.shape[0] != self.n:
            raise ValueError(f"operand has {b.shape[0]} rows, sketch expects {self.n}")
        op = self._operator()
        return b.left_product(op) if isinstance(b, RowView) else matmul_dense(op, b)


def make_pstable_sketch(seed: int, s: int, n: int, p: float) -> PStableSketch:
    """Sparse embedding Pi = S D with s rows for n-row operands, p in [1, 2)."""
    if not (1.0 <= p < 2.0):
        raise ValueError(f"p={p} outside [1, 2)")
    if s < 1 or n < 1:
        raise ValueError("sketch dimensions must be positive")
    return PStableSketch(int(s), int(n), float(p), int(seed))
