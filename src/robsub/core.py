"""Loss functions, weighted row measures, and the shared value types.

The central object is the weighted v-measure of a matrix: for a loss M with
growth exponent p and per-row weights w >= 1 (the 1/q of a sample's kept
rows, or all one),

    v_norm_p(A) = sum_i w_i * M(||A_i||_2)

which is the p-th power of the metric form (take the 1/p root to get a
quantity satisfying the triangle inequality).  An entrywise companion sums
M over individual entries instead of row norms.

Losses are "nice": even, nondecreasing in |x|, polynomially bounded above
with exponent p, linearly bounded below with constant c_m, and with a
subadditive p-th root.  Supported families are |x|^p for p in [1, 2],
Huber, L1-L2, and Fair; the latter three all have growth exponent 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

LP = "lp"
HUBER = "huber"
L1L2 = "l1l2"
FAIR = "fair"

_LOSS_KINDS = (LP, HUBER, L1L2, FAIR)

ArrayLike = Union[np.ndarray, "sp.spmatrix"]


# ---------------------------------------------------------------------------
# loss functions


@dataclass(frozen=True)
class LossSpec:
    """A nice loss M with growth exponent p and lower-growth constant c_m.

    ``param`` is the Huber threshold tau or the Fair scale c; it is unused
    for the other kinds.  Use the constructors (:meth:`lp`, :meth:`huber`,
    :meth:`l1l2`, :meth:`fair`) rather than building instances by hand.
    """

    kind: str
    p: float
    c_m: float
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in _LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not (1.0 <= self.p <= 2.0):
            raise ValueError(f"growth exponent p={self.p} outside [1, 2]")
        if self.c_m <= 0:
            raise ValueError("c_m must be positive")
        if self.param <= 0:
            raise ValueError("loss parameter must be positive")

    @staticmethod
    def lp(p: float) -> "LossSpec":
        return LossSpec(LP, float(p), 1.0)

    @staticmethod
    def huber(tau: float = 1.0) -> "LossSpec":
        # c_m = 1/2 is a deliberately conservative certificate
        return LossSpec(HUBER, 2.0, 0.5, float(tau))

    # L1-L2 and Fair are convex with M(0) = 0, so M(x)/x is nondecreasing
    # and c_m = 1 is their best lower-growth constant
    @staticmethod
    def l1l2() -> "LossSpec":
        return LossSpec(L1L2, 2.0, 1.0)

    @staticmethod
    def fair(c: float = 1.0) -> "LossSpec":
        return LossSpec(FAIR, 2.0, 1.0, float(c))

    @property
    def is_lp(self) -> bool:
        return self.kind == LP

    @property
    def is_m2(self) -> bool:
        return self.kind != LP

    def describe(self) -> str:
        if self.kind == LP:
            return f"lp(p={self.p:g})"
        if self.kind == HUBER:
            return f"huber(tau={self.param:g})"
        if self.kind == FAIR:
            return f"fair(c={self.param:g})"
        return self.kind


def m_value(loss: LossSpec, x):
    """Evaluate M(x) elementwise; even in x, with M(0) = 0; a 0-d input gives a float.

    The input is never written: M is evaluated in |x| and at most one
    more buffer, in place.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("loss argument must be finite")
    if loss.kind == LP:  # 0-d input takes numpy's scalar pow, unlike the array loop to the bit
        out = np.abs(arr) ** loss.p
        return float(out) if out.ndim == 0 else out
    ax = np.abs(arr, out=np.empty_like(arr))  # an array even for 0-d input, so M forms in place
    if loss.kind == HUBER:
        mask, quad = ax <= loss.param, ax * ax
        quad /= 2.0 * loss.param
        ax -= loss.param / 2.0
        np.putmask(ax, mask, quad)
    elif loss.kind == L1L2:
        ax *= ax
        ax /= 2.0
        ax += 1.0
        np.sqrt(ax, out=ax)
        ax -= 1.0
        ax *= 2.0
    else:  # FAIR
        ax /= loss.param
        ax -= np.log1p(ax)
        ax *= loss.param * loss.param
    return float(ax) if ax.ndim == 0 else ax


def m_derivative(loss: LossSpec, x):
    """Derivative of M at |x| (one-sided at 0), used by IRLS and solvers."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("loss argument must be finite")
    ax = np.abs(arr)
    if loss.kind == LP:
        p = loss.p
        if p == 1.0:
            out = np.ones_like(ax)
        else:
            out = p * ax ** (p - 1.0)
    elif loss.kind == HUBER:
        tau = loss.param
        out = np.where(ax <= tau, ax / tau, 1.0)
    elif loss.kind == L1L2:
        out = ax / np.sqrt(1.0 + ax * ax / 2.0)
    else:  # FAIR
        c = loss.param
        out = ax / (1.0 + ax / c)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# weights


def as_weights(w, n: int) -> np.ndarray:
    """Per-row weights as an array: ones for None, else a finite vector of n weights >= 1."""
    if w is None:
        return np.ones(n)
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1:
        raise ValueError("weights must be a vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
    if arr.size and arr.min() < 1.0:
        raise ValueError("every weight must be >= 1")
    if arr.size != n:
        raise ValueError(f"weight length {arr.size} != row count {n}")
    return arr


# ---------------------------------------------------------------------------
# matrix helpers (dense ndarray or scipy.sparse are both accepted)

# rows of an operand gathered at a time by the blockwise passes: the R factor
# of bases, IRLS steps and the final sample's A U (a Gram sum, which keeps a
# sparse block sparse, or the streamed QR, which densifies it), the final
# sample's scores of A, the residual norms and dim_reduce's largest row norm
_FACTOR_BLOCK = 2048

# entries of a computed part's block, 0.5 MB: a view that holds a ``ComputedPart``
# reads fewer rows than asked per block when it is wider than 32 columns, so a
# pass holds a few such blocks whatever the width.  With 1 MB blocks the 9100 x 300
# CSR fit of the CI's outliers.mtx peaked at 7.5 MB in its bicriteria stage, and
# with 0.5 MB at 5.6 MB.  The final sample's A U is such a part, read by its R
# factor alone.  Every benchmark operand that holds a computed part is at most 32 wide
_COMPUTED_ENTRIES = _FACTOR_BLOCK * 32

# entries of an n-vector that the elementwise passes form at a time: a sampling
# plan's probabilities and its draw's uniforms, IRLS's weights and losses, and a
# regression objective's residuals.  An m_regress fit of 300 000 x 20 rows (one
# BLAS thread on a 2-vCPU Xeon) took 60 ms at 16384, and 65 ms both at 2048,
# from Python overhead, and with whole n-vectors
_CHUNK = 16384


def chunks(n: int) -> list:
    """Slices that cover range(n) in order, ``_CHUNK`` long; n = 0 gives one empty slice."""
    return [slice(lo, min(lo + _CHUNK, n)) for lo in range(0, max(n, 1), _CHUNK)]


def is_sparse(a) -> bool:
    return sp.issparse(a)


def nnz(a) -> int:
    if is_sparse(a):
        return int(a.nnz)
    return int(np.count_nonzero(a))


def check_finite(*arrays) -> None:
    """Raise ValueError if a dense array or sparse matrix holds a NaN or infinity."""
    for x in arrays:
        vals = x.tocsr().data if is_sparse(x) else np.asarray(x, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("input must not contain infs or NaNs")


def row_norms(a) -> np.ndarray:
    """Euclidean norm of each row."""
    if is_sparse(a):
        c = a.tocsr()
        copied = not c.has_canonical_format
        if copied:  # repeated entries add up to one value: sum them first, on a copy
            c = c.astype(float)
            c.sum_duplicates()
        sums, filled = np.zeros(c.shape[0]), np.diff(c.indptr) > 0
        squares = np.square(c.data, dtype=float, out=c.data if copied else None)
        sums[filled] = np.add.reduceat(squares, c.indptr[:-1][filled])
        return np.sqrt(sums)
    return np.linalg.norm(np.asarray(a, dtype=float), axis=1)


def matmul_dense(a, b) -> np.ndarray:
    """a @ b with a possibly sparse, always returning a dense ndarray."""
    out = a @ b
    if is_sparse(out):
        out = out.todense()
    return np.asarray(out)


def _take(part, rows):
    """Rows ``rows`` (a slice or index array) of a dense, CSR or computed part."""
    if isinstance(part, np.ndarray) and not isinstance(rows, slice):
        return part.take(rows, axis=0)
    block = part[rows]
    if is_sparse(block):  # a copy, whatever rows is: made canonical in place
        block.sum_duplicates()
    return block


class ComputedPart:
    """A ``RowView`` part whose rows are computed on read from those of a
    matrix ``a`` (dense or CSR), and never stored.

    Indexing with a slice or an index array takes those rows of ``a`` and
    returns ``compute`` of them, a dense block of ``width`` columns: A S^T
    (``sketch.RightSketchPart``) or A U (``pipeline._Coordinates``, which
    only an R factor reads).  Only a part that a p-stable sketch reads has
    a ``left_product`` (``RightSketchPart``); others raise ValueError.
    """

    def __init__(self, a, width: int):
        self.a = a.tocsr() if is_sparse(a) else np.asarray(a, dtype=float)
        self.shape = (self.a.shape[0], width)

    def compute(self, rows) -> np.ndarray:
        raise NotImplementedError

    def __getitem__(self, rows) -> np.ndarray:
        return self.compute(_take(self.a, rows))

    def left_product(self, op) -> "ComputedPart":
        raise ValueError(f"{type(self).__name__} has no left product")


class RowView:
    """The column stack of ``parts``, each row times ``scale`` (one factor
    per row, or None for none).

    The parts are dense arrays, CSR matrices or ``ComputedPart``s with one
    row count, and the stack is never formed, nor any block of it:
    ``block`` gathers some rows of each part (a computed part computes
    just those), and ``left_product`` sketches an unscaled view without
    gathering a row.  Gathered rows are multiplied by their scale.
    """

    def __init__(self, parts, scale=None):
        self.parts = tuple(p if isinstance(p, ComputedPart)
                           else p.tocsr() if is_sparse(p) else np.asarray(p, dtype=float)
                           for p in parts)
        self.scale = scale
        self.shape = (self.parts[0].shape[0], sum(p.shape[1] for p in self.parts))

    def columns(self):
        """The columns of the stack that each part fills, as slices."""
        ends = np.cumsum([p.shape[1] for p in self.parts])
        return [slice(e - p.shape[1], e) for e, p in zip(ends, self.parts)]

    def block(self, rows):
        """Rows ``rows`` (a slice or index array) of each part, times their scale."""
        blocks = [_take(p, rows) for p in self.parts]
        if self.scale is None:
            return blocks
        s = self.scale[rows]
        return [sp.csr_matrix((b.data * np.repeat(s, np.diff(b.indptr)), b.indices, b.indptr),
                              shape=b.shape)
                if is_sparse(b) else b * s[:, None] for b in blocks]

    def rows_per_block(self, size: int) -> int:
        """The rows of each block of ``blocks(size)``: ``size``, or for a view that
        holds a computed part at most ``_COMPUTED_ENTRIES`` entries' worth."""
        if any(isinstance(p, ComputedPart) for p in self.parts):
            return max(1, min(size, _COMPUTED_ENTRIES // self.shape[1]))
        return size

    def blocks(self, size: int):
        """(lo, hi, rows lo:hi of each part) in order, ``rows_per_block(size)`` at a
        time; no rows give one empty block."""
        size = self.rows_per_block(size)
        for lo in range(0, max(self.shape[0], 1), size):
            hi = min(lo + size, self.shape[0])
            yield lo, hi, self.block(slice(lo, hi))

    def left_product(self, op) -> "RowView":
        """op @ stack as the view of each op @ P_i, for a sparse op with one column per row.

        A computed part gives its own ``left_product``.  Only the unscaled
        views of the bases' sketches are sketched, so a scaled view raises
        ValueError.
        """
        if self.scale is not None:
            raise ValueError("left_product takes an unscaled view")
        # op as given: a CSC op reads each part's rows in sequence
        return RowView(tuple(p.left_product(op) if isinstance(p, ComputedPart) else op @ p
                             for p in self.parts))


def row_view(a, scale=None) -> RowView:
    """A matrix or RowView as a RowView, each row times ``scale`` (one factor
    per row, or None)."""
    if not isinstance(a, RowView):
        return RowView((a,), scale)
    if scale is None:
        return a
    return RowView(a.parts, scale if a.scale is None else a.scale * scale)


# ---------------------------------------------------------------------------
# measures


def v_norm_p(a, w=None, loss: LossSpec = None) -> float:
    """Weighted v-measure sum_i w_i M(||A_i||_2) (the p-th power form)."""
    if loss is None:
        raise TypeError("loss is required")
    n = a.shape[0]
    wv = as_weights(w, n)
    return float(np.dot(wv, m_value(loss, row_norms(a))))


def entrywise_norm_p(a, w=None, loss: LossSpec = None) -> float:
    """Weighted entrywise measure sum_{i,j} w_i M(a_ij) (the p-th power form)."""
    if loss is None:
        raise TypeError("loss is required")
    n = a.shape[0]
    wv = as_weights(w, n)
    if is_sparse(a):
        coo = a.tocoo()
        if coo.nnz == 0:
            return 0.0
        per_row = np.bincount(coo.row, weights=m_value(loss, coo.data), minlength=n)
        return float(np.dot(wv, per_row))
    vals = m_value(loss, np.asarray(a, dtype=float))
    return float(np.dot(wv, vals.sum(axis=1)))


# ---------------------------------------------------------------------------
# subspaces and residuals


@dataclass(frozen=True)
class Subspace:
    """An orthonormal column factor U; the projector it represents is U U^T.

    ``sv`` is set when U is the row space of a matrix A, read from its SVD
    (``const_approx`` when min(n, d) <= P_M, as that row space meets the
    bicriteria contract whole): U is A's right singular vectors and ``sv``
    their singular values, descending, so A U / sv is orthonormal.  No row
    of A lies outside U, so residual sampling returns U at once, and the
    pipelines' final sample scores A with both, factoring nothing again.
    """

    u: np.ndarray
    sv: Optional[np.ndarray] = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 2:
            raise ValueError("subspace factor must be 2-D")
        if u.shape[1] > 0:
            gram = u.T @ u  # minus the identity, in place: no other dim x dim array
            gram.flat[::u.shape[1] + 1] -= 1.0
            err = np.abs(gram, out=gram).max()
            if err > 1e-10:
                raise ValueError(f"columns not orthonormal (deviation {err:.2e})")
        object.__setattr__(self, "u", u)

    @staticmethod
    def empty(d: int) -> "Subspace":
        return Subspace(np.zeros((d, 0)))

    @property
    def d(self) -> int:
        return self.u.shape[0]

    @property
    def dim(self) -> int:
        return self.u.shape[1]


def project_rows(a, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(A U, r) with r_i = ||A_i (I - U U^T)||_2, for an orthonormal U.

    Dense inputs subtract the projection directly (accurate near zero
    residual); sparse inputs use the projector identity
    ||A_i (I-P)||^2 = ||A_i||^2 - ||A_i U||^2 to avoid densification.
    """
    au = matmul_dense(a, u)
    if is_sparse(a):
        proj = np.linalg.norm(au, axis=1) ** 2
        return au, np.sqrt(np.clip(row_norms(a) ** 2 - proj, 0.0, None))
    return au, np.linalg.norm(np.asarray(a, dtype=float) - au @ u.T, axis=1)


def residual_row_norms(a, x: Subspace) -> np.ndarray:
    """Per-row Euclidean distances ||A_i (I - U U^T)||_2 (see ``project_rows``).

    Taken one block of ``_FACTOR_BLOCK`` rows at a time, so a sparse A is
    never copied whole and a dense one needs no n x d temporary.
    """
    if x.d != a.shape[1]:
        raise ValueError(f"subspace lives in R^{x.d}, matrix has {a.shape[1]} columns")
    out = np.empty(a.shape[0])
    for lo, hi, (rows,) in row_view(a).blocks(_FACTOR_BLOCK):
        out[lo:hi] = project_rows(rows, x.u)[1]
    return out


def residual_cost(a, x: Subspace, w=None, loss: LossSpec = None) -> float:
    """v-measure of A (I - U U^T): the cost of fitting A with the subspace."""
    if loss is None:
        raise TypeError("loss is required")
    wv = as_weights(w, a.shape[0])
    return float(np.dot(wv, m_value(loss, residual_row_norms(a, x))))


# ---------------------------------------------------------------------------
# seeding

_SALT_BITS = 0x9E3779B9


def spawn_rng(seed: int, *salts: int) -> np.random.Generator:
    """Deterministic child generator for (seed, call-site salts)."""
    entropy = [int(seed) & 0xFFFFFFFF, _SALT_BITS]
    entropy.extend(int(s) & 0xFFFFFFFF for s in salts)
    return np.random.default_rng(np.random.SeedSequence(entropy))
