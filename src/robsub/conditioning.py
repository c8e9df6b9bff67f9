"""Well-conditioned bases and leverage scores.

A basis U for the column space of A (or of A @ H) is carried implicitly as
a change-of-basis matrix: U = (A H) @ F with F = V_r diag(1/sigma_r), where
sigma_r and V_r are the singular values above the rank tolerance and the
right singular vectors of the sketched product Pi (A H), computed by a
streaming R-only QR, which folds one densified block of 2048 rows at a
time into a running R, in memory independent of the row count, and the
SVD of the small R.  The sketch Pi = S D is a sparse embedding with one
nonzero per column, so Pi (A H) costs O(nnz(A H)) and Pi U is
orthonormal: for p in [1, 2) a p-stable one (the sparse Cauchy transform
of Meng & Mahoney 2013 at p = 1), and for p = 2 CountSketch (Clarkson &
Woodruff 2013), whose distortion bounds beta by a constant.
Where the sketch would not be smaller than A H, Pi is the identity and U
at p = 2 is an exact orthonormal factor (beta = 1), whose row norms are
the leverage scores of every orthonormal basis of the column space.  The
certificate beta is computed on first read, since most callers never
need it, and at p < 2 it stops early when a caller only asks whether beta
reaches a bound.

Leverage scores bound the fractional contribution any single row can make
to the v-measure, and drive all row sampling downstream.  The weighted
variant partitions rows into dyadic weight buckets, builds one basis per
bucket, and doubles the per-row scores.  A bucket is never copied out of
its source: its basis holds the source and the bucket's row indices (a
``core.RowView``), its sketch places the bucket's columns at those rows of
an operator over every source row, and its QR and row-norm passes gather
one block of its rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from .sketch import make_pstable_sketch, rank_revealing_factor

_ROW_BLOCK = 8192
_DEF_PROBES = 10_000
_PROBE_CHUNK = 512
# size rule of well_conditioned_basis: c_pi m0^2 hash buckets, the p < 2 cap
# on them and the p = 2 row floor for sketching, and the beta safety factor
_C_PI = 20.0
_STABLE_ROW_CAP = 8192
_BETA_SAFETY = 2.0
# beta of a CountSketch-conditioned p = 2 basis, 1 + eps at eps = 1/2; see
# well_conditioned_basis
_P2_SKETCH_BETA = 1.5


@dataclass
class WellConditionedBasis:
    """Conditioning certificate beta plus implicit row access."""

    change_of_basis: np.ndarray   # (m0, m) factor F = V_r diag(1/sigma_r): U = (A H) F
    p: float
    n: int
    m: int
    _ah: RowView                  # n x m0 product A H, read a block of rows at a time
    _probes: tuple                # (seed, n_probe) of the beta certificate
    sketched: bool                # F comes from a sketch Pi (A H), not from A H itself

    @cached_property
    def beta(self) -> float:
        """Dual-norm distortion bound.

        At p = 2 it is 1 for the exact basis and the CountSketch constant
        for a sketched one; for p < 2 it is sampled on first read.
        """
        if self.p == 2.0:
            return _P2_SKETCH_BETA if self.sketched else 1.0
        return _beta_certificate(self, *self._probes)

    def beta_reaches(self, bound: float) -> bool:
        """Whether beta >= bound, running the certificate only until that is decided.

        The certificate's running max over a prefix of its probes is a
        lower bound on beta, so it stops once that reaches ``bound``; a run
        that completes is cached as ``.beta``.
        """
        if "beta" in self.__dict__ or self.p == 2.0:
            return self.beta >= bound
        partial = _beta_certificate(self, *self._probes, bound)
        if partial < bound:  # no early stop: every probe was evaluated
            self.__dict__["beta"] = partial
        return partial >= bound

    def u_rows(self, idx=None) -> np.ndarray:
        """Rows of the basis; idx may be a slice, index array, or None (all)."""
        return matmul_dense(self._ah.block(slice(None) if idx is None else idx),
                            self.change_of_basis)

    def iter_row_blocks(self, block_rows: int = _ROW_BLOCK, right=None):
        """Row blocks of U, or of U @ right taken as (A H) @ (F @ right)."""
        f = self.change_of_basis if right is None else self.change_of_basis @ right
        for lo, hi, block in self._ah.blocks(block_rows):
            yield lo, hi, matmul_dense(block, f)

    def row_norms_lp(self, p: Optional[float] = None) -> np.ndarray:
        """||U_i||_p for every row, computed blockwise."""
        q = self.p if p is None else p
        out = np.empty(self.n)
        for lo, hi, block in self.iter_row_blocks():
            out[lo:hi] = np.sum(np.abs(block) ** q, axis=1) ** (1.0 / q)
        return out


def _probe_ratios(basis: WellConditionedBasis, x: np.ndarray, q: float) -> np.ndarray:
    """||x||_q / ||U x||_p for each unit column x of the probe matrix."""
    p = basis.p
    ux_p = np.zeros(x.shape[1])
    for _, _, block in basis.iter_row_blocks():
        ux_p += np.sum(np.abs(block @ x) ** p, axis=0)
    if q == math.inf:
        xq = np.max(np.abs(x), axis=0)
    else:
        xq = np.sum(np.abs(x) ** q, axis=0) ** (1.0 / q)
    return xq / np.maximum(ux_p ** (1.0 / p), 1e-300)


def _beta_certificate(basis: WellConditionedBasis, seed: int, n_probe: int,
                      stop: float = math.inf) -> float:
    """Sampled estimate of the dual-norm distortion bound, times _BETA_SAFETY.

    The probes are drawn in chunks of 512 from one stream.  Once the scaled
    running max reaches ``stop`` the rest are skipped: that value is a
    lower bound on the full certificate.  The first probe is screened on its
    own before its chunk, since one probe often decides; the chunk is then
    evaluated whole, so a run that completes returns the same value as one
    without a stop.
    """
    q = math.inf if basis.p == 1.0 else basis.p / (basis.p - 1.0)
    rng = spawn_rng(seed, 23)
    best = 0.0
    for lo in range(0, n_probe, _PROBE_CHUNK):
        x = rng.standard_normal((basis.m, min(_PROBE_CHUNK, n_probe - lo)))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        if lo == 0 and stop < math.inf:
            first = float(_probe_ratios(basis, x[:, :1], q)[0]) * _BETA_SAFETY
            if first >= stop:
                return first
        best = max(best, float(_probe_ratios(basis, x, q).max()))
        if best * _BETA_SAFETY >= stop:
            break
    return best * _BETA_SAFETY


def well_conditioned_basis(a, h=None, p: float = 2.0, seed: int = 0,
                           n_probe: int = _DEF_PROBES) -> WellConditionedBasis:
    """Build a well-conditioned basis for the column space of A H.

    The change of basis F = V_r diag(1/sigma_r) comes from
    ``rank_revealing_factor``: a streaming R-only QR of the operand, which
    folds one dense block of 2048 rows at a time into a running R (a
    sparse A H is never densified whole, and the memory does not grow with
    n), then the SVD of the small R, keeping singular values above
    ``sketch.RANK_TOL`` * sigma_max.  The operand is either Pi (A H), with Pi = S D
    the sparse embedding of ``PStableSketch`` that hashes the n rows into s
    buckets after scaling each by a p-stable draw (a random sign at p = 2),
    so that Pi (A H) F is orthonormal; or A H itself, so that (A H) F is
    orthonormal.  With m0 the column count of A H, the size rule is:

    * p in [1, 2): s = c_pi * m0^2, capped at 8192 (and at least 2 m0);
      the sketch is taken when s < n.  This is the sparse Cauchy transform
      of Meng & Mahoney (2013) at p = 1.  beta is estimated from n_probe
      random probes times a safety factor of 2 when ``.beta`` is first read.
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

    Here c_pi = 20; it and the two constants above are the module
    constants _C_PI, _STABLE_ROW_CAP and _BETA_SAFETY.  The reported width m
    is the numerical rank, which drops below m0 when the columns of A H are
    dependent.  A may be a ``RowView`` when h is None.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p={p} outside [1, 2]")
    ah = row_view(matmul_dense(a, h) if h is not None else a)
    n, m0 = ah.shape
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
        sv, v = rank_revealing_factor(pi.apply(ah))
    else:
        # no sketch when exact factorization is cheaper; identity is an
        # exact subspace embedding, so the certificates are only sharper
        sv, v = rank_revealing_factor(ah)

    if sv.size == 0:
        raise ValueError("operand has numerical rank zero")
    return WellConditionedBasis(v / sv, float(p), n, sv.size, ah, (seed, n_probe), sketched)


# ---------------------------------------------------------------------------
# leverage scores


class LeverageScores:
    """Per-row scores gamma, their total, and the number of weight buckets with a basis.

    The |x|^p scores of one bucket are beta^p times a beta-free part, with
    beta the certificate of the bucket's basis.  The two are kept apart, so
    the certificate runs when ``gamma`` or ``gamma_total`` is first read,
    or only as far as ``capped_total`` needs it.
    """

    def __init__(self, base: np.ndarray, bucket_count: int, scaled=(), p: float = 2.0):
        # gamma is base, times basis.beta ** p on the rows of each (rows,
        # basis) in scaled; when anything is scaled, rows outside the
        # scaled buckets have base 0
        if not np.all(np.isfinite(base)):
            raise ValueError("scores must be finite")
        self.base = base
        self.bucket_count = bucket_count
        self._scaled = tuple(scaled)
        self._p = p

    @cached_property
    def gamma(self) -> np.ndarray:
        if not self._scaled:
            return self.base
        gamma = self.base.copy()
        for rows, basis in self._scaled:
            gamma[rows] *= basis.beta ** self._p
        return gamma

    @cached_property
    def gamma_total(self) -> float:
        return float(self.gamma.sum())

    @property
    def relative(self) -> np.ndarray:
        """A vector proportional to gamma: the beta-free part when at most one bucket is scaled."""
        return self.base if len(self._scaled) <= 1 else self.gamma

    def capped_total(self, cap: float) -> float:
        """min(gamma_total, cap), running a lone bucket's certificate only until that is decided."""
        if len(self._scaled) == 1 and "gamma_total" not in self.__dict__:
            basis = self._scaled[0][1]
            total = float(self.base.sum())
            # gamma_total = beta^p * total reaches cap iff beta reaches (cap / total)^(1/p)
            if total > 0.0 and basis.beta_reaches((cap / total) ** (1.0 / self._p)):
                return cap
        return min(self.gamma_total, cap)


def _m2_scores(loss: LossSpec, beta: float, norms: np.ndarray) -> np.ndarray:
    return np.maximum(beta * norms / loss.c_m, (beta * norms) ** 2)


def leverage_scores(a, basis: WellConditionedBasis, loss: LossSpec) -> LeverageScores:
    """Unweighted leverage scores from a prebuilt basis.

    For |x|^p losses the sharpened form (beta ||U_i||_p)^p applies; general
    p=2 losses use an orthonormal basis and take the max of the linear and
    quadratic branches.
    """
    if a.shape[0] != basis.n:
        raise ValueError("basis was built for a different row count")
    if loss.is_lp:
        if abs(loss.p - basis.p) > 1e-12:
            raise ValueError(f"basis p={basis.p} does not match loss p={loss.p}")
        return LeverageScores(basis.row_norms_lp() ** loss.p, 1, [(slice(None), basis)], loss.p)
    if basis.p != 2.0:
        raise ValueError("general losses need an orthonormal (p=2) basis")
    return LeverageScores(_m2_scores(loss, basis.beta, basis.row_norms_lp(2.0)), 1)


def weighted_leverage_scores(
    a,
    w,
    loss: LossSpec,
    seed: int = 0,
    gauss_t: Optional[int] = None,
    **basis_kwargs,
) -> LeverageScores:
    """Leverage scores under dyadic weight buckets.

    Rows are split into buckets 2^(j-1) <= w_i < 2^j; each bucket that is
    not all zero gets its own basis over its rows of ``a`` (a matrix or a
    ``RowView``), read by index, and per-row scores are twice the
    unweighted form.
    With ``gauss_t`` set, for any loss, the basis row norms are replaced
    by the Euclidean norms of U G for a Gaussian G with that many columns
    scaled by 1/sqrt(gauss_t) (Drineas, Magdon-Ismail, Mahoney & Woodruff
    2012); one column gives the estimate |U_i g| of the |x|^p pipeline.
    """
    n = a.shape[0]
    wv = as_weights(w, n)
    weights = WeightVector(wv)
    buckets = weights.bucket_indices()
    base = np.zeros(n)
    scaled = []
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
            **basis_kwargs,
        )
        if gauss_t is not None:
            g = spawn_rng(seed, 31, int(j)).standard_normal((basis.m, gauss_t))
            g /= math.sqrt(gauss_t)
            norms = np.empty(basis.n)
            for lo, hi, block in basis.iter_row_blocks(right=g):
                norms[lo:hi] = np.linalg.norm(block, axis=1)
        else:
            norms = basis.row_norms_lp()
        if loss.is_lp:
            base[rows] = 2.0 * norms ** loss.p
            scaled.append((rows, basis))
        else:
            base[rows] = 2.0 * _m2_scores(loss, basis.beta, norms)
    return LeverageScores(base, bases, scaled, loss.p)
