"""Well-conditioned bases and leverage scores.

A basis U for the column space of A (or of A @ H) is carried implicitly as
a change-of-basis matrix: U = (A H) @ F with F = V_r diag(1/sigma_r), where
sigma_r and V_r are the singular values above the rank tolerance and the
right singular vectors of the sketched product Pi (A H), computed by an
R-only QR and the SVD of the small R.  For p in [1, 2) the sketch Pi = S D
is a sparse p-stable embedding (one nonzero per column; the sparse Cauchy
transform of Meng & Mahoney 2013 at p = 1), so Pi (A H) costs O(nnz(A H))
and Pi U is orthonormal; for p = 2 no sketch is needed and U itself is an
exact orthonormal factor (beta = 1), whose row norms are the leverage
scores of every orthonormal basis of the column space.  The certificates
alpha and beta are computed on first read, since most callers never need
them.

Leverage scores bound the fractional contribution any single row can make
to the v-measure, and drive all row sampling downstream.  The weighted
variant partitions rows into dyadic weight buckets, builds one basis per
bucket, and doubles the per-row scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    LossSpec,
    WeightVector,
    as_weights,
    is_sparse,
    matmul_dense,
    row_norms,
    spawn_rng,
    to_dense,
)
from .sketch import make_pstable_sketch, rank_revealing_factor

_ROW_BLOCK = 8192
_DEF_PROBES = 10_000
_STABLE_ROW_CAP = 8192


class _RowEvaluator:
    """Lazy n x m view of the basis rows supporting @ and row norms."""

    def __init__(self, basis: "WellConditionedBasis"):
        self._basis = basis
        self.shape = (basis.n, basis.m)

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        other = np.asarray(other, dtype=float)
        out = np.empty((self.shape[0],) + other.shape[1:])
        for lo, hi, block in self._basis.iter_row_blocks(right=other):
            out[lo:hi] = block
        return out


@dataclass
class WellConditionedBasis:
    """Conditioning certificate (alpha, beta) plus implicit row access."""

    change_of_basis: np.ndarray   # (m0, m) factor F = V_r diag(1/sigma_r): U = (A H) F
    p: float
    n: int
    m: int
    _ah: object                   # n x m0 product A H (dense or sparse)
    _probes: tuple                # (seed, n_probe, safety) of the beta certificate

    @cached_property
    def alpha(self) -> float:
        """Entrywise p-norm of U, computed on first read."""
        total = sum(float(np.sum(np.abs(block) ** self.p))
                    for _, _, block in self.iter_row_blocks())
        return total ** (1.0 / self.p)

    @cached_property
    def beta(self) -> float:
        """Dual-norm distortion bound: 1 for the exact p = 2 basis, else sampled on first read."""
        if self.p == 2.0:
            return 1.0
        return _beta_certificate(self, *self._probes)

    def u_rows(self, idx=None) -> np.ndarray:
        """Rows of the basis; idx may be a slice, index array, or None (all)."""
        src = self._ah if idx is None else self._ah[idx]
        return matmul_dense(src, self.change_of_basis)

    def iter_row_blocks(self, block_rows: int = _ROW_BLOCK, right=None):
        """Row blocks of U, or of U @ right taken as (A H) @ (F @ right)."""
        f = self.change_of_basis if right is None else self.change_of_basis @ right
        for lo in range(0, self.n, block_rows):
            hi = min(lo + block_rows, self.n)
            yield lo, hi, matmul_dense(self._ah[lo:hi], f)

    def row_norms_lp(self, p: Optional[float] = None) -> np.ndarray:
        """||U_i||_p for every row, computed blockwise."""
        q = self.p if p is None else p
        out = np.empty(self.n)
        for lo, hi, block in self.iter_row_blocks():
            out[lo:hi] = np.sum(np.abs(block) ** q, axis=1) ** (1.0 / q)
        return out

    def row_evaluator(self) -> _RowEvaluator:
        return _RowEvaluator(self)


def _beta_certificate(basis: WellConditionedBasis, seed: int, n_probe: int, safety: float) -> float:
    """Sampled estimate of the dual-norm distortion bound, times a safety factor."""
    p = basis.p
    q = math.inf if p == 1.0 else p / (p - 1.0)
    rng = spawn_rng(seed, 23)
    best = 0.0
    chunk = 512
    for lo in range(0, n_probe, chunk):
        hi = min(lo + chunk, n_probe)
        x = rng.standard_normal((basis.m, hi - lo))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        ux_p = np.zeros(hi - lo)
        for _, _, block in basis.iter_row_blocks():
            ux_p += np.sum(np.abs(block @ x) ** p, axis=0)
        if q == math.inf:
            xq = np.max(np.abs(x), axis=0)
        else:
            xq = np.sum(np.abs(x) ** q, axis=0) ** (1.0 / q)
        ratios = xq / np.maximum(ux_p ** (1.0 / p), 1e-300)
        best = max(best, float(ratios.max()))
    return best * safety


def well_conditioned_basis(
    a,
    h=None,
    p: float = 2.0,
    seed: int = 0,
    c_pi: float = 20.0,
    stable_row_cap: int = _STABLE_ROW_CAP,
    n_probe: int = _DEF_PROBES,
    rank_tol: float = 1e-8,
    beta_safety: float = 2.0,
) -> WellConditionedBasis:
    """Build a well-conditioned basis for the column space of A H.

    The change of basis F = V_r diag(1/sigma_r) comes from
    ``rank_revealing_factor``: an R-only QR of the operand, then the SVD of
    the small R, keeping singular values above rank_tol * sigma_max.  For
    p in [1, 2) the operand is Pi (A H) with Pi = S D the sparse p-stable
    embedding of ``PStableSketch``, which hashes the n rows into
    c_pi * m^2 buckets (capped at stable_row_cap) after scaling each by a
    p-stable draw; it is the sparse Cauchy transform of Meng & Mahoney
    (2013) at p = 1, and Pi (A H) F is orthonormal.  When the bucket count
    reaches n, or p = 2, the operand is A H itself and (A H) F is
    orthonormal.  The beta certificate is estimated from n_probe random
    probes with a safety factor when ``.beta`` is first read; for p = 2 the
    factorization is exact and beta = 1.  The reported width m is the
    numerical rank, which drops below the column count of A H when its
    columns are dependent.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p={p} outside [1, 2]")
    ah = matmul_dense(a, h) if h is not None else a
    n, m0 = ah.shape
    if n == 0 or m0 == 0:
        raise ValueError("empty operand")

    s = int(min(max(2 * m0, math.ceil(c_pi * m0 * m0)), max(stable_row_cap, 2 * m0)))
    if p == 2.0 or s >= n:
        # no sketch when exact factorization is cheaper; identity is an
        # exact subspace embedding, so the certificates are only sharper
        sv, v = rank_revealing_factor(to_dense(ah), rank_tol)
    else:
        pi = make_pstable_sketch(spawn_rng(seed, 19).integers(2**31), s, n, p)
        sv, v = rank_revealing_factor(pi.apply(ah), rank_tol)

    if sv.size == 0:
        raise ValueError("operand has numerical rank zero")
    return WellConditionedBasis(v / sv, float(p), n, sv.size, ah, (seed, n_probe, beta_safety))


# ---------------------------------------------------------------------------
# leverage scores


@dataclass(frozen=True)
class LeverageScores:
    gamma: np.ndarray
    gamma_total: float
    bucket_count: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.gamma)):
            raise ValueError("scores must be finite")


def _base_scores(loss: LossSpec, beta: float, norms: np.ndarray) -> np.ndarray:
    if loss.is_lp:
        return (beta * norms) ** loss.p
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
        norms = basis.row_norms_lp()
        gamma = (basis.beta * norms) ** loss.p
    else:
        if basis.p != 2.0:
            raise ValueError("general losses need an orthonormal (p=2) basis")
        norms = basis.row_norms_lp(2.0)
        gamma = _base_scores(loss, basis.beta, norms)
    return LeverageScores(gamma, float(gamma.sum()), 1)


def weighted_leverage_scores(
    a,
    w,
    loss: LossSpec,
    seed: int = 0,
    gauss_t: Optional[int] = None,
    **basis_kwargs,
) -> LeverageScores:
    """Leverage scores under dyadic weight buckets.

    Rows are split into buckets 2^(j-1) <= w_i < 2^j; each nonempty bucket
    gets its own basis, and per-row scores are twice the unweighted form.
    With ``gauss_t`` set, the basis row norms are replaced by Gaussian
    sketch estimates with that many columns (the fast estimation path for
    p=2 losses).
    """
    n = a.shape[0]
    wv = as_weights(w, n)
    weights = WeightVector(wv)
    buckets = weights.bucket_indices()
    gamma = np.zeros(n)
    basis_p = loss.p if loss.is_lp else 2.0
    src = a.tocsr() if is_sparse(a) else a
    for j in np.unique(buckets):
        rows = np.flatnonzero(buckets == j)
        sub = src if rows.size == n else src[rows]  # one bucket: no n-row copy
        if row_norms(sub).max() == 0.0:
            continue  # all-zero bucket contributes score 0
        basis = well_conditioned_basis(
            sub, p=basis_p, seed=int(spawn_rng(seed, 29, int(j)).integers(2**31)),
            **basis_kwargs,
        )
        if gauss_t is not None and not loss.is_lp:
            g = spawn_rng(seed, 31, int(j)).standard_normal((basis.m, gauss_t))
            g /= math.sqrt(gauss_t)
            norms = np.empty(basis.n)
            for lo, hi, block in basis.iter_row_blocks(right=g):
                norms[lo:hi] = np.linalg.norm(block, axis=1)
        else:
            norms = basis.row_norms_lp()
        gamma[rows] = 2.0 * _base_scores(loss, basis.beta, norms)
    return LeverageScores(gamma, float(gamma.sum()), weights.n_buckets)
