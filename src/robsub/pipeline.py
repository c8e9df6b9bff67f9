"""End-to-end (1+eps) pipelines and the desk-scale small-problem solver.

Both pipelines run one body: bicriteria subspace -> residual sampling into
a moderate subspace U -> one sensitivity sample T of the rows of A, scored
by each row's cost share under V_k, the top-k right singular vectors of A
inside U, plus its leverage in A V_k -> min over rank-k projectors W W^T
of the small problem on the kept rows' exact columns T [A U, r],
r_i = ||A_i (I - U U^T)||, weighted by 1/q -> return U W.  Its per-row
costs are exact, as ||A_i (I - U W W^T U^T)||^2 = ||A_i U (I - W W^T)||^2
+ r_i^2 (a projection-cost-preserving reduction; Cohen, Elder, Musco,
Musco & Persu 2015), so a row's score needs only A_i and the d x k V_k.
No n x d array or n x m A U is formed: the R factor that finds V_k reads
A U one block at a time.

The small solver is heuristic by design: a reweighted-PCA alternation
(``_mm_descent``) runs from a few random orthonormal starts, and the
lowest-cost iterate is returned.  The width of [X r] is checked against
the cap before any row is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bicriteria import const_approx
from .core import (
    _FACTOR_BLOCK,
    ComputedPart,
    LossSpec,
    Subspace,
    as_weights,
    chunks,
    is_sparse,
    m_derivative,
    m_value,
    matmul_dense,
    project_rows,
    row_view,
    spawn_rng,
)
from . import sampling
from .dimreduce import dim_reduce
from .sketch import rank_revealing_factor

_T_ROWS = 300        # expected rows of the final sample
_RESTARTS = 5        # random starts of the small solve's alternation
# the alternation's eigen step: from this width m on, a block Krylov space of at
# most _KRYLOV_BLOCKS blocks replaces the formed m x m matrix, and its top-k Ritz
# pairs are kept when their residual is at most _KRYLOV_CERT times the certified gap
_KRYLOV_MIN_WIDTH = 64
_KRYLOV_BLOCKS = 12
_KRYLOV_CERT = 1e-12
# each start's alternation stops once a step gains at most _STOP_TOL of the cost,
# or after _MM_STEPS steps
_STOP_TOL = 1e-10
_MM_STEPS = 50


class CapExceededError(RuntimeError):
    """A stage produced a problem larger than the configured caps allow."""


@dataclass(frozen=True)
class SmallProblem:
    """The reduced problem on the kept rows' exact columns cols = [X r].

    For a factor W of the m = cols.shape[1] - 1 domain directions, row i
    costs w_i M(sqrt(||X_i - X_i W W^T||^2 + r_i^2)).  The residual is
    formed directly, so the cost is defined for any W.
    """

    cols: np.ndarray
    w: np.ndarray
    k: int

    def __post_init__(self):
        cols = np.asarray(self.cols, dtype=float)
        if cols.ndim != 2 or cols.shape[1] < 2:
            raise ValueError("cols must be a matrix [X r] with at least two columns")
        if not (1 <= self.k < cols.shape[1]):
            raise ValueError(f"k={self.k} outside [1, {cols.shape[1] - 1}]")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "w", as_weights(self.w, cols.shape[0]))

    @property
    def x(self) -> np.ndarray:
        return self.cols[:, :-1]

    @property
    def domain_dim(self) -> int:
        return self.cols.shape[1] - 1

    def max_side(self) -> int:
        return max(self.cols.shape)

    def residual(self, w_factor: np.ndarray):
        """X W W^T - X and the rows' residual norms sqrt(||X_i W W^T - X_i||^2 + r_i^2)."""
        resid = (self.x @ w_factor) @ w_factor.T - self.x
        r = self.cols[:, -1]
        return resid, np.sqrt(np.einsum("ij,ij->i", resid, resid) + r * r)


# ---------------------------------------------------------------------------
# small-problem solver


def _orthonormal(mat: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _bottom_eigenvectors(h: np.ndarray, k: int) -> np.ndarray:
    """Eigenvectors of the k smallest eigenvalues of symmetric h, read from its lower triangle.

    LAPACK dsyevr restricted to eigenvalue indices 1..k, so the other
    eigenpairs are never computed.
    """
    # imported on first use: scipy.linalg adds about 0.13 s to the package's import
    from scipy.linalg import lapack

    _, vecs, _, _, info = lapack.dsyevr(h, range="I", lower=1, il=1, iu=k)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    return vecs


def _top_eigenvectors(x: np.ndarray, psi: np.ndarray, k: int, v0: np.ndarray):
    """The top k eigenvectors of H = X^T diag(psi) X, psi >= 0, and whether
    the Krylov certificate failed and the formed H was solved instead.

    From a width m of ``_KRYLOV_MIN_WIDTH`` on, a block Krylov space of H
    grows from the orthonormal m x k start v0, with H applied only as
    X^T (psi o (X V)); each new block H Q_last is made orthonormal to the
    space by a Householder QR of [Q, H Q_last].  The top k Ritz pairs
    (Y, Theta) of the space are returned once ||H Y - Y Theta||_F <=
    ``_KRYLOV_CERT`` * gap, gap = theta_k - (trace(H) - sum Theta): as H
    is positive semidefinite, trace(H) - sum Theta bounds the sum of its
    other eigenvalues, so lambda_{k+1} too, and by Davis-Kahan Y Y^T is
    then within sqrt(2) ``_KRYLOV_CERT`` of H's top-k projector.  Narrower
    widths, and a space that meets no certificate within
    ``_KRYLOV_BLOCKS`` blocks, form H and solve it directly; Krylov
    (Musco & Musco 2015) saves the m x m product and the tridiagonalization.
    """
    m = x.shape[1]
    krylov = m >= _KRYLOV_MIN_WIDTH
    if krylov:
        trace_h = float(np.dot(psi, np.einsum("ij,ij->i", x, x)))
        q = v0
        hq = x.T @ (psi[:, None] * (x @ q))
        for _ in range(_KRYLOV_BLOCKS):
            theta, s = np.linalg.eigh(q.T @ hq)
            theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
            y = q @ s
            gap = theta[-1] - (trace_h - theta.sum())
            if np.linalg.norm(hq @ s - y * theta) <= _KRYLOV_CERT * gap:
                return y, False
            if q.shape[1] + k > m:
                break
            new = np.linalg.qr(np.hstack([q, hq[:, -k:]]))[0][:, q.shape[1]:]
            q = np.hstack([q, new])
            hq = np.hstack([hq, x.T @ (psi[:, None] * (x @ new))])
    return _bottom_eigenvectors(-(x.T @ (psi[:, None] * x)), k), krylov


def _mm_descent(prob: SmallProblem, loss: LossSpec, w0: np.ndarray, tally: dict):
    """Reweighted-PCA alternation for the projector objective.

    At the current iterate the loss is majorized by a quadratic with
    per-row weights psi_i = w_i M'(n_i) / (2 n_i) at the residual norms
    n_i.  For orthonormal W, ||X_i W W^T - X_i||^2 = ||X_i||^2 - ||X_i W||^2,
    so the quadratic is minimized by the top-k eigenvectors of X^T Psi X,
    taken by ``_top_eigenvectors`` from a Krylov space grown from the
    current W; they are orthonormal as returned.  Every iterate is scored
    by the true objective and the best is kept; its residual norms give
    both its cost and the next step's weights.  The start stops after
    ``_MM_STEPS`` steps, or once a step lowers the best cost by at most
    ``_STOP_TOL`` of it.  Steps and eigen fallbacks are added to ``tally``.
    """
    w_factor, norms = w0, prob.residual(w0)[1]
    best_w, best_cost = w0, float(np.dot(prob.w, m_value(loss, norms)))
    for _ in range(_MM_STEPS):
        tally["small_mm_steps"] += 1
        floored = np.maximum(norms, 1e-12)
        psi = prob.w * m_derivative(loss, floored) / (2.0 * floored)
        w_factor, fell_back = _top_eigenvectors(prob.x, psi, prob.k, w_factor)
        tally["small_eigen_fallbacks"] += fell_back
        norms = prob.residual(w_factor)[1]
        cost, prev = float(np.dot(prob.w, m_value(loss, norms))), best_cost
        if cost < best_cost:
            best_w, best_cost = w_factor, cost
        if prev - cost <= _STOP_TOL * prev:
            break
    return best_w, best_cost


def small_approx(prob: SmallProblem, loss: LossSpec, seed: int = 0,
                 trace: Optional[dict] = None) -> np.ndarray:
    """Approximately minimize the small problem's cost over orthonormal W.

    Runs the reweighted-PCA alternation (``_mm_descent``) from
    ``_RESTARTS`` random orthonormal factors and returns the lowest-cost
    of their iterates.  ``trace`` receives the alternation steps of all
    starts (``small_mm_steps``) and the steps whose Krylov certificate
    failed (``small_eigen_fallbacks``).
    """
    tally = {} if trace is None else trace
    tally.update(small_mm_steps=0, small_eigen_fallbacks=0)
    k, m = prob.k, prob.domain_dim
    if k == m:
        return np.eye(m)
    rng = spawn_rng(seed, 73)
    starts = (_orthonormal(rng.standard_normal((m, k))) for _ in range(_RESTARTS))
    return min((_mm_descent(prob, loss, w0, tally) for w0 in starts), key=lambda r: r[1])[0]


# ---------------------------------------------------------------------------
# shared pipeline stages


def _stage_bicriteria(a, k, loss, seed, trace):
    """The bicriteria subspace; ``trace`` receives its sample's rows."""
    xhat = const_approx(a, k, loss, seed=int(spawn_rng(seed, 79).integers(2**31)),
                        trace=trace)
    trace["bicriteria_dim"] = xhat.dim
    return xhat


def _stage_subspace(a, k, eps, loss, seed, trace):
    """The residual-sampled subspace containing the bicriteria subspace;
    ``trace`` receives both stages' samples."""
    xhat = _stage_bicriteria(a, k, loss, seed, trace)
    sub = dim_reduce(a, k, eps, xhat, loss,
                     seed=int(spawn_rng(seed, 83).integers(2**31)), trace=trace)
    trace["reduced_dim"] = sub.dim
    return sub


def _exact_columns(rows, u: np.ndarray) -> np.ndarray:
    """[A U, r] of some rows A of the input, with r_i = ||A_i (I - U U^T)||."""
    au, r = project_rows(rows, u)
    return np.column_stack((au, r))


class _Coordinates(ComputedPart):
    """The rows of A U, computed on read (a ``core.ComputedPart``)."""

    def __init__(self, a, u: np.ndarray):
        super().__init__(a, u.shape[1])
        # scipy multiplies a CSR block by a C-ordered U as it is, and copies any other
        self.u = np.ascontiguousarray(u) if is_sparse(self.a) else u

    def compute(self, rows) -> np.ndarray:
        return matmul_dense(rows, self.u)


def _final_factor(u: np.ndarray, w_factor: np.ndarray) -> Subspace:
    v = u @ w_factor
    # re-orthonormalize defensively; the product is orthonormal up to fp noise
    return Subspace(_orthonormal(v))


def _pad_to_k(u: np.ndarray, k: int, seed: int) -> Subspace:
    """Grow a too-small subspace to exactly k orthonormal columns, drawn from the fit seed."""
    d = u.shape[0]
    rng = spawn_rng(seed, 109)
    v = u
    while v.shape[1] < k:
        cand = rng.standard_normal((d, 1))
        cand -= v @ (v.T @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-12:
            v = np.hstack([v, cand / norm])
    return Subspace(v)


def _final_sample(a, sub: Subspace, k: int, loss: LossSpec, seed: int, tr: dict):
    """The rows of A that the small solve keeps, and their weights.

    At most ``_T_ROWS`` rows are all kept, with no draw and no factor.
    Otherwise V_k, the top-k right singular vectors of A inside U =
    ``sub.u``, and their singular values sigma are U's first k columns
    and ``sub.sv`` when that is set (U is A's row space), and else come
    from ``sketch.rank_revealing_factor`` of A when U spans R^d, or of the
    A U part, read one block at a time (V_k = U V[:, :k]); A V_k / sigma
    is orthonormal.  Row i scores s_i = M(||A_i (I - V_k V_k^T)||) /
    sum_j M(.) + ||A_i V_k / sigma||^2 / k: its cost share under V_k plus
    its leverage in A V_k, which bound its sensitivity over every rank-k
    subspace inside U up to the factor by which V_k's cost exceeds the
    optimum (Feldman & Langberg 2011; Varadarajan & Xiao 2012).  The cost
    share is dropped when its total is zero.  A (dense or CSR) is read one
    block of ``_FACTOR_BLOCK`` rows at a time into the two terms'
    n-vectors, summed in place once the total is known, and the scores
    stream a chunk at a time into one sample expecting ``_T_ROWS`` rows
    (``sampling.sample_stream``).  Each kept row weighs 1/q for every
    loss: for |x|^p that costs what the row rescaled by q^(-1/p) costs, as
    w M(x) = M(w^(1/p) x).  ``tr`` receives the realized and expected rows
    (``t_rows``, ``t_rows_expected``).
    """
    n = a.shape[0]
    if n <= _T_ROWS:
        sampling.record("t", n, n, tr)
        return np.arange(n), np.ones(n)
    if sub.sv is not None:
        sv, vk = sub.sv, sub.u
    else:
        square = sub.dim == sub.d
        sv, v = rank_revealing_factor(a if square else _Coordinates(a, sub.u))
        vk = v if square else sub.u @ v[:, :k]
    vk, inv = vk[:, :k], 1.0 / sv[:k]
    cost, lev = np.empty(n), np.empty(n)
    for lo, hi, (rows,) in row_view(a).blocks(_FACTOR_BLOCK):
        xb, resid = project_rows(rows, vk)
        cost[lo:hi] = m_value(loss, resid)
        xb *= inv
        lev[lo:hi] = np.einsum("ij,ij->i", xb, xb)
    lev /= k
    total = cost.sum()
    if total > 0.0:
        cost /= total
        lev += cost
    sample = sampling.sample_stream("t", ((c.start, c.stop, lev[c]) for c in chunks(n)),
                                    _T_ROWS, seed, tr)
    if len(sample) == 0:
        raise CapExceededError(f"final sampling stage drew no rows of {n}")
    return sample.indices, sample.reweights


def _sample_and_solve(a, k: int, eps: float, loss: LossSpec, small_cap: int,
                      seed: int, trace: Optional[dict], salts: Tuple[int, int]) -> Subspace:
    """The body shared by approx_lp and approx_m2.

    The stages run at rank min(k, n), as n rows span at most n
    dimensions, and a subspace U of at most that width is padded to k
    orthonormal columns.  A U of m columns with m + 1 > ``small_cap``
    raises ``CapExceededError`` before any column or row of the final
    sample is formed.  ``_final_sample`` draws the rows of A as given
    (dense or CSR), and is the one place that finds their sensitivity
    basis, from an R factor that alone reads the A U part; when U carries
    A's singular values (``Subspace.sv``: the bicriteria stage's row space
    of A, whenever min(n, d) <= P_M) the fit factors A once and reads no
    sketch.  The kept rows of A are gathered
    once, and their exact columns [A U, r] formed, for the weighted small
    problem.  Salts seed the draw and the small solve.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if small_cap < 1:
        raise ValueError("small_cap must be >= 1")
    n, d = a.shape
    if not (1 <= k <= d):
        raise ValueError(f"k={k} outside [1, {d}]")
    tr = {} if trace is None else trace
    tr["eps"] = eps

    sub = _stage_subspace(a, min(k, n), eps, loss, seed, tr)
    u, m = sub.u, sub.dim
    if m <= min(k, n):
        return _pad_to_k(u, k, seed)
    # m <= n, as U lies in the row space of A: from here on k < n
    if m + 1 > small_cap:
        raise CapExceededError(
            f"small problem has side {m + 1} > cap {small_cap}; raise the "
            "cap or lower the sampling targets")

    idx, w = _final_sample(a, sub, k, loss, int(spawn_rng(seed, salts[0]).integers(2**31)),
                           tr)

    kept, = row_view(a).block(idx)
    prob = SmallProblem(_exact_columns(kept, u), w, k)
    w_factor = small_approx(prob, loss, seed=int(spawn_rng(seed, salts[1]).integers(2**31)),
                            trace=tr)
    return _final_factor(u, w_factor)


# ---------------------------------------------------------------------------
# the two pipelines


def approx_lp(a, k: int, eps: float, loss: LossSpec,
              small_cap: int = 400, seed: int = 0,
              trace: Optional[dict] = None) -> Subspace:
    """(1+eps)-style pipeline for M(x) = |x|^p, p in [1, 2): returns rank-k U W.

    Stages: bicriteria subspace, residual sampling into U, one
    sensitivity sample of the rows of A (``_final_sample``), and the small
    solve inside U on the sampled rows' exact columns T [A U, r], weighted
    by 1/q.  ``small_cap``
    (at least 1) is the most columns [X r] of the small problem.
    """
    if not loss.is_lp or not (1.0 <= loss.p < 2.0):
        raise ValueError("this pipeline requires an |x|^p loss with p in [1, 2)")
    return _sample_and_solve(a, k, eps, loss, small_cap, seed, trace,
                             salts=(103, 107))


def approx_m2(a, k: int, eps: float, loss: LossSpec,
              small_cap: int = 400, seed: int = 0,
              trace: Optional[dict] = None) -> Subspace:
    """Pipeline for general nice p=2 losses (Huber, L1-L2, Fair): the stages of ``approx_lp``."""
    if not loss.is_m2:
        raise ValueError("this pipeline requires a p=2 (non-|x|^p) loss")
    return _sample_and_solve(a, k, eps, loss, small_cap, seed, trace,
                             salts=(127, 131))
