"""End-to-end (1+eps) pipelines and the desk-scale small-problem solver.

Both pipelines run one body: bicriteria subspace -> residual sampling into
a moderate subspace U -> one sensitivity sample T of the rows of [A U, r],
r_i = ||A_i (I - U U^T)|| (of A itself when U is square), scored by each
row's cost share under the top-k singular subspace B plus its leverage in
the projection onto B -> min over rank-k projectors W W^T of the small
problem on the kept rows' exact columns T [A U, r], weighted by 1/q ->
return U W.  Its per-row costs are exact, as ||A_i (I - U W W^T U^T)||^2 =
||A_i U (I - W W^T)||^2 + r_i^2 (a projection-cost-preserving reduction;
Cohen, Elder, Musco, Musco & Persu 2015).  No n x d array is formed.

The small solver is heuristic by design: a reweighted-PCA alternation runs
from a few random orthonormal starts, and projected gradient descent on
the orthonormal factor polishes the best of its iterates once.  Each
alternation step takes the top-k eigenvectors of the m x m matrix
X^T Psi X from a block Krylov space warm-started at the current factor,
which applies the matrix through X and never forms it, and keeps them only
under a residual certificate; narrow problems, and steps without the
certificate, form the matrix and solve it with LAPACK.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bicriteria import const_approx
from .core import (
    _FACTOR_BLOCK,
    LossSpec,
    Subspace,
    as_weights,
    m_derivative,
    m_value,
    project_rows,
    row_view,
    spawn_rng,
)
from .dimreduce import dim_reduce
from .sampling import draw, make_plan
from .sketch import orthonormalizer, r_factor

_RESTARTS = 5        # random starts of the small solve's alternation
# the alternation's eigen step: from this width m on, a block Krylov space of at
# most _KRYLOV_BLOCKS blocks replaces the formed m x m matrix, and its top-k Ritz
# pairs are kept when their residual is at most _KRYLOV_CERT times the certified gap
_KRYLOV_MIN_WIDTH = 64
_KRYLOV_BLOCKS = 12
_KRYLOV_CERT = 1e-12


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

    def cost(self, w_factor: np.ndarray, loss: LossSpec) -> float:
        return float(np.dot(self.w, m_value(loss, self.residual(w_factor)[1])))


@dataclass(frozen=True)
class PipelineConfig:
    """The small solve's budgets; every other sample size is a constant of the analysis."""

    t_rows_target: int = 300            # expected rows of the final sample
    small_cap: int = 400                # most columns [X r] of the reduced problem


# ---------------------------------------------------------------------------
# small-problem solver


def _orthonormal(mat: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _gradient(prob: SmallProblem, loss: LossSpec, w_factor: np.ndarray):
    """The cost and its gradient g W + g^T W, g = X^T (psi o (X W W^T - X))."""
    resid, norms = prob.residual(w_factor)
    cost = float(np.dot(prob.w, m_value(loss, norms)))
    psi = prob.w * m_derivative(loss, norms) / np.maximum(norms, 1e-300)
    g = prob.x.T @ (psi[:, None] * resid)
    return cost, g @ w_factor + g.T @ w_factor


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


def _mm_descent(prob: SmallProblem, loss: LossSpec, w0: np.ndarray, tally: dict,
                iters: int = 50):
    """Reweighted-PCA alternation for the projector objective.

    At the current iterate the loss is majorized by a quadratic with
    per-row weights psi_i = w_i M'(n_i) / (2 n_i) at the residual norms
    n_i.  For orthonormal W, ||X_i W W^T - X_i||^2 = ||X_i||^2 - ||X_i W||^2,
    so the quadratic is minimized by the top-k eigenvectors of X^T Psi X,
    taken by ``_top_eigenvectors`` from a Krylov space grown from the
    current W.  Every iterate is scored by the true objective and the best
    is kept; its residual norms give both its cost and the next step's
    weights.  Steps and eigen fallbacks are added to ``tally``.
    """
    x = prob.x
    w_factor = w0
    norms = prob.residual(w0)[1]
    best_w, best_cost = w0, float(np.dot(prob.w, m_value(loss, norms)))
    for _ in range(iters):
        tally["small_mm_steps"] += 1
        floored = np.maximum(norms, 1e-12)
        psi = prob.w * m_derivative(loss, floored) / (2.0 * floored)
        top, fell_back = _top_eigenvectors(x, psi, prob.k, w_factor)
        tally["small_eigen_fallbacks"] += fell_back
        w_new = _orthonormal(top)
        if np.linalg.norm(w_new @ (w_new.T @ w_factor) - w_factor) < 1e-12:
            break
        w_factor = w_new
        norms = prob.residual(w_factor)[1]
        cost = float(np.dot(prob.w, m_value(loss, norms)))
        if cost < best_cost - 1e-15:
            best_w, best_cost = w_factor, cost
    return best_w, best_cost


def _local_search_from(prob: SmallProblem, loss: LossSpec, w0: np.ndarray,
                       max_iter: int = 300, tol: float = 1e-10):
    """Projected gradient descent with backtracking from w0.

    Returns the best iterate and whether the descent stopped on its own
    (no improving step, or a relative gain below tol) before max_iter.
    """
    w_factor = w0
    cost, grad = _gradient(prob, loss, w_factor)
    step = 1.0 / max(np.linalg.norm(grad), 1e-12)
    best_w, best_cost = w_factor, cost
    converged = False
    for _ in range(max_iter):
        improved = False
        for _ in range(30):
            cand = _orthonormal(w_factor - step * grad)
            cand_cost = prob.cost(cand, loss)
            if cand_cost < cost - 1e-18:
                improved = True
                break
            step *= 0.5
            if step < 1e-18:
                break
        if not improved:
            converged = True
            break
        w_factor = cand
        prev = cost
        cost, grad = _gradient(prob, loss, w_factor)
        if cost < best_cost:
            best_w, best_cost = w_factor, cost
        step *= 1.5
        if prev - cost <= tol * max(prev, 1.0):
            converged = True
            break
    return best_w, converged


def small_approx(prob: SmallProblem, loss: LossSpec, seed: int = 0,
                 cap: int = 400, trace: Optional[dict] = None) -> np.ndarray:
    """Approximately minimize the small problem's cost over orthonormal W.

    Runs the reweighted-PCA alternation from ``_RESTARTS`` random
    orthonormal factors, then polishes the lowest-cost of those iterates
    once by projected gradient descent with backtracking.  ``trace``
    receives the alternation steps of all starts (``small_mm_steps``), the
    steps whose Krylov certificate failed (``small_eigen_fallbacks``) and
    whether the polish hit its iteration cap (``small_search_capped``).  A
    problem more than ``cap`` columns [X r] wide raises
    ``CapExceededError``; its row count is the final sample's, which
    ``PipelineConfig.t_rows_target`` sets.
    """
    if prob.domain_dim + 1 > cap:
        raise CapExceededError(
            f"small problem has side {prob.domain_dim + 1} > cap {cap}; raise the "
            "cap or lower the sampling targets")
    tally = {} if trace is None else trace
    tally.update(small_mm_steps=0, small_eigen_fallbacks=0, small_search_capped=False)
    k, m = prob.k, prob.domain_dim
    if k == m:
        return np.eye(m)
    rng = spawn_rng(seed, 73)
    starts = (_orthonormal(rng.standard_normal((m, k))) for _ in range(_RESTARTS))
    w_mm, _ = min((_mm_descent(prob, loss, w0, tally) for w0 in starts), key=lambda r: r[1])
    best_w, converged = _local_search_from(prob, loss, w_mm)
    tally["small_search_capped"] = not converged
    if not converged:
        warnings.warn("small-problem search hit the iteration cap; returning "
                      "best iterate", RuntimeWarning)
    return best_w


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


def _exact_columns(a, u: np.ndarray) -> np.ndarray:
    """[A U, r] with r_i = ||A_i (I - U U^T)||, built one row block at a time."""
    out = np.empty((a.shape[0], u.shape[1] + 1))
    for lo, hi, (rows,) in row_view(a).blocks(_FACTOR_BLOCK):
        out[lo:hi, :-1], out[lo:hi, -1] = project_rows(rows, u)
    return out


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


def _final_sample(scored, m: int, r_scored: np.ndarray, k: int, loss: LossSpec,
                  t_rows: int, seed: int, tr: dict, top: Optional[np.ndarray] = None):
    """The rows of [X r] that the small solve keeps, and their weights.

    X is the first m columns of ``scored`` and r its last (zero when
    ``scored`` is A itself, m wide), and ``r_scored`` is an R of it, so
    its leading m x m block is an R of X.  B is the top-k right singular
    vectors of that block, the SVD's rank-k subspace of X (the first k
    columns of ``top``, when given a U that carries R: ``core.Subspace.r``).
    Row i scores s_i = M(sqrt(||X_i (I - B B^T)||^2 + r_i^2)) / sum_j M(.)
    + lev_i(X B) / k: its cost share under B plus its leverage in X B,
    which bound its sensitivity over every rank-k subspace inside U up to
    the factor by which B's cost exceeds the optimum (Feldman & Langberg
    2011; Varadarajan & Xiao 2012).  The cost share is dropped when its
    total is zero.  The rows are read one block of ``_FACTOR_BLOCK`` at a
    time.  A plan expecting ``t_rows`` rows is drawn once, and each kept
    row weighs 1/q for every loss: for |x|^p that costs what the row
    rescaled by q^(-1/p) costs, as w M(x) = M(w^(1/p) x).  At most
    ``t_rows`` rows are all kept, with no draw.
    """
    n = scored.shape[0]
    if n <= t_rows:
        tr.update(t_rows=n, t_rows_expected=float(n))
        return np.arange(n), np.ones(n)
    r_x = r_scored[:m, :m]
    b = np.linalg.svd(r_x)[2][:k].T if top is None else top[:, :k]
    f = orthonormalizer(None, r_x @ b)
    cost, lev = np.empty(n), np.empty(n)
    for lo, hi, (rows,) in row_view(scored).blocks(_FACTOR_BLOCK):
        x, r = (rows, 0.0) if rows.shape[1] == m else (rows[:, :m], rows[:, m])
        xb, resid = project_rows(x, b)
        cost[lo:hi] = m_value(loss, np.hypot(resid, r))
        xbf = xb @ f
        lev[lo:hi] = np.einsum("ij,ij->i", xbf, xbf)
    total = cost.sum()
    plan = make_plan(lev / k + (cost / total if total > 0.0 else 0.0), t_rows)
    sample = draw(plan, seed=seed)
    if len(sample) == 0:
        raise CapExceededError("final sampling stage drew no rows; raise t_rows_target")
    tr.update(t_rows=len(sample), t_rows_expected=plan.expected_size)
    return sample.indices, sample.reweights


def _sample_and_solve(a, k: int, eps: float, loss: LossSpec, cfg: PipelineConfig,
                      seed: int, trace: Optional[dict], salts: Tuple[int, int]) -> Subspace:
    """The body shared by approx_lp and approx_m2.

    The stages run at rank min(k, n), as n rows span at most n
    dimensions, and a subspace U of at most that width is padded to k
    orthonormal columns.  Otherwise ``_final_sample`` draws the rows of
    the dense n x (m+1) operand [A U, r], or of A as given (dense or CSR)
    when U is square, as [A U, 0] then spans the column space of A.  Its R
    is that of A which U carries when U is the bicriteria stage's row
    space of A (every row kept), so A is factored once per fit, and
    ``sketch.r_factor`` of the operand otherwise.  The kept rows are
    gathered once for the weighted small problem on their exact columns.
    Salts seed the draw and the small solve.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
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

    scored = a if m == d else _exact_columns(a, u)
    # a square U that carries an R factor was read from A itself
    top = u if m == d and sub.r is not None else None
    r_scored = r_factor(scored) if top is None else sub.r
    idx, w = _final_sample(scored, m, r_scored, k, loss, cfg.t_rows_target,
                           int(spawn_rng(seed, salts[0]).integers(2**31)), tr, top)

    kept, = row_view(scored).block(idx)
    prob = SmallProblem(_exact_columns(kept, u) if m == d else kept, w, k)
    w_factor = small_approx(prob, loss, seed=int(spawn_rng(seed, salts[1]).integers(2**31)),
                            cap=cfg.small_cap, trace=tr)
    return _final_factor(u, w_factor)


# ---------------------------------------------------------------------------
# the two pipelines


def approx_lp(a, k: int, eps: float, loss: LossSpec,
              cfg: Optional[PipelineConfig] = None, seed: int = 0,
              trace: Optional[dict] = None) -> Subspace:
    """(1+eps)-style pipeline for M(x) = |x|^p, p in [1, 2): returns rank-k U W.

    Stages: bicriteria subspace, residual sampling into U, one
    sensitivity sample of the exact operand [A U, r] (of A itself when U
    is square; ``_final_sample``), and the small solve inside U on the
    sampled rows' exact columns T [A U, r], weighted by 1/q.
    """
    if not loss.is_lp or not (1.0 <= loss.p < 2.0):
        raise ValueError("this pipeline requires an |x|^p loss with p in [1, 2)")
    return _sample_and_solve(a, k, eps, loss, cfg or PipelineConfig(), seed, trace,
                             salts=(103, 107))


def approx_m2(a, k: int, eps: float, loss: LossSpec,
              cfg: Optional[PipelineConfig] = None, seed: int = 0,
              trace: Optional[dict] = None) -> Subspace:
    """Pipeline for general nice p=2 losses (Huber, L1-L2, Fair).

    The stages of ``approx_lp``: the shared subspace stages, one
    sensitivity sample of the exact operand [A U, r] (of A itself when U
    is square), and the small solve inside U on the kept rows' exact
    columns, weighted by 1/q.
    """
    if not loss.is_m2:
        raise ValueError("this pipeline requires a p=2 (non-|x|^p) loss")
    return _sample_and_solve(a, k, eps, loss, cfg or PipelineConfig(), seed, trace,
                             salts=(127, 131))
