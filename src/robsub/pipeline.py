"""End-to-end (1+eps) pipelines and the desk-scale small-problem solver.

Both pipelines run one body: bicriteria subspace -> residual sampling into
a moderate subspace U -> rounds of the shared leverage-sampling loop on the
rows of [A U, r], r_i = ||A_i (I - U U^T)|| (of A itself when U is square),
giving the row sample T -> min over rank-k projectors W W^T of the small
problem (T A U, [I_m 0], T [A U, r]) -> return U W.  Its per-row costs are
exact, as ||A_i (I - U W W^T U^T)||^2 = ||A_i U (I - W W^T)||^2 + r_i^2 (a
projection-cost-preserving reduction; Cohen, Elder, Musco, Musco & Persu
2015).  The |x|^p pipeline draws T in one round, rescaling rows by
q^(-1/p); the p=2 pipeline shrinks over several rounds carrying weights
w / q.  No n x d array is formed.

The small solver is heuristic by design: a reweighted eigenvector
alternation runs from every start, and projected gradient descent on the
orthonormal factor polishes the best of its iterates once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bicriteria import ConstApproxConfig, const_approx
from .core import (
    LossSpec,
    Subspace,
    as_weights,
    m_derivative,
    m_value,
    project_rows,
    residual_cost,
    row_view,
    spawn_rng,
)
from .dimreduce import DimReduceConfig, dim_reduce
from .sampling import leverage_rounds
from .sketch import _FACTOR_BLOCK


class CapExceededError(RuntimeError):
    """A stage produced a problem larger than the configured caps allow."""


@dataclass(frozen=True)
class SmallProblem:
    """Operands of the reduced problem min_W ||A_hat W W^T B - C||_v^p."""

    a_hat: np.ndarray
    b: np.ndarray
    c: np.ndarray
    w: np.ndarray
    k: int

    def __post_init__(self):
        a_hat = np.asarray(self.a_hat, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if a_hat.shape[1] != b.shape[0]:
            raise ValueError("inner dimensions of a_hat and b disagree")
        if c.shape != (a_hat.shape[0], b.shape[1]):
            raise ValueError("c must be (rows of a_hat) x (cols of b)")
        if not (1 <= self.k <= a_hat.shape[1]):
            raise ValueError(f"k={self.k} outside [1, {a_hat.shape[1]}]")
        object.__setattr__(self, "a_hat", a_hat)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "w", as_weights(self.w, a_hat.shape[0]))

    @property
    def domain_dim(self) -> int:
        return self.a_hat.shape[1]

    def max_side(self) -> int:
        return max(self.a_hat.shape[0], self.a_hat.shape[1], self.b.shape[1])

    def cost(self, w_factor: np.ndarray, loss: LossSpec) -> float:
        resid = (self.a_hat @ w_factor) @ (w_factor.T @ self.b) - self.c
        return float(np.dot(self.w, m_value(loss, np.linalg.norm(resid, axis=1))))


@dataclass(frozen=True)
class PipelineConfig:
    const_cfg: ConstApproxConfig = field(default_factory=ConstApproxConfig)
    dim_cfg: DimReduceConfig = field(default_factory=DimReduceConfig)
    kappa: float = 0.1
    t_rows_target: int = 300            # rows handed to the small solve
    small_cap: int = 400                # max side of the reduced problem
    restarts: int = 10
    m2_level_c: float = 1.0             # per-round sample multiplier, p=2 pipeline
    shrink: float = 0.5


# ---------------------------------------------------------------------------
# small-problem solver


def _orthonormal(mat: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _column_energy_init(prob: SmallProblem) -> np.ndarray:
    """Coordinate factor picking the k highest-energy domain directions."""
    energy = np.linalg.norm(prob.a_hat, axis=0) * np.linalg.norm(prob.b, axis=1)
    top = np.argsort(energy)[::-1][: prob.k]
    return np.eye(prob.domain_dim)[:, np.sort(top)]


def _gradient(prob: SmallProblem, loss: LossSpec, w_factor: np.ndarray):
    aw = prob.a_hat @ w_factor
    wb = w_factor.T @ prob.b
    resid = aw @ wb - prob.c
    norms = np.linalg.norm(resid, axis=1)
    cost = float(np.dot(prob.w, m_value(loss, norms)))
    psi = prob.w * m_derivative(loss, norms) / np.maximum(norms, 1e-300)
    d_mat = psi[:, None] * resid
    g = prob.a_hat.T @ d_mat @ prob.b.T
    grad = g @ w_factor + g.T @ w_factor
    return cost, grad


def _mm_descent(prob: SmallProblem, loss: LossSpec, w0: np.ndarray, g_mat: np.ndarray,
                iters: int = 50):
    """Reweighted eigenvector alternation for the projector objective.

    At the current iterate the loss is majorized by a quadratic with
    per-row weights psi_i = w_i M'(r_i) / (2 r_i).  Treating B^+ B as an
    approximate isometry (exact when B has orthonormal rows, as the
    pipelines' [I_m 0] does), the quadratic step minimizes
    tr(W^T [A^T P A - 2 sym(A^T P C B^+)] W) over orthonormal W, i.e. a
    bottom-k eigenvector problem.  Candidates are scored by the true
    objective and the best is kept.  g_mat is C B^+.
    """
    w_factor = w0
    best_w, best_cost = w0, prob.cost(w0, loss)
    for _ in range(iters):
        resid = (prob.a_hat @ w_factor) @ (w_factor.T @ prob.b) - prob.c
        norms = np.maximum(np.linalg.norm(resid, axis=1), 1e-12)
        psi = prob.w * m_derivative(loss, norms) / (2.0 * norms)
        pa = psi[:, None] * prob.a_hat
        m1 = prob.a_hat.T @ pa
        m4 = pa.T @ g_mat
        h = m1 - m4 - m4.T
        _, vecs = np.linalg.eigh(h)
        w_new = _orthonormal(vecs[:, : prob.k])
        if np.linalg.norm(w_new @ (w_new.T @ w_factor) - w_factor) < 1e-12:
            break
        w_factor = w_new
        cost = prob.cost(w_factor, loss)
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


def small_approx(prob: SmallProblem, loss: LossSpec, seed: int = 0, restarts: int = 10,
                 cap: int = 400, warm_starts: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Approximately minimize ||A_hat W W^T B - C||_v^p over orthonormal W.

    Runs the reweighted eigenvector alternation from a coordinate start,
    any warm starts, and random factors up to ``restarts`` starts in all,
    then polishes the lowest-cost of those iterates once by projected
    gradient descent with backtracking.
    """
    if prob.max_side() > cap:
        raise CapExceededError(
            f"small problem has side {prob.max_side()} > cap {cap}; raise the "
            "cap or lower the sampling targets")
    k, m = prob.k, prob.domain_dim
    if k == m:
        return np.eye(m)
    rng = spawn_rng(seed, 73)

    g_mat = prob.c @ np.linalg.pinv(prob.b)  # C B^+, shared by every start
    starts = [_column_energy_init(prob)]
    starts.extend(np.asarray(w, dtype=float) for w in warm_starts)
    while len(starts) < restarts:
        starts.append(_orthonormal(rng.standard_normal((m, k))))

    w_mm, _ = min((_mm_descent(prob, loss, w0, g_mat) for w0 in starts), key=lambda r: r[1])
    best_w, converged = _local_search_from(prob, loss, w_mm)
    if not converged:
        warnings.warn("small-problem search hit the iteration cap; returning "
                      "best iterate", RuntimeWarning)
    return best_w


def best_rank_k_in_subspace(a, sub: Subspace, k: int, loss: LossSpec, w=None,
                            seed: int = 0, cfg: Optional[PipelineConfig] = None,
                            warm_starts: Sequence[np.ndarray] = ()) -> Tuple[Subspace, float]:
    """Best rank-k subspace inside span(U), solved as a small problem.

    On the exact columns [A U, r] (see ``_exact_problem``) the objective
    equals the residual cost of the projector (U W)(U W)^T.
    """
    cfg = cfg or PipelineConfig()
    if sub.dim == 0:
        raise ValueError("cannot search inside an empty subspace")
    prob = _exact_problem(_exact_columns(a, sub.u), as_weights(w, a.shape[0]),
                          min(k, sub.dim))
    w_factor = small_approx(prob, loss, seed=seed, restarts=cfg.restarts,
                            cap=max(cfg.small_cap, a.shape[0], sub.dim + 1),
                            warm_starts=warm_starts)
    out = _final_factor(sub.u, w_factor)
    return out, residual_cost(a, out, w, loss)


# ---------------------------------------------------------------------------
# shared pipeline stages


def _stage_bicriteria(a, k, loss, cfg, seed, trace):
    """The bicriteria subspace."""
    xhat = const_approx(a, k, loss, cfg.const_cfg, seed=int(spawn_rng(seed, 79).integers(2**31)))
    trace["bicriteria_dim"] = xhat.dim
    return xhat


def _stage_subspace(a, k, eps, loss, cfg, seed, trace):
    """The residual-sampled subspace containing the bicriteria subspace."""
    xhat = _stage_bicriteria(a, k, loss, cfg, seed, trace)
    sub = dim_reduce(a, k, eps, xhat, cfg.dim_cfg, loss,
                     seed=int(spawn_rng(seed, 83).integers(2**31)))
    trace["reduced_dim"] = sub.dim
    return sub


def _exact_columns(a, u: np.ndarray) -> np.ndarray:
    """[A U, r] with r_i = ||A_i (I - U U^T)||, built one row block at a time."""
    out = np.empty((a.shape[0], u.shape[1] + 1))
    for lo, hi, rows in row_view(a).blocks(_FACTOR_BLOCK):
        out[lo:hi, :-1], out[lo:hi, -1] = project_rows(rows, u)
    return out


def _exact_problem(c: np.ndarray, w, k: int) -> SmallProblem:
    """The small problem (X, [I_m 0], [X r]) on exact columns c = [X r].

    Row i costs ||X_i W W^T - X_i||^2 + r_i^2 for orthonormal W, which is
    the squared residual of its row of A under the projector (U W)(U W)^T.
    """
    m = c.shape[1] - 1
    return SmallProblem(c[:, :m], np.eye(m, m + 1), c, w, k)


def _final_factor(u: np.ndarray, w_factor: np.ndarray) -> Subspace:
    v = u @ w_factor
    # re-orthonormalize defensively; the product is orthonormal up to fp noise
    return Subspace(_orthonormal(v))


def _pad_to_k(u: np.ndarray, k: int) -> Subspace:
    """Grow a too-small subspace to exactly k orthonormal columns."""
    d = u.shape[0]
    rng = spawn_rng(0, 109)
    v = u
    while v.shape[1] < k:
        cand = rng.standard_normal((d, 1))
        cand -= v @ (v.T @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-12:
            v = np.hstack([v, cand / norm])
    return Subspace(v)


def _sample_and_solve(a, k: int, eps: float, loss: LossSpec, cfg: PipelineConfig,
                      seed: int, trace: Optional[dict], target: Callable[[int, int], float],
                      rounds: int, gauss_t: int, salts: Tuple[int, int, int],
                      handover: Callable[[int, int], dict]) -> Subspace:
    """The body shared by approx_lp and approx_m2.

    After the subspace stages, at most ``rounds`` rounds of
    ``leverage_rounds`` shrink the rows of the dense n x (m+1) operand
    [A U, r], or of A as given (dense or CSR) when U is square, as [A U, 0]
    then spans the column space of A.  Each round scores with ``gauss_t``
    Gaussian columns and plans ``target(n', d_hat)`` rows, d_hat the
    scored width, until at most ``cfg.t_rows_target`` remain; rows are
    read by index and none is copied.  ``handover(kept rows, rounds run)``
    checks the sample and returns the trace entries to record.  The kept
    rows are gathered once, with their row scale, for the weighted small
    problem on their exact columns.  Salts seed the scores, the draws and
    the small solve.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    n, d = a.shape
    k = min(k, min(n, d))
    tr = {} if trace is None else trace
    tr["eps"] = eps

    u = _stage_subspace(a, k, eps, loss, cfg, seed, tr).u
    m = u.shape[1]
    if m <= k:
        return Subspace(u[:, :k]) if m == k else _pad_to_k(u, k)

    scored = a if m == d else _exact_columns(a, u)
    idx, w, scale, done = leverage_rounds(
        scored, np.ones(n), loss,
        target=lambda n_prime, _scores: target(n_prime, scored.shape[1]),
        stop_rows=cfg.t_rows_target, max_rounds=rounds, seed=seed,
        salts=salts[:2], gauss_t=gauss_t)
    tr.update(handover(idx.size, done))

    kept = row_view(scored, idx, scale).block(slice(None))
    prob = _exact_problem(_exact_columns(kept, u) if m == d else kept, w, k)
    w_factor = small_approx(prob, loss, seed=int(spawn_rng(seed, salts[2]).integers(2**31)),
                            restarts=cfg.restarts, cap=max(cfg.small_cap, cfg.t_rows_target + 1))
    return _final_factor(u, w_factor)


# ---------------------------------------------------------------------------
# the two pipelines


def approx_lp(a, k: int, eps: float, loss: LossSpec,
              cfg: Optional[PipelineConfig] = None, seed: int = 0,
              trace: Optional[dict] = None) -> Subspace:
    """(1+eps)-style pipeline for M(x) = |x|^p, p in [1, 2): returns rank-k U W.

    Stages: bicriteria subspace, residual sampling into U, one round of
    Gaussian-estimated leverage sampling of the exact operand [A U, r] (of
    A itself when U is square), row rescaling by q^(-1/p), and the small
    solve inside U on the sampled rows' exact columns T [A U, r].
    """
    if not loss.is_lp or not (1.0 <= loss.p < 2.0):
        raise ValueError("this pipeline requires an |x|^p loss with p in [1, 2)")
    cfg = cfg or PipelineConfig()

    # the sampling inflation d_hat^(p/2) r1^(p+1) of the analysis
    # oversamples everything at practical sizes, so r1 is derived from the
    # configured sample size: the target is max(t_rows_target, d_hat^(p/2))
    def target(_n_prime: int, d_hat: int) -> float:
        return max(cfg.t_rows_target, d_hat ** (loss.p / 2.0))

    def handover(kept: int, done: int) -> dict:
        if done == 0 and kept > cfg.t_rows_target:
            raise CapExceededError("final sampling stage drew no rows; raise t_rows_target")
        return {"t_rows": kept}

    return _sample_and_solve(a, k, eps, loss, cfg, seed, trace, target, rounds=1,
                             gauss_t=1, salts=(97, 103, 107), handover=handover)


def approx_m2(a, k: int, eps: float, loss: LossSpec,
              cfg: Optional[PipelineConfig] = None, seed: int = 0,
              trace: Optional[dict] = None) -> Subspace:
    """Pipeline for general nice p=2 losses (Huber, L1-L2, Fair).

    After the shared subspace stages, rounds of ``leverage_rounds`` sample
    rows of the exact operand [A U, r] (of A itself when U is square), with
    weight carrying w' = w / q until at most ``t_rows_target`` remain;
    then the weighted small problem on the kept rows' exact columns is
    solved inside U.
    """
    if not loss.is_m2:
        raise ValueError("this pipeline requires a p=2 (non-|x|^p) loss")
    cfg = cfg or PipelineConfig()
    max_depth = int(2 * max(1.0, math.log2(max(math.log2(max(a.shape[0], 4)), 2.0))) + 4)

    def target(n_prime: int, _d_hat: int) -> float:
        return min(cfg.shrink * n_prime,
                   max(cfg.t_rows_target,
                       cfg.m2_level_c * n_prime ** (0.5 + cfg.kappa) * math.log2(n_prime + 2)))

    def handover(kept: int, done: int) -> dict:
        if done > max_depth and kept > cfg.t_rows_target:
            raise RuntimeError(f"weighted sampling exceeded {max_depth + 1} rounds")
        return {"recursion_depth": done, "base_rows": kept}

    return _sample_and_solve(a, k, eps, loss, cfg, seed, trace, target, rounds=max_depth + 1,
                             gauss_t=int(math.ceil(3.0 / cfg.kappa)), salts=(113, 127, 131),
                             handover=handover)
