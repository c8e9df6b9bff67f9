"""End-to-end (1+eps) pipelines and the desk-scale small-problem solver.

The |x|^p pipeline runs: bicriteria subspace -> residual sampling into a
moderate subspace U -> sparse right sketch S -> leverage-score row sample T
-> solve min over rank-k projectors W W^T of ||T A U W W^T U^T S^T - T A S^T||
on the small triple (TAU, U^T S^T, TAS^T) -> return U W.  The p=2 pipeline
replaces the single T stage with weight-carrying rounds of the shared
leverage-sampling loop, ending in the same small solve.

The small solver is heuristic by design: each restart runs a reweighted
eigenvector alternation followed by projected gradient descent on the
orthonormal factor (LocalSearch); very small domains can instead take the
best member of a dense candidate grid (ExhaustiveTiny).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .bicriteria import ConstApproxConfig, const_approx
from .conditioning import well_conditioned_basis
from .core import (
    LossSpec,
    Subspace,
    as_weights,
    m_derivative,
    m_value,
    matmul_dense,
    residual_cost,
    spawn_rng,
    to_dense,
)
from .dimreduce import DimReduceConfig, dim_reduce
from .sampling import draw, leverage_rounds, make_plan
from .sketch import make_sparse_sketch

LOCAL_SEARCH = "local_search"
EXHAUSTIVE_TINY = "exhaustive_tiny"


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
    eps: float

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
    quality_k: Optional[float] = None   # K fed to residual sampling; default max(2, k)
    r1_multiplier: float = 2.0
    k2: float = 4.0
    kappa: float = 0.1
    t_rows_target: int = 300            # expected rows of the final sample T
    small_cap: int = 400                # max side of the reduced problem
    restarts: int = 10
    local_iters: int = 300
    recur_base_rows: int = 300          # p=2 sampling rounds hand over to the small solve here
    m2_level_c: float = 1.0             # per-round sample multiplier, p=2 pipeline
    shrink: float = 0.5

    def resolved_k(self, k: int) -> float:
        return self.quality_k if self.quality_k is not None else float(max(2, k))


# ---------------------------------------------------------------------------
# small-problem solver


def _orthonormal(mat: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _spectral_init(prob: SmallProblem) -> np.ndarray:
    """Top-k eigenvectors of the symmetrized unconstrained minimizer."""
    x = np.linalg.pinv(prob.a_hat) @ prob.c @ np.linalg.pinv(prob.b)
    sym = (x + x.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1][: prob.k]
    return _orthonormal(vecs[:, order])


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


def _mm_descent(prob: SmallProblem, loss: LossSpec, w0: np.ndarray,
                iters: int = 50):
    """Reweighted eigenvector alternation for the projector objective.

    At the current iterate the loss is majorized by a quadratic with
    per-row weights psi_i = w_i M'(r_i) / (2 r_i).  Treating B^+ B as an
    approximate isometry (exact when B has orthonormal rows, near-exact
    for sketch transposes), the quadratic step minimizes
    tr(W^T [A^T P A - 2 sym(A^T P C B^+)] W) over orthonormal W, i.e. a
    bottom-k eigenvector problem.  Candidates are scored by the true
    objective and the best is kept.
    """
    g_mat = prob.c @ np.linalg.pinv(prob.b)
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
                       max_iter: int, tol: float = 1e-10):
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
    return best_w, best_cost, converged


def small_approx(prob: SmallProblem, loss: LossSpec, method: str = LOCAL_SEARCH,
                 seed: int = 0, restarts: int = 10, max_iter: int = 300,
                 cap: int = 400, exhaustive_budget: int = 4000,
                 warm_starts: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Approximately minimize ||A_hat W W^T B - C||_v^p over orthonormal W.

    LocalSearch restarts from a spectral start, a coordinate start, any
    warm starts, and random factors; each restart runs the reweighted
    eigenvector alternation and then projected gradient descent with
    backtracking, and the best candidate wins.  ExhaustiveTiny (domain
    <= 12, k <= 3) returns the best member of a dense candidate grid.
    """
    if prob.max_side() > cap:
        raise CapExceededError(
            f"small problem has side {prob.max_side()} > cap {cap}; raise the "
            "cap or lower the sampling targets")
    k, m = prob.k, prob.domain_dim
    if k == m:
        return np.eye(m)
    rng = spawn_rng(seed, 73)

    if method == EXHAUSTIVE_TINY:
        if m > 12 or k > 3:
            raise ValueError("exhaustive grid is limited to domain <= 12, k <= 3")
        best_w, best_cost = None, math.inf
        eye = np.eye(m)
        for comb in itertools.combinations(range(m), k):
            w_factor = eye[:, list(comb)]
            cost = prob.cost(w_factor, loss)
            if cost < best_cost:
                best_w, best_cost = w_factor, cost
        for _ in range(exhaustive_budget):
            w_factor = _orthonormal(rng.standard_normal((m, k)))
            cost = prob.cost(w_factor, loss)
            if cost < best_cost:
                best_w, best_cost = w_factor, cost
        return best_w

    if method != LOCAL_SEARCH:
        raise ValueError(f"unknown method {method!r}")

    starts = [_spectral_init(prob), _column_energy_init(prob)]
    starts.extend(np.asarray(w, dtype=float) for w in warm_starts)
    while len(starts) < max(restarts, 2 + len(warm_starts)):
        starts.append(_orthonormal(rng.standard_normal((m, k))))

    best_w, best_cost, any_converged = None, math.inf, False
    for w0 in starts:
        w_mm, _ = _mm_descent(prob, loss, w0)
        w_factor, cost, converged = _local_search_from(prob, loss, w_mm, max_iter)
        any_converged = any_converged or converged
        if cost < best_cost:
            best_w, best_cost = w_factor, cost
    if not any_converged:
        warnings.warn("small-problem search hit the iteration cap; returning "
                      "best iterate", RuntimeWarning)
    return best_w


def best_rank_k_in_subspace(a, sub: Subspace, k: int, loss: LossSpec, w=None,
                            seed: int = 0, cfg: Optional[PipelineConfig] = None,
                            warm_starts: Sequence[np.ndarray] = ()) -> Tuple[Subspace, float]:
    """Best rank-k subspace inside span(U), solved as a small problem.

    With A_hat = A U, B = U^T, C = A the objective equals the residual cost
    of the projector (U W)(U W)^T.
    """
    cfg = cfg or PipelineConfig()
    if sub.dim == 0:
        raise ValueError("cannot search inside an empty subspace")
    au = matmul_dense(a, sub.u)
    dense_a = to_dense(a)
    prob = SmallProblem(au, sub.u.T, dense_a, as_weights(w, a.shape[0]),
                        min(k, sub.dim), 0.1)
    w_factor = small_approx(prob, loss, LOCAL_SEARCH, seed=seed,
                            restarts=cfg.restarts, max_iter=cfg.local_iters,
                            cap=max(cfg.small_cap, max(a.shape)),
                            warm_starts=warm_starts)
    out = Subspace(_orthonormal(sub.u @ w_factor))
    return out, residual_cost(a, out, w, loss)


# ---------------------------------------------------------------------------
# shared pipeline stages


def _stage_subspace(a, k, loss, cfg, seed, trace):
    xhat = const_approx(a, k, loss, cfg.const_cfg, seed=int(spawn_rng(seed, 79).integers(2**31)))
    xhat = Subspace(xhat.u, quality_k=cfg.resolved_k(k))
    dr_cfg = DimReduceConfig(eps=min(trace["eps"], 0.999), k=k,
                             quality_k=cfg.resolved_k(k),
                             r1_multiplier=cfg.r1_multiplier, k2=cfg.k2)
    sub = dim_reduce(a, k, xhat, dr_cfg, loss, seed=int(spawn_rng(seed, 83).integers(2**31)))
    trace["bicriteria_dim"] = xhat.dim
    trace["reduced_dim"] = sub.dim
    return xhat, sub


def _right_embedding(d: int, m: int, eps: float, cfg: PipelineConfig, seed: int) -> np.ndarray:
    """Transposed column-reducing sketch for (U, A^T) pairs, as a d x m_s array.

    When the required width reaches d the identity is returned: a square
    random sign matrix is no embedding at all, and reduction is the only
    reason to sketch.
    """
    target = int(max(m + 1, math.ceil(m * m / max(eps, 0.05))))
    if target >= d:
        return np.eye(d)
    s = min(cfg.const_cfg.sparsity(), target)
    sketch = make_sparse_sketch(int(spawn_rng(seed, 89).integers(2**31)),
                                m=target, d=d, s=s)
    return np.asarray(sketch.right_operator().todense())


def _score_operator(st: np.ndarray, u: np.ndarray) -> Optional[np.ndarray]:
    """H whose product A H spans the column space of A [S^T U], or None for A itself.

    With S^T = I the stack adds nothing: A U already lies in the column
    space of A, and leverage scores depend only on that space.
    """
    return None if st.shape[1] == st.shape[0] else np.hstack([st, u])


def _final_factor(u: np.ndarray, w_factor: np.ndarray) -> Subspace:
    v = u @ w_factor
    # re-orthonormalize defensively; the product is orthonormal up to fp noise
    return Subspace(_orthonormal(v))


# ---------------------------------------------------------------------------
# |x|^p pipeline


def approx_lp(a, k: int, eps: float, loss: LossSpec,
              cfg: Optional[PipelineConfig] = None, seed: int = 0,
              trace: Optional[dict] = None) -> Subspace:
    """(1+eps)-style pipeline for M(x) = |x|^p, p in [1, 2): returns rank-k U W.

    Stages: bicriteria subspace, residual sampling, sparse right embedding,
    Gaussian-estimated leverage sampling of A [S^T U] (of A alone when
    S^T = I), row rescaling by q^(-1/p), and the small solve on
    (TAU, U^T S^T, TAS^T).
    """
    if not loss.is_lp or not (1.0 <= loss.p < 2.0):
        raise ValueError("this pipeline requires an |x|^p loss with p in [1, 2)")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    cfg = cfg or PipelineConfig()
    n, d = a.shape
    k = min(k, min(n, d))
    p = loss.p
    tr = {"eps": eps} if trace is None else trace
    tr["eps"] = eps

    _, sub = _stage_subspace(a, k, loss, cfg, seed, tr)
    u = sub.u
    m = u.shape[1]
    if m <= k:
        return Subspace(u[:, :k]) if m == k else _pad_to_k(a, u, k)

    st = _right_embedding(d, m, eps, cfg, seed)
    h = _score_operator(st, u)
    d_hat = d if h is None else h.shape[1]

    basis = well_conditioned_basis(a, h=h, p=p,
                                   seed=int(spawn_rng(seed, 97).integers(2**31)))
    # the sampling inflation d_hat^(p/2) r1^(p+1) is kept in formula form;
    # r1 is derived from the configured expected sample size, since the
    # analysis constants oversample everything at practical sizes
    r1 = max(1.0, (cfg.t_rows_target / d_hat ** (p / 2.0)) ** (1.0 / (p + 1.0)))
    g = spawn_rng(seed, 101).standard_normal((basis.m, 1))
    scores = np.abs(np.asarray(basis.row_evaluator() @ g)).ravel() ** p
    if scores.sum() <= 0:
        scores = np.ones(n)
    plan = make_plan(scores, d_hat ** (p / 2.0) * r1 ** (p + 1.0), 1.0)
    sample = draw(plan, None, seed=int(spawn_rng(seed, 103).integers(2**31)))
    if len(sample) == 0:
        raise CapExceededError("final sampling stage drew no rows; raise t_rows_target")
    scale = sample.scale_factors(p)
    rows = a[sample.indices]
    ta = to_dense(rows)
    tau = (ta @ u) * scale[:, None]
    tas = (ta @ st) * scale[:, None]
    prob = SmallProblem(tau, u.T @ st, tas, None, k, eps)
    tr["t_rows"] = len(sample)

    w_factor = small_approx(prob, loss, LOCAL_SEARCH,
                            seed=int(spawn_rng(seed, 107).integers(2**31)),
                            restarts=cfg.restarts, max_iter=cfg.local_iters,
                            cap=cfg.small_cap)
    return _final_factor(u, w_factor)


def _pad_to_k(a, u: np.ndarray, k: int) -> Subspace:
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


# ---------------------------------------------------------------------------
# p=2 (general nice loss) pipeline


def approx_m2(a, k: int, eps: float, loss: LossSpec,
              cfg: Optional[PipelineConfig] = None, seed: int = 0,
              trace: Optional[dict] = None) -> Subspace:
    """Pipeline for general nice p=2 losses (Huber, L1-L2, Fair).

    After the shared subspace stages, rounds of ``leverage_rounds`` sample
    rows of A, scored through A [S^T U] (A alone when S^T = I), with
    weight carrying w' = w / q until at most ``recur_base_rows`` remain;
    then the weighted small problem is solved inside U.
    """
    if not loss.is_m2:
        raise ValueError("this pipeline requires a p=2 (non-|x|^p) loss")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    cfg = cfg or PipelineConfig()
    n, d = a.shape
    k = min(k, min(n, d))
    tr = {"eps": eps} if trace is None else trace
    tr["eps"] = eps

    _, sub = _stage_subspace(a, k, loss, cfg, seed, tr)
    u = sub.u
    m = u.shape[1]
    if m <= k:
        return Subspace(u[:, :k]) if m == k else _pad_to_k(a, u, k)

    st = _right_embedding(d, m, eps, cfg, seed)
    h = _score_operator(st, u)
    max_depth = int(2 * max(1.0, math.log2(max(math.log2(max(n, 4)), 2.0))) + 4)

    def target(n_prime: int, _scores) -> float:
        return min(cfg.shrink * n_prime,
                   max(cfg.recur_base_rows,
                       cfg.m2_level_c * n_prime ** (0.5 + cfg.kappa) * math.log2(n_prime + 2)))

    (dense,), w, _, depth = leverage_rounds(
        (to_dense(a),), np.ones(n), loss,
        view=(lambda rows: rows) if h is None else (lambda rows: rows @ h), target=target,
        stop_rows=cfg.recur_base_rows, max_rounds=max_depth + 1, seed=seed,
        salts=(113, 127), gauss_t=int(math.ceil(3.0 / cfg.kappa)))
    if depth > max_depth and dense.shape[0] > cfg.recur_base_rows:
        raise RuntimeError(f"weighted sampling exceeded {max_depth + 1} rounds")
    tr["recursion_depth"] = depth
    tr["base_rows"] = dense.shape[0]

    prob = SmallProblem(dense @ u, u.T @ st, dense @ st, w, k, eps)
    w_factor = small_approx(prob, loss, LOCAL_SEARCH,
                            seed=int(spawn_rng(seed, 131).integers(2**31)),
                            restarts=cfg.restarts, max_iter=cfg.local_iters,
                            cap=max(cfg.small_cap, cfg.recur_base_rows + 1))
    return _final_factor(u, w_factor)
