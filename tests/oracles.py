"""Brute-force and reference solvers that the tests check the pipelines against.

The tiny-instance searches enumerate dense candidate sets (of subspaces,
or of factors for a small problem), and the alternating reference is a
self-contained reweighted-PCA loop.  The eager references run a stage's
own steps on operands that the library never forms whole (A S^T, whole
n-vectors), so a test can check that the blockwise reads draw the same
rows and reach the same fits.
"""

import itertools
import math
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from robsub.core import (
    LossSpec,
    RowView,
    Subspace,
    as_weights,
    m_derivative,
    m_value,
    residual_cost,
    residual_row_norms,
    row_view,
    spawn_rng,
)
from robsub import bicriteria, sampling
from robsub.conditioning import weighted_leverage_scores
from robsub.sketch import apply_right, make_sparse_sketch, r_factor


def m_value_reference(loss: LossSpec, x):
    """M(x) by its closed form, one expression per loss kind, as numpy evaluates it."""
    ax = np.abs(np.asarray(x, dtype=float))
    c = loss.param
    if loss.kind == "lp":
        out = ax ** loss.p
    elif loss.kind == "huber":
        out = np.where(ax <= c, ax * ax / (2.0 * c), ax - c / 2.0)
    elif loss.kind == "l1l2":
        out = 2.0 * (np.sqrt(1.0 + ax * ax / 2.0) - 1.0)
    else:  # fair
        out = c * c * (ax / c - np.log1p(ax / c))
    return float(out) if out.ndim == 0 else out


def small_problem_cost(prob, w_factor: np.ndarray, loss: LossSpec) -> float:
    """sum_i w_i M(sqrt(||X_i W W^T - X_i||^2 + r_i^2)) of a ``pipeline.SmallProblem``."""
    return float(np.dot(prob.w, m_value(loss, prob.residual(w_factor)[1])))


def _orthonormal(mat: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _hill_climb(a, w, loss, v0: np.ndarray, rng, steps: int, sigma: float = 0.3):
    """Stochastic polish: perturb-and-keep on the orthonormal factor."""
    v = v0
    best = residual_cost(a, Subspace(v), w, loss)
    for _ in range(steps):
        cand = _orthonormal(v + sigma * rng.standard_normal(v.shape))
        cost = residual_cost(a, Subspace(cand), w, loss)
        if cost < best:
            v, best = cand, cost
            sigma *= 1.1
        else:
            sigma *= 0.7
    return v, best


def exhaustive_tiny(a, k: int, loss: LossSpec, budget: int = 10_000, w=None,
                    seed: int = 0, polish_steps: int = 50) -> Tuple[Subspace, float]:
    """Best subspace over a dense candidate set on tiny instances (d<=6, k<=2).

    Candidates: every coordinate k-subspace, SVD subspaces of row subsets of
    size up to 2k, and ``budget`` random orthonormal factors each polished by
    a short stochastic hill climb.  Returns the incumbent.
    """
    n, d = a.shape
    if d > 6 or k > 2:
        raise ValueError("exhaustive search is capped at d <= 6, k <= 2")
    dense = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
    rng = spawn_rng(seed, 67)

    best_v, best_cost = None, math.inf

    def consider(v):
        nonlocal best_v, best_cost
        cost = residual_cost(a, Subspace(v), w, loss)
        if cost < best_cost - 1e-15:
            best_v, best_cost = v, cost

    eye = np.eye(d)
    for comb in itertools.combinations(range(d), k):
        consider(eye[:, list(comb)])

    subset_cap = min(2 * k, n)
    for size in range(1, subset_cap + 1):
        if math.comb(n, size) > 20_000:
            break
        for rows in itertools.combinations(range(n), size):
            block = dense[list(rows)]
            if np.linalg.norm(block) == 0:
                continue
            _, _, vt = np.linalg.svd(block, full_matrices=False)
            kk = min(k, vt.shape[0])
            v = vt[:kk].T
            if kk < k:
                v = _complete_columns(v, k, rng)
            consider(v)

    for _ in range(budget):
        v0 = _orthonormal(rng.standard_normal((d, k)))
        v, _ = _hill_climb(a, w, loss, v0, rng, polish_steps)
        consider(v)

    return Subspace(best_v), best_cost


def small_problem_grid(prob, loss: LossSpec, seed: int = 0, budget: int = 4000) -> np.ndarray:
    """Best factor W of a small problem over a dense candidate grid (domain <= 12, k <= 3).

    ``prob`` is a ``pipeline.SmallProblem``, read only through its ``k``,
    ``domain_dim`` and ``residual``.  Candidates: every coordinate k-factor,
    then ``budget`` random orthonormal factors.
    """
    k, m = prob.k, prob.domain_dim
    if m > 12 or k > 3:
        raise ValueError("exhaustive grid is limited to domain <= 12, k <= 3")
    rng = spawn_rng(seed, 73)
    best_w, best_cost = None, math.inf
    eye = np.eye(m)
    for comb in itertools.combinations(range(m), k):
        w_factor = eye[:, list(comb)]
        cost = small_problem_cost(prob, w_factor, loss)
        if cost < best_cost:
            best_w, best_cost = w_factor, cost
    for _ in range(budget):
        w_factor = _orthonormal(rng.standard_normal((m, k)))
        cost = small_problem_cost(prob, w_factor, loss)
        if cost < best_cost:
            best_w, best_cost = w_factor, cost
    return best_w


def _complete_columns(v: np.ndarray, k: int, rng) -> np.ndarray:
    """Pad an orthonormal factor with random orthonormal directions up to k."""
    d = v.shape[0]
    while v.shape[1] < k:
        cand = rng.standard_normal((d, 1))
        cand -= v @ (v.T @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-12:
            v = np.hstack([v, cand / norm])
    return v


def alternating_reference(a, k: int, loss: LossSpec, w=None, seed: int = 0,
                          restarts: int = 5, iters: int = 60) -> Tuple[Subspace, float]:
    """Reweighted-PCA reference for the full rank-k problem.

    Alternates between per-row weights psi_i = M'(r_i) / (2 r_i) at the
    current residuals and the top-k right-singular subspace of the
    reweighted data.  Multi-restart (SVD start plus random rotations),
    keeping the best iterate ever seen.
    """
    n, d = a.shape
    dense = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
    wv = as_weights(w, n)
    rng = spawn_rng(seed, 71)

    _, _, vt = np.linalg.svd(dense, full_matrices=False)
    starts = [vt[:k].T]
    for _ in range(restarts - 1):
        starts.append(_orthonormal(rng.standard_normal((d, k))))

    best_v, best_cost = None, math.inf
    for v0 in starts:
        v = v0
        for _ in range(iters):
            r = residual_row_norms(dense, Subspace(v))
            psi = wv * m_derivative(loss, r) / np.maximum(2.0 * r, 1e-12)
            _, _, vt = np.linalg.svd(dense * np.sqrt(psi)[:, None], full_matrices=False)
            v_new = vt[:k].T
            if np.linalg.norm(v_new @ (v_new.T @ v) - v) < 1e-12:
                v = v_new
                break
            v = v_new
        cost = residual_cost(a, Subspace(v), wv, loss)
        if cost < best_cost:
            best_v, best_cost = v, cost
    return Subspace(best_v), best_cost


def water_fill_full_sort(scores, r: float) -> np.ndarray:
    """Inclusion probabilities min{1, tau s_i} expecting min{r, nnz(s)} rows, from
    a full sort of the scores and the suffix sums of every sorted score."""
    s = np.asarray(scores, dtype=float)
    q = r * s / s.sum()
    if q.max() > 1.0:
        desc = np.sort(s)[::-1]
        rest = np.cumsum(desc[::-1])[::-1]
        target = min(r, np.count_nonzero(s))
        first = int(np.argmax((target - np.arange(s.size)) * desc <= rest))
        q = (target - first) * s / rest[first]
    q = np.minimum(1.0, q)
    q[q < 1e-12] = 0.0
    return q


def draw_all_at_once(q, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """A Bernoulli draw of probabilities q from all n uniforms at once: the
    indices with u_i < q_i and their q_i, u from the stream of the draw's seed."""
    q = np.asarray(q, dtype=float)
    u = spawn_rng(seed, 37).random(q.size)
    idx = np.flatnonzero(u < q)
    return idx, q[idx]


def irls_whole_vectors(a, b, w, loss: LossSpec, tol: float = 1e-10, max_iter: int = 500):
    """``regression.irls_solve`` with each weight, residual and loss vector
    formed over all n rows at once, in the same order of operations: returns
    the best iterate and the objective history."""
    rhs = np.asarray(b, dtype=float).ravel()
    stack = RowView((a, rhs[:, None]))
    a = stack.parts[0]
    n, d = a.shape
    wv = as_weights(w, n)
    rcond = np.finfo(float).eps * max(n, d)

    def solve(v):
        r = r_factor(row_view(stack, np.sqrt(v)))
        return np.linalg.lstsq(r[:d, :d], r[:d, d], rcond=rcond)[0]

    def evaluate(x):
        resid = np.asarray(a @ x).ravel() - rhs
        return resid, float(np.dot(wv, m_value(loss, resid)))

    x = solve(wv)
    resid, obj = evaluate(x)
    history = [obj]
    for _ in range(max_iter):
        if obj == 0.0:
            break
        ares = np.abs(resid)
        ares = np.maximum(ares, 1e-12 * ares.max())
        x_new = solve(np.maximum(wv * m_derivative(loss, ares) / (2.0 * ares), 0.0))
        resid_new, obj_new = evaluate(x_new)
        halvings = 0
        while obj_new > obj + tol * obj and halvings < 40:
            x_new = 0.5 * (x_new + x)
            resid_new, obj_new = evaluate(x_new)
            halvings += 1
        if obj_new > obj:
            break
        improved = obj - obj_new
        x, resid, obj = x_new, resid_new, obj_new
        history.append(obj)
        if improved <= tol * obj:
            break
    return x, history


def eager_bicriteria_rows(a, k: int, loss: LossSpec, seed: int) -> np.ndarray:
    """The rows ``bicriteria.const_approx`` draws from an input whose n and d
    both exceed P_M, at a sketch width m < d, with A S^T formed whole.

    The right sketch, the scores and the draw are const_approx's, seeded
    as it seeds them, the draw taken by a plan of the finished scores (which
    the stream equals), but the n x m product A S^T is formed by
    ``apply_right`` and scored as a dense matrix, so a p-stable sketch of
    it, when one is taken, is Pi (A S^T) rather than (Pi A) S^T.
    """
    n, d = a.shape
    m = int(max(k + 1, bicriteria._SKETCH_COLS_C * k * k))
    right = make_sparse_sketch(int(spawn_rng(seed, 61).integers(2**31)), m=m, d=d,
                               s=min(bicriteria._SKETCH_NNZ, m))
    scores = weighted_leverage_scores(apply_right(a, right), loss,
                                      seed=int(spawn_rng(seed, 53, 0).integers(2**31)))
    plan = sampling.make_plan(scores.gamma, bicriteria._p_m(k, n, loss))
    return sampling.draw(plan, seed=int(spawn_rng(seed, 59, 0, 0).integers(2**31))).indices
