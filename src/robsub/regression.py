"""Robust regression: one leverage sample over an IRLS core.

``m_regress`` draws one leverage-score sample of the rows of [A b], sized
by d and eps alone, and solves the sampled problem, each kept row weighted
1/q, with iteratively reweighted least squares (``irls_solve``, also the
full-data baseline the sampled solve is measured against).  A may be dense or CSR; neither
densifies A, and no block of [A b] is ever stacked.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .conditioning import leverage_score_blocks
from .core import (LossSpec, RowView, as_weights, chunks, m_derivative, m_value, row_view,
                   spawn_rng)
from . import sampling
from .sketch import r_factor

_RESID_FLOOR = 1e-12  # IRLS floors |r| at this share of the largest |r|
_BASE_ROWS_C = 16.0   # c of the default base cap c (d+1) ln(d+1) / eps^2
_GAUSS_COLS = 30      # Gaussian columns of the p=2 scores (exact norms for a basis no wider)
_IRLS_TOL = 1e-10     # IRLS's relative stopping and divergence tolerance
_IRLS_MAX_ITER = 500  # IRLS's most reweighted steps


def regression_objective(a, b, x, w=None, loss: LossSpec = None) -> float:
    """sum_i w_i M(residual_i) for the candidate solution x, summed over
    blocks of ``core._CHUNK`` rows, so no n-vector is formed."""
    rhs = np.asarray(b, dtype=float).ravel()
    view = row_view(a)
    if rhs.size != view.shape[0]:
        raise ValueError("right-hand side length mismatch")
    wv = None if w is None else as_weights(w, rhs.size)
    total = 0.0
    for c in chunks(rhs.size):
        (rows,) = view.block(c)
        resid = np.asarray(rows @ x, dtype=float).ravel()  # a fresh product: b comes off in place
        resid -= rhs[c]
        cost = m_value(loss, resid)
        total += float(cost.sum() if wv is None else np.dot(wv[c], cost))
    return total


def irls_solve(a, b, w=None, loss: LossSpec = None, return_history: bool = False):
    """Iteratively reweighted least squares on sum_i w_i M(r_i).

    Per-residual weight M'(|r|) / (2 |r|) with |r| floored at 1e-12 of
    the largest |r|; the objective is forced non-increasing by halving the
    step toward the new iterate whenever a full step would increase it by
    more than tol * obj, tol = ``_IRLS_TOL``, and the solve stops at a step
    that lowers it by at most tol * obj, at an exact fit (obj = 0), or
    after ``_IRLS_MAX_ITER`` steps.  Every test is relative, so an |x|^p
    fit stops where it would for b scaled by any c > 0.  Returns the best
    iterate (and the per-iteration objective history on request).

    A may be dense or CSR, and is never densified or copied whole.  Each
    step with row weights v solves min ||diag(sqrt v) (A x - b)|| from the
    R = [[R11, z], [0, rho]] of diag(sqrt v) [A b] = Q R, read one block
    of rows of A and of b at a time, never stacked (``sketch.r_factor``):
    x is the least-norm solution of R11 x = z, with the singular-value
    cutoff of an n x d least-squares solve.  The residual A x - b is formed
    once per iterate and serves both the objective and the next weights,
    which are formed in its place; losses and weights are evaluated one
    chunk of ``core._CHUNK`` rows at a time, so a step holds at most three
    n-vectors: the weights w, the residual and its losses.
    """
    if loss is None:
        raise TypeError("loss is required")
    rhs = np.asarray(b, dtype=float).ravel()
    stack = RowView((a, rhs[:, None]))
    a = stack.parts[0]  # float, or CSR for any sparse format
    n, d = a.shape
    if rhs.size != n:
        raise ValueError("right-hand side length mismatch")
    wv = as_weights(w, n)
    rcond = np.finfo(float).eps * max(n, d)

    def solve(root):
        """The step for row weights root**2: root scales the rows of [A b]."""
        r = r_factor(row_view(stack, root))
        return np.linalg.lstsq(r[:d, :d], r[:d, d], rcond=rcond)[0]

    def evaluate(x):
        resid = np.asarray(a @ x).ravel()  # a fresh product: b comes off in place
        resid -= rhs
        cost = np.empty(n)
        for c in chunks(n):
            cost[c] = m_value(loss, resid[c])
        return resid, float(np.dot(wv, cost))

    def reweigh(resid):
        """The roots of the weights w M'(|r|) / (2 |r|), written over resid."""
        ares = np.abs(resid, out=resid)
        np.maximum(ares, _RESID_FLOOR * ares.max(), out=ares)
        for c in chunks(n):
            r = ares[c]
            np.sqrt(np.maximum(wv[c] * m_derivative(loss, r) / (2.0 * r), 0.0), out=r)
        return ares

    x = solve(np.sqrt(wv))
    resid, obj = evaluate(x)
    history = [obj]
    for _ in range(_IRLS_MAX_ITER):
        if obj == 0.0:
            break
        x_new = solve(reweigh(resid))
        resid = None  # its buffer held the weights
        resid_new, obj_new = evaluate(x_new)
        # divergence guard: fall back toward the current iterate if the step
        # rises by more than the stopping tolerance, which is above rounding
        halvings = 0
        while obj_new > obj + _IRLS_TOL * obj and halvings < 40:
            x_new = 0.5 * (x_new + x)
            resid_new = None
            resid_new, obj_new = evaluate(x_new)
            halvings += 1
        if obj_new > obj:
            break
        improved = obj - obj_new
        x, resid, obj = x_new, resid_new, obj_new
        resid_new = None  # resid alone holds the buffer that the next weights take
        history.append(obj)
        if improved <= _IRLS_TOL * obj:
            break
    if return_history:
        return x, history
    return x


def m_regress(a, b, loss: LossSpec, eps: float = 0.5,
              base_cap: Optional[int] = None, seed: int = 0,
              trace: Optional[dict] = None) -> np.ndarray:
    """(1+eps)-style regression on one leverage sample of [A b].

    A may be dense or CSR.  The sample's size depends on d and eps, not on
    n: it expects max(base_cap, 2 (d+1)) rows, ``base_cap`` (at least 1)
    defaulting to ceil(16 (d+1) ln(d+1) / eps^2), the l_p row-sampling
    size (Cohen & Peng 2015) with its constant fixed by measurement; an
    input of at most that many rows is solved on all of them.  The sample is drawn once from
    the leverage scores of [A b], read a block of rows at a time (Gaussian
    row-norm estimates for p=2 losses), and each kept row weighs 1/q for
    every loss; a draw of at most d+1 rows is dropped for all the rows.
    The kept rows of A (CSR for a CSR A) and entries of b are gathered
    once for IRLS.  The sample holds no n-vector: it is drawn as the scores
    stream (``sampling.sample_stream``), in O(chunk + base_cap) memory
    besides A and a block of the scoring basis.  A NaN or infinity in A or
    b raises ValueError from the R factor of the scoring basis or of IRLS's
    first step.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if base_cap is not None and base_cap < 1:
        raise ValueError("base_cap must be >= 1")
    rhs = np.asarray(b, dtype=float).ravel()
    stack = RowView((a, rhs[:, None]))
    n, d = stack.shape[0], stack.shape[1] - 1
    if rhs.size != n:
        raise ValueError("right-hand side length mismatch")
    trace = {} if trace is None else trace

    if base_cap is None:
        base_cap = math.ceil(_BASE_ROWS_C * (d + 1) * math.log(d + 1) / eps**2)
    size = max(base_cap, 2 * (d + 1))
    w = None
    if size < n:
        scores = leverage_score_blocks(
            stack, loss, seed=int(spawn_rng(seed, 137, 0).integers(2**31)),
            gauss_t=_GAUSS_COLS if loss.is_m2 else None)
        sample = sampling.sample_stream("base", scores, size,
                                        int(spawn_rng(seed, 139, 0, 0).integers(2**31)), trace)
        if len(sample) > d + 1:
            w = sample.reweights
            a, rhs = stack.block(sample.indices)
    if w is None:
        sampling.record("base", n, n, trace)
    trace["levels"] = int(w is not None)
    return irls_solve(a, rhs.ravel(), w, loss)
