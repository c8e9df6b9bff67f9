"""Robust regression: rounds of leverage sampling over an IRLS core.

``m_regress`` shrinks the rows of [A b] by a constant number of rounds of
the shared weighted leverage-score sampling loop (``leverage_rounds``),
then solves the surviving weighted problem with iteratively reweighted
least squares.  A may be dense or CSR.  [A b] is never formed: each round
scores its kept rows through a ``core.RowView`` of [A b], read by index
with row blocks stacked on demand, so no round copies its rows.  The kept
rows of A (still CSR for a CSR A) and entries of b are gathered once,
after the last round, for ``irls_solve``, which never densifies A either:
each reweighted least-squares step is solved from the small R of the
row-scaled view of [A b] (``sketch.r_factor``: the Cholesky factor of its
Gram when that is well conditioned, else a streamed R-only QR), so IRLS
memory is that of A plus O((d + 2048) d).  ``irls_solve`` is also
the full-data baseline the sampled solve is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LossSpec, RowView, as_weights, check_finite, m_derivative, m_value, row_view
from .sampling import _KAPPA, _SHRINK, leverage_rounds
from .sketch import r_factor

_RESID_FLOOR = 1e-12
_LEVELS = 3     # sampling rounds before the IRLS solve
_DELTA = 0.1    # failure probability in the per-round sample size
_LEVEL_C = 1.0  # multiplier on n^(1/2+kappa) poly(d) log(1/delta)/eps^2


@dataclass(frozen=True)
class RegressConfig:
    base_cap: Optional[int] = None   # default ceil(20 d^2 / eps^2)

    def resolved_base_cap(self, d: int, eps: float) -> int:
        if self.base_cap is not None:
            return int(self.base_cap)
        return int(math.ceil(20.0 * d * d / eps**2))


def regression_objective(a, b, x, w=None, loss: LossSpec = None) -> float:
    """sum_i w_i M(residual_i) for the candidate solution x."""
    resid = np.asarray(a @ x).ravel() - np.asarray(b, dtype=float).ravel()
    return _weighted_cost(resid, as_weights(w, resid.size), loss)


def _weighted_cost(resid: np.ndarray, wv: np.ndarray, loss: LossSpec) -> float:
    return float(np.dot(wv, m_value(loss, resid)))


def irls_solve(a, b, w=None, loss: LossSpec = None, tol: float = 1e-10,
               max_iter: int = 500, return_history: bool = False):
    """Iteratively reweighted least squares on sum_i w_i M(r_i).

    Per-residual weight M'(|r|) / (2 |r|) with |r| floored at 1e-12; the
    objective is forced non-increasing by halving the step toward the new
    iterate whenever a full step would increase it by more than
    tol * max(obj, 1), and the solve stops at a step that does not lower
    it.  Returns the best iterate (and the per-iteration objective history
    on request).

    A may be dense or CSR, and is never densified or copied whole.  Each
    step with row weights v solves min ||diag(sqrt v) (A x - b)|| from the
    R = [[R11, z], [0, rho]] of diag(sqrt v) [A b] = Q R, read one block
    of rows at a time (``sketch.r_factor``): x is the least-norm
    solution of R11 x = z, with the singular-value cutoff of an n x d
    least-squares solve.  The residual A x - b is formed once per iterate
    and serves both the objective and the next weights.
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

    def solve(v):
        r = r_factor(row_view(stack, None, np.sqrt(v)))
        return np.linalg.lstsq(r[:d, :d], r[:d, d], rcond=rcond)[0]

    def evaluate(x):
        resid = np.asarray(a @ x).ravel() - rhs
        return resid, _weighted_cost(resid, wv, loss)

    x = solve(wv)
    resid, obj = evaluate(x)
    history = [obj]
    for _ in range(max_iter):
        ares = np.maximum(np.abs(resid), _RESID_FLOOR)
        x_new = solve(np.maximum(wv * m_derivative(loss, ares) / (2.0 * ares), 0.0))
        resid_new, obj_new = evaluate(x_new)
        # divergence guard: fall back toward the current iterate if the step
        # rises by more than the stopping tolerance, which is above rounding
        halvings = 0
        while obj_new > obj + tol * max(obj, 1.0) and halvings < 40:
            x_new = 0.5 * (x_new + x)
            resid_new, obj_new = evaluate(x_new)
            halvings += 1
        if obj_new > obj:
            break
        improved = obj - obj_new
        x, resid, obj = x_new, resid_new, obj_new
        history.append(obj)
        if improved < tol * max(obj, 1.0):
            break
    if return_history:
        return x, history
    return x


def m_regress(a, b, loss: LossSpec, eps: float = 0.5,
              cfg: Optional[RegressConfig] = None, seed: int = 0,
              trace: Optional[dict] = None) -> np.ndarray:
    """(1+eps)-style regression by rounds of leverage sampling of [A b].

    A may be dense or CSR.  Each of at most three rounds (levels) computes
    weighted leverage scores of the augmented matrix [A b], read one block
    of rows at a time and never formed (orthonormal bases with Gaussian
    row-norm estimates for p=2 losses), and samples about
    n^(1/2+kappa) * (d+1) * log(1/delta) / eps^2 rows, with kappa = 0.1,
    delta = 0.1 and at most half the rows, carrying
    weights w / q (|x|^p losses rescale the rows by q^(-1/p) instead).
    Rounds carry only row positions, weights and scales; the surviving
    rows of A (CSR for a CSR A) and entries of b are gathered once,
    scaled, for IRLS.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    cfg = cfg or RegressConfig()
    check_finite(a, b)
    rhs = np.asarray(b, dtype=float).ravel()
    stack = RowView((a, rhs[:, None]))
    n, d = stack.shape[0], stack.shape[1] - 1
    if rhs.size != n:
        raise ValueError("right-hand side length mismatch")
    base_cap = cfg.resolved_base_cap(d, eps)

    def target(n_prime: int, _scores) -> float:
        level = (_LEVEL_C * n_prime ** (0.5 + _KAPPA) * (d + 1)
                 * math.log(1.0 / _DELTA) / eps**2)
        return min(_SHRINK * n_prime, max(level, 4.0 * (d + 1)))

    idx, w, scale, levels_run = leverage_rounds(
        stack, np.ones(n), loss, target=target, stop_rows=max(base_cap, 2 * (d + 1)),
        max_rounds=_LEVELS, seed=seed, salts=(137, 139), min_rows=d + 1,
        gauss_t=int(math.ceil(3.0 / _KAPPA)) if loss.is_m2 else None)
    if levels_run:
        a, rhs = row_view(stack, idx, scale)[:].parts
    if trace is not None:
        trace["levels"] = levels_run
        trace["base_rows"] = a.shape[0]
    return irls_solve(a, rhs.ravel(), w, loss)
