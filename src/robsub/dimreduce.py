"""Non-adaptive residual sampling around a bicriteria subspace.

Given a projector X-hat = W W^T whose cost is within a factor K of the
rank-k optimum, rows are sampled once, with probabilities proportional to
M of their Gaussian-sketched residual norms, and the output subspace is
the orthonormal union of the sampled rows with the columns of W.  The
result contains span(W) and, with enough samples, a near-optimal rank-k
subspace.  K = max(2, k), the sample-size constant c1 = 2 and the
oversampling factor 4 are constants of the analysis: ``_r1`` and ``_K2``.
"""

from __future__ import annotations

import math
from typing import Optional

from .core import (_FACTOR_BLOCK, LossSpec, Subspace, check_finite, m_value, row_norms, row_view,
                   spawn_rng)
from .sampling import draw, make_plan
from .sketch import gaussian_row_norm_estimates, make_gaussian_sketch, orthonormal_union

_R1_C = 2.0     # c1 in r1, see _r1
_K2 = 4.0       # oversampling constant of the plan


def _r1(k: int, eps: float, p: float) -> float:
    """r1 = c1 K k^(2+p) eps^(-p-1) log(k/eps + 2), K = max(2, k) the bicriteria quality."""
    return _R1_C * max(2, k) * k ** (2.0 + p) * eps ** (-p - 1.0) * math.log(k / eps + 2.0)


def dim_reduce(a, k: int, eps: float, xhat: Subspace, loss: LossSpec,
               seed: int = 0, trace: Optional[dict] = None) -> Subspace:
    """One round of residual sampling; returns a subspace containing xhat's.

    Scores are q'_i = M(||A_i (I - W W^T) G||_2) with G Gaussian (a single
    column for |x|^p losses, O(log n) columns otherwise); the plan uses
    r = r1^(p+1) or r1 respectively, r1 = _r1(k, eps, p), with
    oversampling constant _K2, so the plan expects _K2 r rows.  If every
    residual is zero (always so when xhat is the whole space) the input
    subspace is returned unchanged.  ``trace`` receives the Gaussian's
    width (``t_m``) and the realized and expected rows of the sample
    (``dimreduce_rows``, ``dimreduce_rows_expected``; 0 and 0.0 when no
    sample is drawn).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    n, d = a.shape
    if not (1 <= k <= d):
        raise ValueError(f"k={k} outside [1, {d}]")
    if xhat.d != d:
        raise ValueError("projector dimension mismatch")
    if trace is not None:
        trace.update(dimreduce_rows=0, dimreduce_rows_expected=0.0)
    if xhat.dim == d:
        return xhat  # every residual is zero
    p = loss.p
    if loss.is_lp:
        t_m = 1
        r = _r1(k, eps, p) ** (p + 1.0)
    else:
        t_m = int(math.ceil(2.0 * math.log2(n + 2)))
        r = _r1(k, eps, p)

    g = make_gaussian_sketch(int(spawn_rng(seed, 43).integers(2**31)), d, t_m)
    resid = gaussian_row_norm_estimates(a, xhat, g)
    check_finite(resid)  # a NaN or inf in A reaches the estimate of its row
    scores = m_value(loss, resid)
    if trace is not None:
        trace["t_m"] = t_m
    # residuals at the level of rounding noise count as an exact fit
    largest = max(float(row_norms(rows).max(initial=0.0))
                  for _, _, (rows,) in row_view(a).blocks(_FACTOR_BLOCK))
    zero_floor = n * m_value(loss, 1e-12 * (largest + 1e-300))
    if scores.sum() <= zero_floor:
        return xhat

    plan = make_plan(scores, _K2 * r)
    sample = draw(plan, seed=int(spawn_rng(seed, 47).integers(2**31)))
    if trace is not None:
        trace.update(dimreduce_rows=len(sample), dimreduce_rows_expected=plan.expected_size)
    blocks = [a[sample.indices]]
    if xhat.dim > 0:
        blocks.append(xhat.u.T)
    return orthonormal_union(blocks, d=d)
