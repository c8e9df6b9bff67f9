"""Non-adaptive residual sampling around a bicriteria subspace.

Given a projector X-hat = W W^T whose cost is within a factor K of the
rank-k optimum, rows are sampled once, with probabilities proportional to
M of their Gaussian-sketched residual norms, and the output subspace is
the orthonormal union of the sampled rows with the columns of W.  The
result contains span(W) and, with enough samples, a near-optimal rank-k
subspace.  K and the sample-size constants c1 and k2 are the fields of
``DimReduceConfig``, which the pipelines read from ``PipelineConfig.dim_cfg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (_FACTOR_BLOCK, LossSpec, Subspace, check_finite, m_value, row_norms, row_view,
                   spawn_rng)
from .sampling import draw, make_plan
from .sketch import gaussian_row_norm_estimates, make_gaussian_sketch, orthonormal_union


@dataclass(frozen=True)
class DimReduceConfig:
    """Residual-sampling settings; k and eps are arguments of ``dim_reduce``.

    The sample size is r1 = c1 K k^(2+p) eps^(-p-1) log(k/eps + 2), with
    c1 = ``r1_multiplier`` and K = ``quality_k``, and plans oversample it
    by ``k2``.
    """

    quality_k: Optional[float] = None  # K, the input projector's quality; default max(2, k)
    r1_multiplier: float = 2.0
    k2: float = 4.0

    def __post_init__(self):
        if self.quality_k is not None and self.quality_k < 1.0:
            raise ValueError("quality bound must be >= 1")

    def r1(self, k: int, eps: float, p: float) -> float:
        quality = self.quality_k if self.quality_k is not None else float(max(2, k))
        return (self.r1_multiplier * quality * k ** (2.0 + p)
                * eps ** (-p - 1.0) * math.log(k / eps + 2.0))


def dim_reduce(a, k: int, eps: float, xhat: Subspace, cfg: DimReduceConfig, loss: LossSpec,
               seed: int = 0, trace: Optional[dict] = None) -> Subspace:
    """One round of residual sampling; returns a subspace containing xhat's.

    Scores are q'_i = M(||A_i (I - W W^T) G||_2) with G Gaussian (a single
    column for |x|^p losses, O(log n) columns otherwise); the plan uses
    r = r1^(p+1) or r1 respectively, r1 = cfg.r1(k, eps, p), with
    oversampling constant cfg.k2.  If every residual is zero (always so
    when xhat is the whole space) the input subspace is returned unchanged.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    n, d = a.shape
    if not (1 <= k <= d):
        raise ValueError(f"k={k} outside [1, {d}]")
    if xhat.d != d:
        raise ValueError("projector dimension mismatch")
    if xhat.dim == d:
        return xhat  # every residual is zero
    p = loss.p
    if loss.is_lp:
        t_m = 1
        r = cfg.r1(k, eps, p) ** (p + 1.0)
    else:
        t_m = int(math.ceil(2.0 * math.log2(n + 2)))
        r = cfg.r1(k, eps, p)

    g = make_gaussian_sketch(int(spawn_rng(seed, 43).integers(2**31)), d, t_m)
    resid = gaussian_row_norm_estimates(a, xhat, g)
    check_finite(resid)  # a NaN or inf in A reaches the estimate of its row
    scores = m_value(loss, resid)
    if trace is not None:
        trace["t_m"] = t_m
        trace["r"] = r
        trace["scores_total"] = float(scores.sum())
    # residuals at the level of rounding noise count as an exact fit
    largest = max(float(row_norms(rows).max(initial=0.0))
                  for _, _, rows in row_view(a).blocks(_FACTOR_BLOCK))
    zero_floor = n * m_value(loss, 1e-12 * (largest + 1e-300))
    if scores.sum() <= zero_floor:
        return xhat

    plan = make_plan(scores, r, cfg.k2)
    sample = draw(plan, None, seed=int(spawn_rng(seed, 47).integers(2**31)))
    if trace is not None:
        trace["expected_size"] = plan.expected_size
        trace["realized_size"] = len(sample)
    blocks = [a[sample.indices]]
    if xhat.dim > 0:
        blocks.append(xhat.u.T)
    return orthonormal_union(blocks, d=d)
