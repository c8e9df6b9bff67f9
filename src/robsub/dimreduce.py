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

from .core import (_FACTOR_BLOCK, LossSpec, RowSelection, Subspace, check_finite, m_value,
                   row_norms, row_view, spawn_rng)
from . import sampling
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
    residual is zero the input subspace is returned unchanged; when xhat
    is the whole space or carries A's singular values (``Subspace.sv``:
    it is A's row space) that is known before any row is read, and else
    after the one pass over A that scores and samples it.  The output is
    the orthonormal union of the kept rows with W^T, read through a
    ``core.RowSelection`` of A and reduced to their R factor, so no row of
    A is copied beyond one block: a call holds A, one block of rows, the
    sample's indices and O((d + 2048) d) for the factors, even when (as
    at |x|^p on small inputs) the sample keeps every row.  ``trace``
    receives the Gaussian's width (``t_m``) and the realized and expected
    rows of the sample (``dimreduce_rows``, ``dimreduce_rows_expected``; 0
    and 0.0 when no sample is drawn).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    n, d = a.shape
    if not (1 <= k <= d):
        raise ValueError(f"k={k} outside [1, {d}]")
    if xhat.d != d:
        raise ValueError("projector dimension mismatch")
    trace = {} if trace is None else trace
    sampling.record("dimreduce", 0, 0, trace)
    if xhat.dim == d or xhat.sv is not None:
        return xhat  # xhat holds every row of A, so every residual is zero
    p = loss.p
    if loss.is_lp:
        t_m = 1
        r = _r1(k, eps, p) ** (p + 1.0)
    else:
        t_m = int(math.ceil(2.0 * math.log2(n + 2)))
        r = _r1(k, eps, p)

    g = make_gaussian_sketch(int(spawn_rng(seed, 43).integers(2**31)), d, t_m)
    g -= xhat.u @ (xhat.u.T @ g)  # deflated once, for the residuals of every block
    trace["t_m"] = t_m
    sums = [0.0, 0.0]  # the scores' total and the largest row norm of A

    def score(parts):
        rows, = parts
        resid = gaussian_row_norm_estimates(rows, g)
        check_finite(resid)  # a NaN or inf in A reaches the estimate of its row
        block = m_value(loss, resid)
        sums[0] += block.sum()
        sums[1] = max(sums[1], row_norms(rows).max(initial=0.0))
        return block

    scores = row_view(a).blocks(_FACTOR_BLOCK, score)
    sample = sampling.sample_stream("dimreduce", scores, _K2 * r,
                                    int(spawn_rng(seed, 47).integers(2**31)), trace)
    # residuals at the level of rounding noise count as an exact fit: the sample is dropped
    if sums[0] <= n * m_value(loss, 1e-12 * (sums[1] + 1e-300)):
        sampling.record("dimreduce", 0, 0, trace)
        return xhat
    return orthonormal_union([RowSelection(a, sample.indices), xhat.u.T], d=d)
