"""Constant-factor bicriteria subspaces by sketch-then-sample rounds.

The driver sketches the input on the right down to poly(k) columns, then
runs rounds of the shared weighted leverage-score sampling loop
(``sampling.leverage_rounds``) until at most P_M rows survive; the
orthonormal row space of the survivors is the bicriteria subspace.  For
|x|^p losses one sampling round typically suffices; general p=2 losses
shrink rows geometrically over O(log log n) rounds while carrying
reweights w' = w / q.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LossSpec, Subspace, check_finite, spawn_rng
from .sampling import leverage_rounds
from .sketch import apply_right, make_sparse_sketch, orthonormal_union


@dataclass(frozen=True)
class ConstApproxConfig:
    c_sketch_cols: float = 40.0    # sketch width multiplier: m = min(c * k^2, d)
    sketch_eps: float = 0.5        # constant-eps right sketch => sparsity ceil(2/eps)
    c_sample_rows: float = 10.0    # per-level sample multiplier on d'^2 * sum(scores)
    p_m_multiplier: float = 50.0
    logloglog_c: float = 3.0       # extra factor on r for p=2 losses
    shrink: float = 0.5            # per-level expected sample is capped at shrink * n'
    p_m_override: Optional[int] = None
    rank_tol: float = 1e-8
    basis_probes: int = 2000       # beta-certificate probes inside the recursion

    def sparsity(self) -> int:
        return max(1, int(math.ceil(2.0 / self.sketch_eps)))

    def p_m(self, k: int, n: int, loss: LossSpec) -> int:
        if self.p_m_override is not None:
            return int(self.p_m_override)
        base = self.p_m_multiplier * k * k
        if loss.is_m2:
            base *= math.ceil(math.log2(n + 2) ** 3)
        return int(base)


def _logloglog(n: float) -> float:
    return math.log(max(math.log(max(math.log(max(n, 3.0)), math.e)), math.e))


def const_approx_recur(
    a_proj,
    a_hat,
    w: np.ndarray,
    loss: LossSpec,
    cfg: ConstApproxConfig,
    seed: int,
    p_m: int,
    max_depth: int,
    trace: Optional[list] = None,
):
    """Rounds of leverage-score row sampling; returns the surviving rows of a_hat.

    a_proj carries the sketched (narrow) copy used for scoring; a_hat the
    original-width rows, kept aligned.  Rounds of ``leverage_rounds`` run
    until at most p_m rows survive; more than max_depth + 1 rounds is an
    error.  For |x|^p losses sampled rows are rescaled by q^(-1/p) and
    weights reset to one; for general p=2 losses rows keep their values
    and weights become w / q.
    """
    if a_hat.shape[0] != a_proj.shape[0]:
        raise ValueError("projected and original row counts disagree")
    d_prime = a_proj.shape[1]

    def target(n_prime: int, scores) -> float:
        # the formula c d'^2 gamma_total (times a log log log n' factor at
        # p = 2) exceeds n' at practical sizes, which would stall the rounds;
        # the expected sample is capped so the row count keeps shrinking, and
        # gamma_total is read only as far as the cap needs
        scale = cfg.c_sample_rows * d_prime * d_prime
        if loss.is_m2:
            scale *= cfg.logloglog_c * _logloglog(n_prime)
        cap = cfg.shrink * n_prime
        return scale * scores.capped_total(cap / scale)

    # min_rows=-1: an empty draw is carried, leaving no survivors
    (_, surv), _, idx, depth = leverage_rounds(
        (a_proj, a_hat), w, loss, view=lambda proj, _: proj, target=target,
        stop_rows=p_m, max_rounds=max_depth + 1, seed=seed, salts=(53, 59),
        min_rows=-1, trace=trace, n_probe=cfg.basis_probes)
    if surv.shape[0] > p_m:
        raise RuntimeError(
            f"row sampling ran {depth} rounds without shrinking below "
            f"{p_m} rows (n'={surv.shape[0]})")
    if trace is not None:
        trace.append({"depth": depth, "n": surv.shape[0], "base_case": True,
                      "indices": idx})
    return surv


def const_approx(a, k: int, loss: LossSpec, cfg: Optional[ConstApproxConfig] = None,
                 seed: int = 0, trace: Optional[list] = None) -> Subspace:
    """Bicriteria subspace: sketch right, sample rows, orthonormalize survivors.

    The output dimension is at most P_M; its cost is within a modest factor
    of the best rank-k cost (over the randomness of sketch and samples).
    """
    cfg = cfg or ConstApproxConfig()
    n, d = a.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    check_finite(a)
    if k > min(n, d):
        warnings.warn(f"k={k} exceeds min(n, d)={min(n, d)}; clamping", RuntimeWarning)
        k = min(n, d)

    p_m = cfg.p_m(k, n, loss)
    if n <= p_m:
        # no sampling round can run, so the right sketch would go unread
        if trace is not None:
            trace.append({"depth": 0, "n": n, "base_case": True, "indices": np.arange(n)})
        return orthonormal_union([a], d=d, rank_tol=cfg.rank_tol)
    m = int(min(max(k + 1, cfg.c_sketch_cols * k * k), d))
    sketch = make_sparse_sketch(int(spawn_rng(seed, 61).integers(2**31)),
                                m=m, d=d, s=min(cfg.sparsity(), m))
    a_proj = apply_right(a, sketch)
    max_depth = int(4 * math.log2(max(math.log2(max(n, 4)), 2.0)) + 8)
    surv = const_approx_recur(a_proj, a, np.ones(n), loss, cfg, seed,
                              p_m, max_depth, trace=trace)
    return orthonormal_union([surv], d=d, rank_tol=cfg.rank_tol)
