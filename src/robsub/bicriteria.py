"""Constant-factor bicriteria subspaces by sketch-then-sample rounds.

The driver sketches the input on the right down to poly(k) columns, then
runs rounds of the shared weighted leverage-score sampling loop
(``sampling.leverage_rounds``) until at most P_M rows survive; the
row space of the surviving input rows is the bicriteria subspace.  For
|x|^p losses one sampling round typically suffices; general p=2 losses
shrink rows geometrically over O(log log n) rounds while carrying
reweights w' = w / q.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .core import LossSpec, Subspace, check_finite, spawn_rng
from .sampling import _SHRINK, leverage_rounds
from . import sketch
from .sketch import apply_right, make_sparse_sketch, orthonormal_union, rank_revealing_factor

# nonzeros per column of a sparse right sketch: ceil(2 / eps) at eps = 1/2
_SKETCH_NNZ = 4
_SKETCH_COLS_C = 40.0   # right-sketch width m = min(max(k + 1, c k^2), d)
_SAMPLE_ROWS_C = 10.0   # per-round sample multiplier on d'^2 * sum(scores)
_LOGLOGLOG_C = 3.0      # extra factor on the per-round sample for p=2 losses
_P_M_C = 50.0           # multiplier c of the survivor cap P_M


def _p_m(k: int, n: int, loss: LossSpec) -> int:
    """P_M, the most rows that may survive: c k^2, times ceil(log2(n + 2)^3) at p = 2."""
    base = _P_M_C * k * k
    if loss.is_m2:
        base *= math.ceil(math.log2(n + 2) ** 3)
    return int(base)


def _logloglog(n: float) -> float:
    return math.log(max(math.log(max(math.log(max(n, 3.0)), math.e)), math.e))


def const_approx_recur(
    a_proj,
    w: np.ndarray,
    loss: LossSpec,
    seed: int,
    p_m: int,
    max_depth: int,
    trace: Optional[list] = None,
) -> np.ndarray:
    """Rounds of leverage-score row sampling; returns the surviving row indices.

    a_proj is the sketched (narrow) copy of the input that is scored.
    Rounds of ``leverage_rounds`` run until at most p_m rows survive; more
    than max_depth + 1 rounds is an error.  For |x|^p losses sampled rows
    are rescaled by q^(-1/p) and weights reset to one; for general p=2
    losses rows keep their values and weights become w / q.  Each round
    reads its rows of a_proj by index, and no copy of them is formed:
    positive row scales leave the span of the input rows unchanged, so
    the caller needs only their indices, sorted, into a_proj.
    """
    d_prime = a_proj.shape[1]

    def target(n_prime: int, scores) -> float:
        # the formula c d'^2 gamma_total (times a log log log n' factor at
        # p = 2) exceeds n' at practical sizes, which would stall the rounds;
        # the expected sample is capped so the row count keeps shrinking
        scale = _SAMPLE_ROWS_C * d_prime * d_prime
        if loss.is_m2:
            scale *= _LOGLOGLOG_C * _logloglog(n_prime)
        return min(scale * scores.gamma_total, _SHRINK * n_prime)

    # min_rows=-1: an empty draw is carried, leaving no survivors
    idx, _, _, depth = leverage_rounds(
        a_proj, w, loss, target=target, stop_rows=p_m, max_rounds=max_depth + 1,
        seed=seed, salts=(53, 59), min_rows=-1, trace=trace)
    if idx.size > p_m:
        raise RuntimeError(
            f"row sampling ran {depth} rounds without shrinking below "
            f"{p_m} rows (n'={idx.size})")
    if trace is not None:
        trace.append({"depth": depth, "n": idx.size, "base_case": True, "indices": idx})
    return idx


def const_approx(a, k: int, loss: LossSpec, seed: int = 0,
                 trace: Optional[list] = None) -> Subspace:
    """Bicriteria subspace: sketch right, sample rows, span the surviving input rows.

    The output dimension is at most P_M; its cost is within a modest factor
    of the best rank-k cost (over the randomness of sketch and samples).
    When every row survives (n <= P_M) the subspace is the row space of A
    and carries the R factor of A it was read from (``Subspace.r``).
    """
    n, d = a.shape
    if n == 0:
        raise ValueError("input matrix has no rows")
    if k < 1:
        raise ValueError("k must be >= 1")
    check_finite(a)
    if k > min(n, d):
        warnings.warn(f"k={k} exceeds min(n, d)={min(n, d)}; clamping", RuntimeWarning)
        k = min(n, d)

    p_m = _p_m(k, n, loss)
    if n <= p_m:
        # no sampling round can run, so the right sketch would go unread;
        # the R of A is kept for the caller's final sample, which reads A
        if trace is not None:
            trace.append({"depth": 0, "n": n, "base_case": True, "indices": np.arange(n)})
        r = sketch.r_factor(a)
        return Subspace(rank_revealing_factor(a, r)[1], r)
    m = int(min(max(k + 1, _SKETCH_COLS_C * k * k), d))
    right = make_sparse_sketch(int(spawn_rng(seed, 61).integers(2**31)),
                               m=m, d=d, s=min(_SKETCH_NNZ, m))
    max_depth = int(4 * math.log2(max(math.log2(max(n, 4)), 2.0)) + 8)
    idx = const_approx_recur(apply_right(a, right), np.ones(n), loss, seed,
                             p_m, max_depth, trace=trace)
    return orthonormal_union([a[idx]], d=d)
