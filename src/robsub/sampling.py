"""Row-sampling plans, realized draws, and the shared sampling loop.

A plan turns nonnegative scores q' into independent inclusion
probabilities q_i = min{1, tau q'_i}, tau water-filled so that the plan
expects min{k2 r, nnz(q')} rows.  A draw realizes the plan with one
uniform variate per index (in index order, so draws from the same seed are
coupled across plans) and carries both the reweighting w'_i = w_i / q_i
and, for |x|^p losses, the row scale factors q_i^(-1/p).
``leverage_rounds`` repeats score -> plan -> draw -> carry over weighted
leverage scores for the bicriteria subspace; robust regression and the
subspace pipelines draw their sample in one plan and one draw."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conditioning import LeverageScores, weighted_leverage_scores
from .core import LossSpec, as_weights, row_view, spawn_rng

_PROB_FLOOR = 1e-12
# most expected rows of one bicriteria round or regression size step, over n'
_SHRINK = 0.5


@dataclass(frozen=True)
class SamplingPlan:
    q: np.ndarray        # inclusion probabilities in [0, 1]

    @property
    def expected_size(self) -> float:
        return float(self.q.sum())


def make_plan(scores, r: float, k2: float = 1.0) -> SamplingPlan:
    """Inclusion probabilities min{1, tau q'_i} expecting min{k2 r, nnz(q')} rows.

    tau = k2 r / sum(q') unless a row caps at one; then the capped mass is
    handed to the other rows (water-filling), so every q_i only rises.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise ValueError("scores must be a vector")
    if not np.all(np.isfinite(s)) or np.any(s < 0):
        raise ValueError("scores must be finite and nonnegative")
    total = float(s.sum())
    if total <= 0.0:
        raise ValueError("all scores are zero")
    if r <= 0.0 or k2 <= 0.0:
        raise ValueError("r and k2 must be positive")
    q = k2 * r * s / total
    if q.max() > 1.0:
        # with the j largest scores capped, the others share target - j rows;
        # the first j at which the next score stays below one fixes tau
        desc = np.sort(s)[::-1]
        rest = np.cumsum(desc[::-1])[::-1]
        target = min(k2 * r, np.count_nonzero(s))
        first = int(np.argmax((target - np.arange(s.size)) * desc <= rest))
        q = (target - first) * s / rest[first]
    q = np.minimum(1.0, q)
    q[q < _PROB_FLOOR] = 0.0  # avoid astronomically large reweights
    return SamplingPlan(q)


@dataclass(frozen=True)
class SampleDraw:
    indices: np.ndarray   # sorted, each at most once
    q_sel: np.ndarray     # inclusion probabilities of the chosen rows
    w_sel: np.ndarray     # original weights of the chosen rows

    @property
    def reweights(self) -> np.ndarray:
        """w'_i = w_i / q_i for the chosen rows (always >= w_i)."""
        return self.w_sel / self.q_sel

    def scale_factors(self, p: float) -> np.ndarray:
        """Row scale factors q_i^(-1/p) for the scale-invariant losses."""
        return self.q_sel ** (-1.0 / p)

    def __len__(self) -> int:
        return self.indices.size


def draw(plan: SamplingPlan, w=None, seed: int = 0) -> SampleDraw:
    """Independent Bernoulli draw from the plan.

    One uniform per index in index order: a re-draw from the same seed with
    inflated probabilities yields a superset of indices.
    """
    n = plan.q.size
    wv = as_weights(w, n)
    u = spawn_rng(seed, 37).random(n)
    mask = u < plan.q
    idx = np.flatnonzero(mask)
    return SampleDraw(idx, plan.q[idx], wv[idx])


def leverage_rounds(
    a,
    w,
    loss: LossSpec,
    target: Callable[[int, LeverageScores], float],
    stop_rows: int,
    max_rounds: int,
    seed: int,
    salts: tuple[int, int],
    min_rows: int = 0,
    trace: Optional[list] = None,
):
    """Shrink the rows of ``a`` by rounds of weighted leverage-score sampling.

    While more than ``stop_rows`` rows remain, at most ``max_rounds`` times:
    score the kept rows with ``weighted_leverage_scores``,
    plan ``target(n', scores)`` expected rows in proportion to
    ``scores.gamma``, and draw, redrawing once if more than
    max(0.9 n', stop_rows) rows are kept.  A draw keeping at
    most ``min_rows`` rows is dropped and ends the rounds.  |x|^p losses
    rescale kept rows by q^(-1/p) and reset weights to one; other losses
    keep rows as they are and carry w / q.  Round r seeds its scores with
    (seed, salts[0], r) and its draws with (seed, salts[1], r, attempt).

    ``a`` is a matrix or ``core.RowView``, and no copy of its kept rows is
    formed: each round scores ``row_view(a, idx, scale)``, read by index a
    block at a time, and only the kept positions, their weights and their
    scale live from one round to the next.

    Returns (idx, w, scale, rounds): the kept positions in ``a`` (sorted),
    their weights, their cumulative row scale (the product of each round's
    q^(-1/p) for |x|^p losses, None for others or when no round was kept),
    and the number of rounds whose draw was kept.  The kept rows are
    ``row_view(a, idx, scale)``.
    """
    n = a.shape[0]
    w = as_weights(w, n)
    idx, scale = None, None     # every row, unscaled, until a draw is kept
    rounds = 0
    while (n if idx is None else idx.size) > stop_rows and rounds < max_rounds:
        rows = a if idx is None else row_view(a, idx, scale)
        n_prime = rows.shape[0]
        scores = weighted_leverage_scores(
            rows, w, loss,
            seed=int(spawn_rng(seed, salts[0], rounds).integers(2**31)))
        plan = make_plan(scores.gamma, target(n_prime, scores), 1.0)
        for attempt in range(2):
            sample = draw(plan, w,
                          seed=int(spawn_rng(seed, salts[1], rounds, attempt).integers(2**31)))
            if len(sample) <= max(0.9 * n_prime, stop_rows):
                break
        if trace is not None:
            trace.append({
                "depth": rounds, "n": n_prime, "base_case": False,
                "expected": plan.expected_size, "realized": len(sample),
                "w1_next": float(sample.reweights.sum()),
            })
        if len(sample) <= min_rows:
            break
        keep = sample.indices
        idx = keep if idx is None else idx[keep]
        if loss.is_lp:
            scale = sample.scale_factors(loss.p) * (1.0 if scale is None else scale[keep])
            w = np.ones(keep.size)
        else:
            w = sample.reweights
        del rows, scores, plan, sample, keep  # only idx, w and scale live into the next round
        rounds += 1
    return (np.arange(n) if idx is None else idx), w, scale, rounds
