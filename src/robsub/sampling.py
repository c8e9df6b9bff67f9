"""Row-sampling plans and realized draws.

A plan turns nonnegative scores q' into independent inclusion
probabilities q_i = min{1, tau q'_i}, tau water-filled so that the plan
expects min{r, nnz(q')} rows.  A draw realizes the plan with one uniform
variate per index (in index order, so draws from the same seed are coupled
across plans) and weighs each kept row 1/q_i, for every loss.  The
bicriteria subspace, residual sampling, robust regression and the subspace
pipelines each draw their sample in one plan and one draw, from rows of
unit weight."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import spawn_rng

_PROB_FLOOR = 1e-12
# most expected rows of one bicriteria or regression size-schedule step, over n'
_SHRINK = 0.5


@dataclass(frozen=True)
class SamplingPlan:
    q: np.ndarray        # inclusion probabilities in [0, 1]

    @property
    def expected_size(self) -> float:
        return float(self.q.sum())


def make_plan(scores, r: float) -> SamplingPlan:
    """Inclusion probabilities min{1, tau q'_i} expecting min{r, nnz(q')} rows.

    tau = r / sum(q') unless a row caps at one; then the capped mass is
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
    if r <= 0.0:
        raise ValueError("r must be positive")
    q = r * s / total
    if q.max() > 1.0:
        # with the j largest scores capped, the others share target - j rows;
        # the first j at which the next score stays below one fixes tau: only
        # the top k scores are sorted, k doubled until j < k (at k = n a j fits)
        target = min(r, np.count_nonzero(s))
        k, fits = np.count_nonzero(q > 1.0), np.zeros(0, bool)
        while not fits.any():
            k = min(2 * k, s.size)
            part = np.partition(s, s.size - k)
            desc = np.sort(part[s.size - k:])[::-1]
            rest = part[:s.size - k].sum() + np.cumsum(desc[::-1])[::-1]
            fits = (target - np.arange(k)) * desc <= rest
        first = int(np.argmax(fits))
        q = (target - first) * s / rest[first]
    q = np.minimum(1.0, q)
    q[q < _PROB_FLOOR] = 0.0  # avoid astronomically large reweights
    return SamplingPlan(q)


@dataclass(frozen=True)
class SampleDraw:
    indices: np.ndarray   # sorted, each at most once
    q_sel: np.ndarray     # inclusion probabilities of the chosen rows

    @property
    def reweights(self) -> np.ndarray:
        """Weights 1/q_i of the chosen rows (each at least 1)."""
        return 1.0 / self.q_sel

    def __len__(self) -> int:
        return self.indices.size


def draw(plan: SamplingPlan, seed: int = 0) -> SampleDraw:
    """Independent Bernoulli draw from the plan.

    One uniform per index in index order: a re-draw from the same seed with
    inflated probabilities yields a superset of indices.
    """
    u = spawn_rng(seed, 37).random(plan.q.size)
    idx = np.flatnonzero(u < plan.q)
    return SampleDraw(idx, plan.q[idx])

