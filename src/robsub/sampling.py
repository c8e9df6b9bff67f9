"""Row-sampling plans and realized draws.

A plan turns nonnegative scores q' into independent inclusion
probabilities q_i = min{1, tau q'_i}, tau water-filled so that the plan
expects min{r, nnz(q')} rows.  The plan is the scores, held by reference,
and the scale tau as a quotient num / den: the probabilities are formed
one chunk of ``core._CHUNK`` rows at a time, never all at once.  A draw
realizes the plan with one uniform variate per index, in index order from
one stream, drawn a chunk at a time (so the draw equals one taken from all
n uniforms at once, and draws from the same seed are coupled across
plans), and weighs each kept row 1/q_i, for every loss.  The bicriteria
subspace, residual sampling, robust regression and the subspace pipelines
each draw their sample in one plan and one draw (``sample``), from rows of
unit weight; ``record`` alone writes the stage's sample size into its
trace.  Besides the scores, a plan and its draw hold O(chunk) memory, and
the water-filled plan a partitioned copy of the scores while it is made."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import chunks, spawn_rng

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class SamplingPlan:
    """Inclusion probabilities q_i = min{1, num s_i / den} of the scores s,
    each below 1e-12 taken as 0 (no astronomically large reweight)."""

    scores: np.ndarray   # s, nonnegative; the caller's vector, not a copy
    num: float
    den: float

    @staticmethod
    def from_probabilities(q) -> "SamplingPlan":
        """The plan that keeps row i with probability q_i, for q_i in [0, 1]."""
        q = np.asarray(q, dtype=float)
        if q.ndim != 1 or q.size and not (q.min() >= 0.0 and q.max() <= 1.0):
            raise ValueError("probabilities must be a vector in [0, 1]")
        return SamplingPlan(q, 1.0, 1.0)

    def probabilities(self, rows: slice = slice(None)) -> np.ndarray:
        """q over ``rows``, formed afresh."""
        q = self.num * self.scores[rows]
        q /= self.den
        np.minimum(q, 1.0, out=q)
        q[q < _PROB_FLOOR] = 0.0
        return q

    @property
    def q(self) -> np.ndarray:
        """Every inclusion probability, an n-vector formed on each call."""
        return self.probabilities()

    @property
    def expected_size(self) -> float:
        """sum_i q_i, summed chunk by chunk."""
        return sum(float(self.probabilities(c).sum()) for c in chunks(self.scores.size))


def make_plan(scores, r: float) -> SamplingPlan:
    """Inclusion probabilities min{1, tau q'_i} expecting min{r, nnz(q')} rows.

    tau = r / sum(q') unless a row caps at one; then the capped mass is
    handed to the other rows (water-filling), so every q_i only rises.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise ValueError("scores must be a vector")
    # a NaN fails the first test, an infinity one of the two
    if s.size and not (s.min() >= 0.0 and np.isfinite(s.max())):
        raise ValueError("scores must be finite and nonnegative")
    total = float(s.sum())
    if total <= 0.0:
        raise ValueError("all scores are zero")
    if r <= 0.0:
        raise ValueError("r must be positive")
    # r s_i / total is monotone in s_i, so its largest value is at the largest score
    if r * s.max() / total <= 1.0:
        return SamplingPlan(s, float(r), total)
    # with the j largest scores capped, the others share target - j rows;
    # the first j at which the next score stays below one fixes tau: only
    # the top k scores are sorted, k doubled until j < k (at k = n a j fits)
    target = min(r, np.count_nonzero(s))
    k = sum(int(np.count_nonzero(r * s[c] / total > 1.0)) for c in chunks(s.size))
    fits = np.zeros(0, bool)
    while not fits.any():
        k = min(2 * k, s.size)
        part = np.partition(s, s.size - k)
        desc = np.sort(part[s.size - k:])[::-1]
        rest = part[:s.size - k].sum() + np.cumsum(desc[::-1])[::-1]
        fits = (target - np.arange(k)) * desc <= rest
    first = int(np.argmax(fits))
    return SamplingPlan(s, float(target - first), float(rest[first]))


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

    One uniform per index in index order, from one stream taken a chunk at
    a time: a re-draw from the same seed with inflated probabilities yields
    a superset of indices.
    """
    rng = spawn_rng(seed, 37)
    idx, q_sel = [], []
    for c in chunks(plan.scores.size):
        q = plan.probabilities(c)
        hit = np.flatnonzero(rng.random(q.size) < q)
        idx.append(hit + c.start)
        q_sel.append(q[hit])
    return SampleDraw(np.concatenate(idx), np.concatenate(q_sel))


def record(stage: str, rows: int, expected: float, trace: Optional[dict]) -> None:
    """Write a stage's realized and expected rows as ``{stage}_rows(_expected)``."""
    if trace is not None:
        trace.update({f"{stage}_rows": rows, f"{stage}_rows_expected": float(expected)})


def sample(stage: str, scores, target: float, seed: int,
           trace: Optional[dict]) -> SampleDraw:
    """One plan expecting ``target`` rows and one draw from it, recorded for the stage.

    All-zero scores give an empty draw expecting min{r, nnz(q')} = 0 rows.
    """
    if not np.any(scores):
        record(stage, 0, 0.0, trace)
        return SampleDraw(np.zeros(0, np.intp), np.zeros(0))
    # make_plan and draw are read as module globals, so their wrappers see every stage
    plan = make_plan(scores, target)
    out = draw(plan, seed=seed)
    record(stage, len(out), plan.expected_size, trace)
    return out
