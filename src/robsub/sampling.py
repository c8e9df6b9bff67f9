"""Row-sampling plans and realized draws.

A plan turns nonnegative scores q' into independent inclusion
probabilities q_i = min{1, tau q'_i}, tau water-filled so that the plan
expects min{r, nnz(q')} rows.  The plan is the scores, held by reference,
and the scale tau as a quotient num / den: the probabilities are formed
one chunk of ``core._CHUNK`` rows at a time, never all at once.  A draw
realizes the plan with one uniform variate per index, in index order from
one stream, drawn a chunk at a time (so the draw equals one taken from all
n uniforms at once, and draws from the same seed are coupled across
plans), and weighs each kept row 1/q_i, for every loss.  As tau is
water-filled a chunk at a time, ``sample_stream`` draws each chunk as its
scores arrive, holding none of them: it is every stage's one draw, from
rows of unit weight, and equals ``draw(make_plan(...))``, which stay as
its reference.  ``record`` alone writes a sample's size into the trace.
Besides its scores' source, a sample holds O(chunk + r) memory."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _CHUNK, chunks, spawn_rng

_PROB_FLOOR = 1e-12
_SLACK = 1e-9  # relative slack on a prefix's tau, above the rounding of any later, lower tau


@dataclass(frozen=True)
class SamplingPlan:
    """Inclusion probabilities q_i = min{1, num s_i / den} of the scores s,
    each below 1e-12 taken as 0 (no astronomically large reweight)."""

    scores: np.ndarray   # s, nonnegative; the caller's vector, not a copy
    num: float
    den: float

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


class _WaterFill:
    """tau = num / den of the scores fed so far, a chunk at a time: with the j
    largest capped the others share min{r, nnz} - j rows, and the first j at
    which the next score stays below one fixes tau (the top k sorted, k doubled
    until a j fits).  Once nnz > r tau only falls, so scores below ``bar`` =
    1 / (tau (1 + _SLACK)) never cap: they are summed (``out``), the others kept."""

    def __init__(self, r: float):
        if r <= 0.0:
            raise ValueError("r must be positive")
        self.r, self.nnz, self.out, self.bar = float(r), 0, 0.0, 0.0
        self.top, self.num, self.den = np.zeros(0), 0.0, 0.0

    def feed(self, s: np.ndarray) -> None:
        # a NaN fails the first test, an infinity one of the two
        if s.size and not (s.min() >= 0.0 and np.isfinite(s.max())):
            raise ValueError("scores must be finite and nonnegative")
        if self.nnz <= self.r:  # past r, only min{r, nnz} = r is read
            self.nnz += int(np.count_nonzero(s))
        high = s >= self.bar
        self.out += float(np.sum(s, where=~high) if high.any() else s.sum())
        target = min(self.r, float(self.nnz))
        x = np.concatenate((self.top, s[high] if self.bar else s))
        self.num, self.den = target, self.out + float(x.sum())  # no row capped: r / total
        k = int(np.count_nonzero(x > self.den / target)) if target else 0
        while k:
            k = min(2 * k, x.size)
            part = np.partition(x, x.size - k)
            desc = np.sort(part[x.size - k:])[::-1]
            below = self.out + part[:x.size - k].sum()
            rest = below + np.cumsum(desc[::-1])[::-1]
            fits = (target - np.arange(k)) * desc <= rest
            if fits.any() or k == x.size:  # x holds every score that caps
                first = int(np.argmax(np.append(fits, True)))
                self.num, self.den = target - first, np.append(rest, below)[first]
                break
        self.bar = self.den / (self.num * (1.0 + _SLACK)) if self.nnz > self.r else 0.0
        keep = (x >= self.bar) & (x > 0.0)
        self.out += float(np.sum(x, where=~keep))
        self.top = x[keep]


def make_plan(scores, r: float) -> SamplingPlan:
    """Inclusion probabilities min{1, tau q'_i} expecting min{r, nnz(q')} rows.

    tau = r / sum(q') unless a row caps at one; then the capped mass is
    handed to the other rows (water-filling), so every q_i only rises.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise ValueError("scores must be a vector")
    fill = _WaterFill(r)
    for c in chunks(s.size):
        fill.feed(s[c])
    if fill.nnz == 0:
        raise ValueError("all scores are zero")
    return SamplingPlan(s, fill.num, float(fill.den))


@dataclass(frozen=True)
class SampleDraw:
    indices: np.ndarray   # sorted, each at most once
    q_sel: np.ndarray     # inclusion probabilities of the chosen rows
    expected: float = 0.0  # the rows the plan expects, sum_i q_i

    @property
    def reweights(self) -> np.ndarray:
        """Weights 1/q_i of the chosen rows (each at least 1)."""
        return 1.0 / self.q_sel

    def __len__(self) -> int:
        return self.indices.size


def draw(plan: SamplingPlan, seed: int = 0) -> SampleDraw:
    """Independent Bernoulli draw from the plan, expecting its ``expected_size``.

    One uniform per index in index order, from one stream taken a chunk at
    a time: a re-draw from the same seed with inflated probabilities yields
    a superset of indices.
    """
    rng = spawn_rng(seed, 37)
    idx, q_sel, expected = [], [], 0.0
    for c in chunks(plan.scores.size):
        q = plan.probabilities(c)
        hit = np.flatnonzero(rng.random(q.size) < q)
        idx.append(hit + c.start)
        q_sel.append(q[hit])
        expected += float(q.sum())
    return SampleDraw(np.concatenate(idx), np.concatenate(q_sel), expected)


def record(stage: str, rows: int, expected: float, trace: Optional[dict]) -> None:
    """Write a stage's realized and expected rows as ``{stage}_rows(_expected)``."""
    if trace is not None:
        trace.update({f"{stage}_rows": rows, f"{stage}_rows_expected": float(expected)})


def sample_stream(stage: str, blocks, target: float, seed: int,
                  trace: Optional[dict]) -> SampleDraw:
    """``draw(make_plan(scores, target), seed)``, expecting min{r, nnz}, recorded for
    the stage, of the scores that ``blocks`` yields as (lo, hi, scores) in row order.

    Each chunk's uniforms are drawn once its tau is filled, and a row is held
    while its uniform is below its probability at the latest tau (with slack),
    which only falls, so every row kept in the end is held: about r of them."""
    def chunked():
        lo, hi, held = 0, 0, [np.zeros(0)]  # the scores of rows lo on, lo a multiple of _CHUNK
        for _, hi, s in blocks:
            held.append(s)
            while hi - lo >= _CHUNK:
                rows = np.concatenate(held)
                lo, held = lo + _CHUNK, [rows[_CHUNK:]]
                yield lo - _CHUNK, rows[:_CHUNK]
        if hi > lo or not lo:
            yield lo, np.concatenate(held)

    fill, rng = _WaterFill(target), spawn_rng(seed, 37)
    cand = np.zeros((3, 0))  # the rows held, their scores and uniforms
    for lo, s in chunked():
        fill.feed(s)
        u = rng.random(s.size)
        hit = np.flatnonzero(u * fill.bar < s)
        cand = np.concatenate((cand.compress(cand[2] * fill.bar < cand[1], axis=1),
                               [hit + lo, s[hit], u[hit]]), axis=1)
        del u  # not held while the next chunk is filled
    out = SampleDraw(np.zeros(0, np.intp), np.zeros(0))
    if fill.nnz:
        q = SamplingPlan(cand[1], fill.num, float(fill.den)).probabilities()
        kept = cand[2] < q
        out = SampleDraw(cand[0, kept].astype(np.intp), q[kept], min(fill.r, float(fill.nnz)))
    record(stage, len(out), out.expected, trace)
    return out
