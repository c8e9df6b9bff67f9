"""A sample drawn as its scores stream equals the plan's draw from the finished scores.

``sampling.sample_stream`` takes score blocks of any size, water-fills tau
a chunk at a time and holds only candidate rows; the property below checks
it against ``draw(make_plan(scores, r))`` on the same scores and seed, and
that both reject a NaN, infinite or negative score.
"""

import numpy as np
import pytest

from conftest import traced_peak
from robsub import sampling
from robsub.core import _CHUNK
from robsub.sampling import draw, make_plan, sample_stream

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _blocks(scores, cuts):
    """(lo, hi, scores[lo:hi]) between sorted cuts: a repeated cut is an empty block."""
    ends = [0, *sorted(cuts), scores.size]
    return ((lo, hi, scores[lo:hi]) for lo, hi in zip(ends, ends[1:]))


def _scores(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":    # no row caps
        return rng.random(n)
    if kind == "heavy":      # water-filled: many rows cap
        return rng.pareto(0.5, n)
    if kind == "sparse":     # mostly fewer nonzero scores than r
        return rng.random(n) * (rng.random(n) < 0.01)
    if kind == "invalid":    # one NaN, infinite or negative score, when n > 0
        s = rng.random(n)
        if n:
            s[rng.integers(n)] = rng.choice([np.nan, np.inf, -1.0])
        return s
    s = rng.exponential(size=n) ** 3
    s[:_CHUNK] = 0.0         # an all-zero chunk, or all-zero scores below one chunk
    return s


def _check(scores, r, cuts, seed):
    if not np.all(np.isfinite(scores) & (scores >= 0.0)):  # a NaN fails both tests
        for sample in (lambda: sample_stream("stage", _blocks(scores, cuts), r, seed, None),
                       lambda: make_plan(scores, r)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                sample()
        return
    got = sample_stream("stage", _blocks(scores, cuts), r, seed, None)
    nnz = np.count_nonzero(scores)
    if nnz == 0:
        assert len(got) == 0 and got.expected == 0.0
        return
    plan = make_plan(scores, r)
    ref = draw(plan, seed=seed)
    assert np.array_equal(got.indices, ref.indices)
    assert got.indices.dtype == np.intp
    np.testing.assert_allclose(got.q_sel, ref.q_sel, rtol=1e-15, atol=0.0)
    assert got.expected == min(r, nnz)
    assert abs(got.expected - plan.expected_size) <= 1e-9 * got.expected


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    kind=st.sampled_from(["uniform", "heavy", "sparse", "zero chunk", "invalid"]),
    n=st.integers(0, 2 * _CHUNK + 40),
    r=st.floats(0.5, 4000.0),
    cuts=st.lists(st.integers(0, 2 * _CHUNK + 40), max_size=12),
    seed=st.integers(0, 2**31 - 1))
# one-row, empty and chunk-straddling blocks; a plan that caps rows, one that
# caps none, one of fewer nonzero scores than r, and a NaN score past the first chunk
@hypothesis.example(kind="heavy", n=_CHUNK + 5, r=900.0,
                    cuts=[1, 1, 2, _CHUNK - 1, _CHUNK + 1], seed=3)
@hypothesis.example(kind="uniform", n=_CHUNK + 5, r=900.0, cuts=[_CHUNK, _CHUNK], seed=4)
@hypothesis.example(kind="sparse", n=2 * _CHUNK, r=4000.0, cuts=[7, _CHUNK + 3], seed=5)
@hypothesis.example(kind="zero chunk", n=2 * _CHUNK + 40, r=300.0, cuts=[5, _CHUNK], seed=6)
@hypothesis.example(kind="invalid", n=2 * _CHUNK, r=300.0, cuts=[_CHUNK + 1], seed=8)
def test_stream_equals_plan_draw(kind, n, r, cuts, seed):
    _check(_scores(kind, n, seed), r, [min(c, n) for c in cuts], seed)


def test_examples_cover_each_plan():
    # the pinned examples water-fill, plan without a cap, keep every
    # nonzero score of fewer than r, and hold one NaN past the first chunk
    heavy, uniform = _scores("heavy", _CHUNK + 5, 3), _scores("uniform", _CHUNK + 5, 4)
    assert 900.0 * heavy.max() / heavy.sum() > 1.0
    assert 900.0 * uniform.max() / uniform.sum() <= 1.0
    sparse = _scores("sparse", 2 * _CHUNK, 5)
    assert 0 < np.count_nonzero(sparse) < 4000.0
    assert np.array_equal(make_plan(sparse, 4000.0).q, sparse > 0)
    assert not _scores("zero chunk", 2 * _CHUNK + 40, 6)[:_CHUNK].any()
    invalid = _scores("invalid", 2 * _CHUNK, 8)
    bad = np.flatnonzero(~(np.isfinite(invalid) & (invalid >= 0.0)))
    assert bad.size == 1 and bad[0] >= _CHUNK and np.isnan(invalid[bad[0]])


def test_memory_independent_of_rows(monkeypatch):
    # 40 chunks of heavy-tailed scores, made a block at a time and never
    # stored: the water-fill keeps at most r scores that may cap, and the
    # draw holds about r candidates and a few chunks, far below the 5.2 MB
    # of the scores
    n, r = 40 * _CHUNK, 500.0
    kept, feed = [], sampling._WaterFill.feed
    monkeypatch.setattr(sampling._WaterFill, "feed",
                        lambda fill, s: feed(fill, s) or kept.append(fill.top.size))

    def blocks():
        rng = np.random.default_rng(7)
        for lo in range(0, n, 2048):
            yield lo, lo + 2048, rng.pareto(1.5, 2048)

    sample_stream("stage", blocks(), r, 1, None)  # numpy's first-use allocations
    out, peak = traced_peak(sample_stream, "stage", blocks(), r, 1, None)
    assert len(out) > 0 and max(kept) <= r
    assert peak < 8 * 8 * _CHUNK
