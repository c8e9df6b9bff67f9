import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import sample_size_subspace
from oracles import draw_all_at_once, water_fill_full_sort
from robsub import (
    LossSpec,
    SamplingPlan,
    approx_lp,
    approx_m2,
    draw,
    irls_solve,
    m_regress,
    make_plan,
    residual_cost,
    sampling,
    v_norm_p,
    weighted_leverage_scores,
)
from robsub.core import _CHUNK, spawn_rng


class TestMakePlan:
    def test_uniform_scores(self):
        plan = make_plan(np.ones(10), r=5.0)
        assert np.allclose(plan.q, 0.5)
        assert plan.expected_size == pytest.approx(5.0)

    def test_dominant_score_clipped(self):
        scores = np.ones(10)
        scores[0] = 10.0
        plan = make_plan(scores, r=5.0)
        assert plan.q[0] == 1.0
        assert np.all(plan.q[1:] < 1.0)

    def test_all_zero_scores_rejected(self):
        with pytest.raises(ValueError):
            make_plan(np.zeros(4), r=1.0)

    def test_expected_size_bound(self):
        rng = np.random.default_rng(0)
        scores = rng.random(100)
        plan = make_plan(scores, r=40.0)
        n_certain = int(np.sum(plan.q == 1.0))
        assert plan.expected_size <= 40.0 + n_certain

    def test_capped_mass_handed_on(self):
        # heavy-tailed scores cap many rows; the plan still expects its
        # target, and no probability falls below the unfilled plan's
        rng = np.random.default_rng(6)
        for _ in range(50):
            scores = rng.pareto(0.7, 300) * (rng.random(300) < 0.8)
            nnz = np.count_nonzero(scores)
            t = float(rng.uniform(1.0, nnz))
            plan = make_plan(scores, r=t)
            unfilled = np.minimum(1.0, t * scores / scores.sum())
            unfilled[unfilled < 1e-12] = 0.0
            assert plan.expected_size == pytest.approx(t, abs=1e-9)
            assert np.all(plan.q >= unfilled)

    def test_target_above_support_keeps_every_row(self):
        scores = np.array([5.0, 0.0, 1.0, 2.0, 0.0])
        plan = make_plan(scores, r=4.0)
        assert np.array_equal(plan.q, [1.0, 0.0, 1.0, 1.0, 0.0])

    def test_tiny_probabilities_zeroed(self):
        scores = np.array([1.0, 1e-20])
        plan = make_plan(scores, r=1.0)
        assert plan.q[1] == 0.0

    @staticmethod
    def _water_fill_cases():
        """(name, scores, r) for the partial water-fill against the full sort."""
        rng = np.random.default_rng(23)
        heavy = rng.pareto(0.5, 20000)
        yield "many capped rows", heavy, 2000.0
        ties = np.ones(5000)
        ties[:300] = 40.0  # 300 tied scores, all capped
        ties[300:400] = 3.0  # 100 more that capping the first 300 caps too
        yield "ties at the cap", ties, 2000.0
        yield "r >= nnz", rng.random(300) * (rng.random(300) < 0.5), 400.0
        dominant = rng.random(10000)
        dominant[4321] = 1e9
        yield "one dominant score", dominant, 50.0
        zeros = rng.exponential(size=8000) ** 4 * (rng.random(8000) < 0.3)
        yield "zero scores", zeros, 900.0

    def test_partial_water_fill_matches_full_sort(self):
        for name, scores, r in self._water_fill_cases():
            plan = make_plan(scores, r)
            ref = water_fill_full_sort(scores, r)
            assert np.max(r * scores / scores.sum()) > 1.0, name  # the water-fill runs
            assert np.allclose(plan.q, ref, rtol=1e-12, atol=0.0), name
            target = min(r, np.count_nonzero(scores))
            assert plan.expected_size == pytest.approx(target, abs=1e-9), name

    def test_realized_size_matches_expectation(self):
        rng = np.random.default_rng(1)
        plan = make_plan(rng.random(500), r=60.0)
        sizes = [len(draw(plan, seed=s)) for s in range(2000)]
        mu = plan.expected_size
        sigma = math.sqrt(float(np.sum(plan.q * (1 - plan.q))))
        assert abs(np.mean(sizes) - mu) <= 3 * sigma / math.sqrt(2000)


class TestDraw:
    def test_certain_inclusion(self):
        plan = make_plan(np.ones(6), r=6.0)
        d = draw(plan, seed=0)
        assert np.array_equal(d.indices, np.arange(6))
        assert np.allclose(d.reweights, 1.0)

    def test_empty_draw_legal(self):
        # after flooring, every probability is zero: the draw is empty
        plan = make_plan(np.array([1.0, 1e-20, 1e-20]), r=1e-13)
        assert np.all(plan.q == 0.0)
        d = draw(plan, seed=0)
        assert len(d) == 0

    def test_indices_sorted_unique(self):
        plan = make_plan(np.random.default_rng(2).random(50), r=20.0)
        d = draw(plan, seed=3)
        assert np.all(np.diff(d.indices) > 0)

    def test_unbiased_vnorm_estimate(self):
        # mean reweighted v-measure over draws matches the truth within 2%
        rng = np.random.default_rng(4)
        a = rng.standard_normal((100, 5))
        loss = LossSpec.lp(1.0)
        truth = v_norm_p(a, None, loss)
        scores = np.linalg.norm(a, axis=1)
        plan = make_plan(scores, r=25.0)
        acc = []
        for s in range(2000):
            d = draw(plan, seed=s)
            rows = np.linalg.norm(a[d.indices], axis=1)
            acc.append(float(np.dot(d.reweights, rows)))
        assert np.mean(acc) == pytest.approx(truth, rel=0.02)

    def test_superset_under_inflation(self):
        # same seed, inflated probabilities: the draw can only grow
        rng = np.random.default_rng(5)
        plan = make_plan(rng.random(200), r=30.0)
        bigger = SamplingPlan(np.minimum(1.0, 3.0 * plan.q), 1.0, 1.0)
        d1 = draw(plan, seed=11)
        d2 = draw(bigger, seed=11)
        assert set(d1.indices).issubset(set(d2.indices))


class TestChunkedDraw:
    """A plan forms q, and its draw the uniforms, a chunk at a time, on the
    stream that one call for all n uniforms gives: the draw is that call's."""

    @staticmethod
    def _plans(n):
        """(name, plan) of plain, water-filled and floored plans of n rows."""
        rng = np.random.default_rng(n)
        scores = rng.random(n)
        yield "plain", make_plan(scores, r=0.3 * n)
        heavy = rng.pareto(0.5, n)
        r = max(0.3 * n, 2.0)
        assert r * heavy.max() / heavy.sum() > 1.0  # the water-fill runs
        yield "water-filled", make_plan(heavy, r=r)
        tiny = 0.5 * scores
        tiny[::3] = 1e-13
        plan = SamplingPlan(tiny, 1.0, 1.0)
        assert not plan.q[::3].any() and plan.q[1::3].all()
        yield "floored", plan

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_draw_equals_one_stream_of_n_uniforms(self, n):
        for name, plan in self._plans(n):
            assert plan.q.size == n
            for seed in (0, 17):
                idx, q_sel = draw_all_at_once(plan.q, seed)
                got = draw(plan, seed=seed)
                assert np.array_equal(got.indices, idx), name
                assert np.array_equal(got.q_sel, q_sel), name
                assert got.indices.dtype == np.intp, name
            # the chunks' sum rounds apart from one sum of all q
            assert plan.expected_size == pytest.approx(plan.q.sum(), rel=1e-12), name

    def test_no_rows_draw_nothing(self):
        plan = SamplingPlan(np.zeros(0), 1.0, 1.0)
        got = draw(plan, seed=3)
        assert got.indices.size == got.q_sel.size == 0 and got.indices.dtype == np.intp
        assert plan.expected_size == 0.0

    def test_plan_keeps_the_scores_not_a_copy(self):
        scores = np.random.default_rng(3).random(100)
        assert make_plan(scores, r=10.0).scores is scores


class TestSampleStep:
    @staticmethod
    def _stream(scores, *args):
        return sampling.sample_stream("stage", [(0, scores.size, scores)], *args)

    def test_sample_is_one_plan_and_one_draw(self):
        # the stream draws what one plan and one draw of the finished scores draw,
        # and records min{r, nnz} expected rows
        scores = np.random.default_rng(8).random(300)
        trace = {}
        out = self._stream(scores, 40.0, 9, trace)
        plan = make_plan(scores, 40.0)
        ref = draw(plan, seed=9)
        assert np.array_equal(out.indices, ref.indices)
        assert np.array_equal(out.q_sel, ref.q_sel)
        assert trace == {"stage_rows": len(ref), "stage_rows_expected": 40.0}
        assert plan.expected_size == pytest.approx(40.0, rel=1e-12)

    def test_all_zero_scores_draw_nothing(self):
        # the empty draw expects min{r, nnz} = 0 rows
        trace = {}
        out = self._stream(np.zeros(50), 10.0, 0, trace)
        assert len(out) == 0 and out.reweights.size == 0
        assert trace == {"stage_rows": 0, "stage_rows_expected": 0.0}
        assert self._stream(np.zeros(50), 10.0, 0, None).indices.size == 0

    def test_invalid_scores_still_rejected(self):
        for bad in (np.array([1.0, np.nan]), np.array([1.0, -1.0]), np.array([np.inf, 1.0])):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                self._stream(bad, 1.0, 0, {})

    def test_record_writes_rows_and_float_expectation(self):
        trace = {}
        sampling.record("stage", 12, 12, trace)
        assert trace == {"stage_rows": 12, "stage_rows_expected": 12.0}
        assert type(trace["stage_rows_expected"]) is float
        sampling.record("stage", 12, 12, None)


# the function that calls sampling.sample_stream -> the stage it records
_STAGES = {"const_approx": "bicriteria", "dim_reduce": "dimreduce", "_final_sample": "t",
           "m_regress": "base"}


class TestOneRecordWriter:
    @pytest.fixture
    def draws(self, monkeypatch):
        """(stage, expected rows, draw) of every sample, the stage read from its caller,
        and the expected rows the stream's water-fill target min{r, nnz}."""
        out, real_stream = [], sampling.sample_stream

        def spy_stream(stage, blocks, target, *args):
            assert stage == _STAGES[sys._getframe(1).f_code.co_name]
            nnz = []  # the nonzero scores of each block, counted as it passes
            drawn = real_stream(stage, (nnz.append(np.count_nonzero(block[2])) or block
                                        for block in blocks), target, *args)
            out.append((stage, min(target, sum(nnz)), drawn))
            return drawn

        monkeypatch.setattr(sampling, "sample_stream", spy_stream)
        return out

    @staticmethod
    def _check(draws, trace, stages):
        assert [stage for stage, _, _ in draws] == stages
        for stage, expected, sample in draws:
            assert trace[f"{stage}_rows"] == len(sample)
            assert trace[f"{stage}_rows_expected"] == expected

    def test_approx_lp_stages(self, draws):
        # 600 x 200 at L1, k = 1 (P_M = 50 < d): each of the three stages draws
        a = np.random.default_rng(0).standard_normal((600, 200))
        trace = {}
        approx_lp(a, 1, 0.25, LossSpec.lp(1.0), seed=1, trace=trace)
        self._check(draws, trace, ["bicriteria", "dimreduce", "t"])

    def test_approx_m2_stages(self, draws, set_p_m):
        a = np.random.default_rng(1).standard_normal((600, 200))
        set_p_m(100)
        trace = {}
        approx_m2(a, 2, 0.25, LossSpec.huber(1.0), seed=1, trace=trace)
        self._check(draws, trace, ["bicriteria", "dimreduce", "t"])

    def test_m_regress_stage(self, draws):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5000, 5))
        trace = {}
        m_regress(a, a @ rng.standard_normal(5), LossSpec.huber(1.0), base_cap=200, seed=1,
                  trace=trace)
        self._check(draws, trace, ["base"])
        assert trace["levels"] == 1


class TestAllZeroInput:
    """All-zero scores draw no row: the fits return where make_plan would raise."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("fit, loss", [
        (approx_lp, LossSpec.lp(1.0)), (approx_lp, LossSpec.lp(1.5)),
        (approx_m2, LossSpec.huber(1.0))], ids=["l1", "p1.5", "huber"])
    def test_pipelines_return_padded_subspace(self, fit, loss, sparse, set_p_m):
        # n = 500 and d = 250 are above P_M (200 at p < 2, set to 100 at p = 2),
        # so the bicriteria stage scores the zero rows and draws none
        a = sp.csr_matrix((500, 250)) if sparse else np.zeros((500, 250))
        if loss.is_m2:
            set_p_m(100)
        trace = {}
        sub = fit(a, 2, 0.25, loss, seed=1, trace=trace)
        assert sub.dim == 2 and np.allclose(sub.u.T @ sub.u, np.eye(2))
        assert residual_cost(a, sub, None, loss) == 0.0
        assert trace["bicriteria_rows"] == 0 and trace["bicriteria_rows_expected"] == 0.0
        assert trace["bicriteria_dim"] == 0

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_m_regress_falls_back_to_irls(self, sparse):
        a = sp.csr_matrix((5000, 5)) if sparse else np.zeros((5000, 5))
        b = np.zeros(5000)
        loss = LossSpec.huber(1.0)
        trace = {}
        x = m_regress(a, b, loss, base_cap=50, seed=1, trace=trace)
        assert np.array_equal(x, irls_solve(a, b, None, loss)) and not x.any()
        assert trace == {"levels": 0, "base_rows": 5000, "base_rows_expected": 5000.0}


class TestSampleSize:
    def test_unit_arguments(self):
        val = sample_size_subspace(1, 1.0, math.exp(-1), 1.0, c=8.0)
        assert val == pytest.approx(8.0, rel=1e-6)

    def test_linear_in_z(self):
        a = sample_size_subspace(2, 0.5, 0.1, 3.0)
        b = sample_size_subspace(4, 0.5, 0.1, 3.0)
        assert b == pytest.approx(2 * a)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_size_subspace(0, 0.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            sample_size_subspace(1, -0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            sample_size_subspace(1, 0.5, 1.5, 1.0)


class TestGaussianScorePlan:
    def test_lp_scores_proportional_to_row_norms(self):
        # E|U_i g| = sqrt(2/pi) ||U_i||: Monte Carlo over seeds to 3%
        rng = np.random.default_rng(6)
        u = rng.standard_normal((40, 6))
        acc = np.zeros(40)
        reps = 30000
        for s in range(reps):
            g = spawn_rng(s, 41).standard_normal((6, 1))
            acc += np.abs(u @ g).ravel()
        ratio = (acc / reps) / np.linalg.norm(u, axis=1)
        expect = math.sqrt(2 / math.pi)
        assert np.max(np.abs(ratio / expect - 1.0)) < 0.03

    def test_m2_norm_floor_with_large_t(self):
        # with t a generous O(log n) multiple the Gaussian-estimated scores
        # stay above the exact scores / n^kappa on every row, on at least
        # 99% of seeds; d exceeds t, so the scores are estimated
        rng = np.random.default_rng(7)
        n, d, kappa = 1000, 150, 0.1
        u = rng.standard_normal((n, d))
        loss = LossSpec.huber(1.0)
        floor = weighted_leverage_scores(u, loss).gamma / n**kappa
        t = 14 * int(math.log2(n))  # 140 columns
        fails = 0
        for s in range(100):
            est = weighted_leverage_scores(u, loss, seed=s, gauss_t=t).gamma
            fails += np.any(est < floor)
        assert fails <= 1


class TestConcentration:
    def test_reweighted_costs_concentrate(self):
        # below saturation, leverage sampling keeps ||S A W||_v within 20%
        # of ||A W||_v on the vast majority of draws
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2000, 30))
        wmat = rng.standard_normal((30, 3))
        loss = LossSpec.lp(1.0)
        scores = weighted_leverage_scores(a, loss, seed=1)
        truth = v_norm_p(a @ wmat, None, loss)
        # r chosen for an expected sample of ~400 rows: genuinely sub-saturated
        plan = make_plan(scores.gamma, r=400.0)
        good = 0
        for s in range(200):
            d = draw(plan, seed=s)
            est = float(np.dot(d.reweights,
                               np.linalg.norm(a[d.indices] @ wmat, axis=1)))
            good += abs(est - truth) <= 0.2 * truth
        assert good >= 170  # 85%

