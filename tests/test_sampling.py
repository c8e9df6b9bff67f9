import math

import numpy as np
import pytest

from conftest import sample_size_subspace
from robsub import (
    LossSpec,
    SamplingPlan,
    draw,
    make_plan,
    v_norm_p,
    weighted_leverage_scores,
)
from robsub.core import spawn_rng


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
        bigger = SamplingPlan(np.minimum(1.0, 3.0 * plan.q))
        d1 = draw(plan, seed=11)
        d2 = draw(bigger, seed=11)
        assert set(d1.indices).issubset(set(d2.indices))


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

