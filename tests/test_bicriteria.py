import math

import numpy as np
import pytest

from conftest import planted_lowrank
from robsub import (
    LossSpec,
    const_approx,
    residual_cost,
    v_norm_p,
)
from robsub import bicriteria, sampling
from robsub.oracle import svd_truncation_cost


class TestBaseCase:
    def test_small_input_returns_rowspace(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 6))
        loss = LossSpec.lp(1.0)
        sub = const_approx(a, 2, loss, seed=0)  # P_M = 200 > 30: base case
        assert sub.dim == 6
        assert residual_cost(a, sub, None, loss) <= 1e-12 * v_norm_p(a, None, loss)
        # the R factor of A travels with the subspace: A R^-1 is orthonormal
        basis = a @ np.linalg.inv(sub.r)
        assert np.abs(basis.T @ basis - np.eye(6)).max() <= 1e-12
        # a sampled subspace spans sampled rows, so it carries no factor of A
        big = rng.standard_normal((300, 6))
        assert const_approx(big, 1, loss, seed=0).r is None  # P_M = 50 < 300

    def test_base_case_skips_right_sketch(self, monkeypatch):
        # n <= P_M: no sample reads the sketched copy, so none is made
        monkeypatch.setattr(bicriteria, "apply_right",
                            lambda *args: pytest.fail("apply_right called"))
        a = np.random.default_rng(2).standard_normal((40, 9))
        trace = {}
        sub = const_approx(a, 2, LossSpec.huber(1.0), seed=0, trace=trace)
        assert sub.dim == 9
        assert trace == {"bicriteria_rows": 40, "bicriteria_rows_expected": 40.0}

    def test_no_plan_up_to_p_m(self, monkeypatch):
        # L1 at k = 2 has P_M = 200: 200 rows are all kept with no plan made,
        # and 201 rows take one plan expecting 200 of them
        plans = _spy(monkeypatch, "make_plan", sampling)
        a = np.random.default_rng(3).standard_normal((201, 8))
        trace = {}
        sub = const_approx(a[:200], 2, LossSpec.lp(1.0), seed=0, trace=trace)
        assert plans == [] and sub.dim == 8 and sub.r is not None
        assert trace == {"bicriteria_rows": 200, "bicriteria_rows_expected": 200.0}
        const_approx(a, 2, LossSpec.lp(1.0), seed=0, trace=trace)
        assert len(plans) == 1 and abs(plans[0].expected_size - 200) <= 1e-9


class TestExactRecovery:
    def test_rank_k_input_recovered(self):
        loss = LossSpec.lp(1.0)
        hits = 0
        for seed in range(20):
            a, _ = planted_lowrank(600, 20, 3, seed=seed)
            sub = const_approx(a, 3, loss, seed=seed)
            hits += residual_cost(a, sub, None, loss) <= 1e-8 * v_norm_p(a, None, loss)
        assert hits >= 19

    def test_planted_with_outliers_within_factor(self):
        loss = LossSpec.lp(1.0)
        k_factor = 10.0 * 3  # generous poly(k) budget for the bicriteria stage
        wins = 0
        trials = 15
        for seed in range(trials):
            a, _ = planted_lowrank(500, 25, 3, seed=200 + seed, noise=0.05,
                                   outlier_frac=0.01)
            sub = const_approx(a, 3, loss, seed=seed)
            cost = residual_cost(a, sub, None, loss)
            _, svd_cost = svd_truncation_cost(a, 3, None, loss)
            wins += cost <= k_factor * svd_cost
        assert wins >= int(0.8 * trials)

    def test_k_clamped_with_warning(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 4))
        with pytest.warns(RuntimeWarning):
            sub = const_approx(a, 9, LossSpec.lp(1.0), seed=0)
        assert sub.dim <= 4


def _spy(monkeypatch, name, module=bicriteria):
    """Record every result of ``module.<name>`` while it runs as before."""
    results = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kw: results.append(real(*args, **kw)) or results[-1])
    return results


class TestRecursionMechanics:
    def test_one_plan_expects_p_m_rows(self, monkeypatch):
        # n > P_M: one scoring of A S^T and one plan, expecting P_M rows, for
        # L1 at its own P_M = 50 k^2 = 450
        scores = _spy(monkeypatch, "weighted_leverage_scores")
        plans = _spy(monkeypatch, "make_plan", sampling)
        a, _ = planted_lowrank(9000, 20, 3, seed=11, noise=0.1)
        trace = {}
        const_approx(a, 3, LossSpec.lp(1.0), seed=4, trace=trace)
        assert len(scores) == 1 and len(plans) == 1
        assert abs(plans[0].expected_size - 450) <= 1e-9
        assert trace["bicriteria_rows_expected"] == plans[0].expected_size

    def test_huber_plan_expects_set_p_m_rows(self, set_p_m, monkeypatch):
        # an M-estimator takes the same single plan: with P_M set to 100,
        # 1500 Huber rows are scored once and 100 of them are expected
        scores = _spy(monkeypatch, "weighted_leverage_scores")
        plans = _spy(monkeypatch, "make_plan", sampling)
        set_p_m(100)
        trace = {}
        const_approx(np.random.default_rng(5).standard_normal((1500, 6)), 2,
                     LossSpec.huber(1.0), seed=1, trace=trace)
        assert len(scores) == 1 and len(plans) == 1
        assert abs(plans[0].expected_size - 100) <= 1e-9
        assert trace["bicriteria_rows_expected"] == plans[0].expected_size

    def test_lp_sample_size_within_3_sigma(self, set_p_m):
        loss = LossSpec.lp(1.0)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2000, 8))
        set_p_m(100)
        devs = []
        for seed in range(30):
            trace = {}
            const_approx(a, 2, loss, seed=seed, trace=trace)
            sigma = math.sqrt(trace["bicriteria_rows_expected"]) + 1e-9
            devs.append((trace["bicriteria_rows"] - trace["bicriteria_rows_expected"]) / sigma)
        assert abs(np.mean(devs)) <= 3 / math.sqrt(len(devs))

    def test_survivors_are_original_rows(self, set_p_m, monkeypatch):
        # the drawn indices are rows of the input
        draws = _spy(monkeypatch, "draw", sampling)
        loss = LossSpec.huber(1.0)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((800, 6))
        set_p_m(50)
        trace = {}
        const_approx(a, 2, loss, seed=3, trace=trace)
        assert len(draws) == 1
        idx = draws[0].indices
        assert idx.size == trace["bicriteria_rows"]
        assert len(set(idx.tolist())) == len(idx)
        assert idx.min() >= 0 and idx.max() < 800

    def test_lp_output_spans_unscaled_rows_at_traced_indices(self, set_p_m, monkeypatch):
        # the draw carries weights 1/q, but the output is the span of the
        # input rows themselves; fewer than d rows are drawn, so the span is
        # a proper subspace
        draws = _spy(monkeypatch, "draw", sampling)
        loss = LossSpec.lp(1.0)
        a = np.random.default_rng(8).standard_normal((900, 40))
        set_p_m(25)
        sub = const_approx(a, 2, loss, seed=5)
        rows = a[draws[0].indices]
        assert 0 < rows.shape[0] == sub.dim < 40
        v = np.linalg.svd(rows, full_matrices=False)[2].T
        assert np.abs(sub.u @ sub.u.T - v @ v.T).max() <= 1e-10

    def test_oversampling_never_hurts(self, set_p_m):
        # a larger P_M (more rows expected, coupled seeds) cannot raise the
        # achievable cost of the sampled span
        loss = LossSpec.lp(1.0)
        for seed in range(5):
            a, _ = planted_lowrank(1200, 10, 2, seed=30 + seed, noise=0.2)
            set_p_m(40)
            lo = const_approx(a, 2, loss, seed=seed)
            set_p_m(80)
            hi = const_approx(a, 2, loss, seed=seed)
            # same scores and draw seed: the bigger plan keeps a superset,
            # so its span has no larger residual
            assert residual_cost(a, hi, None, loss) <= residual_cost(a, lo, None, loss) + 1e-8

    def test_output_dimension_capped(self, set_p_m):
        # the plan expects P_M rows, and their span has no more dimensions
        # than rows were drawn
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2000, 40))
        set_p_m(25)
        trace = {}
        sub = const_approx(a, 2, LossSpec.lp(1.0), seed=0, trace=trace)
        assert abs(trace["bicriteria_rows_expected"] - 25) <= 1e-9
        assert sub.dim <= trace["bicriteria_rows"]
