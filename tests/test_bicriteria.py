import math

import numpy as np
import pytest

from conftest import planted_lowrank
from robsub import (
    LossSpec,
    const_approx,
    const_approx_recur,
    residual_cost,
    v_norm_p,
)
from robsub import bicriteria
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

    def test_recur_base_returns_every_index(self):
        rng = np.random.default_rng(1)
        a_proj = rng.standard_normal((10, 4))
        idx = const_approx_recur(a_proj, np.ones(10), LossSpec.lp(1.0),
                                 seed=0, p_m=50, max_depth=10)
        assert np.array_equal(idx, np.arange(10))

    def test_base_case_skips_right_sketch(self, monkeypatch):
        # n <= P_M: no round reads the sketched copy, so none is made
        monkeypatch.setattr(bicriteria, "apply_right",
                            lambda *args: pytest.fail("apply_right called"))
        a = np.random.default_rng(2).standard_normal((40, 9))
        trace = []
        sub = const_approx(a, 2, LossSpec.huber(1.0), seed=0, trace=trace)
        assert sub.dim == 9
        assert len(trace) == 1
        entry = trace[0]
        assert (entry["depth"], entry["n"], entry["base_case"]) == (0, 40, True)
        assert np.array_equal(entry["indices"], np.arange(40))


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


class TestRecursionMechanics:
    def test_rows_shrink_geometrically(self, set_p_m):
        loss = LossSpec.lp(1.0)
        trace = []
        a, _ = planted_lowrank(4000, 10, 2, seed=3, noise=0.1)
        set_p_m(100)
        const_approx(a, 2, loss, seed=1, trace=trace)
        ns = [t["n"] for t in trace]
        for prev, nxt in zip(ns, ns[1:]):
            assert nxt <= max(0.9 * prev, 100)

    def test_lp_sample_size_within_3_sigma(self, set_p_m):
        loss = LossSpec.lp(1.0)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2000, 8))
        set_p_m(100)
        devs = []
        for seed in range(30):
            trace = []
            const_approx(a, 2, loss, seed=seed, trace=trace)
            lvl = trace[0]
            if not lvl["base_case"]:
                sigma = math.sqrt(lvl["expected"]) + 1e-9
                devs.append((lvl["realized"] - lvl["expected"]) / sigma)
        assert abs(np.mean(devs)) <= 3 / math.sqrt(len(devs))

    def test_m2_reweights_unbiased(self, set_p_m):
        # E ||w'||_1 = ||w||_1 over draws at the first level
        loss = LossSpec.huber(1.0)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((1500, 6))
        set_p_m(100)
        w1 = []
        for seed in range(60):
            trace = []
            const_approx(a, 2, loss, seed=seed, trace=trace)
            lvl = trace[0]
            assert not lvl["base_case"]
            w1.append(lvl["w1_next"])
        se = np.std(w1) / math.sqrt(len(w1))
        assert abs(np.mean(w1) - 1500.0) <= 3 * se

    def test_m2_weight_growth_bounded(self, set_p_m):
        # after c levels ||w||_inf stays below n (log n)^c almost always
        loss = LossSpec.huber(1.0)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3000, 5))
        set_p_m(60)
        ok = 0
        trials = 20
        for seed in range(trials):
            trace = []
            const_approx(a, 2, loss, seed=seed, trace=trace)
            levels = [t for t in trace if not t["base_case"]]
            n, c = 3000, len(levels)
            bound = n * math.log(n) ** max(c, 1)
            ok += all(t["w1_next"] <= bound for t in levels)
        assert ok >= int(0.95 * trials)

    def test_survivors_are_original_rows(self, set_p_m):
        # base-case indices trace back to rows of the input
        loss = LossSpec.huber(1.0)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((800, 6))
        set_p_m(50)
        trace = []
        const_approx(a, 2, loss, seed=3, trace=trace)
        base = trace[-1]
        assert base["base_case"]
        idx = base["indices"]
        assert len(set(idx.tolist())) == len(idx)
        assert idx.min() >= 0 and idx.max() < 800

    def test_lp_output_spans_unscaled_rows_at_traced_indices(self, set_p_m):
        # the rounds rescale the rows they score, but the output is the span
        # of the input rows themselves; fewer than d rows survive, so the
        # span is a proper subspace
        loss = LossSpec.lp(1.0)
        a = np.random.default_rng(8).standard_normal((900, 40))
        trace = []
        set_p_m(25)
        sub = const_approx(a, 2, loss, seed=5, trace=trace)
        assert trace[0]["base_case"] is False and trace[-1]["base_case"]
        rows = a[trace[-1]["indices"]]
        assert 0 < rows.shape[0] == sub.dim < 40
        v = np.linalg.svd(rows, full_matrices=False)[2].T
        assert np.abs(sub.u @ sub.u.T - v @ v.T).max() <= 1e-10

    def test_oversampling_never_hurts(self, set_p_m, monkeypatch):
        # larger shrink cap (more rows kept, coupled seeds) cannot raise the
        # achievable cost of the surviving span
        loss = LossSpec.lp(1.0)
        set_p_m(80)
        for seed in range(5):
            a, _ = planted_lowrank(1200, 10, 2, seed=30 + seed, noise=0.2)
            monkeypatch.setattr(bicriteria, "_SHRINK", 0.3)
            lo = const_approx(a, 2, loss, seed=seed)
            monkeypatch.setattr(bicriteria, "_SHRINK", 0.6)
            hi = const_approx(a, 2, loss, seed=seed)
            # same seed stream: the bigger plan keeps a superset at level one,
            # so its span has no larger residual
            assert residual_cost(a, hi, None, loss) <= residual_cost(a, lo, None, loss) + 1e-8

    def test_depth_exceeded_raises(self):
        # one round allowed, and it cannot shrink 500 rows to p_m = 1
        a = np.random.default_rng(10).standard_normal((500, 6))
        with pytest.raises(RuntimeError):
            const_approx_recur(a[:, :3], np.ones(500), LossSpec.lp(1.0),
                               seed=0, p_m=1, max_depth=0)

    def test_output_dimension_capped(self, set_p_m):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2000, 40))
        set_p_m(25)
        sub = const_approx(a, 2, LossSpec.lp(1.0), seed=0)
        assert sub.dim <= 25
