import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import planted_lowrank, traced_peak
from robsub import (
    LossSpec,
    const_approx,
    residual_cost,
    v_norm_p,
)
from oracles import eager_bicriteria_rows
from robsub import bicriteria, sampling, sketch
from robsub.oracle import svd_truncation_cost


class TestBaseCase:
    def test_small_input_returns_rowspace(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 6))
        loss = LossSpec.lp(1.0)
        sub = const_approx(a, 2, loss, seed=0)  # P_M = 200 > 30: base case
        assert sub.dim == 6
        assert residual_cost(a, sub, None, loss) <= 1e-12 * v_norm_p(a, None, loss)
        # A's singular values travel with the subspace: A U / sv is orthonormal
        basis = a @ sub.u / sub.sv
        assert np.abs(basis.T @ basis - np.eye(6)).max() <= 1e-12
        # so do those of more rows than P_M = 50, when d <= P_M
        tall = const_approx(rng.standard_normal((300, 6)), 1, loss, seed=0)
        assert tall.dim == 6 and tall.sv is not None
        # a sampled subspace spans sampled rows, so it carries no factor of A
        wide = rng.standard_normal((300, 60))
        assert const_approx(wide, 1, loss, seed=0).sv is None  # P_M = 50 < 60

    def test_base_case_skips_right_sketch(self, monkeypatch):
        # min(n, d) <= P_M: no sample reads the sketched operand, so no product
        # with the right sketch is taken.  Every one reads S^T from
        # right_operator: the computed part A S^T is built on it, and
        # apply_right calls it too
        def product(*args):
            pytest.fail("a right-sketch product was computed")

        monkeypatch.setattr(sketch, "apply_right", product)
        monkeypatch.setattr(sketch.SparseSketch, "right_operator", product)
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40, 9))
        trace = {}
        sub = const_approx(a, 2, LossSpec.huber(1.0), seed=0, trace=trace)
        assert sub.dim == 9
        assert trace == {"bicriteria_rows": 40, "bicriteria_rows_expected": 40.0}
        # 300 L1 rows, past P_M = 200, are kept whole too while d = 9 <= P_M
        assert const_approx(rng.standard_normal((300, 9)), 2, LossSpec.lp(1.0), seed=0).dim == 9
        # past P_M = 200 in both rows and columns the same patches trip
        with pytest.raises(pytest.fail.Exception, match="right-sketch product"):
            const_approx(rng.standard_normal((300, 250)), 2, LossSpec.lp(1.0), seed=0)

    def test_no_plan_up_to_p_m(self, monkeypatch):
        # L1 at k = 2 has P_M = 200: 200 rows 250 wide are all kept with no
        # sample drawn, and 201 rows take one sample expecting 200 of them
        plans = _spy(monkeypatch, "sample_stream", sampling)
        a = np.random.default_rng(3).standard_normal((201, 250))
        trace = {}
        sub = const_approx(a[:200], 2, LossSpec.lp(1.0), seed=0, trace=trace)
        assert plans == [] and sub.dim == 200 and sub.sv is not None
        assert trace == {"bicriteria_rows": 200, "bicriteria_rows_expected": 200.0}
        const_approx(a, 2, LossSpec.lp(1.0), seed=0, trace=trace)
        assert len(plans) == 1 and abs(plans[0].expected - 200) <= 1e-9


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
        # n, d > P_M: one scoring of A S^T and one sample, expecting P_M rows,
        # for L1 at its own P_M = 50 k^2 = 50 at k = 1
        scores = _spy(monkeypatch, "leverage_score_blocks")
        plans = _spy(monkeypatch, "sample_stream", sampling)
        a, _ = planted_lowrank(9000, 60, 1, seed=11, noise=0.1)
        trace = {}
        const_approx(a, 1, LossSpec.lp(1.0), seed=4, trace=trace)
        assert len(scores) == 1 and len(plans) == 1
        assert abs(plans[0].expected - 50) <= 1e-9
        assert trace["bicriteria_rows_expected"] == plans[0].expected

    def test_huber_plan_expects_set_p_m_rows(self, set_p_m, monkeypatch):
        # an M-estimator takes the same single sample: with P_M set to 100,
        # 1500 Huber rows 120 wide are scored once and 100 of them are expected
        scores = _spy(monkeypatch, "leverage_score_blocks")
        plans = _spy(monkeypatch, "sample_stream", sampling)
        set_p_m(100)
        trace = {}
        const_approx(np.random.default_rng(5).standard_normal((1500, 120)), 2,
                     LossSpec.huber(1.0), seed=1, trace=trace)
        assert len(scores) == 1 and len(plans) == 1
        assert abs(plans[0].expected - 100) <= 1e-9
        assert trace["bicriteria_rows_expected"] == plans[0].expected

    def test_square_sketch_scores_a_itself(self, set_p_m, monkeypatch):
        # L1 at k = 1 sketches to m = min(40, d) columns; at d = 30 that is d,
        # and A itself is scored, with no sketch made
        def product(*args, **kw):
            pytest.fail("a right sketch was made")

        monkeypatch.setattr(bicriteria, "make_sparse_sketch", product)
        scored, real = [], bicriteria.leverage_score_blocks
        monkeypatch.setattr(bicriteria, "leverage_score_blocks",
                            lambda t, *args, **kw: scored.append(t) or real(t, *args, **kw))
        a = np.random.default_rng(6).standard_normal((500, 30))
        set_p_m(20)
        trace = {}
        sub = const_approx(a, 1, LossSpec.lp(1.0), seed=2, trace=trace)
        assert len(scored) == 1 and scored[0] is a
        assert abs(trace["bicriteria_rows_expected"] - 20) <= 1e-9
        assert sub.sv is None and 0 < sub.dim <= trace["bicriteria_rows"]

    def test_lp_sample_size_within_3_sigma(self, set_p_m):
        loss = LossSpec.lp(1.0)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2000, 120))
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
        draws = _spy(monkeypatch, "sample_stream", sampling)
        loss = LossSpec.huber(1.0)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((800, 60))
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
        draws = _spy(monkeypatch, "sample_stream", sampling)
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
            a, _ = planted_lowrank(1200, 100, 2, seed=30 + seed, noise=0.2)
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


class TestComputedRightSketch:
    @pytest.mark.parametrize("n", [6000, 10000], ids=["no-pstable", "pstable"])
    def test_eager_rows_drawn_below_half_the_sketch(self, monkeypatch, n):
        # L1 at k = 3 sketches 600 CSR columns to m = 360.  A S^T is read one
        # block at a time and never formed, and the rows drawn are those drawn
        # from the formed product.  Past 8192 rows, the p-stable row cap, the
        # basis is conditioned by Pi applied to A, not to A S^T
        a = sp.random(n, 600, density=0.02, format="csr", random_state=n)
        loss = LossSpec.lp(1.0)
        want = eager_bicriteria_rows(a, 3, loss, seed=1)
        const_approx(a, 3, loss, seed=1)  # the modules imported on first use
        draws = _spy(monkeypatch, "sample_stream", sampling)
        sketched, apply = [], sketch.PStableSketch.apply
        monkeypatch.setattr(sketch.PStableSketch, "apply",
                            lambda pi, b: sketched.append(b.shape) or apply(pi, b))
        _, peak = traced_peak(const_approx, a, 3, loss, seed=1)
        assert len(draws) == 1 and np.array_equal(draws[0].indices, want)
        assert sketched == ([(n, 360)] if n > 8192 else [])
        assert peak < n * 360 * 8 / 2
