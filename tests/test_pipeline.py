import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import best_rank_k_in_subspace, planted_lowrank
from oracles import final_sample_of_exact_columns, small_problem_cost, small_problem_grid
from robsub import (
    LossSpec,
    Subspace,
    const_approx,
    residual_cost,
    v_norm_p,
    weighted_leverage_scores,
)
from robsub import bicriteria, conditioning, pipeline, sampling, sketch
from robsub.core import RowView, matmul_dense
from robsub.oracle import svd_truncation_cost
from robsub.pipeline import (
    CapExceededError,
    SmallProblem,
    approx_lp,
    approx_m2,
    small_approx,
)


def _workloads(monkeypatch):
    """The benchmark's input generators, perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def _random_problem(seed, m_prime=12, m=8, k=2):
    # the exact columns [X r] of m_prime kept rows, r != 0
    rng = np.random.default_rng(seed)
    return SmallProblem(rng.standard_normal((m_prime, m + 1)), None, k)


def _outliers_recipe():
    """The CI's outliers.mtx: 9000 sparse rank-3 CSR rows by 300 and 100 sparse outlier rows."""
    rng = np.random.default_rng(1)
    v = sp.random(3, 300, density=0.05, random_state=rng)
    return sp.vstack([sp.csr_matrix(rng.standard_normal((9000, 3)) @ v),
                      30.0 * sp.random(100, 300, density=0.05, random_state=rng)]).tocsr()


class TestSmallProblem:
    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SmallProblem(rng.standard_normal(5), None, 1)
        with pytest.raises(ValueError):
            SmallProblem(rng.standard_normal((4, 1)), None, 1)
        with pytest.raises(ValueError):
            SmallProblem(rng.standard_normal((4, 5)), None, 5)
        with pytest.raises(ValueError):
            SmallProblem(rng.standard_normal((4, 5)), np.ones(3), 1)

    def test_cost_matches_direct(self):
        prob = _random_problem(1)
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        loss = LossSpec.lp(1.0)
        x, r = prob.cols[:, :-1], prob.cols[:, -1]
        direct = np.linalg.norm(np.hstack([x @ q @ q.T - x, r[:, None]]), axis=1).sum()
        assert small_problem_cost(prob, q, loss) == pytest.approx(direct)
        assert prob.domain_dim == 8 and prob.max_side() == 12


class TestSmallApprox:
    def test_planted_projector_recovered(self):
        # rows of X inside a planted rank-2 span, r = 0: the optimum costs 0
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 8))
        w0, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        prob = SmallProblem(np.hstack([x @ w0 @ w0.T, np.zeros((20, 1))]), None, 2)
        w = small_approx(prob, LossSpec.lp(1.0), seed=0)
        assert small_problem_cost(prob, w, LossSpec.lp(1.0)) <= 1e-8

    def test_full_rank_is_identity(self):
        prob = _random_problem(4, k=8)
        w = small_approx(prob, LossSpec.lp(1.0), seed=0)
        assert np.allclose(w @ w.T, np.eye(8))
        # only the residual column is left: the cost is sum M(|r_i|)
        assert (small_problem_cost(prob, w, LossSpec.lp(1.0))
                == pytest.approx(np.abs(prob.cols[:, -1]).sum()))

    def test_local_search_vs_exhaustive(self):
        loss = LossSpec.lp(1.0)
        ok = 0
        for seed in range(20):
            prob = _random_problem(seed, m_prime=8, m=8, k=2)
            wl = small_approx(prob, loss, seed=seed)
            we = small_problem_grid(prob, loss, seed=seed, budget=2000)
            ok += (small_problem_cost(prob, wl, loss)
                   <= 1.05 * small_problem_cost(prob, we, loss))
        assert ok == 20

    def test_orthonormal_output(self):
        for seed in range(5):
            prob = _random_problem(seed)
            w = small_approx(prob, LossSpec.huber(1.0), seed=seed)
            assert np.abs(w.T @ w - np.eye(2)).max() <= 1e-10

    def test_deterministic(self):
        prob = _random_problem(7)
        w1 = small_approx(prob, LossSpec.lp(1.0), seed=3)
        w2 = small_approx(prob, LossSpec.lp(1.0), seed=3)
        assert np.array_equal(w1, w2)

    def test_cap_enforced(self, monkeypatch):
        # the cap bounds the width [X r] = m + 1, known once the residual-
        # sampled subspace is: at d = 30 that subspace is all of R^30, so
        # [X r] is 31 wide, and the fit raises before it forms [A U, r],
        # factors it or draws the final sample; a final sample of more
        # than 40 rows under a cap of 40 does not raise
        a, _ = planted_lowrank(310, 30, 2, seed=8, noise=0.1)
        calls, real = [], pipeline._final_sample
        monkeypatch.setattr(pipeline, "_final_sample",
                            lambda *args: calls.append(1) or real(*args))
        with pytest.raises(CapExceededError, match="side 31 > cap 20"):
            approx_lp(a, 2, 0.25, LossSpec.lp(1.0), small_cap=20, seed=0)
        assert calls == []
        trace = {}
        approx_lp(a, 2, 0.25, LossSpec.lp(1.0), small_cap=40, seed=0,
                  trace=trace)
        assert calls == [1] and trace["reduced_dim"] == 30 and trace["t_rows"] > 40

    def test_t_rows_near_cap_never_raises(self, monkeypatch):
        # a final sample of 390 expected rows under the default cap of 400:
        # it overshoots by about sqrt(390) rows, past the cap, but the
        # problem is d + 1 = 21 wide, so no fit of either pipeline raises
        a, _ = planted_lowrank(3000, 20, 3, seed=0, noise=0.1, outlier_frac=0.01)
        monkeypatch.setattr(pipeline, "_T_ROWS", 390)
        for fit, loss in ((approx_m2, LossSpec.huber(1.0)), (approx_lp, LossSpec.lp(1.0))):
            rows = []
            for seed in range(10):
                tr = {}
                fit(a, 3, 0.25, loss, seed=seed, trace=tr)
                rows.append(tr["t_rows"])
            assert max(rows) > 400

    def test_exhaustive_domain_limit(self):
        prob = _random_problem(9, m=14, m_prime=20, k=2)
        with pytest.raises(ValueError):
            small_problem_grid(prob, LossSpec.lp(1.0))

    @staticmethod
    def _spy_descents(monkeypatch):
        """The (factor, cost) of every ``_mm_descent`` call, in call order."""
        results, real = [], pipeline._mm_descent
        monkeypatch.setattr(pipeline, "_mm_descent",
                            lambda *args: results.append(real(*args)) or results[-1])
        return results

    def test_descends_from_every_start(self, monkeypatch):
        # the factor returned is, bit for bit, the best start's
        results = self._spy_descents(monkeypatch)
        w = small_approx(_random_problem(11), LossSpec.lp(1.0), seed=0)
        assert len(results) == 5
        assert np.array_equal(w, min(results, key=lambda r: r[1])[0])

    @pytest.mark.parametrize("m", [4, 20, 200])
    @pytest.mark.parametrize("k", [1, 3, "m-1"])
    def test_bottom_eigenvectors_match_eigh(self, m, k):
        k = m - 1 if k == "m-1" else k
        g = np.random.default_rng(m * 7 + k).standard_normal((m, m))
        h = g + g.T
        vecs = pipeline._bottom_eigenvectors(h, k)
        ref = np.linalg.eigh(h)[1][:, :k]
        assert vecs.shape == (m, k)
        assert np.abs(vecs @ vecs.T - ref @ ref.T).max() <= 1e-10

    def test_bottom_eigenvectors_failure_raises(self, monkeypatch):
        from scipy.linalg import lapack
        monkeypatch.setattr(lapack, "dsyevr", lambda *args, **kwargs: (None, None, 0, None, 2))
        with pytest.raises(np.linalg.LinAlgError, match="dsyevr"):
            pipeline._bottom_eigenvectors(np.eye(4), 2)

    def test_full_rank_runs_no_search(self, monkeypatch):
        results = self._spy_descents(monkeypatch)
        w = small_approx(_random_problem(12, k=8), LossSpec.lp(1.0), seed=0)
        assert np.array_equal(w, np.eye(8))
        assert results == []

    @staticmethod
    def _spy_direct(monkeypatch):
        calls = []
        real = pipeline._bottom_eigenvectors

        def spy(h, k):
            calls.append(h.shape)
            return real(h, k)

        monkeypatch.setattr(pipeline, "_bottom_eigenvectors", spy)
        return calls

    @pytest.mark.parametrize("m", [64, 200, 400])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_top_eigenvectors_certified_match_eigh(self, monkeypatch, m, k):
        # 300 rows of a planted rank-k span off by noise from 1e-12 to 1 in
        # norm, a third of them gross outliers; psi is the |x|^1 majorizer's
        # weights at the span, 1 / (2 n_i) with n_i floored at 1e-12
        rng = np.random.default_rng(m * 10 + k)
        basis = np.linalg.qr(rng.standard_normal((m, k)))[0]
        x = rng.standard_normal((300, k)) @ basis.T
        x += 10.0 ** rng.uniform(-12, 0, (300, 1)) * rng.standard_normal((300, m)) / np.sqrt(m)
        x[::3] += 10.0 * rng.standard_normal((100, m))
        norms = np.maximum(np.linalg.norm(x - x @ basis @ basis.T, axis=1), 1e-12)
        psi = 1.0 / (2.0 * norms)
        assert psi.min() < 1e-1 and psi.max() > 1e10
        calls = self._spy_direct(monkeypatch)
        v0 = np.linalg.qr(rng.standard_normal((m, k)))[0]
        y, fell_back = pipeline._top_eigenvectors(x, psi, k, v0)
        ref = np.linalg.eigh(x.T @ (psi[:, None] * x))[1][:, -k:]
        assert not fell_back and calls == []
        assert y.shape == (m, k)
        assert np.abs(y @ y.T - ref @ ref.T).max() <= 1e-11

    def test_top_eigenvectors_tie_falls_back(self, monkeypatch):
        # lambda_3 = lambda_4: no gap, so no certificate, and the formed H is solved
        m, k = 64, 3
        rng = np.random.default_rng(5)
        rot = np.linalg.qr(rng.standard_normal((m, m)))[0]
        lam = np.concatenate([[5.0, 4.0, 3.0, 3.0], np.full(m - 4, 1e-6)])
        x = np.sqrt(lam)[:, None] * rot
        calls = self._spy_direct(monkeypatch)
        y, fell_back = pipeline._top_eigenvectors(x, np.ones(m), k, rot[:, 10:13])
        assert fell_back and calls == [(m, m)]
        h = x.T @ x
        assert np.abs(h @ y - y * np.diag(y.T @ h @ y)).max() <= 1e-12
        assert np.linalg.norm(y[:, :2] @ y[:, :2].T - rot[:2].T @ rot[:2]) <= 1e-10

    def test_separated_planted_problem_never_falls_back(self, monkeypatch):
        m, k = 200, 3
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.standard_normal((m, k)))[0]
        x = 10.0 * rng.standard_normal((300, k)) @ basis.T + 0.1 * rng.standard_normal((300, m))
        prob = SmallProblem(np.hstack([x, 0.1 * rng.random((300, 1))]), None, k)
        calls = self._spy_direct(monkeypatch)
        trace = {}
        w = small_approx(prob, LossSpec.huber(1.0), seed=0, trace=trace)
        assert calls == []
        assert trace["small_eigen_fallbacks"] == 0 and trace["small_mm_steps"] >= 10
        assert np.linalg.norm(w @ w.T - basis @ basis.T) <= 0.05

    @pytest.mark.parametrize("m", [20, 200])
    def test_alternation_factor_orthonormal_without_qr(self, monkeypatch, m):
        # the eigen steps' vectors, dsyevr's below the Krylov crossover and
        # Ritz vectors from it on, are orthonormal as they come: the
        # alternation takes them with no QR of its own
        prob = _random_problem(14, m_prime=300, m=m, k=3)
        w0 = pipeline._orthonormal(np.random.default_rng(15).standard_normal((m, 3)))
        qrs, real = [], pipeline._orthonormal
        monkeypatch.setattr(pipeline, "_orthonormal", lambda mat: qrs.append(mat) or real(mat))
        tally = {"small_mm_steps": 0, "small_eigen_fallbacks": 0}
        w, _ = pipeline._mm_descent(prob, LossSpec.lp(1.0), w0, tally)
        assert qrs == [] and tally["small_mm_steps"] >= 2 and not np.array_equal(w, w0)
        assert np.abs(w.T @ w - np.eye(3)).max() <= 1e-12

    def test_alternation_stops_on_relative_gain(self, monkeypatch):
        # lp_dense_outliers input 1, fit 1001: its five starts took 60 steps
        # when each ran until its subspace stopped moving, and take 30 when a
        # start stops on a gain of at most _STOP_TOL of its cost, at the cost
        # of a run that stops only on no gain at all, to 1e-7
        workloads = _workloads(monkeypatch)
        work = workloads.WORKLOADS["lp_dense_outliers"]
        a = work.inputs(1).a
        steps, costs = [], []
        for tol in (pipeline._STOP_TOL, 0.0):
            monkeypatch.setattr(pipeline, "_STOP_TOL", tol)
            trace = {}
            sub = approx_lp(a, workloads.K, work.eps, work.loss, seed=1001, trace=trace)
            costs.append(residual_cost(a, sub, None, work.loss))
            steps.append(trace["small_mm_steps"])
        assert steps[0] <= 35
        assert costs[0] == pytest.approx(costs[1], rel=1e-7)

    def test_no_cost_evaluated_after_the_alternation(self, monkeypatch):
        # lp_dense_outliers input 1, fit 1001: a gradient polish of the best
        # start made 15 trial steps here, one small-problem cost each, and
        # kept none; the fit is that start's factor and costs the same.  Every
        # cost is of the residual norms of one alternation iterate: one per
        # start, and one per step
        workloads = _workloads(monkeypatch)
        work = workloads.WORKLOADS["lp_dense_outliers"]
        a = work.inputs(1).a
        calls = []
        real = SmallProblem.residual
        monkeypatch.setattr(SmallProblem, "residual",
                            lambda self, *args: calls.append(1) or real(self, *args))
        trace = {}
        sub = approx_lp(a, workloads.K, work.eps, work.loss, seed=1001, trace=trace)
        assert len(calls) == pipeline._RESTARTS + trace["small_mm_steps"]
        assert residual_cost(a, sub, None, work.loss) == pytest.approx(10638.88205460869,
                                                                       rel=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_stops_are_relative_to_the_cost(self, scale):
        # dense rank 3 plus 0.05 noise and 30 outlier rows, scaled: at 1e-12
        # every residual is in Huber's quadratic part, so the SVD is optimal
        # and the sampled solve can only come near it; with absolute stop
        # tests no step there counted as a gain and the fit kept a random
        # start (3.67x the SVD); at scale 1 the outliers fall in the linear
        # part, and the fit beats the SVD
        a, _ = planted_lowrank(3000, 20, 3, seed=0, noise=0.05, outlier_frac=0.01)
        a = scale * a
        loss = LossSpec.huber(1.0)
        _, svd_cost = svd_truncation_cost(a, 3, None, loss)
        ratio = residual_cost(a, approx_m2(a, 3, 0.25, loss, seed=1), None, loss) / svd_cost
        assert ratio <= (1.01 if scale < 1.0 else 0.95)

    @pytest.mark.parametrize("m", [20, pipeline._KRYLOV_MIN_WIDTH - 1])
    def test_below_crossover_is_direct_path(self, monkeypatch, m):
        prob = _random_problem(13, m_prime=2 * m, m=m, k=3)
        loss = LossSpec.huber(1.0)
        w = small_approx(prob, loss, seed=4)

        def direct(x, psi, k, v0):
            return pipeline._bottom_eigenvectors(-(x.T @ (psi[:, None] * x)), k), False

        monkeypatch.setattr(pipeline, "_top_eigenvectors", direct)
        assert np.array_equal(w, small_approx(prob, loss, seed=4))


class TestApproxLp:
    def test_exact_rank_k(self):
        loss = LossSpec.lp(1.0)
        hits = 0
        for seed in range(10):
            a, _ = planted_lowrank(500, 25, 3, seed=seed)
            sub = approx_lp(a, 3, 0.25, loss, seed=seed)
            assert sub.dim == 3
            hits += residual_cost(a, sub, None, loss) <= 1e-6 * v_norm_p(a, None, loss)
        assert hits >= 9

    def test_k_equals_min_dim(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((40, 5))
        sub = approx_lp(a, 5, 0.3, LossSpec.lp(1.0), seed=0)
        assert sub.dim == 5
        assert residual_cost(a, sub, None, LossSpec.lp(1.0)) <= 1e-8

    def test_loss_validation(self):
        with pytest.raises(ValueError):
            approx_lp(np.eye(4), 1, 0.2, LossSpec.huber(1.0))
        with pytest.raises(ValueError):
            approx_lp(np.eye(4), 1, 0.2, LossSpec.lp(2.0))
        with pytest.raises(ValueError):
            approx_lp(np.eye(4), 1, 1.5, LossSpec.lp(1.0))

    def test_outliers_beat_svd_often(self):
        loss = LossSpec.lp(1.0)
        wins = 0
        trials = 10
        for seed in range(trials):
            a, _ = planted_lowrank(400, 30, 3, seed=300 + seed, noise=0.05,
                                   outlier_frac=0.01, outlier_scale=50.0)
            sub = approx_lp(a, 3, 0.25, loss, seed=seed)
            _, svd_cost = svd_truncation_cost(a, 3, None, loss)
            wins += residual_cost(a, sub, None, loss) < svd_cost
        assert wins >= 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_outlier_rows_beat_svd(self, seed):
        # 100 sparse outlier rows hold most of the score mass of the final
        # sample; capped at one, they hand the rest of the target to the
        # 9000 planted rows, and every fit beats the SVD
        rng = np.random.default_rng(seed)
        v = sp.random(3, 300, density=0.05, random_state=rng)
        planted = sp.csr_matrix(rng.standard_normal((9000, 3)) @ v)
        a = sp.vstack([planted, 30.0 * sp.random(100, 300, density=0.05, random_state=rng)],
                      format="csr")
        for p in (1.0, 1.5):
            loss = LossSpec.lp(p)
            sub = approx_lp(a, 3, 0.25, loss, seed=seed)
            _, svd_cost = svd_truncation_cost(a, 3, None, loss)
            assert residual_cost(a, sub, None, loss) < svd_cost

    def test_deterministic_bit_for_bit(self):
        a, _ = planted_lowrank(300, 20, 2, seed=12, noise=0.1)
        loss = LossSpec.lp(1.0)
        s1 = approx_lp(a, 2, 0.3, loss, seed=5)
        s2 = approx_lp(a, 2, 0.3, loss, seed=5)
        assert np.array_equal(s1.u, s2.u)

    def test_empty_final_sample_raises(self, monkeypatch):
        # n = 200 is at most the bicriteria row target (50 k^2 at p = 1),
        # so the final sample of 100 expected rows is the only draw of the
        # fit, here forced to keep no rows by zeroing the "t" stream's
        # scores; both pipelines raise alike
        stream, calls = sampling.sample_stream, []
        a, _ = planted_lowrank(200, 20, 2, seed=12, noise=0.1)
        monkeypatch.setattr(pipeline, "_T_ROWS", 100)

        def empty_t(stage, blocks, *args):
            blocks = [(lo, hi, np.zeros_like(s) if stage == "t" else s) for lo, hi, s in blocks]
            calls.append((stage, sum(s.size for *_, s in blocks)))
            return stream(stage, blocks, *args)

        monkeypatch.setattr(sampling, "sample_stream", empty_t)
        for fit, loss in ((approx_lp, LossSpec.lp(1.0)), (approx_m2, LossSpec.huber(1.0))):
            calls.clear()
            with pytest.raises(CapExceededError, match="drew no rows"):
                fit(a, 2, 0.3, loss, seed=5)
            assert calls == [("t", 200)]

    def test_p15_pipeline(self):
        # the fractional-exponent path: stable sketches at p=1.5, dual
        # exponent 3 certificates, 1/q row weights; lands at the
        # noise floor alongside the SVD baseline
        loss = LossSpec.lp(1.5)
        a, _ = planted_lowrank(500, 20, 3, seed=17, noise=0.02)
        sub = approx_lp(a, 3, 0.3, loss, seed=2)
        assert sub.dim == 3
        _, svd_cost = svd_truncation_cost(a, 3, None, loss)
        assert residual_cost(a, sub, None, loss) <= 1.1 * svd_cost

    def test_p15_final_sample_scored_by_basis_row_norms(self):
        # planted rank 3 plus 0.1 noise, and 0.3% of rows along one shared
        # direction orthogonal to it that outweighs any planted direction
        # (the benchmark's lp_dense_outliers geometry, input seed 300).  The
        # final sample scored by one-column Gaussian estimates |U_i g| lost
        # to the SVD on this fit (1.031x); scored by ||U_i||_p^p it costs 0.48x
        n, d, k = 20000, 20, 3
        rng = np.random.default_rng([300, 1])
        basis, _ = np.linalg.qr(rng.standard_normal((d, k + 1)))
        a = (10.0 * rng.standard_normal((n, k))) @ basis[:, :k].T
        a += 0.1 * rng.standard_normal((n, d))
        rows = rng.choice(n, 60, replace=False)
        signs = rng.choice([-1.0, 1.0], rows.size)
        a[rows] = (10.0 * np.sqrt(2.0 * n / rows.size) * signs[:, None] * basis[:, k]
                   + 0.1 * rng.standard_normal((rows.size, d)))
        loss = LossSpec.lp(1.5)
        sub = approx_lp(a, k, 0.25, loss, seed=300001)
        _, svd_cost = svd_truncation_cost(a, k, None, loss)
        assert residual_cost(a, sub, None, loss) < svd_cost

    def test_sparse_input_end_to_end(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(18)
        dense = rng.standard_normal((600, 3)) @ rng.standard_normal((3, 25))
        dense[np.abs(dense) < 0.8] = 0.0  # genuinely sparse, still near rank 3
        a = sp.csr_matrix(dense)
        loss = LossSpec.lp(1.0)
        sub = approx_lp(a, 3, 0.3, loss, seed=4)
        assert sub.dim == 3
        assert residual_cost(a, sub, None, loss) <= residual_cost(
            dense, Subspace(np.linalg.svd(dense, full_matrices=False)[2][:3].T),
            None, loss) * 1.5 + 1e-9

    def test_cost_sandwich(self):
        # rank-k cost inside U is at least the cost of projecting onto all
        # of U, and at most the best coordinate-k-subset-of-U baseline
        loss = LossSpec.lp(1.0)
        a, _ = planted_lowrank(300, 20, 3, seed=13, noise=0.1, outlier_frac=0.02)
        tr = {}
        sub = approx_lp(a, 3, 0.25, loss, seed=7, trace=tr)
        cost = residual_cost(a, sub, None, loss)
        # recompute the pipeline's U via its stages is internal; instead use
        # any enclosing span: the full space lower-bounds every projector
        full_cost = 0.0
        assert cost >= full_cost
        base_sub, base_cost = best_rank_k_in_subspace(a, sub, 3, loss, seed=7)
        assert base_cost <= cost + 1e-8


class TestApproxM2:
    def test_exact_rank_k_huber(self):
        loss = LossSpec.huber(1.0)
        hits = 0
        for seed in range(8):
            a, _ = planted_lowrank(400, 20, 3, seed=seed)
            sub = approx_m2(a, 3, 0.3, loss, seed=seed)
            assert sub.dim == 3
            hits += residual_cost(a, sub, None, loss) <= 1e-6 * v_norm_p(a, None, loss)
        assert hits >= 7

    def test_outliers_beat_svd_often(self):
        loss = LossSpec.huber(1.0)
        wins = 0
        trials = 10
        for seed in range(trials):
            a, _ = planted_lowrank(400, 30, 3, seed=400 + seed, noise=0.05,
                                   outlier_frac=0.01, outlier_scale=50.0)
            sub = approx_m2(a, 3, 0.3, loss, seed=seed)
            _, svd_cost = svd_truncation_cost(a, 3, None, loss)
            wins += residual_cost(a, sub, None, loss) < svd_cost
        assert wins >= 7

    def test_loss_validation(self):
        with pytest.raises(ValueError):
            approx_m2(np.eye(4), 1, 0.2, LossSpec.lp(1.0))

    @pytest.mark.parametrize("cap", [0, -3])
    @pytest.mark.parametrize("fit, loss", [(approx_lp, LossSpec.lp(1.0)),
                                           (approx_m2, LossSpec.huber(1.0))])
    def test_non_positive_small_cap_rejected_before_any_stage(self, monkeypatch, cap,
                                                              fit, loss):
        monkeypatch.setattr(pipeline, "_stage_subspace",
                            lambda *args: pytest.fail("a subspace stage ran"))
        a, _ = planted_lowrank(600, 20, 2, seed=5, noise=0.1)
        with pytest.raises(ValueError, match="small_cap must be >= 1"):
            fit(a, 2, 0.3, loss, small_cap=cap, seed=0)

    def test_deterministic_bit_for_bit(self):
        a, _ = planted_lowrank(600, 15, 2, seed=16, noise=0.1)
        loss = LossSpec.l1l2()
        s1 = approx_m2(a, 2, 0.3, loss, seed=9)
        s2 = approx_m2(a, 2, 0.3, loss, seed=9)
        assert np.array_equal(s1.u, s2.u)


    @staticmethod
    def _spy_sample(monkeypatch):
        """Record (scored operand, dimension of its sensitivity basis's space) of
        every final sample."""
        calls, sample = [], pipeline._final_sample
        monkeypatch.setattr(pipeline, "_final_sample", lambda scored, sub, *args:
                            calls.append((scored, sub.d)) or sample(scored, sub, *args))
        return calls

    def test_identity_embedding_scores_a_itself(self, monkeypatch):
        # at d = 12 the reduced span is all of R^12; the final sample scores
        # A itself, with a basis in R^12
        calls = self._spy_sample(monkeypatch)
        a, _ = planted_lowrank(3000, 12, 2, seed=17, noise=0.05, outlier_frac=0.01)
        tr = {}
        approx_m2(a, 2, 0.3, LossSpec.huber(1.0), seed=3, trace=tr)
        assert tr["reduced_dim"] > 2 and tr["t_rows"] < 3000
        assert len(calls) == 1 and calls[0][0] is a and calls[0][1] == 12

    def test_sparse_input_scored_without_densifying(self, monkeypatch):
        # with U square the final sample scores the CSR input itself
        calls = self._spy_sample(monkeypatch)
        a, _ = planted_lowrank(3000, 12, 2, seed=17, noise=0.05, outlier_frac=0.01)
        sub = approx_m2(sp.csr_matrix(a), 2, 0.3, LossSpec.huber(1.0), seed=3)
        assert len(calls) == 1 and sp.issparse(calls[0][0])
        assert sub.dim == 2

    def test_unsorted_csr_input_left_unwritten(self):
        # each row's column indices reversed: every gathered block is summed to
        # canonical form in place, and the caller's arrays stay as they were
        a, _ = planted_lowrank(3000, 12, 2, seed=17, noise=0.05, outlier_frac=0.01)
        a = sp.csr_matrix(a)
        perm = np.concatenate([np.arange(hi - 1, lo - 1, -1)
                               for lo, hi in zip(a.indptr[:-1], a.indptr[1:])])
        a = sp.csr_matrix((a.data[perm], a.indices[perm], a.indptr), shape=a.shape)
        assert not a.has_canonical_format
        before = [arr.copy() for arr in (a.data, a.indices, a.indptr)]
        approx_m2(a, 2, 0.3, LossSpec.huber(1.0), seed=3)
        approx_lp(a, 2, 0.3, LossSpec.lp(1.0), seed=3)
        assert all(np.array_equal(arr, ref)
                   for arr, ref in zip((a.data, a.indices, a.indptr), before))

    @staticmethod
    def _spy_factors(monkeypatch, a):
        """Count the R factors of all of ``a``, wherever r_factor is bound."""
        def whole(t):
            return t is a or (isinstance(t, RowView) and len(t.parts) == 1
                              and t.parts[0] is a and t.scale is None)

        wholes, r_factor = [], sketch.r_factor

        def spy(t):
            wholes.append(whole(t))
            return r_factor(t)

        monkeypatch.setattr(sketch, "r_factor", spy)
        return wholes

    def test_input_factored_once(self, monkeypatch, set_p_m):
        # 3000 full-rank CSR rows, past one 2048-row QR block, 12 <= P_M wide:
        # the bicriteria stage keeps every row and its factor of A
        # gives the final sample's B, so the n x d operand is factored
        # once, and the fit equals the one that factors A again
        a, _ = planted_lowrank(3000, 12, 2, seed=17, noise=0.05, outlier_frac=0.01)
        a = sp.csr_matrix(a)
        loss = LossSpec.huber(1.0)
        fits = {}
        stage = pipeline._stage_subspace
        for handover in (True, False):
            wholes = self._spy_factors(monkeypatch, a)
            if not handover:
                monkeypatch.setattr(pipeline, "_stage_subspace",
                                    lambda *args: Subspace(stage(*args).u))
            fits[handover] = approx_m2(a, 2, 0.3, loss, seed=3).u
            assert sum(wholes) == (1 if handover else 2)
            monkeypatch.undo()
        assert np.array_equal(fits[True], fits[False])
        # forced through the sampling path (P_M < d), the subspace spans sampled
        # rows: nothing is handed over and the final sample factors A itself
        # (U spans R^12), after the bicriteria scores' basis of A (its sketch
        # would be square)
        set_p_m(10)
        wholes = self._spy_factors(monkeypatch, a)
        tr = {}
        approx_m2(a, 2, 0.3, loss, seed=3, trace=tr)
        assert tr["reduced_dim"] == 12
        assert sum(wholes) == 2

    @staticmethod
    def _fits_with_and_without_sv(monkeypatch, a, loss):
        """{U carries A's singular values: (fit, final-sample rows, trace)}; the
        other fit is forced to take B and its singular values from a second SVD."""
        fits, stage, sample = {}, pipeline._stage_subspace, pipeline._final_sample
        svd = np.linalg.svd
        for handover in (True, False):
            calls, kept = [], []
            monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1)
                                or svd(*args, **kw))
            monkeypatch.setattr(pipeline, "_final_sample",
                                lambda *args: kept.append(sample(*args)) or kept[-1])
            if not handover:
                monkeypatch.setattr(pipeline, "_stage_subspace",
                                    lambda *args: Subspace(stage(*args).u))
            tr = {}
            fits[handover] = approx_m2(a, 2, 0.3, loss, seed=3, trace=tr), kept[0][0], tr
            monkeypatch.undo()
            assert len(calls) == (1 if handover else 2)
        return fits

    def test_input_kept_whole_takes_one_svd(self, monkeypatch):
        # the bicriteria stage's U of an input it keeps whole is the right
        # singular vectors of A's R, in descending order, with their singular
        # values: the final sample's B is its first k columns, so R's SVD is
        # taken once per fit, and the fit equals the one that takes B from a
        # second SVD
        a, _ = planted_lowrank(3000, 12, 2, seed=17, noise=0.05, outlier_frac=0.01)
        fits = self._fits_with_and_without_sv(monkeypatch, a, LossSpec.huber(1.0))
        assert np.array_equal(fits[True][0].u, fits[False][0].u)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_rank_deficient_input_kept_whole_takes_one_svd(self, monkeypatch, sparse):
        # rank 6 in 12 columns, 30 of 3000 rows scaled x30 within the row space:
        # the kept-whole U is 6 wide, and the final sample scores A with U's
        # first k columns; the fit that finds its basis by a second SVD, of
        # A U, keeps the same rows at the same cost
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3000, 6)) @ np.linalg.qr(rng.standard_normal((12, 6)))[0].T
        a[:30] *= 30.0
        loss = LossSpec.huber(1.0)
        fits = self._fits_with_and_without_sv(monkeypatch, sp.csr_matrix(a) if sparse else a,
                                              loss)
        assert fits[True][2]["reduced_dim"] == fits[False][2]["reduced_dim"] == 6
        assert np.array_equal(fits[True][1], fits[False][1])
        assert residual_cost(a, fits[True][0], None, loss) == pytest.approx(
            residual_cost(a, fits[False][0], None, loss), rel=1e-12)

    def test_t_rows_target_sets_base_rows(self, monkeypatch):
        # the plan expects exactly _T_ROWS rows; n <= _T_ROWS keeps every
        # row with no draw
        a, _ = planted_lowrank(3000, 12, 2, seed=17, noise=0.05, outlier_frac=0.01)
        for t_rows in (100, 300):
            monkeypatch.setattr(pipeline, "_T_ROWS", t_rows)
            tr = {}
            approx_m2(a, 2, 0.3, LossSpec.huber(1.0), seed=3, trace=tr)
            assert tr["t_rows_expected"] == pytest.approx(t_rows, abs=1e-9)
        tr = {}
        approx_m2(a[:250], 2, 0.3, LossSpec.huber(1.0), seed=3, trace=tr)
        assert tr["t_rows"] == tr["t_rows_expected"] == 250

    def test_collinear_outlier_rows_kept_by_final_sample(self, monkeypatch):
        # the benchmark's m2_sparse input 8 (20000 x 200 CSR, 200 outlier
        # rows along one direction): scored by leverage alone, the final
        # sample drew 0 or 2 outlier rows, and fits 8003 and 8005 took the
        # outlier direction (1.0076x and 1.0052x the SVD); scored by cost
        # share under B as well, both land at the planted subspace (0.19x)
        workloads = _workloads(monkeypatch)
        work = workloads.WORKLOADS["m2_sparse"]
        a = work.inputs(8).a
        _, svd_cost = svd_truncation_cost(a, workloads.K, None, work.loss)
        for fit_seed in (8003, 8005):
            sub = approx_m2(a, workloads.K, work.eps, work.loss, seed=fit_seed)
            assert residual_cost(a, sub, None, work.loss) < svd_cost

    @pytest.mark.parametrize("norm, bounds", [(1e3, (0.1978, 0.1978, 0.1978)),
                                              (1e5, (0.5401, 0.5401, 0.7403))],
                             ids=["1e3", "1e5"])
    def test_huge_row_scores_with_five_starts(self, monkeypatch, norm, bounds):
        # m2_sparse input 8 plus one row along e_0: at norm 1e5 the small
        # solve of fit 8002 reaches the better basin from one of its five
        # random starts only, and with three starts it scored 0.7427x the SVD
        workloads = _workloads(monkeypatch)
        work = workloads.WORKLOADS["m2_sparse"]
        a8 = work.inputs(8).a
        a = sp.vstack([a8, sp.csr_matrix(([norm], ([0], [0])), shape=(1, a8.shape[1]))]).tocsr()
        _, svd_cost = svd_truncation_cost(a, workloads.K, None, work.loss)
        for fit_seed, bound in zip((8001, 8002, 8003), bounds):
            sub = approx_m2(a, workloads.K, work.eps, work.loss, seed=fit_seed)
            assert residual_cost(a, sub, None, work.loss) <= bound * svd_cost

    def test_padding_follows_fit_seed(self):
        # a rank-1 input gives a 1-dim subspace, padded to k = 3 columns:
        # the padding is drawn from the fit seed, like every other draw
        rng = np.random.default_rng(20)
        a = np.outer(rng.standard_normal(300), rng.standard_normal(8))
        loss = LossSpec.huber(1.0)
        trace = {}
        u1 = approx_m2(a, 3, 0.25, loss, seed=1, trace=trace).u
        assert trace["reduced_dim"] == 1 and u1.shape == (8, 3)
        assert np.array_equal(u1, approx_m2(a, 3, 0.25, loss, seed=1).u)
        u2 = approx_m2(a, 3, 0.25, loss, seed=2).u
        assert np.abs(u1 @ u1.T - u2 @ u2.T).max() > 1e-3

    def test_orthogonal_rotation_leaves_scores_unchanged(self):
        # with U square, [A U, r] is [A Q, 0] for an orthogonal Q, whose
        # column space is that of A: scoring A itself gives the same scores
        a, _ = planted_lowrank(500, 12, 2, seed=18, noise=0.05, outlier_frac=0.01)
        q = np.linalg.qr(np.random.default_rng(19).standard_normal((12, 12)))[0]
        loss = LossSpec.huber(1.0)
        plain = weighted_leverage_scores(a, loss, seed=0)
        rotated = weighted_leverage_scores(a @ q, loss, seed=0)
        assert np.abs(plain.gamma - rotated.gamma).max() <= 1e-10

    def test_sparse_peak_below_dense_a(self):
        # CSR rank 3 on 15 columns, two noise entries a row and 1% outlier
        # rows: the fit never holds as much memory as dense A would
        n, d = 12000, 150
        rng = np.random.default_rng(7)
        v = np.zeros((4, d))
        for j, cols in enumerate(rng.choice(d, (4, 5), replace=False)):
            v[j, cols] = rng.standard_normal(5)
        noise = sp.csr_matrix((0.1 * rng.standard_normal(2 * n),
                               (np.repeat(np.arange(n), 2), rng.integers(0, d, 2 * n))),
                              shape=(n, d))
        keep = np.ones(n)
        keep[rng.choice(n, n // 100, replace=False)] = 0.0
        coef = np.column_stack([10.0 * rng.standard_normal((n, 3)) * keep[:, None],
                                100.0 * (1.0 - keep)])
        a = (sp.diags(keep) @ noise + sp.csr_matrix(coef) @ sp.csr_matrix(v)).tocsr()
        tracemalloc.start()
        try:
            sub = approx_m2(a, 3, 0.25, LossSpec.huber(1.0), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.dim == 3
        assert peak < n * d * 8


_BOTH_PIPELINES = pytest.mark.parametrize(
    "fit, loss", [(approx_lp, LossSpec.lp(1.0)), (approx_m2, LossSpec.huber(1.0))],
    ids=["lp", "m2"])


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("fit, loss", [(approx_lp, LossSpec.lp(1.0)),
                                       (approx_m2, LossSpec.huber(1.0))])
class TestShortInput:
    def test_fewer_rows_than_k_padded_to_k(self, fit, loss, sparse):
        # two rows span two dimensions: the stages run at rank 2 (a clamp
        # warning would fail here, as RuntimeWarnings are errors) and the
        # factor is padded to k = 3 orthonormal columns
        dense = np.random.default_rng(40).standard_normal((2, 6))
        a = sp.csr_matrix(dense) if sparse else dense
        sub = fit(a, 3, 0.25, loss, seed=1)
        assert sub.u.shape == (6, 3)
        assert np.abs(sub.u.T @ sub.u - np.eye(3)).max() <= 1e-12
        assert residual_cost(a, sub, None, loss) <= 1e-12 * v_norm_p(a, None, loss)

    def test_no_rows_rejected(self, fit, loss, sparse):
        a = sp.csr_matrix((0, 6)) if sparse else np.zeros((0, 6))
        with pytest.raises(ValueError, match="no rows"):
            fit(a, 3, 0.25, loss, seed=1)

    def test_k_above_columns_rejected(self, fit, loss, sparse):
        dense = np.random.default_rng(41).standard_normal((50, 2))
        with pytest.raises(ValueError, match="k=3 outside"):
            fit(sp.csr_matrix(dense) if sparse else dense, 3, 0.25, loss, seed=1)


class TestExactColumns:
    @staticmethod
    def _planted(seed):
        # rank 4 (three strong directions, one weak) in 100 columns, 10 rows
        # scaled x30: the reduced span has m = 4 < d
        rng = np.random.default_rng(seed)
        v = np.linalg.qr(rng.standard_normal((100, 4)))[0]
        a = rng.standard_normal((1500, 4)) * np.array([10.0, 10.0, 10.0, 1.0]) @ v.T
        a[rng.choice(1500, 10, replace=False)] *= 30.0
        return a

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_small_problem_costs_are_exact(self, sparse):
        # for every W the small problem on [A U, r] (three row blocks here)
        # costs what the projector (U W)(U W)^T costs on A
        rng = np.random.default_rng(21)
        a = sp.random(4500, 40, density=0.2, random_state=21, format="csr")
        u = np.linalg.qr(rng.standard_normal((40, 6)))[0]
        w = rng.uniform(1.0, 4.0, 4500)
        loss = LossSpec.huber(1.0)
        cols = pipeline._exact_columns(a if sparse else a.toarray(), u)
        prob = SmallProblem(cols, w, 2)
        for _ in range(3):
            w_factor = np.linalg.qr(rng.standard_normal((6, 2)))[0]
            assert small_problem_cost(prob, w_factor, loss) == pytest.approx(
                residual_cost(a, Subspace(u @ w_factor), w, loss), rel=1e-10)

    @_BOTH_PIPELINES
    def test_exact_columns_beat_svd(self, monkeypatch, fit, loss):
        # the input is kept whole, so the final sample scores A itself, and
        # the small problem's C is [A U, r]
        scored, solved = [], []
        sample, solve = pipeline._final_sample, pipeline.small_approx
        monkeypatch.setattr(pipeline, "_final_sample",
                            lambda a, *args: scored.append(a.shape[1]) or sample(a, *args))
        monkeypatch.setattr(pipeline, "small_approx",
                            lambda prob, *args, **kw: solved.append(prob.cols.shape[1])
                            or solve(prob, *args, **kw))
        for seed in range(3):
            a = self._planted(seed)
            tr = {}
            sub = fit(a, 3, 0.25, loss, seed=seed, trace=tr)
            _, svd_cost = svd_truncation_cost(a, 3, None, loss)
            assert residual_cost(a, sub, None, loss) < svd_cost
            assert tr["reduced_dim"] == 4
        assert scored == [100] * 3 and solved == [5] * 3

    @_BOTH_PIPELINES
    def test_width_above_small_cap(self, fit, loss):
        # 1200 x 450 (d > small_cap = 400): rank 3 with no noise plus 100
        # Gaussian outlier rows; the small problem is m + 1 wide, not d
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a = np.vstack([rng.standard_normal((1100, 3)) @ rng.standard_normal((3, 450)),
                           30.0 * rng.standard_normal((100, 450))])
            tr = {}
            sub = fit(a, 3, 0.25, loss, seed=seed, trace=tr)
            _, svd_cost = svd_truncation_cost(a, 3, None, loss)
            assert tr["reduced_dim"] < a.shape[1]
            assert residual_cost(a, sub, None, loss) < svd_cost

    def test_outliers_recipe_reads_exact_columns_on_demand(self, monkeypatch):
        # the CI's outliers.mtx recipe, 9100 CSR rows by 300, at p = 1.5: U has
        # m = 103 < d columns, and with A's singular values dropped from it, the
        # final sample's R factor reads A U one block at a time, and the fit
        # peaks below the n x (m + 1) operand [A U, r] and costs what the fit
        # on a formed A U costs
        a = _outliers_recipe()
        loss = LossSpec.lp(1.5)
        stage, scored = pipeline._stage_subspace, []
        monkeypatch.setattr(pipeline, "_stage_subspace", lambda *args: Subspace(stage(*args).u))
        coordinates = pipeline._Coordinates
        monkeypatch.setattr(pipeline, "_Coordinates",
                            lambda *args: scored.append(1) or coordinates(*args))
        approx_lp(a, 3, 0.25, loss, seed=1)  # the modules imported on first use
        tr = {}
        tracemalloc.start()
        try:
            sub = approx_lp(a, 3, 0.25, loss, seed=1, trace=tr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr["reduced_dim"] == 103 and scored == [1, 1]
        assert peak < a.shape[0] * (tr["reduced_dim"] + 1) * 8
        monkeypatch.setattr(pipeline, "_Coordinates", matmul_dense)  # formed whole
        formed = approx_lp(a, 3, 0.25, loss, seed=1)
        assert residual_cost(a, sub, None, loss) == pytest.approx(
            residual_cost(a, formed, None, loss), rel=1e-12)


class TestSketchesReached:
    def test_dense_outliers_factor_a_once_and_sketch_nothing(self, monkeypatch):
        # lp_dense_outliers input 1 (9000 x 20, L1, k = 3): d = 20 <= P_M = 450,
        # so the bicriteria stage keeps A's row space, read from one R of A,
        # and the final sample takes its singular values: no sketch is made or
        # applied and no row is scored by leverage
        workloads = _workloads(monkeypatch)
        work = workloads.WORKLOADS["lp_dense_outliers"]
        a = work.inputs(1).a

        def fail(*args, **kw):
            pytest.fail("a sketch or leverage pass ran")

        for owner, name in [(sketch, "make_sparse_sketch"), (bicriteria, "make_sparse_sketch"),
                            (sketch, "apply_right"), (sketch.PStableSketch, "apply"),
                            (bicriteria, "leverage_score_blocks"),
                            (conditioning, "leverage_score_blocks"),
                            (conditioning, "weighted_leverage_scores")]:
            monkeypatch.setattr(owner, name, fail)
        factored, real = [], sketch.r_factor

        def spy(t):
            factored.append(t)
            return real(t)

        monkeypatch.setattr(sketch, "r_factor", spy)
        trace = {}
        approx_lp(a, workloads.K, work.eps, work.loss, seed=1001, trace=trace)
        assert len(factored) == 1 and factored[0] is a
        assert trace["bicriteria_rows"] == trace["bicriteria_rows_expected"] == 9000

    def test_outliers_recipe_at_k2_sketches_pi_once(self, monkeypatch):
        # the CI's outliers.mtx recipe (9100 CSR rows by 300) at k = 2: P_M = 200
        # < d, so the bicriteria stage sketches A S^T, and past the p-stable
        # row cap of 8192 conditions its basis by Pi, applied once, to the
        # computed right-sketch part
        a = _outliers_recipe()
        sketched, apply = [], sketch.PStableSketch.apply
        monkeypatch.setattr(sketch.PStableSketch, "apply",
                            lambda pi, b: sketched.append(b) or apply(pi, b))
        trace = {}
        sub = approx_lp(a, 2, 0.25, LossSpec.lp(1.5), seed=1, trace=trace)
        assert len(sketched) == 1 and isinstance(sketched[0], RowView)
        assert [type(part) for part in sketched[0].parts] == [sketch.RightSketchPart]
        assert abs(trace["bicriteria_rows_expected"] - 200) <= 1e-9
        _, svd_cost = svd_truncation_cost(a, 2, None, LossSpec.lp(1.5))
        assert residual_cost(a, sub, None, LossSpec.lp(1.5)) < svd_cost


    def test_rank_deficient_row_space_factored_once(self, monkeypatch):
        # the CI's outliers.mtx recipe at k = 3: d = 300 <= P_M = 450, so the
        # bicriteria stage keeps A's row space, of rank 103 < d, with its
        # singular values. The final sample scores A itself, with U's first k
        # columns and their singular values: A is factored once, where
        # factoring [A U, r] again cost 53351.02103867558 (value measured so)
        a = _outliers_recipe()
        factored, real = [], sketch.r_factor

        def spy(t):
            factored.append(t)
            return real(t)

        monkeypatch.setattr(sketch, "r_factor", spy)
        trace = {}
        sub = approx_lp(a, 3, 0.25, LossSpec.lp(1.5), seed=1, trace=trace)
        assert len(factored) == 1 and factored[0] is a
        assert trace["bicriteria_dim"] == trace["reduced_dim"] == 103
        cost = residual_cost(a, sub, None, LossSpec.lp(1.5))
        assert abs(cost - 53351.02103867558) <= 1e-10 * cost

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_outliers_recipe_at_k2_samples_as_the_formed_exact_columns(self, sparse):
        # at k = 2 U spans sampled rows, m < d wide, with no singular values: the
        # final sample, which scores A with U B from the R of A U, keeps the rows
        # that scoring the formed [A U, r] with B from its R keeps, at the same
        # weights
        a = _outliers_recipe()
        a = a if sparse else a.toarray()
        loss = LossSpec.lp(1.5)
        tr = {}
        sub = pipeline._stage_subspace(a, 2, 0.25, loss, 1, tr)
        assert sub.sv is None and 2 < sub.dim < 300
        idx, w = pipeline._final_sample(a, sub, 2, loss, 5, tr)
        ref_idx, ref_w = final_sample_of_exact_columns(a, sub.u, 2, loss, 5)
        assert len(idx) > 100 and np.array_equal(idx, ref_idx)
        assert w == pytest.approx(ref_w, rel=1e-12)

    def test_rows_kept_whole_factor_nothing_after_the_subspace(self, monkeypatch):
        # 250 x 200 Gaussian rows at L1, k = 1: P_M = 50 is below n and d, so the
        # bicriteria stage samples, and its subspace carries no singular values;
        # residual sampling reaches all of R^200.  n <= _T_ROWS, so the final
        # sample keeps every row, and no R factor follows the subspace stages
        a = np.random.default_rng(0).standard_normal((250, 200))
        factors, stage = [], pipeline._stage_subspace

        def subspace(*args):
            sub = stage(*args)
            factors.clear()  # the subspace stages' own factors
            return sub

        def spy(name, real):
            return lambda *args: factors.append(name) or real(*args)

        monkeypatch.setattr(pipeline, "_stage_subspace", subspace)
        for owner in (sketch, pipeline):
            for name in ("r_factor", "rank_revealing_factor"):
                if hasattr(owner, name):  # wherever the name is bound
                    monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        tr = {}
        approx_lp(a, 1, 0.25, LossSpec.lp(1.0), seed=1, trace=tr)
        assert factors == []
        assert tr["bicriteria_rows_expected"] == pytest.approx(50, abs=1e-9)
        assert tr["reduced_dim"] == 200 and tr["t_rows"] == tr["t_rows_expected"] == 250


class TestNonFiniteInput:
    @staticmethod
    def _corrupt(value, sparse):
        a, _ = planted_lowrank(200, 10, 2, seed=20)
        a[7, 3] = value
        return sp.csr_matrix(a) if sparse else a

    def test_dense_nan_approx_lp(self):
        with pytest.raises(ValueError, match="input must not contain infs or NaNs"):
            approx_lp(self._corrupt(np.nan, False), 2, 0.3, LossSpec.lp(1.0))

    def test_csr_inf_approx_m2(self):
        with pytest.raises(ValueError, match="input must not contain infs or NaNs"):
            approx_m2(self._corrupt(np.inf, True), 2, 0.3, LossSpec.huber(1.0))

    def test_csr_nan_const_approx(self):
        with pytest.raises(ValueError, match="input must not contain infs or NaNs"):
            const_approx(self._corrupt(np.nan, True), 2, LossSpec.lp(1.0))


class TestBestRankKInSubspace:
    def test_matches_direct_within_full_space(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((50, 6))
        loss = LossSpec.lp(2.0)
        from robsub import Subspace

        full = Subspace(np.eye(6))
        sub, cost = best_rank_k_in_subspace(a, full, 2, loss, seed=0)
        _, svd_cost = svd_truncation_cost(a, 2, None, loss)
        # p=2: the SVD is optimal, and the search should come close
        assert cost <= svd_cost * 1.02 + 1e-9
