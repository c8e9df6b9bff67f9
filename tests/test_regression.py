import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize, minimize_scalar

from robsub import LossSpec, conditioning, regression
from robsub.core import RowView, m_derivative, m_value, spawn_rng
from robsub.regression import (
    RegressConfig,
    irls_solve,
    m_regress,
    regression_objective,
)
from robsub.sampling import draw, make_plan


def _outlier_problem(n, d, seed, frac=0.05, scale=30.0, noise=0.1):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    x_true = rng.standard_normal(d)
    b = a @ x_true + noise * rng.standard_normal(n)
    rows = rng.choice(n, max(1, int(frac * n)), replace=False)
    b[rows] += scale * rng.standard_normal(rows.size)
    return a, b, x_true


def _sparse_problem(n, d, seed, noise=0.0):
    """CSR design with about four nonzeros per row; 1% of responses off by 50."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, d, density=4.0 / d, format="csr", random_state=seed)
    x_true = rng.standard_normal(d)
    b = a @ x_true + noise * rng.standard_normal(n)
    b[rng.choice(n, n // 100, replace=False)] += 50.0
    return a, b, x_true


class TestIrls:
    def test_p2_is_weighted_least_squares(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((50, 6))
        b = rng.standard_normal(50)
        x = irls_solve(a, b, None, LossSpec.lp(2.0))
        x_ne = np.linalg.solve(a.T @ a, a.T @ b)
        assert np.abs(x - x_ne).max() <= 1e-8

    def test_zero_matrix_least_norm(self):
        x = irls_solve(np.zeros((5, 3)), np.ones(5), None, LossSpec.huber(1.0))
        assert np.allclose(x, 0.0)

    def test_singular_problem_least_norm(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal((20, 1))
        a = np.hstack([col, col])  # rank 1
        b = rng.standard_normal(20)
        x = irls_solve(a, b, None, LossSpec.lp(2.0))
        assert np.isfinite(x).all()
        assert abs(x[0] - x[1]) <= 1e-8  # least-norm splits evenly

    def test_huber_location_matches_golden_section(self):
        rng = np.random.default_rng(2)
        loss = LossSpec.huber(1.0)
        b = np.concatenate([rng.standard_normal(190), 50 + 5 * rng.standard_normal(10)])
        ones = np.ones((200, 1))
        x = irls_solve(ones, b, None, loss, tol=1e-14, max_iter=2000)
        ref = minimize_scalar(
            lambda t: regression_objective(ones, b, np.array([t]), None, loss),
            method="golden", bracket=(-20, 20), options={"xtol": 1e-12})
        assert abs(x[0] - ref.x) <= 1e-6

    def test_objective_monotone(self, all_losses):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((80, 5))
        b = a @ rng.standard_normal(5) + rng.standard_normal(80)
        for loss in all_losses:
            _, hist = irls_solve(a, b, None, loss, return_history=True)
            assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_converged_step_not_halved(self, monkeypatch):
        # outliers of size 1e4 put the objective near 4e5, where a converged
        # step moves it by rounding (one ulp is about 6e-11): such a step
        # ends the solve, so every pass of the objective is one iterate
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5000, 5))
        b = a @ rng.standard_normal(5) + 0.1 * rng.standard_normal(5000)
        rows = rng.choice(5000, 50, replace=False)
        b[rows] += 1e4 * rng.standard_normal(50)
        passes = []
        real = regression._weighted_cost

        def spy(*args):
            passes.append(1)
            return real(*args)

        monkeypatch.setattr(regression, "_weighted_cost", spy)
        _, hist = irls_solve(a, b, None, LossSpec.huber(1.0), return_history=True)
        # the iterates kept, plus at most the one step that ended the solve
        assert len(passes) <= len(hist) + 1

    def test_huber_matches_independent_solver(self):
        # smooth huber objective: compare with a BFGS solve from scipy
        rng = np.random.default_rng(4)
        a = rng.standard_normal((120, 8))
        b = a @ rng.standard_normal(8) + 0.3 * rng.standard_normal(120)
        loss = LossSpec.huber(1.0)

        def f(x):
            return regression_objective(a, b, x, None, loss)

        def grad(x):
            r = a @ x - b
            return a.T @ (np.sign(r) * m_derivative(loss, r))

        x_irls = irls_solve(a, b, None, loss, tol=1e-14, max_iter=3000)
        ref = minimize(f, np.zeros(8), jac=grad, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 5000})
        assert f(x_irls) <= ref.fun + 1e-6

    def test_affine_equivariance_p2(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 4))
        b = rng.standard_normal(40)
        x1 = irls_solve(a, b, None, LossSpec.lp(2.0))
        x2 = irls_solve(a, 3.5 * b, None, LossSpec.lp(2.0))
        assert np.abs(3.5 * x1 - x2).max() <= 1e-10

    def test_weighted_objective_respected(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((60, 3))
        b = rng.standard_normal(60)
        w = np.ones(60)
        w[:5] = 100.0
        loss = LossSpec.huber(1.0)
        x = irls_solve(a, b, w, loss, tol=1e-14, max_iter=2000)
        # heavily weighted rows fit much better than the rest
        r = np.abs(a @ x - b)
        assert np.mean(r[:5]) < np.mean(r[5:])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_weighted_rank_deficient_step_is_lstsq(self, sparse):
        # 5000 rows, past one QR row block, of rank 8 in 12 columns (one
        # column only 1e-13 off another, below the cutoff of an n x d solve
        # but above that of a d x d one), with weights among 1, 2, ..., 32:
        # one step, read from the streamed R of diag(sqrt w) [A b],
        # is the least-norm weighted solution
        rng = np.random.default_rng(12)
        a = sp.random(5000, 8, density=0.5, format="csr", random_state=12).toarray()
        near = a[:, 4] + 1e-13 * rng.standard_normal(5000)
        a = np.hstack([a, a[:, :2] - a[:, 2:4], near[:, None], np.zeros((5000, 1))])
        b = rng.standard_normal(5000)
        w = np.exp2(rng.integers(0, 6, 5000))
        ref = np.linalg.lstsq(a * np.sqrt(w)[:, None], b * np.sqrt(w), rcond=None)[0]
        x = irls_solve(sp.csr_matrix(a) if sparse else a, b, w, LossSpec.lp(2.0), max_iter=0)
        assert np.abs(x - ref).max() <= 1e-10

    def test_csr_peak_below_quarter_of_dense(self):
        # every step reads the scaled [A b] one row block at a time into a
        # (d + 1 + 2048) x (d + 1) buffer, so CSR A is never densified
        n, d = 40000, 100
        a, b, _ = _sparse_problem(n, d, 15, noise=0.1)
        loss = LossSpec.huber(1.0)
        tracemalloc.start()
        try:
            x = irls_solve(a, b, None, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4
        assert np.abs(x - irls_solve(a.toarray(), b, None, loss)).max() <= 1e-10


class TestMRegress:
    def test_interpolation_near_zero_cost(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((300, 5))
        x_true = rng.standard_normal(5)
        b = a @ x_true
        loss = LossSpec.huber(1.0)
        x = m_regress(a, b, loss, eps=0.5, seed=0)
        cost = regression_objective(a, b, x, None, loss)
        assert cost <= 1e-10 * m_value(loss, np.abs(b)).sum()

    def test_sampled_close_to_full(self, monkeypatch):
        loss = LossSpec.huber(1.0)
        cfg = RegressConfig(base_cap=1500)
        monkeypatch.setattr(regression, "_LEVEL_C", 0.05)
        ok = 0
        trials = 10
        for seed in range(trials):
            a, b, _ = _outlier_problem(5000, 10, seed)
            tr = {}
            x_s = m_regress(a, b, loss, eps=0.5, cfg=cfg, seed=seed, trace=tr)
            assert tr["levels"] >= 1  # genuinely sampled
            x_f = irls_solve(a, b, None, loss)
            ratio = (regression_objective(a, b, x_s, None, loss)
                     / regression_objective(a, b, x_f, None, loss))
            ok += ratio <= 1.1
        assert ok >= 9

    def test_levels_capped(self, monkeypatch):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4000, 4))
        b = rng.standard_normal(4000)
        tr = {}
        cfg = RegressConfig(base_cap=10)
        monkeypatch.setattr(regression, "_LEVEL_C", 0.001)
        m_regress(a, b, LossSpec.huber(1.0), eps=0.9, cfg=cfg, seed=1, trace=tr)
        assert tr["levels"] <= 3

    def test_huber_tall_dense_scores_exact_bases(self, monkeypatch):
        # 20000 rows of [A b], more than both the p-stable row cap of 8192 and
        # c_pi (d + 1)^2: every
        # round scores the exact p = 2 basis and makes no p-stable sketch
        made = []
        monkeypatch.setattr(conditioning, "make_pstable_sketch", lambda *args: made.append(args))
        a, b, _ = _outlier_problem(20000, 6, 13)
        loss = LossSpec.huber(1.0)
        tr = {}
        x = m_regress(a, b, loss, eps=0.5, seed=3, trace=tr)
        assert not made and tr["levels"] >= 1
        x_f = irls_solve(a, b, None, loss)
        assert (regression_objective(a, b, x, None, loss)
                <= 1.5 * regression_objective(a, b, x_f, None, loss))

    def test_lp_loss_path(self, monkeypatch):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2000, 4))
        b = a @ rng.standard_normal(4) + 0.2 * rng.standard_normal(2000)
        cfg = RegressConfig(base_cap=500)
        monkeypatch.setattr(regression, "_LEVEL_C", 0.02)
        x = m_regress(a, b, LossSpec.lp(1.0), eps=0.5, cfg=cfg, seed=2)
        x_f = irls_solve(a, b, None, LossSpec.lp(1.0))
        loss = LossSpec.lp(1.0)
        assert (regression_objective(a, b, x, None, loss)
                <= 1.2 * regression_objective(a, b, x_f, None, loss))

    def test_dense_peak_below_input_size(self):
        # the one sample reads [A b] block by block and gathers its kept rows
        # once, so the fit's peak is set by scoring or by IRLS on the sample,
        # well below the bytes of A (gathering the kept rows of each of
        # several rounds once peaked at 1.21 A.nbytes here)
        a, b, _ = _outlier_problem(100_000, 20, 12, frac=0.01)
        tr = {}
        tracemalloc.start()
        try:
            m_regress(a, b, LossSpec.huber(1.0), seed=1, trace=tr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr["levels"] == 1
        assert peak < 0.8 * a.nbytes

    def test_one_score_pass_draws_schedule_end(self, monkeypatch):
        # 20000 x 6 at eps = 0.5: the size schedule halves 20000 three times,
        # to 2500 rows below the base cap of 2880, from one scoring of [A b]
        a, b, _ = _outlier_problem(20000, 6, 16)
        calls, plans = [], []
        real_scores, real_plan = regression.weighted_leverage_scores, regression.make_plan

        def spy_scores(*args, **kwargs):
            calls.append(real_scores(*args, **kwargs))
            return calls[-1]

        def spy_plan(*args, **kwargs):
            plans.append(real_plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(regression, "weighted_leverage_scores", spy_scores)
        monkeypatch.setattr(regression, "make_plan", spy_plan)
        tr = {}
        m_regress(a, b, LossSpec.huber(1.0), eps=0.5, seed=2, trace=tr)
        size, steps = 20000.0, 0
        while size > 2880 and steps < 3:
            level = size ** 0.6 * 7 * math.log(10.0) / 0.25
            size = min(0.5 * size, max(level, 28.0))
            steps += 1
        assert steps == 3 and size == 2500.0
        assert len(calls) == 1 and calls[0].bucket_count == 1
        assert len(plans) == 1 and abs(plans[0].expected_size - size) <= 1e-9
        assert tr["levels"] == 1 and tr["base_rows_expected"] == plans[0].expected_size

    def test_one_step_schedule_matches_one_round(self, monkeypatch):
        # where the schedule takes one step, the sample is one scoring, plan
        # and draw of [A b] with the same target and salts: x is bitwise equal
        # (d + 1 = 11 <= 30 Gaussian columns, so p = 2 scores are exact)
        loss = LossSpec.huber(1.0)
        cfg = RegressConfig(base_cap=1500)
        monkeypatch.setattr(regression, "_LEVEL_C", 0.05)
        a, b, _ = _outlier_problem(5000, 10, 17)
        d, eps = 10, 0.5
        level = 0.05 * 5000 ** 0.6 * (d + 1) * math.log(10.0) / eps**2
        target = min(0.5 * 5000, max(level, 4.0 * (d + 1)))
        assert target <= 1500
        scores = conditioning.weighted_leverage_scores(
            RowView((a, b[:, None])), loss, seed=int(spawn_rng(5, 137, 0).integers(2**31)))
        sample = draw(make_plan(scores.gamma, target),
                      seed=int(spawn_rng(5, 139, 0, 0).integers(2**31)))
        idx = sample.indices
        assert idx.size > d + 1
        ref = irls_solve(a[idx], b[idx], sample.reweights, loss)
        tr = {}
        x = m_regress(a, b, loss, eps=eps, cfg=cfg, seed=5, trace=tr)
        assert tr["levels"] == 1 and tr["base_rows"] == idx.size
        assert np.array_equal(x, ref)

    def test_non_finite_rhs_rejected(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((300, 4))
        b = a @ rng.standard_normal(4)
        b[11] = np.inf
        with pytest.raises(ValueError, match="input must not contain infs or NaNs"):
            m_regress(a, b, LossSpec.huber(1.0))

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            m_regress(np.eye(4), np.ones(5), LossSpec.huber(1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sampled", [False, True], ids=["irls-only", "sampled"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("where", ["a", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_rejected(self, monkeypatch, value, where, sparse, sampled):
        # no pass checks [A b] on its own: a NaN or inf makes its column's
        # Gram diagonal non-finite, and the streamed QR's R check raises,
        # in IRLS's first step or in scoring the sample, with no warning
        scored, real = [], regression.weighted_leverage_scores
        monkeypatch.setattr(regression, "weighted_leverage_scores",
                            lambda *args, **kwargs: scored.append(1) or real(*args, **kwargs))
        n = 3000 if sampled else 300
        a, b, _ = _outlier_problem(n, 4, 18)
        (a if where == "a" else b[:, None])[n - 7, -1] = value
        cfg = RegressConfig(base_cap=200 if sampled else None)
        with pytest.raises(ValueError, match="^input must not contain infs or NaNs$"):
            m_regress(sp.csr_matrix(a) if sparse else a, b, LossSpec.huber(1.0), cfg=cfg)
        assert len(scored) == sampled

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_fit_stacks_no_block(self, monkeypatch, sparse):
        # [A b] is read part by part, in scoring and in every IRLS step:
        # neither hstack is called, where stacking cost one call per block
        calls = []

        def spy(real):
            return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

        for mod in (np, sp):
            monkeypatch.setattr(mod, "hstack", spy(mod.hstack))
        a, b, _ = _outlier_problem(20000, 8, 19)
        tr = {}
        m_regress(sp.csr_matrix(a) if sparse else a, b, LossSpec.huber(1.0),
                  cfg=RegressConfig(base_cap=400), seed=1, trace=tr)
        assert tr["levels"] == 1 and not calls


class TestSparseInput:
    def test_zero_rounds_is_irls(self):
        # n <= stop_rows: the view of [A b] is never sampled
        a, b, _ = _sparse_problem(300, 5, 12, noise=0.1)
        loss = LossSpec.huber(1.0)
        for mat in (a, a.toarray()):
            tr = {}
            x = m_regress(mat, b, loss, trace=tr)
            assert tr["levels"] == 0
            assert np.array_equal(x, irls_solve(mat, b, None, loss))

    def test_csr_matches_dense_below_dense_size(self):
        n, d = 50000, 40
        a, b, _ = _sparse_problem(n, d, 13, noise=0.1)
        loss = LossSpec.huber(1.0)
        cfg = RegressConfig(base_cap=2000)
        tr = {}
        tracemalloc.start()
        try:
            x = m_regress(a, b, loss, cfg=cfg, seed=3, trace=tr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr["levels"] >= 1
        assert peak < n * d * 8
        assert np.abs(x - m_regress(a.toarray(), b, loss, cfg=cfg, seed=3)).max() <= 1e-10

    def test_lp_scaling_reaches_rhs(self):
        # an |x|^p sample weighs each kept row of [A b] 1/q, so an L1 fit of
        # a planted solution with 1% outliers stays exact, from CSR or dense
        # input
        a, b, x_true = _sparse_problem(50000, 40, 14)
        loss = LossSpec.lp(1.0)
        cfg = RegressConfig(base_cap=2000)
        tr = {}
        x = m_regress(a, b, loss, cfg=cfg, seed=4, trace=tr)
        assert tr["levels"] >= 1
        assert np.abs(x - m_regress(a.toarray(), b, loss, cfg=cfg, seed=4)).max() <= 1e-10
        assert np.abs(x - x_true).max() <= 1e-8
