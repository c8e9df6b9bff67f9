import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize, minimize_scalar

from conftest import traced_peak
from oracles import irls_whole_vectors
from robsub import LossSpec, conditioning, regression, sampling, sketch
from robsub.core import _CHUNK, RowView, m_derivative, m_value, spawn_rng
from robsub.regression import (
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


def _sparse_problem(n, d, seed, noise=0.0, density=None):
    """CSR design with about four nonzeros per row, or ``density`` d; 1% of
    responses off by 50."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, d, density=density or 4.0 / d, format="csr", random_state=seed)
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

    def test_huber_location_matches_golden_section(self, monkeypatch):
        rng = np.random.default_rng(2)
        loss = LossSpec.huber(1.0)
        b = np.concatenate([rng.standard_normal(190), 50 + 5 * rng.standard_normal(10)])
        ones = np.ones((200, 1))
        monkeypatch.setattr(regression, "_IRLS_TOL", 1e-14)
        monkeypatch.setattr(regression, "_IRLS_MAX_ITER", 2000)
        x = irls_solve(ones, b, None, loss)
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
        real = regression.m_value

        def spy(*args):
            passes.append(1)
            return real(*args)

        monkeypatch.setattr(regression, "m_value", spy)
        _, hist = irls_solve(a, b, None, LossSpec.huber(1.0), return_history=True)
        # the iterates kept, plus at most the one step that ended the solve
        assert len(passes) <= len(hist) + 1

    def test_stops_are_relative_to_the_objective(self):
        # L1 on 5000 x 10 Gaussian rows, 0.1 noise and 50 responses off by
        # 30, with b scaled by 1 and 1e-12: the objective over the scale is
        # the same; with absolute stop, guard and floor tests the 1e-12 fit
        # stopped after two steps, 1.8e-4 above it
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5000, 10))
        b = a @ rng.standard_normal(10) + 0.1 * rng.standard_normal(5000)
        b[rng.choice(5000, 50, replace=False)] += 30.0
        loss = LossSpec.lp(1.0)
        objs = [regression_objective(a, scale * b, irls_solve(a, scale * b, None, loss),
                                     None, loss) / scale for scale in (1.0, 1e-12)]
        assert objs[1] == pytest.approx(objs[0], rel=1e-6)

    def test_exact_fit_stops_at_once(self):
        # b = 0: the first least-squares step fits exactly, and the solve
        # returns it with no reweighted step, whose floor would be 0
        a = np.random.default_rng(4).standard_normal((40, 3))
        x, hist = irls_solve(a, np.zeros(40), None, LossSpec.lp(1.0), return_history=True)
        assert hist == [0.0] and np.array_equal(x, np.zeros(3))

    def test_huber_matches_independent_solver(self, monkeypatch):
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

        monkeypatch.setattr(regression, "_IRLS_TOL", 1e-14)
        monkeypatch.setattr(regression, "_IRLS_MAX_ITER", 3000)
        x_irls = irls_solve(a, b, None, loss)
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

    def test_weighted_objective_respected(self, monkeypatch):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((60, 3))
        b = rng.standard_normal(60)
        w = np.ones(60)
        w[:5] = 100.0
        loss = LossSpec.huber(1.0)
        monkeypatch.setattr(regression, "_IRLS_TOL", 1e-14)
        monkeypatch.setattr(regression, "_IRLS_MAX_ITER", 2000)
        x = irls_solve(a, b, w, loss)
        # heavily weighted rows fit much better than the rest
        r = np.abs(a @ x - b)
        assert np.mean(r[:5]) < np.mean(r[5:])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_weighted_rank_deficient_step_is_lstsq(self, monkeypatch, sparse):
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
        monkeypatch.setattr(regression, "_IRLS_MAX_ITER", 0)
        x = irls_solve(sp.csr_matrix(a) if sparse else a, b, w, LossSpec.lp(2.0))
        assert np.abs(x - ref).max() <= 1e-10

    def test_csr_peak_below_quarter_of_dense(self):
        # every step reads the scaled [A b] one row block at a time into a
        # (d + 1 + 2048) x (d + 1) buffer, so CSR A is never densified
        n, d = 40000, 100
        a, b, _ = _sparse_problem(n, d, 15, noise=0.1)
        loss = LossSpec.huber(1.0)
        x, peak = traced_peak(irls_solve, a, b, None, loss)
        assert peak < n * d * 8 / 4
        assert np.abs(x - irls_solve(a.toarray(), b, None, loss)).max() <= 1e-10

    @pytest.mark.parametrize("loss", [LossSpec.huber(1.0), LossSpec.lp(1.0), LossSpec.lp(1.5),
                                      LossSpec.fair(2.0)], ids=["huber", "l1", "p1.5", "fair"])
    def test_chunked_vectors_match_whole_vectors(self, loss):
        # weights and losses formed a chunk at a time, over three chunks, give
        # the iterates of whole-vector passes bit for bit
        n = 2 * _CHUNK + 7
        a, b, _ = _outlier_problem(n, 6, 20)
        w = 1.0 + 3.0 * np.random.default_rng(20).random(n)
        x, hist = irls_solve(a, b, w, loss, return_history=True)
        x_ref, hist_ref = irls_whole_vectors(a, b, w, loss)
        assert len(hist) >= 3
        assert np.array_equal(hist, hist_ref) and np.array_equal(x, x_ref)

    def test_dense_peak_below_three_and_a_half_n_vectors(self):
        # the unit weights, the residual and its losses: the next weights are
        # formed in the residual's place, and losses and weights a chunk at a time
        n = 200_000
        a, b, _ = _outlier_problem(n, 10, 19, frac=0.01)
        loss = LossSpec.huber(1.0)
        irls_solve(a[:3000], b[:3000], None, loss)  # modules imported on first use
        (_, hist), peak = traced_peak(irls_solve, a, b, None, loss, return_history=True)
        assert len(hist) >= 3  # several reweighted steps
        assert peak < 3.5 * 8 * n


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

    def test_sampled_close_to_full(self):
        loss = LossSpec.huber(1.0)
        ok = 0
        trials = 10
        for seed in range(trials):
            a, b, _ = _outlier_problem(5000, 10, seed)
            tr = {}
            x_s = m_regress(a, b, loss, eps=0.5, base_cap=840, seed=seed, trace=tr)
            assert tr["levels"] >= 1  # genuinely sampled
            x_f = irls_solve(a, b, None, loss)
            ratio = (regression_objective(a, b, x_s, None, loss)
                     / regression_objective(a, b, x_f, None, loss))
            ok += ratio <= 1.1
        assert ok >= 9

    def test_sample_size_does_not_grow_with_n(self):
        # dense Huber, d = 20, eps = 0.5: at 50 000 and 400 000 rows the sample
        # expects the default base cap, ceil(16 (d+1) ln(d+1) / eps^2) = 4092
        # rows (a halving schedule kept n/8: 6 250 and 50 000)
        expected = []
        for n in (50_000, 400_000):
            a, b, _ = _outlier_problem(n, 20, 22, frac=0.01)
            tr = {}
            m_regress(a, b, LossSpec.huber(1.0), eps=0.5, seed=1, trace=tr)
            expected.append(tr["base_rows_expected"])
            del a, b
        assert expected[0] == pytest.approx(expected[1], rel=1e-12)
        assert expected[0] == pytest.approx(4092.0, rel=1e-12) and expected[0] < 10_000

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

    def test_lp_loss_path(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2000, 4))
        b = a @ rng.standard_normal(4) + 0.2 * rng.standard_normal(2000)
        x = m_regress(a, b, LossSpec.lp(1.0), eps=0.5, base_cap=88, seed=2)
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
        _, peak = traced_peak(m_regress, a, b, LossSpec.huber(1.0), seed=1, trace=tr)
        assert tr["levels"] == 1
        assert peak < 0.8 * a.nbytes

    def test_huber_peak_below_two_n_vectors(self):
        # the scores are the one n-vector of the fit: each is finished in its
        # block of the basis, the plan and its draw form O(chunk) more, and
        # the scores are let go before IRLS solves the sample
        n = 200_000
        a, b, _ = _outlier_problem(n, 10, 18, frac=0.01)
        loss = LossSpec.huber(1.0)
        m_regress(a[:5000], b[:5000], loss, seed=1)  # modules imported on first use
        tr = {}
        _, peak = traced_peak(m_regress, a, b, loss, seed=1, trace=tr)
        assert tr["levels"] == 1
        assert peak < 2 * 8 * n

    def test_huber_peak_below_half_an_n_vector(self):
        # no stage holds n scores: each chunk of them is drawn from as it is
        # finished, so the fit takes the block of the scoring basis, a few
        # chunks and the sample's candidates (2 n-vectors when the scores
        # were collected first)
        n = 200_000
        a, b, _ = _outlier_problem(n, 10, 18, frac=0.01)
        loss = LossSpec.huber(1.0)
        m_regress(a[:5000], b[:5000], loss, seed=1)  # modules imported on first use
        tr = {}
        _, peak = traced_peak(m_regress, a, b, loss, seed=1, trace=tr)
        assert tr["levels"] == 1
        assert peak < 4 * n

    def test_one_score_pass_draws_schedule_end(self, monkeypatch):
        # 20000 x 6 at eps = 0.5: one scoring of [A b], its one basis streamed
        # block by block, and one sample expecting the default base cap,
        # ceil(16 (d+1) ln(d+1) / eps^2) = 872 rows
        a, b, _ = _outlier_problem(20000, 6, 16)
        calls, plans = [], []
        real_scores, real_sample = regression.leverage_score_blocks, sampling.sample_stream

        def spy_scores(*args, **kwargs):
            calls.append([])
            for block in real_scores(*args, **kwargs):
                calls[-1].append(block[:2])
                yield block

        def spy_sample(*args, **kwargs):
            plans.append(real_sample(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(regression, "leverage_score_blocks", spy_scores)
        monkeypatch.setattr(sampling, "sample_stream", spy_sample)
        tr = {}
        m_regress(a, b, LossSpec.huber(1.0), eps=0.5, seed=2, trace=tr)
        size = math.ceil(16.0 * 7 * math.log(7.0) / 0.25)
        assert size == 872
        assert len(calls) == 1 and calls[0] == [(lo, min(lo + 2048, 20000))
                                                for lo in range(0, 20000, 2048)]
        assert len(plans) == 1 and abs(plans[0].expected - size) <= 1e-9
        assert tr["levels"] == 1 and tr["base_rows_expected"] == plans[0].expected

    def test_one_step_schedule_matches_one_round(self):
        # the sample is one scoring, plan and draw of [A b] expecting base_cap
        # rows, with the same salts: x is bitwise equal (d + 1 = 11 <= 30
        # Gaussian columns, so p = 2 scores are exact)
        loss = LossSpec.huber(1.0)
        a, b, _ = _outlier_problem(5000, 10, 17)
        d, eps, target = 10, 0.5, 840
        scores = conditioning.weighted_leverage_scores(
            RowView((a, b[:, None])), loss, seed=int(spawn_rng(5, 137, 0).integers(2**31)))
        sample = draw(make_plan(scores.gamma, target),
                      seed=int(spawn_rng(5, 139, 0, 0).integers(2**31)))
        idx = sample.indices
        assert idx.size > d + 1
        ref = irls_solve(a[idx], b[idx], sample.reweights, loss)
        tr = {}
        x = m_regress(a, b, loss, eps=eps, base_cap=target, seed=5, trace=tr)
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

    @pytest.mark.parametrize("cap", [0, -5])
    def test_non_positive_base_cap_rejected(self, monkeypatch, cap):
        # rejected before any row is scored, rather than read as a sample of 2 (d+1) rows
        monkeypatch.setattr(regression, "leverage_score_blocks",
                            lambda *args, **kw: pytest.fail("rows were scored"))
        rng = np.random.default_rng(11)
        a = rng.standard_normal((300, 8))
        with pytest.raises(ValueError, match="base_cap must be >= 1"):
            m_regress(a, a @ rng.standard_normal(8), LossSpec.huber(1.0), base_cap=cap)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sampled", [False, True], ids=["irls-only", "sampled"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("where", ["a", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_rejected(self, monkeypatch, value, where, sparse, sampled):
        # no pass checks [A b] on its own: a NaN or inf makes its column's
        # Gram diagonal non-finite, and the streamed QR's R check raises,
        # in IRLS's first step or in scoring the sample, with no warning
        scored, real = [], regression.leverage_score_blocks
        monkeypatch.setattr(regression, "leverage_score_blocks",
                            lambda *args, **kwargs: scored.append(1) or real(*args, **kwargs))
        n = 3000 if sampled else 300
        a, b, _ = _outlier_problem(n, 4, 18)
        (a if where == "a" else b[:, None])[n - 7, -1] = value
        with pytest.raises(ValueError, match="^input must not contain infs or NaNs$"):
            m_regress(sp.csr_matrix(a) if sparse else a, b, LossSpec.huber(1.0),
                      base_cap=200 if sampled else None)
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
                  base_cap=400, seed=1, trace=tr)
        assert tr["levels"] == 1 and not calls


def _sample_blocks(rows):
    """The row counts of one read of ``rows`` rows in blocks of at most 2048."""
    return [2048] * (rows // 2048) + ([rows % 2048] if rows % 2048 else [])


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_sampled_fit_reads_a_twice_and_the_sample(sparse, rows_read, monkeypatch):
    # the R factor of [A b] (the Gram route) and its scores read one pass
    # each; then IRLS reads only the sample's rows of A, through the view,
    # once per R factor and once per residual, and gathers no copy of them
    a, b, _ = _outlier_problem(5000, 8, 39)
    a = sp.csr_matrix(a) if sparse else a
    monkeypatch.setattr(sketch, "_streamed_r", lambda view: pytest.fail("streamed QR"))
    factors, losses = [], []
    real_factor, real_value = regression.r_factor, regression.m_value
    monkeypatch.setattr(regression, "r_factor",
                        lambda t: factors.append(1) or real_factor(t))
    # each residual evaluation takes the losses of its rows in one chunk
    monkeypatch.setattr(regression, "m_value",
                        lambda loss, r: losses.append(r.size) or real_value(loss, r))
    reads, tr = rows_read(a), {}
    m_regress(a, b, LossSpec.huber(1.0), base_cap=400, seed=1, trace=tr)
    one_pass = [2048, 2048, 904]
    assert tr["levels"] == 1 and set(losses) == {tr["base_rows"]}
    assert len(factors) >= tr["irls_steps"] + 1
    assert reads == one_pass + one_pass + (len(factors) + len(losses)) * _sample_blocks(
        tr["base_rows"])


def _gathered_sample(monkeypatch):
    """The list to which each ``sampling.sample_stream`` call appends its sample."""
    samples, real = [], sampling.sample_stream
    monkeypatch.setattr(sampling, "sample_stream",
                        lambda *args, **kwargs: samples.append(real(*args, **kwargs))
                        or samples[-1])
    return samples


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
class TestSampleReadThroughView:
    """A sample spanning at least four 2048-row blocks is read from A
    through the view: it is never gathered whole, and IRLS on it is IRLS on
    the gathered rows, weighted 1/q, to the bit."""

    def test_peak_below_gathered_sample(self, sparse, monkeypatch):
        # 30 entries a CSR row, so its kept rows outweigh IRLS's vectors
        if sparse:
            a, b, _ = _sparse_problem(30000, 100, 52, noise=0.1, density=0.3)
        else:
            a, b, _ = _outlier_problem(30000, 40, 51)
        loss = LossSpec.huber(1.0)
        m_regress(a, b, loss, base_cap=400, seed=1)  # imports what a fit imports on first use
        samples, tr = _gathered_sample(monkeypatch), {}
        _, peak = traced_peak(m_regress, a, b, loss, base_cap=10000, seed=1, trace=tr)
        idx = samples[0].indices
        assert tr["levels"] == 1 and idx.size == tr["base_rows"] > 3 * 2048
        kept = a[idx]
        kept_bytes = (kept.data.nbytes + kept.indices.nbytes + kept.indptr.nbytes if sparse
                      else kept.nbytes)
        assert peak < kept_bytes + 8 * idx.size  # the kept rows of A and entries of b

    @pytest.mark.parametrize("loss", [LossSpec.lp(1.0), LossSpec.huber(1.0)], ids=["l1", "huber"])
    def test_fit_is_irls_on_gathered_sample(self, sparse, loss, monkeypatch):
        a, b, _ = (_sparse_problem(8000, 40, 53, noise=0.1) if sparse
                   else _outlier_problem(8000, 40, 53))
        samples, tr = _gathered_sample(monkeypatch), {}
        x = m_regress(a, b, loss, base_cap=7000, seed=2, trace=tr)
        sample = samples[0]
        assert tr["levels"] == 1 and len(sample) == tr["base_rows"] > 3 * 2048
        assert np.array_equal(x, irls_solve(a[sample.indices], b[sample.indices],
                                            sample.reweights, loss))


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
        tr = {}
        x, peak = traced_peak(m_regress, a, b, loss, base_cap=2000, seed=3, trace=tr)
        assert tr["levels"] >= 1
        assert peak < n * d * 8
        assert np.abs(x - m_regress(a.toarray(), b, loss, base_cap=2000, seed=3)).max() <= 1e-10

    def test_lp_scaling_reaches_rhs(self):
        # an |x|^p sample weighs each kept row of [A b] 1/q, so an L1 fit of
        # a planted solution with 1% outliers stays exact, from CSR or dense
        # input
        a, b, x_true = _sparse_problem(50000, 40, 14)
        loss = LossSpec.lp(1.0)
        tr = {}
        x = m_regress(a, b, loss, base_cap=2000, seed=4, trace=tr)
        assert tr["levels"] >= 1
        assert np.abs(x - m_regress(a.toarray(), b, loss, base_cap=2000, seed=4)).max() <= 1e-10
        assert np.abs(x - x_true).max() <= 1e-8
