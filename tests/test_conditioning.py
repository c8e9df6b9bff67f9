import numpy as np
import pytest
import scipy.sparse as sp

from conftest import basis_rows, basis_scores, traced_peak
from robsub import (
    LossSpec,
    const_approx,
    make_sparse_sketch,
    weighted_leverage_scores,
    well_conditioned_basis,
)
from robsub import conditioning, sampling
from robsub.core import _FACTOR_BLOCK, RowView, m_value


@pytest.fixture
def sketches(monkeypatch):
    """Every p-stable sketch that conditioning makes, in order."""
    made = []
    make = conditioning.make_pstable_sketch
    monkeypatch.setattr(conditioning, "make_pstable_sketch",
                        lambda *args: made.append(make(*args)) or made[-1])
    return made


class TestWellConditionedBasis:
    def test_identity_p2_orthonormal(self, sketches):
        basis = well_conditioned_basis(np.eye(5), p=2.0, seed=0)
        u = basis_rows(basis)
        assert np.allclose(u.T @ u, np.eye(5), atol=1e-12)
        assert not sketches

    def test_dual_norm_condition_p1(self, sketches):
        # the unsketched basis is orthonormal, so for sampled x
        # ||x||_inf <= ||x||_2 = ||U x||_2 <= ||U x||_1
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 5))
        basis = well_conditioned_basis(a, p=1.0, seed=3)
        assert not sketches
        u = basis_rows(basis)
        for _ in range(200):
            x = rng.standard_normal(5)
            assert np.abs(x).max() <= np.abs(u @ x).sum() * (1 + 1e-9)

    def test_dual_norm_condition_p15(self, sketches):
        # at p=1.5 the dual exponent is 3: ||x||_3 <= ||U x||_1.5
        rng = np.random.default_rng(20)
        a = rng.standard_normal((150, 4))
        basis = well_conditioned_basis(a, p=1.5, seed=4)
        assert not sketches
        u = basis_rows(basis)
        for _ in range(200):
            x = rng.standard_normal(4)
            lhs = np.sum(np.abs(x) ** 3.0) ** (1 / 3.0)
            rhs = np.sum(np.abs(u @ x) ** 1.5) ** (1 / 1.5)
            assert lhs <= rhs * (1 + 1e-9)

    def test_sketched_h_reduces_to_rank(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((100, 3)) @ rng.standard_normal((3, 20))
        sk = make_sparse_sketch(7, m=3, d=20, s=2)
        h = np.asarray(sk.right_operator().todense())
        basis = well_conditioned_basis(a @ h, p=1.0, seed=1)
        assert basis.m == 3

    def test_rank_deficient_columns_dropped(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((60, 3))
        a = np.hstack([a, a[:, :2]])  # duplicate columns
        basis = well_conditioned_basis(a, p=1.0, seed=2)
        assert basis.m == 3

    def test_p2_factor_rank_deficient(self):
        # duplicated and zero columns, past one QR row block: m is the true
        # rank, A F is orthonormal and the scores are the SVD-exact ones
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3000, 4))
        a = np.hstack([a, a[:, :2], np.zeros((3000, 2))])
        basis = well_conditioned_basis(a, p=2.0, seed=0)
        assert basis.m == np.linalg.matrix_rank(a) == 4
        u = basis_rows(basis)
        assert np.abs(u.T @ u - np.eye(4)).max() <= 1e-10
        q = np.linalg.svd(a, full_matrices=False)[0][:, :4]
        scores = basis_scores(basis, LossSpec.lp(2.0))
        assert np.abs(scores.gamma - np.sum(q**2, axis=1)).max() <= 1e-10

    @staticmethod
    def _sketched_basis(sketches, a, p, seed):
        """Basis of a with n above the row cap, and the one sketch Pi it used."""
        basis = well_conditioned_basis(a, p=p, seed=seed)
        assert len(sketches) == 1 and sketches[0].s < a.shape[0]
        return basis, sketches[0]

    def test_sketched_factor_orthonormal_p15(self, sketches):
        # n above the row cap: Pi A F is orthonormal for the sketch Pi used
        a = np.random.default_rng(24).standard_normal((9000, 5))
        basis, pi = self._sketched_basis(sketches, a, 1.5, 8)
        pu = pi.apply(basis_rows(basis))
        assert np.abs(pu.T @ pu - np.eye(5)).max() <= 1e-10

    def _check_large_n(self, sketches, p, data_seed, seed):
        # n = 20000 sends the p-stable draws through the sketched route: Pi U
        # is orthonormal, U = A F spans the column space of A, and U is
        # read _FACTOR_BLOCK rows at a time
        a = np.random.default_rng(data_seed).standard_normal((20000, 3))
        basis, pi = self._sketched_basis(sketches, a, p, seed)
        u = basis_rows(basis)
        pu = pi.apply(u)
        assert np.abs(pu.T @ pu - np.eye(3)).max() <= 1e-10
        assert np.allclose(u, a @ basis.change_of_basis, rtol=0.0, atol=1e-12)
        assert np.linalg.matrix_rank(np.hstack([u, a]), tol=1e-8) == 3
        assert [(lo, hi) for lo, hi, _ in basis.iter_row_blocks()] == [
            (lo, min(lo + _FACTOR_BLOCK, 20000)) for lo in range(0, 20000, _FACTOR_BLOCK)]

    def test_stable_sketch_path_large_n(self, sketches):
        # p = 1: Cauchy draws
        self._check_large_n(sketches, 1.0, 19, 3)

    def test_stable_sketch_path_large_n_p15(self, sketches):
        # p = 1.5: Chambers-Mallows-Stuck draws
        self._check_large_n(sketches, 1.5, 21, 6)

    def test_full_width_and_one_sketch_only_below_p2(self, sketches):
        # exact and sketched bases, at p = 1 and p = 2, dense and CSR, keep
        # all 3 columns; only the p = 1 basis, whose 400 rows exceed
        # c_pi m0^2 = 180, takes a sketch; the leverage scores build one basis
        rng = np.random.default_rng(25)
        small = rng.standard_normal((400, 3))
        for a, p, sketched in ((small, 2.0, 0), (sp.csr_matrix(small), 2.0, 0), (small, 1.0, 1)):
            sketches.clear()
            basis = well_conditioned_basis(a, p=p, seed=1)
            assert basis.m == 3 and len(sketches) == sketched
        assert weighted_leverage_scores(small, LossSpec.huber(1.0)).bucket_count == 1

    def test_p2_exact_at_every_n(self, sketches):
        # p = 2 takes the exact factor at any n, above c_pi m0^2 and 8192 rows
        # too, with 30 rows of leverage far above the rest: no sketch, and
        # the scores are twice the SVD leverage scores
        heavy = np.random.default_rng(0).standard_normal((20000, 8))
        heavy[:30] *= 100.0
        inputs = [heavy, np.random.default_rng(8821).standard_normal((8821, 21))]
        leverage = [np.sum(np.linalg.svd(a, full_matrices=False)[0] ** 2, axis=1) for a in inputs]
        for a, lev in zip(inputs, leverage):
            assert well_conditioned_basis(a, p=2.0, seed=1).m == a.shape[1]
            scores = weighted_leverage_scores(a, LossSpec.lp(2.0), seed=1)
            assert np.abs(scores.gamma - 2.0 * lev).max() <= 1e-10
        assert not sketches

    def test_colspace_preserved(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((50, 6))
        basis = well_conditioned_basis(a, p=1.0, seed=8)
        u = basis_rows(basis)
        # u and a span the same column space
        assert np.linalg.matrix_rank(np.hstack([u, a]), tol=1e-8) == 6


    def test_view_rows_summed_part_by_part(self):
        # U = A F of a view adds each part's product with its rows of F: a
        # CSR part, a wide dense part and a one-column dense part updated in
        # place, over several row blocks, give the stacked product's rows
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5000, 7))
        a[rng.random(a.shape) < 0.4] = 0.0
        idx = np.sort(rng.choice(5000, 4000, replace=False))
        scale = np.exp(rng.standard_normal(4000))
        view = RowView((sp.csr_matrix(a[idx, :3]), a[idx, 3:6], a[idx, 6:]), scale)
        basis = well_conditioned_basis(view)
        want = (a[idx] * scale[:, None]) @ basis.change_of_basis
        assert np.abs(basis_rows(basis) - want).max() <= 1e-12 * np.abs(want).max()


class TestConstApproxTarget:
    def test_const_approx_target_capped(self, set_p_m, monkeypatch):
        # the one sample expects P_M rows: 50 k^2 at k = 1, and a P_M set to 40
        plans = []
        real = sampling.sample_stream
        monkeypatch.setattr(sampling, "sample_stream",
                            lambda stage, blocks, r, *args: plans.append(r)
                            or real(stage, blocks, r, *args))
        a = np.random.default_rng(33).standard_normal((3000, 60))
        const_approx(a, 1, LossSpec.lp(1.0), seed=2)  # P_M = 50 < d, d' = 40
        set_p_m(40)
        const_approx(a, 1, LossSpec.lp(1.0), seed=2)
        assert plans == [50, 40]


class TestNonFiniteInput:
    def test_basis_and_scores_reject_nan(self):
        a = np.random.default_rng(34).standard_normal((100, 5))
        a[7, 2] = np.nan
        for p in (1.0, 2.0):
            with pytest.raises(ValueError, match="infs or NaNs"):
                well_conditioned_basis(a, p=p, seed=0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            weighted_leverage_scores(a, LossSpec.huber(1.0), seed=0)

    def test_sketched_route_rejects_inf(self):
        a = np.random.default_rng(35).standard_normal((9000, 4))
        a[4000, 1] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            well_conditioned_basis(a, p=1.0, seed=0)


class TestLeverageScores:
    def test_orthonormal_columns_sum_to_d(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        basis = well_conditioned_basis(q, p=2.0, seed=0)
        assert np.sum(basis_rows(basis) ** 2) == pytest.approx(5.0)

    def test_identity_scores_equal(self):
        basis = well_conditioned_basis(np.eye(6), p=1.0, seed=4)
        scores = basis_scores(basis, LossSpec.lp(1.0))
        assert np.allclose(scores.gamma, scores.gamma[0])

    def test_sensitivity_upper_bound_lp(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((150, 6))
        loss = LossSpec.lp(1.0)
        basis = well_conditioned_basis(a, p=1.0, seed=11)
        scores = basis_scores(basis, loss)
        for _ in range(100):
            y = rng.standard_normal(6)
            contrib = m_value(loss, a @ y)
            ratios = contrib / contrib.sum()
            assert np.all(ratios <= scores.gamma + 1e-12)

    def test_sensitivity_upper_bound_m2(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((120, 5))
        loss = LossSpec.huber(1.0)
        basis = well_conditioned_basis(a, p=2.0, seed=12)
        scores = basis_scores(basis, loss)
        for _ in range(100):
            y = rng.standard_normal(5) * rng.uniform(0.1, 10)
            contrib = m_value(loss, a @ y)
            ratios = contrib / contrib.sum()
            assert np.all(ratios <= scores.gamma + 1e-12)

    def test_m2_total_scaling(self):
        # orthonormal basis, unit weights: gamma <= c sqrt(d n) / c_m
        rng = np.random.default_rng(11)
        a = rng.standard_normal((400, 8))
        loss = LossSpec.huber(1.0)
        basis = well_conditioned_basis(a, p=2.0, seed=14)
        scores = basis_scores(basis, loss)
        bound = 2.0 * np.sqrt(8 * 400) / loss.c_m
        assert scores.gamma_total <= bound

    def test_column_space_invariance_p2(self):
        # scores depend only on the column space for the orthonormal path
        rng = np.random.default_rng(12)
        a = rng.standard_normal((60, 5))
        m = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        loss = LossSpec.huber(1.0)
        s1 = basis_scores(well_conditioned_basis(a, p=2.0, seed=7), loss)
        s2 = basis_scores(well_conditioned_basis(a @ m, p=2.0, seed=7), loss)
        assert np.allclose(s1.gamma, s2.gamma, rtol=1e-8)

    def test_scale_invariance_p1(self):
        # scalar right-multiplication with a reused sketch seed leaves
        # the p=1 scores unchanged
        rng = np.random.default_rng(13)
        a = rng.standard_normal((80, 4))
        loss = LossSpec.lp(1.0)
        s1 = basis_scores(well_conditioned_basis(a, p=1.0, seed=21), loss)
        s2 = basis_scores(well_conditioned_basis(3.0 * a, p=1.0, seed=21), loss)
        assert np.allclose(s1.gamma, s2.gamma, rtol=1e-8)


class TestScorePassResidency:
    def test_stream_holds_one_block_of_the_basis(self):
        # the p = 2 basis of a dense A, drained by the sample as its scores stream:
        # each 2048 x d block of U was held by both generators while the next was
        # formed.  A's own blocks are views, and take no memory
        n, d = 10000, 100
        a = np.random.default_rng(35).standard_normal((n, d))
        loss = LossSpec.huber(1.0)

        def drain():
            blocks = conditioning.leverage_score_blocks(a, loss, seed=3)
            return sampling.sample_stream("stage", blocks, 400.0, 5, None)

        drain()  # scipy.linalg's first use
        sample, peak = traced_peak(drain)
        assert 0 < len(sample) < n
        # the change of basis, and the sample's three n-vectors: the held scores,
        # their concatenation and the uniforms
        own = d * d * 8 + 3 * n * 8
        assert peak < own + 1.5 * _FACTOR_BLOCK * d * 8


class TestWeightedLeverageScores:
    def test_unit_weights_double_unweighted(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((50, 4))
        loss = LossSpec.huber(1.0)
        ws = weighted_leverage_scores(a, loss, seed=5)
        assert ws.bucket_count == 1
        basis = well_conditioned_basis(a, p=2.0, seed=0)
        us = basis_scores(basis, loss)
        assert np.allclose(ws.gamma, 2.0 * us.gamma, rtol=1e-10)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_all_zero_operand_builds_no_basis(self, sparse):
        a = sp.csr_matrix((30, 4)) if sparse else np.zeros((30, 4))
        for loss in (LossSpec.lp(1.0), LossSpec.huber(1.0)):
            ws = weighted_leverage_scores(a, loss, seed=6)
            assert ws.bucket_count == 0
            assert np.array_equal(ws.gamma, np.zeros(30))

    def test_weighted_sensitivity(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((120, 5))
        loss = LossSpec.huber(1.0)
        ws = weighted_leverage_scores(a, loss, seed=7)
        for _ in range(100):
            y = rng.standard_normal(5) * rng.uniform(0.1, 5)
            contrib = m_value(loss, a @ y)
            ratios = contrib / contrib.sum()
            assert np.all(ratios <= ws.gamma + 1e-12)

    def test_zero_rows_score_zero(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((20, 4))
        a[3] = 0.0
        ws = weighted_leverage_scores(a, LossSpec.lp(1.0), seed=8)
        assert ws.gamma[3] == pytest.approx(0.0, abs=1e-12)

    def test_gauss_estimated_scores_close(self):
        # 300 columns: the basis is wider than the 256 Gaussian columns
        rng = np.random.default_rng(18)
        a = rng.standard_normal((1000, 300))
        loss = LossSpec.huber(1.0)
        exact = weighted_leverage_scores(a, loss, seed=9)
        est = weighted_leverage_scores(a, loss, seed=9, gauss_t=256)
        ratio = est.gamma / exact.gamma
        assert not np.array_equal(est.gamma, exact.gamma)
        assert np.median(np.abs(ratio - 1.0)) < 0.2

    def test_narrow_basis_scored_exactly(self):
        # a basis no wider than gauss_t gets its exact row norms: the
        # Gaussian estimate would cost no less
        rng = np.random.default_rng(19)
        a = rng.standard_normal((300, 6))
        loss = LossSpec.huber(1.0)
        for t in (6, 30):
            est = weighted_leverage_scores(a, loss, seed=9, gauss_t=t)
            assert np.array_equal(est.gamma, weighted_leverage_scores(a, loss, seed=9).gamma)
