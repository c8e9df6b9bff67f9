import numpy as np
import pytest
import scipy.sparse as sp

from conftest import planted_lowrank
from oracles import alternating_reference, exhaustive_tiny, small_problem_cost
from robsub import LossSpec, Subspace, residual_cost
from robsub.oracle import svd_truncation_cost
from robsub.pipeline import SmallProblem, small_approx


class TestSvdTruncation:
    def test_p2_globally_optimal(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 8))
        loss = LossSpec.lp(2.0)
        _, best = svd_truncation_cost(a, 3, None, loss)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
            assert residual_cost(a, Subspace(q), None, loss) >= best - 1e-9

    def test_non_finite_rejected(self):
        a = np.random.default_rng(3).standard_normal((40, 6))
        a[4, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            svd_truncation_cost(a, 2, None, LossSpec.lp(2.0))

    def test_rank_k_input_zero(self):
        a, _ = planted_lowrank(50, 10, 2, seed=1)
        _, cost = svd_truncation_cost(a, 2, None, LossSpec.lp(1.0))
        assert cost <= 1e-10

    def test_robust_subspace_beats_svd_on_outlier_fixture(self):
        # one huge outlier row drags the p=2 subspace; the planted subspace
        # has lower l1 cost
        rng = np.random.default_rng(2)
        basis = np.zeros((2, 10))
        basis[0, 0] = basis[1, 1] = 1.0
        a = rng.standard_normal((100, 2)) @ basis + 0.01 * rng.standard_normal((100, 10))
        # outlier big enough to steal a singular direction, small enough
        # that ignoring it is cheaper than losing a signal direction
        a[0] = 30.0 * np.eye(10)[9]
        loss = LossSpec.lp(1.0)
        _, svd_cost = svd_truncation_cost(a, 2, None, loss)
        planted = Subspace(np.eye(10)[:, :2])
        assert residual_cost(a, planted, None, loss) < svd_cost

    @pytest.mark.parametrize("rows", [300, 5000])
    def test_sparse_input_not_densified(self, monkeypatch, rows):
        # one QR block and several: the cost is the dense SVD's, and the CSR
        # input is read through its R factor, never densified whole
        a = sp.random(rows, 30, density=0.2, format="csr", random_state=rows)
        a = (sp.diags(np.where(np.arange(rows) < 10, 50.0, 1.0)) @ a).tocsr()
        loss = LossSpec.huber(1.0)
        _, _, vt = np.linalg.svd(a.toarray(), full_matrices=False)
        ref = residual_cost(a, Subspace(vt[:3].T), None, loss)
        # every sparse matrix densifies through toarray (todense calls it too)
        def toarray(self, *args, **kwargs):
            if self.shape == a.shape:
                pytest.fail("the whole input was densified")
            return super(sp.spmatrix, self).toarray(*args, **kwargs)

        monkeypatch.setattr(sp.spmatrix, "toarray", toarray, raising=False)
        _, cost = svd_truncation_cost(a, 3, None, loss)
        assert abs(cost - ref) <= 1e-10 * ref

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            svd_truncation_cost(np.eye(4), 5, None, LossSpec.lp(1.0))


class TestExhaustiveTiny:
    def test_simplex_coordinate_optimum(self):
        loss = LossSpec.lp(1.0)
        sub, cost = exhaustive_tiny(np.eye(5), 2, loss, budget=300, seed=0)
        assert cost == pytest.approx(3.0, abs=1e-6)
        lev = np.sort(np.sum(sub.u * sub.u, axis=1))
        assert np.allclose(lev[-2:], 1.0, atol=1e-3)

    def test_rank_k_input_zero(self):
        a, _ = planted_lowrank(20, 5, 2, seed=3)
        _, cost = exhaustive_tiny(a, 2, LossSpec.lp(1.0), budget=200, seed=0)
        assert cost <= 1e-8

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            exhaustive_tiny(np.eye(8), 2, LossSpec.lp(1.0))
        with pytest.raises(ValueError):
            exhaustive_tiny(np.eye(5), 3, LossSpec.lp(1.0))

    def test_reproducible(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 5))
        s1, c1 = exhaustive_tiny(a, 2, LossSpec.lp(1.0), budget=100, seed=7)
        s2, c2 = exhaustive_tiny(a, 2, LossSpec.lp(1.0), budget=100, seed=7)
        assert c1 == c2
        assert np.array_equal(s1.u, s2.u)

    def test_local_search_agrees_on_tiny_instances(self):
        # solver-vs-oracle cross-validation on 6x6 subspace problems
        loss = LossSpec.lp(1.0)
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            a = rng.standard_normal((6, 6))
            sub, cost = exhaustive_tiny(a, 2, loss, budget=200, seed=seed,
                                        polish_steps=25)
            prob = SmallProblem(np.hstack([a, np.zeros((6, 1))]), None, 2)
            w = small_approx(prob, loss, seed=seed)
            assert small_problem_cost(prob, w, loss) <= 1.05 * cost + 1e-12


class TestAlternatingReference:
    def test_finds_planted_subspace_under_outliers(self):
        loss = LossSpec.lp(1.0)
        a, clean = planted_lowrank(200, 12, 2, seed=5, noise=0.05,
                                   outlier_frac=0.02, outlier_scale=40.0)
        sub, cost = alternating_reference(a, 2, loss, seed=0)
        _, svd_cost = svd_truncation_cost(a, 2, None, loss)
        assert cost < svd_cost

    def test_reproducible(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((40, 6))
        _, c1 = alternating_reference(a, 2, LossSpec.huber(1.0), seed=3)
        _, c2 = alternating_reference(a, 2, LossSpec.huber(1.0), seed=3)
        assert c1 == c2
