import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (best_rank_k_in_subspace, csr_block_nbytes, planted_lowrank, r1_formula,
                      traced_peak)
from oracles import alternating_reference
from robsub import (
    LossSpec,
    Subspace,
    const_approx,
    dim_reduce,
    residual_cost,
)
from robsub import dimreduce
from robsub.core import _FACTOR_BLOCK


class TestDimReduceEdges:
    def test_non_finite_rejected(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((80, 9))
        a[10, 3] = np.nan
        xhat = Subspace(np.linalg.qr(rng.standard_normal((9, 2)))[0])
        with pytest.raises(ValueError, match="infs or NaNs"):
            dim_reduce(a, 2, 0.25, xhat, LossSpec.lp(1.0), seed=1)

    def test_contained_rowspace_returns_xhat(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 9))
        q, _ = np.linalg.qr(np.linalg.svd(a, full_matrices=False)[2].T[:, :2])
        xhat = Subspace(q)
        out = dim_reduce(a, 2, 0.25, xhat, LossSpec.lp(1.0), seed=1)
        assert out.dim == xhat.dim
        assert out.u is xhat.u  # returned unchanged, not merely equal as a span

    def test_sparse_exact_fit_floor_reads_row_blocks(self):
        # CSR rows inside span(xhat) return xhat; the zero floor's largest
        # row norm is read one row block at a time, with no squared copy of
        # A (the whole-matrix pass peaked at 25 bytes per stored entry)
        rng = np.random.default_rng(7)
        basis = sp.random(2, 400, density=0.1, format="csr", random_state=7)
        a = (sp.csr_matrix(rng.standard_normal((20000, 2))) @ basis).tocsr()
        xhat = Subspace(np.linalg.qr(basis.toarray().T)[0])
        out, peak = traced_peak(dim_reduce, a, 2, 0.25, xhat, LossSpec.lp(1.0), seed=1)
        assert out is xhat
        assert peak < 8 * a.nnz

    def test_full_space_xhat_returned_without_estimates(self, monkeypatch):
        # with xhat the whole space every residual is zero: nothing is sketched
        monkeypatch.setattr(dimreduce, "gaussian_row_norm_estimates",
                            lambda *args: pytest.fail("residuals estimated"))
        xhat = Subspace(np.eye(9))
        a = np.random.default_rng(6).standard_normal((80, 9))
        assert dim_reduce(a, 2, 0.25, xhat, LossSpec.huber(1.0), seed=1) is xhat

    def test_row_space_with_sv_returned_without_estimates(self, monkeypatch):
        # a rank-deficient input kept whole: xhat is A's row space (it carries
        # A's singular values), a proper subspace, and no row is read to find
        # that every residual is zero
        monkeypatch.setattr(dimreduce, "gaussian_row_norm_estimates",
                            lambda *args: pytest.fail("residuals estimated"))
        monkeypatch.setattr(dimreduce, "row_norms", lambda *args: pytest.fail("rows read"))
        rng = np.random.default_rng(5)
        a = rng.standard_normal((300, 2)) @ rng.standard_normal((2, 9))
        xhat = const_approx(a, 2, LossSpec.lp(1.0), seed=0)  # P_M = 200 >= d
        assert xhat.sv is not None and xhat.dim == 2
        trace = {}
        assert dim_reduce(a, 2, 0.25, xhat, LossSpec.lp(1.0), seed=1, trace=trace) is xhat
        assert trace == {"dimreduce_rows": 0, "dimreduce_rows_expected": 0.0}

    def test_empty_xhat_identity_input_full_space(self):
        out = dim_reduce(np.eye(7), 2, 0.25, Subspace.empty(7), LossSpec.lp(1.0), seed=2)
        assert out.dim == 7

    def test_k_exceeds_columns(self):
        with pytest.raises(ValueError):
            dim_reduce(np.eye(4), 5, 0.25, Subspace.empty(4), LossSpec.lp(1.0))

    def test_projector_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dim_reduce(np.eye(4), 2, 0.25, Subspace.empty(3), LossSpec.lp(1.0))

    @pytest.mark.parametrize("k, eps", [(0, 0.25), (2, 0.0), (2, 1.0)])
    def test_k_or_eps_out_of_range(self, k, eps):
        with pytest.raises(ValueError):
            dim_reduce(np.eye(4), k, eps, Subspace.empty(4), LossSpec.lp(1.0))

    def test_default_quality_is_max_2_k(self):
        for k in (1, 2, 5):
            expected = r1_formula(k, 0.25, 1.0, quality=float(max(2, k)))
            assert dimreduce._r1(k, 0.25, 1.0) == expected


class TestDimReduceProperties:
    def test_output_contains_xhat(self):
        rng = np.random.default_rng(3)
        loss = LossSpec.lp(1.0)
        for seed in range(10):
            a = rng.standard_normal((150, 12))
            xhat = const_approx(a, 2, loss, seed=seed)
            out = dim_reduce(a, 2, 0.25, xhat, loss, seed=seed)
            w = xhat.u
            assert np.linalg.norm(w - out.u @ (out.u.T @ w)) <= 1e-8

    def test_t_m_choice_by_loss_class(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((100, 8))
        xhat = Subspace.empty(8)
        tr = {}
        dim_reduce(a, 2, 0.25, xhat, LossSpec.lp(1.0), seed=0, trace=tr)
        assert tr["t_m"] == 1
        tr = {}
        dim_reduce(a, 2, 0.25, xhat, LossSpec.huber(1.0), seed=0, trace=tr)
        assert tr["t_m"] == int(math.ceil(2 * math.log2(102)))

    def test_realized_sample_size_within_3_sigma(self, set_r1, monkeypatch):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((400, 10))
        xhat = Subspace.empty(10)
        # keep probabilities sub-saturated so the check is informative
        set_r1(1.0, c1=0.02)
        monkeypatch.setattr(dimreduce, "_K2", 1.0)
        sizes, mus, sigmas = [], [], []
        for seed in range(60):
            tr = {}
            dim_reduce(a, 1, 0.9, xhat, LossSpec.lp(1.0), seed=seed, trace=tr)
            sizes.append(tr["dimreduce_rows"])
            mus.append(tr["dimreduce_rows_expected"])
        mu = np.mean(mus)
        sigma = math.sqrt(mu) + 1e-9  # Bernoulli sum variance <= mean
        assert abs(np.mean(sizes) - mu) <= 3 * sigma / math.sqrt(60)

    def test_monotone_improvement_with_warm_start(self, set_p_m, set_r1):
        # the best rank-k inside the enlarged span never costs more than the
        # best rank-k inside the bicriteria span it grew from; P_M = 4 makes
        # const_approx sample, so the bicriteria span is a proper subspace
        # that residual sampling enlarges
        loss = LossSpec.lp(1.0)
        set_p_m(4)
        set_r1(2.0)
        for seed in range(5):
            a, _ = planted_lowrank(120, 10, 3, seed=seed, noise=0.1,
                                   outlier_frac=0.02)
            xhat = const_approx(a, 3, loss, seed=seed)
            out = dim_reduce(a, 3, 0.25, xhat, loss, seed=seed)
            assert xhat.dim < out.dim
            sub_small, cost_small = best_rank_k_in_subspace(a, xhat, 3, loss, seed=seed)
            # lift the small solution into the large span as a warm start
            lifted = out.u.T @ sub_small.u
            q, _ = np.linalg.qr(lifted)
            _, cost_large = best_rank_k_in_subspace(a, out, 3, loss, seed=seed,
                                                    warm_starts=[q])
            assert cost_large <= cost_small + 1e-8


class TestDeflatedEstimates:
    """dim_reduce deflates its Gaussian sketch G once, G - W (W^T G), and never A."""

    @staticmethod
    def _spy(monkeypatch):
        """G as drawn, before its deflation, and the residual estimates of every block."""
        seen = {"est": []}
        make, estimate = dimreduce.make_gaussian_sketch, dimreduce.gaussian_row_norm_estimates

        def drawn(*args):
            g = make(*args)
            seen["g"] = g.copy()
            return g

        monkeypatch.setattr(dimreduce, "make_gaussian_sketch", drawn)
        monkeypatch.setattr(dimreduce, "gaussian_row_norm_estimates",
                            lambda rows, g: seen["est"].append(estimate(rows, g))
                            or seen["est"][-1])
        return seen

    def test_estimates_vanish_when_xhat_holds_every_row(self, monkeypatch):
        # W spans every row of A (and carries no singular values), so each
        # row's deflated estimate is zero to rounding, and xhat is returned
        seen = self._spy(monkeypatch)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 6))
        xhat = Subspace(np.linalg.qr(a.T)[0][:, :2])
        assert dim_reduce(a, 2, 0.25, xhat, LossSpec.huber(1.0), seed=1) is xhat
        est = np.concatenate(seen["est"])
        assert est.shape == (20,) and np.all(est < 1e-10)

    def test_deflation_identity(self, monkeypatch):
        # A (G - W (W^T G)) equals A (I - W W^T) G computed directly
        seen = self._spy(monkeypatch)
        rng = np.random.default_rng(8)
        a = rng.standard_normal((15, 7))
        q, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        dim_reduce(a, 2, 0.25, Subspace(q), LossSpec.huber(1.0), seed=3)
        direct = np.linalg.norm((a - (a @ q) @ q.T) @ seen["g"], axis=1)
        assert seen["g"].shape[1] > 1 and np.allclose(np.concatenate(seen["est"]), direct)

    def test_deflated_estimate_forms_no_n_by_dim_product(self, monkeypatch):
        # deflating G, not A, keeps a sparse A's n x dim(W) product A W out
        # of memory: the peak stays below that product's size
        n, d, dim = 20_000, 500, 200
        a = sp.random(n, d, density=0.01, format="csr", random_state=9)
        sub = Subspace(np.linalg.qr(np.random.default_rng(9).standard_normal((d, dim)))[0])
        seen = self._spy(monkeypatch)
        _, peak = traced_peak(dim_reduce, a, 1, 0.9, sub, LossSpec.lp(1.0), seed=4)
        g = seen["g"]
        direct = np.abs(a @ g - (a @ sub.u) @ (sub.u.T @ g)).ravel()
        assert np.allclose(np.concatenate(seen["est"]), direct)
        assert peak < 8 * n * dim


class TestScorePassResidency:
    def test_stream_holds_one_block(self, monkeypatch):
        # five CSR blocks scored by one-column Gaussian residual estimates: the
        # score generator held block j while block j + 1 was gathered
        n, d = 10000, 400
        a = sp.random(n, d, density=0.1, format="csr", random_state=37)
        xhat = Subspace(np.linalg.qr(np.random.default_rng(37).standard_normal((d, 2)))[0])
        monkeypatch.setattr(dimreduce, "_r1", lambda k, eps, p: 3.0)  # 36 rows expected
        args = (a, 2, 0.5, xhat, LossSpec.lp(1.0))
        dim_reduce(*args, seed=2)
        out, peak = traced_peak(dim_reduce, *args, seed=2)
        assert xhat.dim < out.dim < 60
        # the sample's three n-vectors: the held scores, their concatenation and
        # the uniforms; the sampled rows' union, some 40 x d, comes after the pass
        assert peak < 3 * n * 8 + 1.5 * csr_block_nbytes(a, _FACTOR_BLOCK)


class TestDimReduceQuality:
    def test_planted_quality_vs_alternating_reference(self, set_r1):
        # best rank-k inside the reduced span tracks the full-problem
        # alternating reference on planted instances
        loss = LossSpec.lp(1.0)
        set_r1(2.0)
        wins = 0
        trials = 12
        for seed in range(trials):
            a, _ = planted_lowrank(200, 15, 3, seed=100 + seed, noise=0.05,
                                   outlier_frac=0.02, outlier_scale=30.0)
            xhat = const_approx(a, 3, loss, seed=seed)
            out = dim_reduce(a, 3, 0.25, xhat, loss, seed=seed)
            _, cost = best_rank_k_in_subspace(a, out, 3, loss, seed=seed)
            _, ref = alternating_reference(a, 3, loss, seed=seed)
            wins += cost <= 1.25 * ref + 1e-9
        assert wins >= int(0.8 * trials)
