import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from robsub import (
    Subspace,
    apply_right,
    gaussian_row_norm_estimates,
    make_gaussian_sketch,
    make_pstable_sketch,
    make_sparse_sketch,
    orthonormal_union,
)
from robsub.core import RowView
from robsub.sketch import rank_revealing_factor


class TestSparseSketch:
    def test_single_nonzero_per_column(self):
        sk = make_sparse_sketch(1, m=4, d=10, s=1)
        dense = sk.dense()
        assert dense.shape == (4, 10)
        for j in range(10):
            col = dense[:, j]
            assert np.count_nonzero(col) == 1
            assert np.abs(col).max() == pytest.approx(1.0)

    def test_two_nonzeros_magnitude(self):
        sk = make_sparse_sketch(1, m=8, d=10, s=2)
        dense = sk.dense()
        for j in range(10):
            col = dense[:, j]
            assert np.count_nonzero(col) == 2
            assert np.allclose(np.abs(col[col != 0]), 1 / np.sqrt(2))

    def test_deterministic(self):
        a = make_sparse_sketch(42, m=16, d=30, s=3)
        b = make_sparse_sketch(42, m=16, d=30, s=3)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.values, b.values)

    def test_sparsity_out_of_range(self):
        with pytest.raises(ValueError):
            make_sparse_sketch(0, m=4, d=10, s=5)

    def test_norm_unbiased_monte_carlo(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20)
        sq = []
        for seed in range(3000):
            sk = make_sparse_sketch(seed, m=12, d=20, s=2)
            op = np.asarray(sk.right_operator().todense())
            sq.append(np.linalg.norm(x @ op) ** 2)
        assert np.mean(sq) == pytest.approx(np.linalg.norm(x) ** 2, rel=0.05)


class TestApplyRight:
    def test_identity_matches_dense(self):
        sk = make_sparse_sketch(5, m=7, d=9, s=2)
        out = apply_right(np.eye(9), sk)
        assert np.allclose(out, sk.dense().T)

    def test_zero_matrix(self):
        sk = make_sparse_sketch(5, m=7, d=9, s=2)
        assert np.all(apply_right(np.zeros((4, 9)), sk) == 0)

    def test_work_count_exact(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((30, 15))
        dense[rng.random((30, 15)) < 0.7] = 0.0
        sk = make_sparse_sketch(2, m=10, d=15, s=3)
        _, work = apply_right(dense, sk, return_work=True)
        assert work == 3 * np.count_nonzero(dense)
        _, work_sp = apply_right(sp.csr_matrix(dense), sk, return_work=True)
        assert work_sp == work

    def test_sparse_dense_agree(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((25, 12))
        dense[rng.random((25, 12)) < 0.5] = 0.0
        sk = make_sparse_sketch(3, m=6, d=12, s=2)
        assert np.allclose(apply_right(dense, sk), apply_right(sp.csr_matrix(dense), sk))

    def test_shape_mismatch(self):
        sk = make_sparse_sketch(3, m=6, d=12, s=2)
        with pytest.raises(ValueError):
            apply_right(np.zeros((5, 11)), sk)

    def test_rowspace_embedding_monte_carlo(self):
        # unit vectors from a rank-3 rowspace keep their norm within 50%
        rng = np.random.default_rng(3)
        basis = rng.standard_normal((3, 60))
        hits = 0
        for seed in range(100):
            sk = make_sparse_sketch(seed, m=200, d=60, s=4)
            op = np.asarray(sk.right_operator().todense())
            ok = True
            for _ in range(10):
                y = rng.standard_normal(3) @ basis
                y /= np.linalg.norm(y)
                ok &= abs(np.linalg.norm(y @ op) - 1.0) < 0.5
            hits += ok
        assert hits >= 95

    def test_dilation_at_bicriteria_width(self):
        # m = 40 k^2 with k = 2: random rank-k rows keep norms within 50%
        rng = np.random.default_rng(4)
        k, d = 2, 80
        basis = rng.standard_normal((k, d))
        hits = 0
        for seed in range(60):
            sk = make_sparse_sketch(seed, m=40 * k * k, d=d, s=4)
            op = np.asarray(sk.right_operator().todense())
            ok = True
            for _ in range(10):
                y = rng.standard_normal(k) @ basis
                ok &= abs(np.linalg.norm(y @ op) / np.linalg.norm(y) - 1.0) < 0.5
            hits += ok
        assert hits >= 57  # >= 95%


class TestGaussianSketch:
    def test_column_variance(self):
        g = make_gaussian_sketch(0, d=200, t=64)
        assert g.g.shape == (200, 64)
        assert g.g.var() == pytest.approx(1.0 / 64, rel=0.05)

    def test_estimates_full_deflation_zero(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 6))
        g = make_gaussian_sketch(1, d=6, t=8)
        est = gaussian_row_norm_estimates(a, Subspace(np.eye(6)), g)
        assert np.all(est < 1e-10)

    def test_half_normal_mean_single_column(self):
        # t=1: E|A_i g| = sqrt(2/pi) ||A_i||
        rng = np.random.default_rng(6)
        row = rng.standard_normal((1, 10))
        total = 0.0
        reps = 20
        per = 5000
        for seed in range(reps):
            g = rng.standard_normal((10, per))
            total += np.abs(row @ g).sum()
        mean = total / (reps * per)
        ratio = mean / np.linalg.norm(row)
        assert ratio == pytest.approx(np.sqrt(2 / np.pi), rel=0.02)

    def test_half_normal_mean_with_deflation(self):
        # the deflated single-column estimate averages sqrt(2/pi) times the
        # deflated row norm, checked over 1e5 resampled sketches
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 12))
        q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
        sub = Subspace(q)
        true = np.linalg.norm(a - (a @ q) @ q.T, axis=1)
        acc = np.zeros(4)
        reps = 100_000
        block = 2000
        for start in range(0, reps, block):
            g = rng.standard_normal((12, block))
            proj = (a @ g) - (a @ q) @ (q.T @ g)
            acc += np.abs(proj).sum(axis=1)
        ratio = (acc / reps) / true
        assert np.allclose(ratio, np.sqrt(2 / np.pi), rtol=0.02)

    def test_jl_concentration_t64(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((1000, 50))
        g = make_gaussian_sketch(2, d=50, t=64)
        est = gaussian_row_norm_estimates(a, None, g)
        true = np.linalg.norm(a, axis=1)
        frac = np.mean(np.abs(est / true - 1.0) < 0.4)
        assert frac >= 0.99

    def test_deflation_identity(self):
        # A (G - W (W^T G)) equals A(I - W W^T) G computed directly
        rng = np.random.default_rng(8)
        a = rng.standard_normal((15, 7))
        q, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        g = make_gaussian_sketch(3, d=7, t=5)
        est = gaussian_row_norm_estimates(a, Subspace(q), g)
        direct = np.linalg.norm((a - (a @ q) @ q.T) @ g.g, axis=1)
        assert np.allclose(est, direct)

    def test_deflated_estimate_forms_no_n_by_dim_product(self):
        # deflating G, not A, keeps a sparse A's n x dim(W) product A W out
        # of memory: the peak stays below that product's size
        n, d, dim = 20_000, 500, 200
        a = sp.random(n, d, density=0.01, format="csr", random_state=9)
        sub = Subspace(np.linalg.qr(np.random.default_rng(9).standard_normal((d, dim)))[0])
        g = make_gaussian_sketch(4, d=d, t=1)
        tracemalloc.start()
        try:
            est = gaussian_row_norm_estimates(a, sub, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        direct = np.abs(a @ g.g - (a @ sub.u) @ (sub.u.T @ g.g)).ravel()
        assert np.allclose(est, direct)
        assert peak < 8 * n * dim


def _svd_projector(rows, rank_tol=1e-8):
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    v = vt[sv > rank_tol * sv[0]].T
    return v @ v.T


class TestRankRevealingFactor:
    @staticmethod
    def _rank_deficient(rows):
        # rank 6 of 12 columns: two duplicated, four zero
        a = np.random.default_rng(rows).standard_normal((rows, 6))
        return np.hstack([a, a[:, :2], np.zeros((rows, 4))])

    def test_blockwise_matches_svd_dense_and_sparse(self):
        # 9000 rows span several row blocks; each input form gives the same
        # factor, whose projector is the SVD one
        a = self._rank_deficient(9000)
        _, ref_sv, ref_vt = np.linalg.svd(a, full_matrices=False)
        ref_v = ref_vt[:6].T
        for t in (a, sp.csr_matrix(a), sp.coo_matrix(a)):
            sv, v = rank_revealing_factor(t)
            assert sv.size == v.shape[1] == 6
            assert np.allclose(sv, ref_sv[:6], rtol=1e-12, atol=0.0)
            assert np.abs(v @ v.T - ref_v @ ref_v.T).max() <= 1e-10

    def test_one_block_is_one_qr(self):
        # up to one row block the factor is the R-only QR of t, bit for bit
        a = self._rank_deficient(2048)
        _, ref_sv, ref_vt = np.linalg.svd(np.linalg.qr(a, mode="r"), full_matrices=False)
        sv, v = rank_revealing_factor(a)
        assert np.array_equal(sv, ref_sv[:6]) and np.array_equal(v, ref_vt[:6].T)


class TestOrthonormalUnion:
    @pytest.mark.parametrize("rows, width, sparse", [
        pytest.param(5000, 12, False, id="5000-12"),
        pytest.param(6, 40, False, id="6-40"),
        pytest.param(5000, 12, True, id="5000-12-csr"),
    ])
    def test_projector_matches_svd(self, rows, width, sparse):
        # a tall stack (past one QR row block) and a wide one, each of rank 5
        # with a repeated row; sparse stacks a CSR block with a dense row
        rng = np.random.default_rng(rows)
        block = rng.standard_normal((rows - 1, 5)) @ rng.standard_normal((5, width))
        blocks = [sp.csr_matrix(block) if sparse else block, block[:1]]
        sub = orthonormal_union(blocks, d=width)
        assert sub.dim == 5
        assert np.abs(sub.u @ sub.u.T - _svd_projector(np.vstack([block, block[:1]]))).max() <= 1e-10

    def test_zero_block_empty(self):
        sub = orthonormal_union([np.zeros((50, 7))], d=7)
        assert sub.dim == 0 and sub.d == 7

    def test_duplicates_collapse(self):
        e1 = np.eye(3)[0:1]
        sub = orthonormal_union([e1, e1], d=3)
        assert sub.dim == 1

    def test_identity_rows_full_space(self):
        sub = orthonormal_union([np.eye(4)], d=4)
        assert sub.dim == 4

    def test_random_rank3(self):
        rng = np.random.default_rng(9)
        block = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 8))
        sub = orthonormal_union([block], d=8)
        sv = np.linalg.svd(block, compute_uv=False)
        assert sub.dim == np.sum(sv > 1e-8 * sv[0]) == 3

    def test_empty_blocks(self):
        sub = orthonormal_union([], d=5)
        assert sub.dim == 0 and sub.d == 5

    def test_union_spans_both(self):
        rng = np.random.default_rng(10)
        b1 = rng.standard_normal((2, 6))
        b2 = rng.standard_normal((3, 6))
        sub = orthonormal_union([b1, b2], d=6)
        for block in (b1, b2):
            resid = block - (block @ sub.u) @ sub.u.T
            assert np.abs(resid).max() < 1e-10


class TestPStable:
    def test_one_nonzero_per_column(self):
        rows = make_pstable_sketch(4, s=30, n=500, p=1.0).row_block(0, 30)
        assert np.all(np.count_nonzero(rows, axis=0) == 1)

    def test_cauchy_median(self):
        # the nonzeros are the diagonal of D: i.i.d. standard Cauchy at p=1
        sk = make_pstable_sketch(0, s=50, n=20000, p=1.0)
        entries = sk.row_block(0, 50)
        assert np.median(np.abs(entries[entries != 0])) == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        a = make_pstable_sketch(5, s=64, n=20, p=1.3).row_block(0, 64)
        b = make_pstable_sketch(5, s=64, n=20, p=1.3).row_block(0, 64)
        assert np.array_equal(a, b)

    def test_requested_shape(self):
        sk = make_pstable_sketch(1, s=37, n=11, p=1.5)
        assert sk.row_block(0, 37).shape == (37, 11)

    def test_p2_is_countsketch(self):
        # at p=2 the diagonal holds random signs: one +-1 per column
        rows = make_pstable_sketch(6, s=40, n=3000, p=2.0).row_block(0, 40)
        nz = rows[rows != 0]
        assert nz.size == 3000 and set(np.unique(nz)) == {-1.0, 1.0}

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            make_pstable_sketch(0, s=4, n=4, p=2.5)
        with pytest.raises(ValueError):
            make_pstable_sketch(0, s=4, n=4, p=0.9)

    def test_apply_matches_blocks(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((50, 7))
        sk = make_pstable_sketch(9, s=30, n=50, p=1.0)
        full = sk.row_block(0, 30)
        assert np.allclose(sk.apply(b), full @ b)
        bs = sp.random(50, 7, density=0.2, format="csr", random_state=3)
        out = sk.apply(bs)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, full @ bs.toarray())

    def test_apply_to_rows_by_index(self):
        # sketching some rows of a column stack by index adds the same terms
        # in the same order as sketching a copy of those rows of the stack
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((4000, 6)), rng.standard_normal(4000)
        csr = sp.random(4000, 6, density=0.3, format="csr", random_state=4)
        rows = np.sort(rng.choice(4000, 1500, replace=False))
        for p in (1.0, 2.0):
            sk = make_pstable_sketch(10, s=100, n=1500, p=p)
            out = sk.apply(RowView((a, b[:, None]), rows)).block(slice(None))
            assert np.array_equal(out, sk.apply(np.hstack([a, b[:, None]])[rows]))
            out = sk.apply(RowView((csr,), rows)).block(slice(None))
            assert sp.issparse(out) and np.array_equal(out.toarray(), sk.apply(csr[rows]))

    def test_stable_scaling_law(self):
        # sums of n p-stables scale like n^(1/p): compare the p=1.5 medians of
        # the n diagonal draws' sum and of one draw, across independent seeds
        n = 256
        diags = np.array([make_pstable_sketch(seed, s=8, n=n, p=1.5).row_block(0, 8).sum(axis=0)
                          for seed in range(400)])
        ratio = np.median(np.abs(diags.sum(axis=1))) / np.median(np.abs(diags[:, 0]))
        assert ratio == pytest.approx(n ** (1 / 1.5), rel=0.25)
