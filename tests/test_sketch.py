import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (csr_block_nbytes, pstable_dense, sparse_sketch_dense, split_halves,
                      traced_peak)
from robsub import (
    Subspace,
    apply_right,
    gaussian_row_norm_estimates,
    make_gaussian_sketch,
    make_pstable_sketch,
    make_sparse_sketch,
    orthonormal_union,
)
from robsub.core import _FACTOR_BLOCK, RowView, row_view
from robsub import sketch
from robsub.conditioning import well_conditioned_basis
from robsub.sketch import rank_revealing_factor


class TestSparseSketch:
    def test_single_nonzero_per_column(self):
        sk = make_sparse_sketch(1, m=4, d=10, s=1)
        dense = sparse_sketch_dense(sk)
        assert dense.shape == (4, 10)
        for j in range(10):
            col = dense[:, j]
            assert np.count_nonzero(col) == 1
            assert np.abs(col).max() == pytest.approx(1.0)

    def test_two_nonzeros_magnitude(self):
        sk = make_sparse_sketch(1, m=8, d=10, s=2)
        dense = sparse_sketch_dense(sk)
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
        assert np.allclose(out, sparse_sketch_dense(sk).T)

    def test_zero_matrix(self):
        sk = make_sparse_sketch(5, m=7, d=9, s=2)
        assert np.all(apply_right(np.zeros((4, 9)), sk) == 0)

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
        assert g.shape == (200, 64)
        assert g.var() == pytest.approx(1.0 / 64, rel=0.05)

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
        est = gaussian_row_norm_estimates(a, g)
        true = np.linalg.norm(a, axis=1)
        frac = np.mean(np.abs(est / true - 1.0) < 0.4)
        assert frac >= 0.99


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

    @staticmethod
    def _assert_matches_svd(t, dense):
        _, ref_sv, ref_vt = np.linalg.svd(dense, full_matrices=False)
        rank = int(np.sum(ref_sv > 1e-8 * ref_sv[:1]))
        ref_v = ref_vt[:rank].T
        sv, v = rank_revealing_factor(t)
        assert sv.size == v.shape[1] == rank
        assert np.allclose(sv, ref_sv[:rank], rtol=1e-12, atol=0.0)
        assert np.abs(v @ v.T - ref_v @ ref_v.T).max() <= 1e-10

    def test_blockwise_matches_svd_dense_and_sparse(self):
        # 9000 rows: four full row blocks and a short last one, folded into
        # the running R.  Each input form gives the factor of its dense
        # rows, whose projector is the SVD one: the non-canonical CSR stores
        # every entry as two halves, which add up, and the view gathers
        # 6500 rows of a dense and a CSR part, each times its own scale
        a = self._rank_deficient(9000)
        c = sp.csr_matrix(a)
        halves = split_halves(c)
        rng = np.random.default_rng(31)
        idx = np.sort(rng.choice(9000, 6500, replace=False))
        scale = np.exp(rng.standard_normal(6500))
        view = RowView((a[idx, :8], sp.csr_matrix(a[idx, 8:])), scale)
        for t, dense in ((a, a), (c, a), (sp.coo_matrix(a), a), (halves, a),
                         (view, a[idx] * scale[:, None])):
            self._assert_matches_svd(t, dense)

    def test_one_block_is_one_qr(self):
        # up to one row block the factor is the R-only QR of t, bit for bit
        a = self._rank_deficient(2048)
        _, ref_sv, ref_vt = np.linalg.svd(np.linalg.qr(a, mode="r"), full_matrices=False)
        sv, v = rank_revealing_factor(a)
        assert np.array_equal(sv, ref_sv[:6]) and np.array_equal(v, ref_vt[:6].T)

    @pytest.mark.parametrize("rank", [40, 7])
    def test_fold_wider_than_block(self, monkeypatch, rank):
        # a 16-row block under a 40-wide R: the running R outgrows one block,
        # and the buffer holds min(n, width + block) rows
        monkeypatch.setattr(sketch, "_FACTOR_BLOCK", 16)
        rng = np.random.default_rng(rank)
        a = rng.standard_normal((100, rank)) @ rng.standard_normal((rank, 40))
        for t in (a, sp.csr_matrix(a)):
            self._assert_matches_svd(t, a)

    @pytest.mark.parametrize("sparse, conditioned", [(False, False), (True, False),
                                                     (False, True), (True, True)],
                             ids=["dense", "csr", "full-rank-dense", "full-rank-csr"])
    def test_nan_in_last_block_raises(self, sparse, conditioned):
        # a full-rank operand reaches the Gram route, a rank-deficient one
        # only the streamed QR
        if conditioned:
            a = np.random.default_rng(5).standard_normal((5000, 12))
        else:
            a = self._rank_deficient(5000)
        a[4999, 3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            rank_revealing_factor(sp.csr_matrix(a) if sparse else a)

    def test_streamed_r_holds_no_buffer(self):
        # a caller may keep R for the whole fit: it must not pin the
        # (width + block) x width buffer it was folded in
        r = sketch.r_factor(self._rank_deficient(5000))
        assert r.shape == (12, 12) and r.base is None

    @staticmethod
    def _factor_peak(n, d=200):
        a = sp.random(n, d, density=0.01, format="csr", random_state=n)
        return traced_peak(rank_revealing_factor, a)[1]

    def test_peak_independent_of_row_count(self):
        # one (width + block) x width buffer, whatever n: a stack of block Rs
        # peaks at 19.6 MB at 40000 rows, twice its peak at 20000
        peak = self._factor_peak(40000)
        assert peak < 2 * (200 + 2048) * 200 * 8
        assert peak <= 1.1 * self._factor_peak(20000)


class TestGramRoute:
    @staticmethod
    def _operands():
        """(name, t, dense rows of t): full-rank operands of several row blocks, kappa about 1e2."""
        rng = np.random.default_rng(43)
        a = rng.standard_normal((6000, 12)) * np.logspace(0.0, -2.0, 12)
        a[rng.random(a.shape) < 0.6] = 0.0
        c = sp.csr_matrix(a)
        idx = np.sort(rng.choice(6000, 4500, replace=False))
        scale = np.exp(0.5 * rng.standard_normal(4500))
        return [
            ("dense", a, a),
            ("csr", c, a),
            ("non-canonical csr", split_halves(c), a),
            ("view", RowView((a[idx, :8], sp.csr_matrix(a[idx, 8:])), scale),
             a[idx] * scale[:, None]),
        ]

    @staticmethod
    def _spy(monkeypatch):
        calls, streamed = [], sketch._streamed_r
        monkeypatch.setattr(sketch, "_streamed_r", lambda view: calls.append(1) or streamed(view))
        return calls

    def test_well_conditioned_takes_the_gram(self, monkeypatch):
        # R^T R is t^T t to rounding and t R^-1 is orthonormal, with no QR
        # of any block
        calls = self._spy(monkeypatch)
        for name, t, dense in self._operands():
            r = sketch.r_factor(t)
            assert r.shape == (12, 12) and np.array_equal(r, np.triu(r)), name
            gram = dense.T @ dense
            assert np.abs(r.T @ r - gram).max() <= 1e-12 * np.linalg.norm(dense, 2) ** 2, name
            u = dense @ np.linalg.inv(r)
            assert np.abs(u.T @ u - np.eye(12)).max() <= 1e-10, name
        assert not calls

    @pytest.mark.parametrize("kind", ["rank-deficient", "column-scaled", "wide"])
    def test_others_take_the_streamed_qr(self, monkeypatch, kind):
        # a rank-deficient operand, one with a column scaled by 1e-8 and a
        # wide one (a 16-row block makes its 30 rows several blocks) are
        # each folded by the streamed QR and meet the SVD thresholds
        calls = self._spy(monkeypatch)
        rng = np.random.default_rng(47)
        if kind == "rank-deficient":
            a = TestRankRevealingFactor._rank_deficient(5000)
        elif kind == "column-scaled":
            a = rng.standard_normal((5000, 12))
            a[:, 4] *= 1e-8
        else:
            monkeypatch.setattr(sketch, "_FACTOR_BLOCK", 16)
            a = rng.standard_normal((30, 40))
        for t in (a, sp.csr_matrix(a)):
            TestRankRevealingFactor._assert_matches_svd(t, a)
        assert len(calls) == 2

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_gram_out_of_range_takes_the_streamed_qr(self, sparse, scale):
        # a finite operand whose Gram overflows, or underflows into
        # subnormals, is factored by the streamed QR and raises nothing
        a = np.random.default_rng(53).standard_normal((5000, 10))
        t = sp.csr_matrix(a * scale) if sparse else a * scale
        r = sketch.r_factor(t)
        assert np.array_equal(r, sketch._streamed_r(sketch.row_view(t)))
        sv = np.linalg.svd(r, compute_uv=False) / scale
        assert np.allclose(sv, np.linalg.svd(a, compute_uv=False), rtol=1e-12, atol=0.0)


    @pytest.mark.parametrize("route", ["gram", "streamed"])
    @pytest.mark.parametrize("kind", ["dense+dense", "csr+dense", "dense+csr"])
    def test_multi_part_view_is_the_stacked_r(self, monkeypatch, kind, route):
        # each part of a view fills its own columns of the Gram, or of the
        # streamed QR's buffer: the R is that of the stacked rows, each times
        # its scale; a column scaled by 1e-8 leaves the Gram uncertified
        calls = self._spy(monkeypatch)
        rng = np.random.default_rng(59)
        a = rng.standard_normal((6000, 12))
        a[rng.random(a.shape) < 0.5] = 0.0
        if route == "streamed":
            a[:, 3] *= 1e-8
        left, right = a[:, :11], a[:, 11:]
        if kind == "csr+dense":
            left = sp.csr_matrix(left)
        elif kind == "dense+csr":
            left, right = a[:, :4], sp.csr_matrix(a[:, 4:])
        idx = np.sort(rng.choice(6000, 4500, replace=False))
        scale = np.exp(0.5 * rng.standard_normal(4500))
        r = sketch.r_factor(RowView((left[idx], right[idx]), scale))
        assert len(calls) == (route == "streamed")
        ref = sketch.r_factor(a[idx] * scale[:, None])
        assert np.abs(r - ref).max() <= 1e-12 * np.abs(ref).max()


class TestFactorPassResidency:
    """``r_factor`` holds its own width x width arrays and one block of rows,
    on either route: each block is dropped before the next is gathered."""

    def test_gram_route_scales_one_block_at_a_time(self, monkeypatch):
        # IRLS's operand, [A b] with every row scaled, copies each gathered block;
        # the Gram of block j was summed while block j + 1 was scaled
        n, d = 10000, 100
        rng = np.random.default_rng(33)
        a, b = rng.standard_normal((n, d)), rng.standard_normal(n)
        view = row_view(RowView((a, b[:, None])), rng.uniform(0.5, 2.0, n))
        monkeypatch.setattr(sketch, "_streamed_r", lambda v: pytest.fail("streamed QR"))
        sketch.r_factor(view)  # scipy.linalg's first use
        _, peak = traced_peak(sketch.r_factor, view)
        # the Gram, factored in place, and dsyrk's copy of A's part of it and its result
        own = 3 * (d + 1) ** 2 * 8
        assert peak < own + 1.5 * _FACTOR_BLOCK * (d + 1) * 8

    def test_streamed_route_fills_one_block_at_a_time(self, monkeypatch):
        # one column scaled by 1e-7 fails the Gram's certificate; each CSR block was
        # held, with its COO row indices, while the next one was gathered
        n, d = 10000, 100
        a = sp.random(n, d, density=0.5, format="csr", random_state=34)
        a = (a @ sp.diags(np.r_[np.ones(d - 1), 1e-7])).tocsr()
        streamed, real = [], sketch._streamed_r
        monkeypatch.setattr(sketch, "_streamed_r", lambda v: streamed.append(1) or real(v))
        sketch.r_factor(a)
        r, peak = traced_peak(sketch.r_factor, a)
        assert streamed == [1, 1]
        buf = (d + _FACTOR_BLOCK) * d * 8  # the (width + block) x width buffer
        assert peak < buf + r.nbytes + 1.5 * csr_block_nbytes(a, _FACTOR_BLOCK)


class TestOrthonormalizer:
    """The change of basis F = V diag(1/sv) that makes t F orthonormal.

    ``well_conditioned_basis`` takes it from ``rank_revealing_factor`` for
    every basis, exact and sketched."""

    @staticmethod
    def _operands():
        """(name, t, dense rows of t) for each operand form and shape."""
        rng = np.random.default_rng(41)
        a = TestRankRevealingFactor._rank_deficient(3000)  # rank 6 of 12, past one block
        idx = np.sort(rng.choice(3000, 2200, replace=False))
        scale = np.exp(rng.standard_normal(2200))
        wide = rng.standard_normal((5, 12))  # R is 5 x 12: fewer rows than columns
        return [
            ("dense", a, a),
            ("csr", sp.csr_matrix(a), a),
            ("non-canonical csr", split_halves(sp.csr_matrix(a)), a),
            ("view", RowView((a[idx, :8], sp.csr_matrix(a[idx, 8:])), scale),
             a[idx] * scale[:, None]),
            ("wide", wide, wide),
            ("wide csr", sp.csr_matrix(wide), wide),
        ]

    def test_orthonormal_and_matches_svd_route(self):
        # t F is orthonormal, F keeps as many columns as the SVD of the dense
        # rows keeps singular values, and the row norms of t F (the p = 2
        # leverage scores) are those of that SVD's left singular vectors
        for name, t, dense in self._operands():
            f = well_conditioned_basis(t, p=2.0).change_of_basis
            ref_u, ref_sv, _ = np.linalg.svd(dense, full_matrices=False)
            rank = int(np.sum(ref_sv > 1e-8 * ref_sv[0]))
            assert f.shape == (dense.shape[1], rank), name
            u = dense @ f
            assert np.abs(u.T @ u - np.eye(rank)).max() <= 1e-10, name
            ref = np.linalg.norm(ref_u[:, :rank], axis=1)
            assert np.abs(np.linalg.norm(u, axis=1) - ref).max() <= 1e-10, name

    def test_rank_zero_and_empty(self):
        # no column survives the rank rule, and the basis has width 0
        for t in (np.zeros((40, 5)), np.zeros((0, 5))):
            sv, v = rank_revealing_factor(t)
            assert sv.shape == (0,) and v.shape == (5, 0)
            basis = well_conditioned_basis(t)
            assert basis.m == 0 and basis.change_of_basis.shape == (5, 0)
        # an operand with no column takes no p-stable sketch, which would have 0 rows
        assert well_conditioned_basis(np.zeros((40, 0)), p=1.0).m == 0


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
        rows = pstable_dense(make_pstable_sketch(4, s=30, n=500, p=1.0))
        assert np.all(np.count_nonzero(rows, axis=0) == 1)

    def test_cauchy_median(self):
        # the nonzeros are the diagonal of D: i.i.d. standard Cauchy at p=1
        sk = make_pstable_sketch(0, s=50, n=20000, p=1.0)
        entries = pstable_dense(sk)
        assert np.median(np.abs(entries[entries != 0])) == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        a = pstable_dense(make_pstable_sketch(5, s=64, n=20, p=1.3))
        b = pstable_dense(make_pstable_sketch(5, s=64, n=20, p=1.3))
        assert np.array_equal(a, b)

    def test_requested_shape(self):
        sk = make_pstable_sketch(1, s=37, n=11, p=1.5)
        assert pstable_dense(sk).shape == (37, 11)

    def test_p_out_of_range(self):
        # p = 2 bases take their exact factor, so no sketch serves p = 2
        with pytest.raises(ValueError):
            make_pstable_sketch(0, s=4, n=4, p=2.0)
        with pytest.raises(ValueError):
            make_pstable_sketch(0, s=4, n=4, p=2.5)
        with pytest.raises(ValueError):
            make_pstable_sketch(0, s=4, n=4, p=0.9)

    def test_apply_matches_blocks(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((50, 7))
        sk = make_pstable_sketch(9, s=30, n=50, p=1.0)
        full = pstable_dense(sk)
        assert np.allclose(sk.apply(b), full @ b)
        bs = sp.random(50, 7, density=0.2, format="csr", random_state=3)
        out = sk.apply(bs)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, full @ bs.toarray())

    def test_apply_to_rows_by_index(self):
        # sketching a column stack of rows gathered by index adds the same
        # terms in the same order as sketching a copy of those rows of the stack
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((4000, 6)), rng.standard_normal(4000)
        csr = sp.random(4000, 6, density=0.3, format="csr", random_state=4)
        rows = np.sort(rng.choice(4000, 1500, replace=False))
        for p in (1.0, 1.5):
            sk = make_pstable_sketch(10, s=100, n=1500, p=p)
            out = np.hstack(sk.apply(RowView((a[rows], b[rows, None]))).block(slice(None)))
            assert np.array_equal(out, sk.apply(np.hstack([a, b[:, None]])[rows]))
            out, = sk.apply(RowView((csr[rows],))).block(slice(None))
            assert sp.issparse(out) and np.array_equal(out.toarray(), sk.apply(csr[rows]))

    def test_stable_scaling_law(self):
        # sums of n p-stables scale like n^(1/p): compare the p=1.5 medians of
        # the n diagonal draws' sum and of one draw, across independent seeds
        n = 256
        diags = np.array([pstable_dense(make_pstable_sketch(seed, s=8, n=n, p=1.5)).sum(axis=0)
                          for seed in range(400)])
        ratio = np.median(np.abs(diags.sum(axis=1))) / np.median(np.abs(diags[:, 0]))
        assert ratio == pytest.approx(n ** (1 / 1.5), rel=0.25)
