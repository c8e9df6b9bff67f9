import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import split_halves
from oracles import m_value_reference
from robsub import (
    LossSpec,
    Subspace,
    entrywise_norm_p,
    m_value,
    residual_cost,
    v_norm_p,
)
from robsub import pipeline
from robsub.core import (_COMPUTED_ENTRIES, _FACTOR_BLOCK, RowView, as_weights, matmul_dense,
                         residual_row_norms, row_norms, row_view)
from robsub.sketch import RightSketchPart, apply_right, make_sparse_sketch


class TestLossValues:
    def test_huber_below_threshold(self):
        assert m_value(LossSpec.huber(2.0), 2.0) == pytest.approx(1.0)

    def test_huber_above_threshold(self):
        assert m_value(LossSpec.huber(2.0), 4.0) == pytest.approx(3.0)

    def test_l1l2_at_zero(self):
        assert m_value(LossSpec.l1l2(), 0.0) == 0.0

    def test_lp_fractional_exponent(self):
        assert m_value(LossSpec.lp(1.5), 4.0) == pytest.approx(8.0)

    def test_even(self, all_losses):
        xs = np.linspace(-5, 5, 41)
        for loss in all_losses:
            assert np.allclose(m_value(loss, xs), m_value(loss, -xs))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            m_value(LossSpec.lp(1.0), np.nan)
        with pytest.raises(ValueError):
            m_value(LossSpec.huber(1.0), np.inf)

    def test_monotone_in_abs(self, all_losses):
        xs = np.logspace(-4, 3, 200)
        for loss in all_losses:
            vals = m_value(loss, xs)
            assert np.all(np.diff(vals) >= -1e-15)

    def test_polynomial_growth(self, all_losses):
        rng = np.random.default_rng(0)
        for loss in all_losses:
            a = np.abs(rng.standard_normal(500)) * 10 + 1e-6
            b = a * (1 + np.abs(rng.standard_normal(500)))
            ratio = m_value(loss, b) / m_value(loss, a)
            bound = (b / a) ** loss.p
            assert np.all(ratio <= bound * (1 + 1e-9))

    def test_linear_lower_growth(self, all_losses):
        rng = np.random.default_rng(1)
        for loss in all_losses:
            a = np.abs(rng.standard_normal(500)) * 10 + 1e-6
            b = a * (1 + np.abs(rng.standard_normal(500)))
            ratio = m_value(loss, b) / m_value(loss, a)
            assert np.all(ratio >= loss.c_m * (b / a) * (1 - 1e-9))

    def test_pth_root_subadditive(self, all_losses):
        rng = np.random.default_rng(2)
        x = np.abs(rng.standard_normal(500)) * 5
        y = np.abs(rng.standard_normal(500)) * 5
        for loss in all_losses:
            lhs = m_value(loss, x + y) ** (1 / loss.p)
            rhs = m_value(loss, x) ** (1 / loss.p) + m_value(loss, y) ** (1 / loss.p)
            assert np.all(lhs <= rhs * (1 + 1e-9))

    def test_doubling_bound(self, all_losses):
        # M(a+b) <= 2^p (M(a) + M(b))
        rng = np.random.default_rng(3)
        a = np.abs(rng.standard_normal(500)) * 8
        b = np.abs(rng.standard_normal(500)) * 8
        for loss in all_losses:
            lhs = m_value(loss, a + b)
            rhs = 2 ** loss.p * (m_value(loss, a) + m_value(loss, b))
            assert np.all(lhs <= rhs * (1 + 1e-9))

    def test_l1l2_sqrt_over_x_decreasing(self):
        xs = np.sort(np.abs(np.random.default_rng(4).standard_normal(500)) * 10 + 1e-5)
        h = np.sqrt(np.sqrt(1 + xs**2 / 2) - 1) / xs
        assert np.all(np.diff(h) < 0)

    def test_lp_validation(self):
        with pytest.raises(ValueError):
            LossSpec.lp(0.5)
        with pytest.raises(ValueError):
            LossSpec.lp(2.5)

    def test_m2_losses_have_p2(self):
        assert LossSpec.huber(1.0).p == 2.0
        assert LossSpec.l1l2().p == 2.0
        assert LossSpec.fair(2.0).p == 2.0


_FORMULA_LOSSES = [LossSpec.lp(1.0), LossSpec.lp(1.5), LossSpec.huber(1.0), LossSpec.l1l2(),
                   LossSpec.fair(2.0)]
_FORMULA_IDS = ["l1", "p1.5", "huber", "l1l2", "fair"]


class TestLossInPlace:
    """m_value evaluates an array in |x| and one more buffer, to the formulas' bits."""

    @staticmethod
    def _values():
        # 1e5 values: zero, both signs of 1e-8 and 1e8, the Huber threshold and
        # its neighbours, and magnitudes spread log-uniformly in between
        edges = [0.0, -0.0, 1e-8, -1e-8, 1e8, -1e8, 1.0, -1.0, 2.0,
                 np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
        rng = np.random.default_rng(11)
        mags = 10.0 ** rng.uniform(-8.0, 8.0, 100_000 - len(edges))
        return np.concatenate([edges, rng.choice([-1.0, 1.0], mags.size) * mags])

    @pytest.mark.parametrize("loss", _FORMULA_LOSSES, ids=_FORMULA_IDS)
    def test_matches_formulas_bit_for_bit(self, loss):
        x = self._values()
        assert np.array_equal(m_value(loss, x), m_value_reference(loss, x))

    @pytest.mark.parametrize("loss", _FORMULA_LOSSES, ids=_FORMULA_IDS)
    def test_zero_dim_input(self, loss):
        # numpy scalars, as the formulas evaluate them (scalar pow differs
        # from the array loop's in the last bit for some inputs)
        for v in (0.0, -1e-8, 0.5, 1.0, -2.75, 1e8, np.float64(3.0), np.array(-1.5),
                  *self._values()[::50]):
            got = m_value(loss, v)
            assert type(got) is float and got == m_value_reference(loss, v), v

    @pytest.mark.parametrize("loss", _FORMULA_LOSSES, ids=_FORMULA_IDS)
    def test_input_left_unmodified(self, loss):
        x = self._values()
        before = x.copy()
        out = m_value(loss, x)
        assert np.array_equal(x, before) and not np.shares_memory(out, x)

    @pytest.mark.parametrize("loss", _FORMULA_LOSSES, ids=_FORMULA_IDS)
    def test_peak_below_two_outputs(self, loss):
        # |x| and one more buffer, plus a boolean mask: the formulas' chain of
        # temporaries held about four n-vectors at once for Huber
        x = np.random.default_rng(12).standard_normal(1_000_000) * 3.0
        tracemalloc.start()
        try:
            out = m_value(loss, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * out.nbytes


class TestMeasures:
    def test_vnorm_identity(self):
        assert v_norm_p(np.eye(2), None, LossSpec.lp(1.0)) == pytest.approx(2.0)

    def test_vnorm_zero_matrix(self):
        assert v_norm_p(np.zeros((3, 4)), None, LossSpec.lp(1.0)) == 0.0

    def test_vnorm_single_weighted_row(self):
        a = np.array([[3.0, 4.0]])
        assert v_norm_p(a, [2.0], LossSpec.lp(1.0)) == pytest.approx(10.0)

    def test_entrywise_identity(self):
        assert entrywise_norm_p(np.eye(3), None, LossSpec.lp(1.0)) == pytest.approx(3.0)

    def test_entrywise_l2_row(self):
        assert entrywise_norm_p(np.array([[1.0, 1.0]]), None, LossSpec.lp(2.0)) == pytest.approx(2.0)

    def test_entrywise_dominates_vnorm(self):
        a = np.array([[3.0, 4.0]])
        loss = LossSpec.lp(1.0)
        assert entrywise_norm_p(a, None, loss) == pytest.approx(7.0)
        assert v_norm_p(a, None, loss) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            v_norm_p(np.eye(3), [1.0, 1.0], LossSpec.lp(1.0))
        with pytest.raises(ValueError):
            entrywise_norm_p(np.eye(3), np.ones(4), LossSpec.lp(1.0))

    def test_sparse_dense_agree(self, all_losses):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((40, 12))
        dense[rng.random((40, 12)) < 0.6] = 0.0
        sparse = sp.csr_matrix(dense)
        w = 1 + np.abs(rng.standard_normal(40))
        for loss in all_losses:
            assert v_norm_p(sparse, w, loss) == pytest.approx(v_norm_p(dense, w, loss))
            assert entrywise_norm_p(sparse, w, loss) == pytest.approx(
                entrywise_norm_p(dense, w, loss))

    def test_monotone_in_weights(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((20, 5))
        loss = LossSpec.huber(1.0)
        w = np.ones(20)
        base = v_norm_p(a, w, loss)
        w[7] = 3.0
        assert v_norm_p(a, w, loss) > base


class TestMeasureProperties:
    def test_triangle_inequality(self, all_losses):
        rng = np.random.default_rng(7)
        for loss in all_losses:
            for _ in range(60):
                a = rng.standard_normal((8, 5)) * rng.uniform(0.1, 10)
                b = rng.standard_normal((8, 5)) * rng.uniform(0.1, 10)
                lhs = v_norm_p(a + b, None, loss) ** (1 / loss.p)
                rhs = (v_norm_p(a, None, loss) ** (1 / loss.p)
                       + v_norm_p(b, None, loss) ** (1 / loss.p))
                assert lhs <= rhs * (1 + 1e-9)

    def test_scale_insensitivity(self, all_losses):
        rng = np.random.default_rng(8)
        for loss in all_losses:
            a = rng.standard_normal((10, 4))
            base = v_norm_p(a, None, loss) ** (1 / loss.p)
            for kappa in rng.uniform(1, 100, 40):
                scaled = v_norm_p(kappa * a, None, loss) ** (1 / loss.p)
                assert scaled <= kappa * base * (1 + 1e-9)
                assert scaled >= (loss.c_m * kappa) ** (1 / loss.p) * base * (1 - 1e-9)

    def test_vector_sandwich(self, all_losses):
        # (1/d) ||x||_M^p <= M(||x||_p) <= ||x||_M^p for unit weights
        rng = np.random.default_rng(9)
        for loss in all_losses:
            for _ in range(60):
                x = rng.standard_normal(6) * rng.uniform(0.1, 20)
                xmp = float(np.sum(m_value(loss, x)))
                mid = m_value(loss, np.sum(np.abs(x) ** loss.p) ** (1 / loss.p))
                assert xmp / 6 <= mid * (1 + 1e-9)
                assert mid <= xmp * (1 + 1e-9)

    def test_matrix_sandwich(self, all_losses):
        # (1/d^(1/p)) ||A||_e <= ||A||_v <= ||A||_e for p <= 2 losses
        rng = np.random.default_rng(10)
        for loss in all_losses:
            for _ in range(40):
                a = rng.standard_normal((7, 5)) * rng.uniform(0.1, 10)
                w = 1 + np.abs(rng.standard_normal(7))
                e = entrywise_norm_p(a, w, loss) ** (1 / loss.p)
                v = v_norm_p(a, w, loss) ** (1 / loss.p)
                assert v <= e * (1 + 1e-9)
                assert v >= e / 5 ** (1 / loss.p) * (1 - 1e-9)

    def test_lp_sharper_lower_sandwich(self):
        # for |x|^p with p <= 2: d^(1/2-1/p) ||A||_e <= ||A||_v
        rng = np.random.default_rng(11)
        for p in (1.0, 1.5, 2.0):
            loss = LossSpec.lp(p)
            for _ in range(40):
                a = rng.standard_normal((6, 4)) * rng.uniform(0.1, 10)
                e = entrywise_norm_p(a, None, loss) ** (1 / p)
                v = v_norm_p(a, None, loss) ** (1 / p)
                assert v >= 4 ** (0.5 - 1 / p) * e * (1 - 1e-9)


class TestWeights:
    def test_weights_below_one_rejected(self):
        with pytest.raises(ValueError):
            as_weights(np.array([1.0, 0.5]), 2)

    def test_as_weights_default(self):
        assert np.array_equal(as_weights(None, 3), np.ones(3))


class TestSubspace:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            Subspace(np.ones((3, 2)))

    def test_projector_idempotent(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        x = q @ q.T
        assert np.abs(x - x.T).max() < 1e-12
        assert np.abs(x @ x - x).max() < 1e-10

    def test_empty(self):
        s = Subspace.empty(4)
        assert s.dim == 0 and s.d == 4

    def test_residual_exact_containment(self):
        # rows in an exactly representable coordinate plane: exact zero cost
        a = np.zeros((50, 10))
        rng = np.random.default_rng(13)
        a[:, :3] = rng.standard_normal((50, 3))
        sub = Subspace(np.eye(10)[:, :3])
        assert residual_cost(a, sub, None, LossSpec.lp(1.0)) <= 1e-18

    def test_residual_empty_subspace_is_vnorm(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((9, 5))
        loss = LossSpec.huber(1.0)
        assert residual_cost(a, Subspace.empty(5), None, loss) == pytest.approx(
            v_norm_p(a, None, loss))

    def test_residual_matches_naive_loop(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((50, 10))
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        sub = Subspace(q)
        loss = LossSpec.lp(2.0)
        naive = sum(np.linalg.norm(row - (row @ q) @ q.T) ** 2 for row in a)
        assert residual_cost(a, sub, None, loss) == pytest.approx(naive, rel=1e-10)

    def test_residual_sparse_matches_dense(self):
        rng = np.random.default_rng(16)
        dense = rng.standard_normal((30, 8))
        dense[rng.random((30, 8)) < 0.5] = 0
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        sub = Subspace(q)
        d1 = residual_row_norms(dense, sub)
        d2 = residual_row_norms(sp.csr_matrix(dense), sub)
        assert np.allclose(d1, d2, atol=1e-8)

    def test_row_norms_sparse_sums_repeated_entries(self):
        # the non-canonical copy stores every entry as two halves: each norm
        # squares their sum, and the caller's matrix keeps its layout
        rng = np.random.default_rng(19)
        dense = rng.standard_normal((300, 9))
        dense[rng.random((300, 9)) < 0.5] = 0.0
        dense[7] = 0.0
        halves = split_halves(sp.csr_matrix(dense))
        data = halves.data.copy()
        ref = np.linalg.norm(dense, axis=1)
        for mat in (sp.csr_matrix(dense), halves, sp.coo_matrix(dense)):
            assert np.allclose(row_norms(mat), ref, rtol=1e-14, atol=0.0)
        assert not halves.has_canonical_format
        assert np.array_equal(halves.data, data)

    def test_row_norms_sparse_match_elementwise_square(self):
        # squares of the canonical copy's entries agree with the row sums of
        # A .* A on unsorted column indices, repeated entries and integers
        a = sp.random(2000, 50, density=0.1, format="csr", random_state=21)
        rows = np.repeat(np.arange(2000), np.diff(a.indptr))
        order = np.lexsort((-a.indices, rows))  # each row's entries in reverse
        unsorted = sp.csr_matrix((a.data[order], a.indices[order], a.indptr), shape=a.shape)
        assert not unsorted.has_sorted_indices
        ints = sp.csr_matrix(np.arange(-60, 60).reshape(20, 6))
        for mat in (unsorted, split_halves(unsorted), ints):
            ref = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1), dtype=float).ravel())
            assert np.allclose(row_norms(mat), ref, rtol=1e-12, atol=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            residual_cost(np.eye(4), Subspace(np.eye(3)[:, :1]), None, LossSpec.lp(1.0))

    def test_sparse_residual_never_copies_a(self):
        # ten row blocks of CSR input; a copy of A (A.multiply(A)) alone
        # needs 12 bytes per stored entry, and the whole-matrix pass peaked
        # at 32
        a = sp.random(20000, 200, density=0.05, format="csr", random_state=18)
        q, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((200, 3)))
        sub, loss = Subspace(q), LossSpec.huber(1.0)
        tracemalloc.start()
        try:
            cost = residual_cost(a, sub, None, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nnz * 8
        assert cost == pytest.approx(residual_cost(a.toarray(), sub, None, loss), rel=1e-10)


class TestScaledRowView:
    """A view's row scale multiplies every gathered row; only an unscaled view is sketched."""

    def _parts(self):
        rng = np.random.default_rng(17)
        dense = rng.standard_normal((500, 4))
        csr = sp.random(500, 3, density=0.4, format="csr", random_state=5)
        idx = np.sort(rng.choice(500, 200, replace=False))
        scale = np.exp(rng.standard_normal(200))
        return rng, dense, csr, idx, scale

    def _explicit(self, dense, csr, idx, scale):
        # the scaled gather of rows idx, as [dense | csr] with dense
        # blocks scaled elementwise and CSR blocks by a diagonal product
        return np.hstack([dense[idx] * scale[:, None], (sp.diags(scale) @ csr[idx]).toarray()])

    def _views(self):
        """(view, its explicit scaled gather) on dense, CSR and mixed parts, and a view of a view."""
        rng, dense, csr, idx, scale = self._parts()
        full = self._explicit(dense, csr, idx, scale)
        kept, kept_csr = dense[idx], csr[idx]  # the views' rows, gathered first
        yield RowView((kept,), scale), full[:, :4]
        yield RowView((kept_csr,), scale), full[:, 4:]
        yield row_view(RowView((kept, kept_csr)), scale), full
        # dense parts only
        yield row_view(RowView((kept[:, :1], kept[:, 1:])), scale), full[:, :4]
        yield RowView((dense[:, :3], dense[:, 3:])), dense
        # scale a scaled view again
        outer = np.exp(rng.standard_normal(200))
        yield (row_view(row_view(RowView((kept, kept_csr)), scale), outer),
               self._explicit(dense, csr, idx, scale * outer))

    @staticmethod
    def _stacked(parts):
        return np.hstack([p.toarray() if sp.issparse(p) else p for p in parts])

    def test_block_is_a_scaled_gather(self):
        for view, want in self._views():
            rows = np.arange(0, view.shape[0], 3)
            got = view.block(slice(None))
            assert len(got) == len(view.parts)  # one block per part, none stacked
            assert np.array_equal(self._stacked(got), want)
            assert np.array_equal(self._stacked(view.block(rows)), want[rows])
            assert np.array_equal(self._stacked(view.block(slice(7, None, 5))), want[7::5])

    def test_left_product_rejects_a_scaled_view(self):
        scaled = 0
        for view, want in self._views():
            op = sp.random(30, view.shape[0], density=0.05, format="csc", random_state=6)
            if view.scale is not None:
                scaled += 1
                with pytest.raises(ValueError, match="unscaled"):
                    view.left_product(op)
                continue
            got = self._stacked(view.left_product(op).block(slice(None)))
            expect = op @ want
            assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect)
            assert np.linalg.norm(expect) > 0.0
        assert scaled == 5  # and one unscaled view


class TestComputedParts:
    """Parts computed on read: A S^T (sketch.RightSketchPart) and A U (pipeline._Coordinates)."""

    def _parts(self):
        """(part, the matrix it computes) for a dense and a CSR A."""
        rng = np.random.default_rng(23)
        dense = rng.standard_normal((300, 12))
        csr = sp.random(300, 12, density=0.3, format="csr", random_state=8)
        r = make_sparse_sketch(5, 6, 12, 2)
        u = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        for a in (dense, csr):
            yield RightSketchPart(a, r), apply_right(a, r)
            yield pipeline._Coordinates(a, u), matmul_dense(a, u)

    def test_block_by_slice_and_index(self):
        idx = np.array([7, 0, 299, 7, 23])
        scale = np.exp(np.random.default_rng(24).standard_normal(300))
        for part, full in self._parts():
            view = RowView((part,))
            assert view.shape == full.shape
            for rows in (slice(10, 130), slice(7, None, 5), idx):
                got, = view.block(rows)
                assert np.allclose(got, full[rows], rtol=1e-13, atol=1e-13)
                # A S^T is computed row by row, to the bit
                assert isinstance(part, pipeline._Coordinates) or np.array_equal(got, full[rows])
            got, = RowView((part,), scale).block(idx)
            assert np.allclose(got, full[idx] * scale[idx, None], rtol=1e-13, atol=1e-13)

    def test_blocks_cover_the_rows_beside_a_stored_part(self):
        other = np.arange(600.0).reshape(300, 2)
        for part, full in self._parts():
            view = RowView((part, other))
            got = list(view.blocks(128))
            assert [(lo, hi) for lo, hi, _ in got] == [(0, 128), (128, 256), (256, 300)]
            stacked = np.vstack([np.hstack(parts) for _, _, parts in got])
            assert np.allclose(stacked, np.hstack([full, other]), rtol=1e-13, atol=1e-13)

    def test_wide_part_reads_fewer_rows(self):
        # a view that holds a computed part is read _COMPUTED_ENTRIES entries at a
        # time once it is wider than _COMPUTED_ENTRIES / _FACTOR_BLOCK columns
        a = sp.random(3000, 200, density=0.05, format="csr", random_state=9)
        wide = RightSketchPart(a, make_sparse_sketch(6, 100, 200, 4))
        assert RowView((wide,)).rows_per_block(_FACTOR_BLOCK) == _COMPUTED_ENTRIES // 100
        assert RowView((a,)).rows_per_block(_FACTOR_BLOCK) == _FACTOR_BLOCK
        narrow = RightSketchPart(a, make_sparse_sketch(6, 8, 200, 4))
        assert RowView((narrow,)).rows_per_block(_FACTOR_BLOCK) == _FACTOR_BLOCK
        rows = [hi - lo for lo, hi, _ in RowView((wide,)).blocks(_FACTOR_BLOCK)]
        assert max(rows) * 100 <= _COMPUTED_ENTRIES and sum(rows) == 3000

    def test_left_product(self):
        # op (A S^T) is the part (op A) S^T, to rounding; A U, which no sketch
        # reads, has no left product, and a scaled view of either raises
        op = sp.random(40, 300, density=0.05, format="csc", random_state=10)
        scale = np.full(300, 2.0)
        for part, full in self._parts():
            with pytest.raises(ValueError, match="unscaled"):
                RowView((part,), scale).left_product(op)
            if isinstance(part, pipeline._Coordinates):
                with pytest.raises(ValueError, match="no left product"):
                    RowView((part,)).left_product(op)
                continue
            sketched, = RowView((part,)).left_product(op).parts
            assert isinstance(sketched, RightSketchPart) and sketched.shape == (40, 6)
            got, = RowView((sketched,)).block(slice(None))
            want = op @ full
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
