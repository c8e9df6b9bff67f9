import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import small_problem_cost
from robsub import LossSpec, residual_cost
from robsub import bicriteria, conditioning, core, dimreduce, pipeline


def planted_lowrank(n, d, k, seed, noise=0.0, outlier_frac=0.0, outlier_scale=50.0):
    """Rank-k signal, optional Gaussian noise and gross outlier rows.

    Returns (matrix, clean-row mask).
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, k)) @ rng.standard_normal((k, d))
    if noise:
        a = a + noise * rng.standard_normal((n, d))
    clean = np.ones(n, dtype=bool)
    if outlier_frac:
        m = max(1, int(round(outlier_frac * n)))
        rows = rng.choice(n, m, replace=False)
        dirs = rng.standard_normal((m, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a[rows] = outlier_scale * dirs
        clean[rows] = False
    return a, clean


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csr_block_nbytes(a, rows):
    """Bytes of the largest block of ``rows`` consecutive rows of a CSR matrix,
    as a pass gathers it: its data, indices and row pointer."""
    ptr = a.indptr
    nnz = max(ptr[min(lo + rows, a.shape[0])] - ptr[lo] for lo in range(0, a.shape[0], rows))
    return int(nnz) * (a.data.itemsize + a.indices.itemsize) + (rows + 1) * ptr.itemsize


def split_halves(c):
    """A non-canonical CSR copy of c that stores every entry as two halves, which add up."""
    halves = sp.csr_matrix((np.repeat(c.data / 2.0, 2), np.repeat(c.indices, 2), 2 * c.indptr),
                           shape=c.shape)
    assert not halves.has_canonical_format
    return halves


def sparse_sketch_dense(sk):
    """The sign sketch S as a dense (rows, cols) array, built from its positions and values."""
    out = np.zeros((sk.rows, sk.cols))
    for j in range(sk.cols):
        out[sk.positions[j], j] = sk.values[j]
    return out


def pstable_dense(sk):
    """The p-stable embedding Pi as a dense (s, n) array: Pi applied to the sparse identity."""
    return sk.apply(sp.identity(sk.n, format="csr"))


def basis_rows(basis):
    """Every row of a ``WellConditionedBasis`` U, stacked from its row blocks."""
    return np.vstack([block for _, _, block in basis.iter_row_blocks()])


def basis_scores(basis, loss):
    """Unweighted leverage scores of a prebuilt basis: half of what one weight bucket scores."""
    doubled = conditioning._row_scores(loss, basis.p, basis_rows(basis))
    return conditioning.LeverageScores(doubled / 2.0, 1)


def sample_size_subspace(z, eps, delta, gamma_total, c=8.0):
    """Bernstein-style sample size C z log(1/delta) / eps^2 times gamma_total."""
    if z < 1:
        raise ValueError("z must be >= 1")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if gamma_total <= 0.0:
        raise ValueError("gamma_total must be positive")
    eps = min(eps, 1.0 - 1e-12)
    return c * z * math.log(1.0 / delta) / eps**2 * gamma_total


def best_rank_k_in_subspace(a, sub, k, loss, w=None, seed=0, warm_starts=()):
    """Best rank-k subspace inside span(U) and its residual cost, solved as a small problem.

    On the exact columns [A U, r] of the pipelines the small objective
    equals the residual cost of the projector (U W)(U W)^T.  Each factor
    in ``warm_starts`` is scored too, and the cheapest factor is returned.
    """
    prob = pipeline.SmallProblem(pipeline._exact_columns(a, sub.u), w, min(k, sub.dim))
    w_factor = pipeline.small_approx(prob, loss, seed=seed)
    w_factor = min([w_factor, *warm_starts], key=lambda f: small_problem_cost(prob, f, loss))
    out = pipeline._final_factor(sub.u, w_factor)
    return out, residual_cost(a, out, w, loss)


def r1_formula(k, eps, p, quality, c1=2.0):
    """dim_reduce's residual sample size r1 = c1 K k^(2+p) eps^(-p-1) log(k/eps + 2)."""
    return c1 * quality * k ** (2.0 + p) * eps ** (-p - 1.0) * math.log(k / eps + 2.0)


@pytest.fixture
def set_p_m(monkeypatch):
    """Replace const_approx's sample-size cap P_M by a fixed row count."""
    return lambda rows: monkeypatch.setattr(bicriteria, "_p_m", lambda k, n, loss: rows)


@pytest.fixture
def set_r1(monkeypatch):
    """Fix dim_reduce's r1 to ``r1_formula`` at a given quality bound K (and c1)."""
    return lambda quality, c1=2.0: monkeypatch.setattr(
        dimreduce, "_r1", lambda k, eps, p: r1_formula(k, eps, p, quality, c1))


@pytest.fixture
def rows_read(monkeypatch):
    """``rows_read(a)``: the list to which each gather of rows of the matrix
    ``a`` itself (a ``core._take`` of it) appends its row count."""
    def watch(a):
        reads, take = [], core._take

        def counted(part, rows):
            block = take(part, rows)
            if part is a:
                reads.append(block.shape[0])
            return block

        monkeypatch.setattr(core, "_take", counted)
        return reads
    return watch


@pytest.fixture(scope="session")
def all_losses():
    return [
        LossSpec.lp(1.0),
        LossSpec.lp(1.5),
        LossSpec.lp(2.0),
        LossSpec.huber(1.0),
        LossSpec.huber(3.0),
        LossSpec.l1l2(),
        LossSpec.fair(1.0),
    ]
