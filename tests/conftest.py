import numpy as np
import pytest
import scipy.sparse as sp

from robsub import LossSpec


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
