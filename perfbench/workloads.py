"""Workload inputs, entry-point calls and the per-fit output check.

Each workload builds its inputs from a seed alone and hands the library
only the generated arrays.  The three workloads are chosen so that every
layer named in the benchmark is exercised by at least one of them and
bypassed by another (BENCHMARK.json records why each was chosen):

* ``lp_dense_outliers`` runs ``approx_lp`` with the L1 loss on dense data.
  It needs n > 8192, the p-stable row cap of ``well_conditioned_basis``:
  below it the basis falls back to exact QR and ``PStableSketch.apply``
  never runs.
* ``m2_sparse`` runs ``approx_m2`` with the Huber loss on CSR data with
  nnz >> n: sparse right sketch, exact p=2 leverage recursion,
  ``small_approx`` at side d and densification; no p-stable sketch.
* ``regress_tall`` runs ``m_regress`` with the Huber loss on dense
  tall-thin data: weighted leverage scores of [A b] and IRLS; no
  bicriteria, residual sampling, small solve or p-stable sketch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

import robsub
import robsub.core
import robsub.oracle
import robsub.pipeline
import robsub.regression

K = 3
SUBSPACE_EPS = 0.25
REGRESS_EPS = 0.5
ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class Inputs:
    a: object                   # dense ndarray or CSR matrix
    b: Optional[np.ndarray]     # right-hand side (regression only)


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                  # span name of the entry point, e.g. "pipeline.approx_lp"
    loss: robsub.LossSpec
    eps: float
    sizes: dict
    smoke_sizes: dict
    generate: Callable[..., Inputs]

    @property
    def is_regression(self) -> bool:
        return self.entry == "regression.m_regress"

    def inputs(self, seed: int, smoke: bool = False) -> Inputs:
        return self.generate(seed, **(self.smoke_sizes if smoke else self.sizes))

    def reference(self, inp: Inputs) -> float:
        """Reference cost: SVD truncation for subspaces, full-data IRLS for regression."""
        if self.is_regression:
            x = robsub.regression.irls_solve(inp.a, inp.b, None, self.loss)
            return robsub.regression.regression_objective(inp.a, inp.b, x, None, self.loss)
        return robsub.oracle.svd_truncation_cost(inp.a, K, None, self.loss)[1]

    def fit(self, inp: Inputs, seed: int, trace: dict):
        """One entry-point call, looked up at call time so tracing wrappers apply."""
        if self.is_regression:
            return robsub.regression.m_regress(inp.a, inp.b, self.loss, eps=self.eps,
                                               seed=seed, trace=trace)
        entry = getattr(robsub.pipeline, self.entry.split(".")[1])
        return entry(inp.a, K, self.eps, self.loss, seed=seed, trace=trace).u

    def check(self, inp: Inputs, ref: float, out) -> tuple[bool, float]:
        """Whether the fit's output is valid, and its cost over the reference cost.

        A subspace factor must be finite, d x k and orthonormal to 1e-8; a
        regression solution finite with d entries.  Either way the cost
        ratio must not exceed 1 + eps.
        """
        out = np.asarray(out, dtype=float)
        d = inp.a.shape[1]
        if not np.all(np.isfinite(out)):
            return False, float("inf")
        if self.is_regression:
            if out.shape != (d,):
                return False, float("inf")
            cost = robsub.regression.regression_objective(inp.a, inp.b, out, None, self.loss)
        else:
            if out.shape != (d, K):
                return False, float("inf")
            if np.linalg.norm(out.T @ out - np.eye(K)) > ORTHONORMAL_TOL:
                return False, float("inf")
            cost = robsub.core.residual_cost(inp.a, robsub.Subspace(out), None, self.loss)
        ratio = cost / ref
        return bool(ratio <= 1.0 + self.eps), float(ratio)


def _outlier_scale(n: int, m: int) -> float:
    """Row scale at which m outlier rows along one direction hold twice the
    energy of one planted direction (n rows, coefficients of variance 100)."""
    return 10.0 * math.sqrt(2.0 * n / m)


def lp_dense_outliers(seed: int, n: int, d: int, outlier_frac: float = 0.003) -> Inputs:
    """Dense planted rank-3 plus Gaussian noise, with gross outlier rows.

    The outlier rows lie along one direction orthogonal to the planted
    subspace and carry more energy than any planted direction, so the SVD
    trades a planted direction for it while a robust fit does not; the
    geometry, and so the cost ratio, is the same for every seed.
    """
    rng = np.random.default_rng([seed, 1])
    basis, _ = np.linalg.qr(rng.standard_normal((d, K + 1)))
    a = (10.0 * rng.standard_normal((n, K))) @ basis[:, :K].T
    a += 0.1 * rng.standard_normal((n, d))
    rows = rng.choice(n, max(1, round(outlier_frac * n)), replace=False)
    signs = rng.choice([-1.0, 1.0], rows.size)
    a[rows] = (_outlier_scale(n, rows.size) * signs[:, None] * basis[:, K]
               + 0.1 * rng.standard_normal((rows.size, d)))
    return Inputs(a, None)


def m2_sparse(seed: int, n: int, d: int, support: int = 5, noise_nnz: int = 2,
              outlier_frac: float = 0.01) -> Inputs:
    """Sparse planted rank-3 plus sparse noise, with gross outlier rows.

    Each planted direction has ``support`` nonzeros and the outlier
    direction 3 * support, all on disjoint columns; ``noise_nnz`` noise
    entries per row are spread over all columns, so a row has about
    3 * support + noise_nnz nonzeros.  As in ``lp_dense_outliers`` the
    outlier rows outweigh any planted direction.
    """
    rng = np.random.default_rng([seed, 2])
    cols = rng.choice(d, 6 * support, replace=False)
    v = np.zeros((K + 1, d))
    for j in range(K):
        v[j, cols[j * support:(j + 1) * support]] = rng.standard_normal(support)
    v[K, cols[3 * support:]] = rng.standard_normal(3 * support)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    planted = sp.csr_matrix((10.0 * rng.standard_normal((n, K))) @ v[:K])
    noise = sp.csr_matrix((0.1 * rng.standard_normal(n * noise_nnz),
                           (np.repeat(np.arange(n), noise_nnz),
                            rng.integers(0, d, n * noise_nnz))), shape=(n, d))
    rows = np.sort(rng.choice(n, max(1, round(outlier_frac * n)), replace=False))
    keep = np.ones(n)
    keep[rows] = 0.0
    signs = rng.choice([-1.0, 1.0], rows.size)
    out_cols = cols[3 * support:]
    outliers = sp.csr_matrix(
        (np.outer(signs, _outlier_scale(n, rows.size) * v[K, out_cols]).ravel(),
         (np.repeat(rows, out_cols.size), np.tile(out_cols, rows.size))), shape=(n, d))
    a = (sp.diags(keep) @ (planted + noise) + outliers).tocsr()
    a.eliminate_zeros()
    return Inputs(a, None)


def regress_tall(seed: int, n: int, d: int, outlier_frac: float = 0.01) -> Inputs:
    """Dense Gaussian design, planted solution, gross outliers in the response."""
    rng = np.random.default_rng([seed, 3])
    a = rng.standard_normal((n, d))
    b = a @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    rows = rng.choice(n, max(1, round(outlier_frac * n)), replace=False)
    b[rows] += 100.0 * rng.standard_normal(rows.size)
    return Inputs(a, b)


WORKLOADS = {
    w.name: w for w in (
        Workload("lp_dense_outliers", "pipeline.approx_lp", robsub.LossSpec.lp(1.0),
                 SUBSPACE_EPS, dict(n=9000, d=20), dict(n=400, d=8), lp_dense_outliers),
        Workload("m2_sparse", "pipeline.approx_m2", robsub.LossSpec.huber(1.0),
                 SUBSPACE_EPS, dict(n=20000, d=200), dict(n=600, d=30), m2_sparse),
        Workload("regress_tall", "regression.m_regress", robsub.LossSpec.huber(1.0),
                 REGRESS_EPS, dict(n=300000, d=20), dict(n=4000, d=5), regress_tall),
    )
}
