"""Sketching primitives: sparse right sketches and Gaussian row-norm estimates.

Run:  python demos/02_sketching.py
"""

import numpy as np
import scipy.sparse as sp

from robsub import (
    apply_right,
    gaussian_row_norm_estimates,
    make_gaussian_sketch,
    make_sparse_sketch,
)

rng = np.random.default_rng(1)

n, d, m = 2000, 400, 60
a = sp.random(n, d, density=0.05, format="csr", random_state=rng)
sketch = make_sparse_sketch(seed=7, m=m, d=d, s=4)
out = apply_right(a, sketch)
print(f"A is {n}x{d} with nnz={a.nnz}; A S^T is {out.shape[0]}x{out.shape[1]}")
print(f"multiply-adds = s * nnz = {sketch.s * a.nnz}")

# the sketch approximately preserves norms of vectors in a low-rank rowspace
basis = rng.standard_normal((3, d))
errs = []
for _ in range(200):
    y = rng.standard_normal(3) @ basis
    ys = y @ np.asarray(sketch.right_operator().todense())
    errs.append(abs(np.linalg.norm(ys) / np.linalg.norm(y) - 1.0))
print(f"||y S^T|| / ||y|| deviation over a rank-3 rowspace: "
      f"median {np.median(errs):.3f}, max {np.max(errs):.3f}")

# Gaussian row-norm estimation, and of residual row norms by deflating the sketch
dense = rng.standard_normal((500, 40))
g = make_gaussian_sketch(seed=3, d=40, t=64)
est = gaussian_row_norm_estimates(dense, g)
true = np.linalg.norm(dense, axis=1)
print(f"\n64-column Gaussian estimates: ratio to true row norms in "
      f"[{(est / true).min():.3f}, {(est / true).max():.3f}]")

q, _ = np.linalg.qr(rng.standard_normal((40, 5)))
# A (I - Q Q^T) G = A (G - Q (Q^T G)): G is deflated, and no 500 x 5 product A Q is formed
deflated = gaussian_row_norm_estimates(dense, g - q @ (q.T @ g))
true_defl = np.linalg.norm(dense - (dense @ q) @ q.T, axis=1)
print(f"with a 5-dim deflation: ratio in "
      f"[{(deflated / true_defl).min():.3f}, {(deflated / true_defl).max():.3f}]")
