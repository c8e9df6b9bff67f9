"""Robust regression: sampled solve vs full IRLS vs least squares.

Run:  python demos/05_regression.py
"""

import time

import numpy as np

from robsub import LossSpec
from robsub.regression import irls_solve, m_regress, regression_objective

rng = np.random.default_rng(4)

n, d = 20000, 15
a = rng.standard_normal((n, d))
x_true = rng.standard_normal(d)
b = a @ x_true + 0.1 * rng.standard_normal(n)
out = rng.choice(n, n // 20, replace=False)
b[out] += 40.0 * rng.standard_normal(out.size)

huber = LossSpec.huber(1.0)

t0 = time.perf_counter()
x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
t_ls = time.perf_counter() - t0

t0 = time.perf_counter()
x_full = irls_solve(a, b, None, huber)
t_full = time.perf_counter() - t0

t0 = time.perf_counter()
trace = {}
x_samp = m_regress(a, b, huber, eps=0.5, seed=1, trace=trace)
t_samp = time.perf_counter() - t0

print(f"{'method':18s} {'huber cost':>12s} {'||x-x*||':>10s} {'seconds':>8s}")
for name, x, t in (("least squares", x_ls, t_ls),
                   ("full IRLS", x_full, t_full),
                   ("sampled IRLS", x_samp, t_samp)):
    cost = regression_objective(a, b, x, None, huber)
    err = np.linalg.norm(x - x_true)
    print(f"{name:18s} {cost:12.1f} {err:10.4f} {t:8.3f}")
print(f"\nsampled solve used {trace['base_rows']} of {n} rows (its plan expected "
      f"{trace['base_rows_expected']:.0f}); 5% of responses are corrupted.")
