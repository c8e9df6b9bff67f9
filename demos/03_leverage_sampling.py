"""Leverage scores and unbiased reweighted row sampling.

Run:  python demos/03_leverage_sampling.py
"""

import numpy as np

from robsub import (
    LossSpec,
    draw,
    make_plan,
    v_norm_p,
    weighted_leverage_scores,
)

rng = np.random.default_rng(2)
loss = LossSpec.lp(1.0)

# a matrix with a handful of influential rows
a = rng.standard_normal((1000, 12))
a[:10] *= 30.0

scores = weighted_leverage_scores(a, loss, seed=5)
# at p = 1 the total is twice the entrywise l1 norm of the basis U
print(f"total sensitivity gamma = {scores.gamma_total:.2f}")
heavy = np.argsort(scores.gamma)[::-1][:10]
print(f"top-10 leverage rows: {sorted(heavy.tolist())}  (the inflated rows are 0..9)")

# reweighted sampling leaves the v-measure unbiased
plan = make_plan(scores.gamma, r=80.0)
truth = v_norm_p(a, None, loss)
estimates = []
for s in range(400):
    d = draw(plan, seed=s)
    rows = a[d.indices]
    estimates.append(float(np.dot(d.reweights, np.linalg.norm(rows, axis=1))))
print(f"\nE[sample size] = {plan.expected_size:.1f}")
print(f"true v-measure {truth:.1f}; mean over 400 reweighted draws "
      f"{np.mean(estimates):.1f} (rel err {abs(np.mean(estimates)/truth-1):.4f})")
