"""Acceptance suite: one quantitative end-to-end check per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
enforces its tolerances with assertions.  Tolerances are fixed here, not
calibrated at runtime.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import best_rank_k_in_subspace, planted_lowrank, sample_size_subspace
from oracles import alternating_reference, small_problem_cost, small_problem_grid
from robsub import (
    LossSpec,
    Subspace,
    apply_right,
    draw,
    entrywise_norm_p,
    make_plan,
    make_sparse_sketch,
    residual_cost,
    v_norm_p,
    weighted_leverage_scores,
)
from robsub.core import _FACTOR_BLOCK, ComputedPart, m_value, row_view
from robsub.dimreduce import dim_reduce
from robsub.bicriteria import const_approx
from robsub.hardness import (
    adjacency_excess,
    brute_force_best_coordinate,
    clique_margin_bound,
    complete_graph,
    gen_gadget,
    petersen_graph,
    simplex_cost,
)
from robsub.oracle import svd_truncation_cost
from robsub.pipeline import (
    SmallProblem,
    approx_lp,
    approx_m2,
    small_approx,
)
from robsub.regression import irls_solve, m_regress, regression_objective


def _report(cid, ok, detail):
    print(f"\nACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c01_simplex_coordinate_optimality():
    # every coordinate k-subspace of the d-simplex costs exactly d-k, and
    # no subspace costs less
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_low = np.inf
    rng = np.random.default_rng(0)
    for d in range(4, 9):
        for k in range(1, d):
            for p in (1.0, 1.5):
                eye = np.eye(d)
                for comb in itertools.combinations(range(d), k):
                    c = simplex_cost(eye[:, list(comb)], p)
                    worst_eq = max(worst_eq, abs(c - (d - k)))
                q = np.linalg.qr(rng.standard_normal((1000, d, k)))[0]
                lev = np.sum(q * q, axis=2)
                costs = np.sum(np.clip(1 - lev, 0, None) ** (p / 2), axis=1)
                worst_low = min(worst_low, float(np.min(costs - (d - k))))
    elapsed = time.perf_counter() - t0
    ok = worst_eq <= 1e-9 and worst_low >= -1e-9 and elapsed < 2.0
    assert _report("C01", ok,
                   f"coordinate cost deviation {worst_eq:.2e}, random-subspace "
                   f"slack {worst_low:.2e}, {elapsed:.2f}s")


def test_c02_clique_gap():
    # brute-force minima of the K4 (clique) and Petersen (no clique)
    # gadgets separate by the predicted additive margin, within factor 10
    t0 = time.perf_counter()
    k4 = gen_gadget(complete_graph(4), 3, b1=1e4, b2=10**6)
    pet = gen_gadget(petersen_graph(), 3, b1=1e4, b2=10**6)
    _, cost_k4 = brute_force_best_coordinate(k4, 1.0)
    _, cost_pet = brute_force_best_coordinate(pet, 1.0)
    ex_k4 = adjacency_excess(k4, cost_k4)
    ex_pet = adjacency_excess(pet, cost_pet)
    margin = ex_pet - ex_k4
    bound = clique_margin_bound(k4, 1.0)
    elapsed = time.perf_counter() - t0
    ok = (margin > 0 and bound / 10 <= margin <= 10 * bound and elapsed < 5.0)
    assert _report("C02", ok,
                   f"measured margin {margin:.6f} vs bound {bound:.6f} "
                   f"(ratio {margin / bound:.2f}), clique cheaper: {margin > 0}, "
                   f"{elapsed:.2f}s")


def test_c03_measure_inequalities(all_losses):
    # triangle inequality, scale insensitivity, entrywise/vector sandwiches,
    # the doubling bound, and monotonicity of the l1-l2 root ratio: 500+
    # random cases each, zero violations at 1e-9 relative tolerance
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    tol = 1e-9
    violations = 0
    cases = 0
    for loss in all_losses:
        p = loss.p
        for _ in range(80):
            a = rng.standard_normal((6, 5)) * rng.uniform(0.05, 20)
            b = rng.standard_normal((6, 5)) * rng.uniform(0.05, 20)
            va = v_norm_p(a, None, loss) ** (1 / p)
            vb = v_norm_p(b, None, loss) ** (1 / p)
            vab = v_norm_p(a + b, None, loss) ** (1 / p)
            violations += vab > (va + vb) * (1 + tol)
            kappa = rng.uniform(1, 100)
            vk = v_norm_p(kappa * a, None, loss) ** (1 / p)
            violations += vk > kappa * va * (1 + tol)
            violations += vk < (loss.c_m * kappa) ** (1 / p) * va * (1 - tol)
            ew = entrywise_norm_p(a, None, loss) ** (1 / p)
            violations += va > ew * (1 + tol)
            violations += va < ew / 5 ** (1 / p) * (1 - tol)
            x = rng.standard_normal(5) * rng.uniform(0.05, 20)
            xmp = float(np.sum(m_value(loss, x)))
            mid = m_value(loss, float(np.sum(np.abs(x) ** p) ** (1 / p)))
            violations += xmp / 5 > mid * (1 + tol)
            violations += mid > xmp * (1 + tol)
            s, t = np.abs(rng.standard_normal(2)) * 5
            violations += m_value(loss, s + t) > 2**p * (m_value(loss, s)
                                                         + m_value(loss, t)) * (1 + tol)
            cases += 6
    xs = np.sort(rng.uniform(1e-5, 20, 600))
    h = np.sqrt(np.sqrt(1 + xs**2 / 2) - 1) / xs
    violations += int(np.any(np.diff(h) >= 0))
    cases += 599
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    assert _report("C03", ok, f"{cases} cases, {violations} violations, {elapsed:.2f}s")


def test_c04_sampling_concentration():
    # leverage sampling at the Bernstein-formula size keeps the reweighted
    # cost of a fixed 3-column product within 20% on >= 85% of 200 draws
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2000, 30))
    wmat = rng.standard_normal((30, 3))
    loss = LossSpec.lp(1.0)
    scores = weighted_leverage_scores(a, loss, seed=0)
    r = sample_size_subspace(z=3, eps=0.2, delta=0.1, gamma_total=scores.gamma_total, c=8.0)
    # q_i = min{1, r-hat gamma_i} with r-hat = r / gamma_total
    plan = make_plan(scores.gamma, r)
    truth = v_norm_p(a @ wmat, None, loss)
    good = 0
    for s in range(200):
        d = draw(plan, seed=s)
        est = float(np.dot(d.reweights, np.linalg.norm(a[d.indices] @ wmat, axis=1)))
        good += abs(est - truth) <= 0.2 * truth
    elapsed = time.perf_counter() - t0
    ok = good >= 170 and elapsed < 30.0
    assert _report(
        "C04", ok,
        f"{good}/200 draws within 20% (expected sample {plan.expected_size:.0f} "
        f"of 2000; the formula saturates probabilities at this scale), {elapsed:.1f}s")


def test_c05_right_sketch_quality():
    # the feasible projector through the sketched column space stays within
    # 2.5x of the SVD-truncation cost on >= 90/100 seeds
    t0 = time.perf_counter()
    loss = LossSpec.lp(1.0)
    n, d, k = 300, 40, 3
    m = 40 * k * k
    wins = 0
    for seed in range(100):
        a, _ = planted_lowrank(n, d, k, seed=seed, noise=0.3)
        sketch = make_sparse_sketch(seed, m=m, d=d, s=4)
        ar = apply_right(a, sketch)
        x = np.linalg.pinv(ar) @ a
        cost = v_norm_p(ar @ x - a, None, loss)
        _, svd_cost = svd_truncation_cost(a, k, None, loss)
        wins += cost <= 2.5 * svd_cost
    elapsed = time.perf_counter() - t0
    ok = wins >= 90 and elapsed < 60.0
    assert _report("C05", ok, f"{wins}/100 seeds within 2.5x SVD cost, {elapsed:.1f}s")


def test_c06_exact_recovery_lp_pipeline():
    # planted rank-4 input: the full |x|^p pipeline recovers it to 1e-6
    # relative on >= 18/20 seeds
    t0 = time.perf_counter()
    loss = LossSpec.lp(1.0)
    hits = 0
    for seed in range(20):
        a, _ = planted_lowrank(1000, 40, 4, seed=seed)
        sub = approx_lp(a, 4, 0.25, loss, seed=seed)
        hits += residual_cost(a, sub, None, loss) <= 1e-6 * v_norm_p(a, None, loss)
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and elapsed < 60.0
    assert _report("C06", ok, f"{hits}/20 seeds recovered to 1e-6, {elapsed:.1f}s")


def test_c07_robustness_vs_svd():
    # planted rank-3 plus 1% gross outlier rows: the robust pipelines beat
    # the SVD truncation cost on >= 80% (l1) / >= 75% (huber) of 50 seeds
    t0 = time.perf_counter()
    l1 = LossSpec.lp(1.0)
    huber = LossSpec.huber(1.0)
    wins_l1 = wins_hub = 0
    for seed in range(50):
        a, _ = planted_lowrank(400, 30, 3, seed=1000 + seed, noise=0.05,
                               outlier_frac=0.01, outlier_scale=50.0)
        sub1 = approx_lp(a, 3, 0.25, l1, seed=seed)
        _, svd1 = svd_truncation_cost(a, 3, None, l1)
        wins_l1 += residual_cost(a, sub1, None, l1) < svd1
        subh = approx_m2(a, 3, 0.25, huber, seed=seed)
        _, svdh = svd_truncation_cost(a, 3, None, huber)
        wins_hub += residual_cost(a, subh, None, huber) < svdh
    elapsed = time.perf_counter() - t0
    ok = wins_l1 >= 40 and wins_hub >= 38 and elapsed < 180.0
    assert _report("C07", ok,
                   f"l1 {wins_l1}/50 (need 40), huber {wins_hub}/50 (need 38), "
                   f"{elapsed:.1f}s")


def test_c08_residual_sampling_containment_and_quality():
    # the enlarged span always contains its seed subspace; the best rank-k
    # inside it tracks the alternating full-problem reference within 1.25x
    # on >= 80% of 50 planted seeds
    t0 = time.perf_counter()
    loss = LossSpec.lp(1.0)
    containment_ok = True
    wins = 0
    for seed in range(50):
        a, _ = planted_lowrank(200, 15, 3, seed=2000 + seed, noise=0.05,
                               outlier_frac=0.02, outlier_scale=30.0)
        xhat = const_approx(a, 3, loss, seed=seed)
        out = dim_reduce(a, 3, 0.25, xhat, loss, seed=seed)  # K = max(2, k) = 3
        w = xhat.u
        containment_ok &= float(np.linalg.norm(w - out.u @ (out.u.T @ w))) <= 1e-8
        _, cost = best_rank_k_in_subspace(a, out, 3, loss, seed=seed)
        _, ref = alternating_reference(a, 3, loss, seed=seed)
        wins += cost <= 1.25 * ref + 1e-12
    elapsed = time.perf_counter() - t0
    ok = containment_ok and wins >= 40 and elapsed < 120.0
    assert _report("C08", ok,
                   f"containment always: {containment_ok}, quality {wins}/50 "
                   f"within 1.25x of reference, {elapsed:.1f}s")


def test_c09_regression_sampled_vs_full():
    # huber regression, n=1e4, d=20, 5% corrupted responses: the sampled
    # solve (a base cap of 2430 rows) costs <= 1.1x the full IRLS solve on
    # >= 90% of 50 seeds, and every IRLS run decreases its objective
    # monotonically
    t0 = time.perf_counter()
    loss = LossSpec.huber(1.0)
    ok_ratio = 0
    monotone = True
    sampled_any = True
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        a = rng.standard_normal((10_000, 20))
        x_true = rng.standard_normal(20)
        b = a @ x_true + 0.1 * rng.standard_normal(10_000)
        rows = rng.choice(10_000, 500, replace=False)
        b[rows] += 30.0 * rng.standard_normal(500)
        tr = {}
        x_s = m_regress(a, b, loss, eps=0.5, base_cap=2430, seed=seed, trace=tr)
        sampled_any &= tr["levels"] >= 1
        x_f, hist = irls_solve(a, b, None, loss, return_history=True)
        monotone &= all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))
        ratio = (regression_objective(a, b, x_s, None, loss)
                 / regression_objective(a, b, x_f, None, loss))
        ok_ratio += ratio <= 1.1
    elapsed = time.perf_counter() - t0
    ok = ok_ratio >= 45 and monotone and sampled_any and elapsed < 120.0
    assert _report("C09", ok,
                   f"{ok_ratio}/50 ratios <= 1.1, monotone IRLS: {monotone}, "
                   f"sampling engaged: {sampled_any}, {elapsed:.1f}s")


def test_c10a_half_normal_calibration():
    # single-column Gaussian estimates have mean sqrt(2/pi) times the row
    # norm, verified to 2% over 1e5 draws
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    row = rng.standard_normal(25)
    draws = rng.standard_normal((100_000, 25)) @ row
    ratio = np.mean(np.abs(draws)) / np.linalg.norm(row)
    expect = math.sqrt(2 / math.pi)
    elapsed = time.perf_counter() - t0
    ok = abs(ratio / expect - 1.0) <= 0.02 and elapsed < 30.0
    assert _report("C10a", ok,
                   f"mean ratio {ratio:.4f} vs {expect:.4f} "
                   f"({abs(ratio / expect - 1) * 100:.2f}% off), {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: with t = 30 columns the per-seed chance "
    "that some row of a 1000-row matrix falls below ||A_i||^2 / n^0.1 is "
    "~1 for generic data, and even the most favorable (rank-1) instance "
    "fails with probability ~1.05% > 1%; see the chi-square floor "
    "P(chi2_30/30 < 10^-0.3) = 0.01046")
def test_c10b_min_row_floor_at_t_30():
    # t = ceil(3/kappa) = 30, kappa = 0.1, n = 1000: the sketched squared
    # row norms should stay above ||A_i||^2 / n^kappa on all rows, failing
    # on fewer than 1% of seeds
    rng = np.random.default_rng(5)
    n, d, kappa = 1000, 30, 0.1
    a = rng.standard_normal((n, d))
    norms2 = np.sum(a * a, axis=1)
    floor = norms2 / n**kappa
    t = int(math.ceil(3.0 / kappa))
    failures = 0
    seeds = 200
    for seed in range(seeds):
        g = np.random.default_rng(seed).standard_normal((d, t)) / math.sqrt(t)
        g_i = np.sum((a @ g) ** 2, axis=1)
        failures += np.any(g_i < floor)
    ok = failures < 0.01 * seeds
    assert _report("C10b", ok, f"{failures}/{seeds} seeds violated the floor")


def test_c11_sketch_time_scales_with_nnz():
    # stage-1 sketch time vs nnz over four densities fits a line with
    # R^2 >= 0.9, both for apply_right and for the blocks of A S^T that a
    # fit reads from a computed part
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    sketch = make_sparse_sketch(0, m=50, d=2000, s=4)
    # densities spaced so the scatter work dwarfs the fixed per-call cost
    mats = [sp.random(40_000, 2000, density=dens, format="csr", random_state=rng)
            for dens in (0.02, 0.06, 0.12, 0.24)]
    nnzs = [a.nnz for a in mats]

    def read_blocks(a):
        for _ in row_view(ComputedPart(a, sketch.right_operator())).blocks(_FACTOR_BLOCK, len):
            pass

    readers = {"apply_right": lambda a: apply_right(a, sketch), "A S^T blocks": read_blocks}
    times = {name: [math.inf] * len(mats) for name in readers}
    # repeats cycle through the densities, so a burst of load from other
    # processes lands on every size rather than skewing one
    for _ in range(7):
        for i, a in enumerate(mats):
            for name, read in readers.items():
                t1 = time.perf_counter()
                read(a)
                times[name][i] = min(times[name][i], time.perf_counter() - t1)
    x = np.asarray(nnzs, dtype=float)
    r2 = {}
    for name, ts in times.items():
        y = np.asarray(ts)
        slope, intercept = np.polyfit(x, y, 1)
        fit = slope * x + intercept
        r2[name] = 1.0 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
    elapsed = time.perf_counter() - t0
    ok = min(r2.values()) >= 0.9 and elapsed < 120.0
    assert _report("C11", ok,
                   "; ".join(f"{name}: R^2 = {r2[name]:.4f} (seconds "
                             f"{['%.4f' % t for t in times[name]]})" for name in readers)
                   + f" over nnz {nnzs}, {elapsed:.1f}s")


def test_c12_small_solver_sanity():
    # the reweighted-PCA alternation is within 1.05x of the dense candidate grid on 20
    # tiny (X, r) instances, and recovers a planted projector to 1e-8
    t0 = time.perf_counter()
    loss = LossSpec.lp(1.0)
    ok_ratio = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        cols = rng.standard_normal((8, 9))
        prob = SmallProblem(cols[:, :-1], cols[:, -1], None, 2)
        wl = small_approx(prob, loss, seed=seed)
        we = small_problem_grid(prob, loss, seed=seed)
        ok_ratio += (small_problem_cost(prob, wl, loss)
                     <= 1.05 * small_problem_cost(prob, we, loss))
    # the rows of X lie in a rank-3 span, with r = 0
    rng = np.random.default_rng(7)
    x = rng.standard_normal((25, 10))
    w0 = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    planted = SmallProblem(x @ w0 @ w0.T, np.zeros(25), None, 3)
    w_rec = small_approx(planted, loss, seed=0)
    recovery = small_problem_cost(planted, w_rec, loss)
    elapsed = time.perf_counter() - t0
    ok = ok_ratio == 20 and recovery <= 1e-8 and elapsed < 60.0
    assert _report("C12", ok,
                   f"{ok_ratio}/20 within 1.05x of the grid, planted recovery "
                   f"cost {recovery:.2e}, {elapsed:.1f}s")


def _c13_input(seed, n=9000, d=600, outliers=90):
    """CSR rank-2 rows plus sparse noise, with 1% gross outlier rows, and the planted subspace."""
    rng = np.random.default_rng([seed, 13])
    v = sp.random(2, d, density=0.02, random_state=rng, format="csr")
    signal = sp.csr_matrix(10.0 * rng.standard_normal((n - outliers, 2))) @ v
    noise = 0.1 * sp.random(n - outliers, d, density=2 / d, random_state=rng, format="csr")
    gross = 30.0 * sp.random(outliers, d, density=0.05, random_state=rng, format="csr")
    return sp.vstack([signal + noise, gross]).tocsr(), Subspace(np.linalg.qr(v.toarray().T)[0])


def test_c13_bicriteria_sample_at_scale():
    # n and d both past P_M = 200 (L1, k = 2): const_approx scores the 160-wide
    # right sketch, conditioned by the p-stable sketch as 9000 rows pass its
    # 8192-row cap, and draws one sample expecting P_M rows.  Its span is a
    # proper subspace costing at most 0.5x the planted subspace, which pays
    # for the outlier rows: fit seeds 0-19 read 0.135-0.256, at 0.2-0.45 s a fit
    t0 = time.perf_counter()
    loss = LossSpec.lp(1.0)
    worst, dims, expected = 0.0, [], set()
    for seed in range(4):
        a, planted = _c13_input(seed)
        tr = {}
        sub = const_approx(a, 2, loss, seed=seed, trace=tr)
        expected.add(tr["bicriteria_rows_expected"])
        dims.append(sub.dim)
        worst = max(worst, residual_cost(a, sub, None, loss) / residual_cost(a, planted, None, loss))
    elapsed = time.perf_counter() - t0
    ok = expected == {200.0} and max(dims) < 600 and worst <= 0.5 and elapsed < 60.0
    assert _report("C13", ok,
                   f"expected rows {sorted(expected)}, dims {dims} of 600, worst cost "
                   f"{worst:.3f}x planted (need <= 0.5), {elapsed:.1f}s")
