"""Command-line front end.

Subcommands: ``approx`` (subspace fitting), ``regress`` (robust regression
vs the full IRLS baseline) and ``gadget`` (clique-gadget generation and
brute-force verification).  All randomized outputs are fully determined by
``--seed``; reports are JSON with a fixed schema version, timings kept in a
separate block so reports from identical seeds are byte-identical outside
it.

Exit codes: 0 success, 2 unreadable input, 3 bad configuration (a usage
error included), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import io as rio
from .core import LossSpec, residual_cost, v_norm_p
from .hardness import (
    adjacency_excess,
    brute_force_best_coordinate,
    clique_margin_bound,
    gen_gadget,
    read_edge_list,
)
from .oracle import svd_truncation_cost
from .pipeline import CapExceededError, _stage_bicriteria, _stage_subspace, approx_lp, approx_m2
from .regression import irls_solve, m_regress, regression_objective

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


def _make_loss(args) -> LossSpec:
    name = args.loss
    if name == "l1":
        return LossSpec.lp(1.0)
    if name == "l2":
        return LossSpec.lp(2.0)
    if name == "lp":
        if args.p is None:
            raise ConfigError("--loss lp requires --p")
        return LossSpec.lp(args.p)
    if name == "huber":
        return LossSpec.huber(args.tau)
    if name == "l1l2":
        return LossSpec.l1l2()
    if name == "fair":
        return LossSpec.fair(args.fair_c)
    raise ConfigError(f"unknown loss {name!r}")


def _write_report(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _base_report(args, command: str) -> dict:
    cfg_echo = {k: v for k, v in sorted(vars(args).items())
                if k not in ("func", "input", "report")}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": getattr(args, "seed", None),
        "config": cfg_echo,
    }


# ---------------------------------------------------------------------------
# approx


def cmd_approx(args) -> int:
    a = rio.load_matrix(args.input)
    loss = _make_loss(args)
    n, d = a.shape
    if args.k < 1:
        raise ConfigError("--k must be >= 1")
    if not (0.0 < args.eps < 1.0):
        raise ConfigError("--eps must lie in (0, 1)")

    report = _base_report(args, "approx")
    timings = {}
    trace = {}
    t0 = time.perf_counter()
    # the pipelines' own subspace stages, seeded as they seed them and run at
    # their rank min(k, n)
    if args.stage == "bicriteria":
        sub = _stage_bicriteria(a, min(args.k, n), loss, args.seed, trace)
    elif args.stage == "dimreduce":
        sub = _stage_subspace(a, min(args.k, n), args.eps, loss, args.seed, trace)
    elif args.stage == "full":
        if loss.is_lp and loss.p < 2.0:
            sub = approx_lp(a, args.k, args.eps, loss, small_cap=args.small_cap,
                            seed=args.seed, trace=trace)
        elif loss.is_m2:
            sub = approx_m2(a, args.k, args.eps, loss, small_cap=args.small_cap,
                            seed=args.seed, trace=trace)
        else:
            sub, _ = svd_truncation_cost(a, args.k, None, loss)
    else:
        raise ConfigError(f"unknown stage {args.stage!r}")
    timings["fit_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cost_p = residual_cost(a, sub, None, loss)
    total_p = v_norm_p(a, None, loss)
    _, svd_cost_p = svd_truncation_cost(a, min(args.k, min(n, d)), None, loss)
    timings["report_seconds"] = time.perf_counter() - t0

    report["results"] = {
        "n": n,
        "d": d,
        "k": args.k,
        "stage": args.stage,
        "loss": loss.describe(),
        "subspace_dim": sub.dim,
        "v_cost_p": cost_p,
        "v_cost": cost_p ** (1.0 / loss.p),
        "input_v_cost_p": total_p,
        "baseline_svd_v_cost_p": svd_cost_p,
        "trace": trace,
    }
    report["timings"] = timings
    if args.subspace_out:
        rio.save_matrix_market(args.subspace_out, sub.u, comment="orthonormal subspace factor")
    _write_report(args.report, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# regress


def cmd_regress(args) -> int:
    a = rio.load_matrix(args.input)
    b = rio.load_vector(args.rhs)
    loss = _make_loss(args)
    if loss.is_lp and loss.p >= 2.0:
        raise ConfigError("regression losses: lp with p in [1,2), huber, l1l2, fair")
    report = _base_report(args, "regress")
    timings = {}
    trace = {}

    t0 = time.perf_counter()
    x_sampled = m_regress(a, b, loss, eps=args.eps, base_cap=args.base_cap, seed=args.seed,
                          trace=trace)
    timings["sampled_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    x_full = irls_solve(a, b, None, loss)
    timings["full_seconds"] = time.perf_counter() - t0

    cost_sampled = regression_objective(a, b, x_sampled, None, loss)
    cost_full = regression_objective(a, b, x_full, None, loss)
    report["results"] = {
        "n": a.shape[0],
        "d": a.shape[1],
        "loss": loss.describe(),
        "sampled_cost": cost_sampled,
        "full_irls_cost": cost_full,
        "cost_ratio": cost_sampled / cost_full if cost_full > 0 else 1.0,
        **trace,  # levels, base_rows and base_rows_expected
    }
    report["timings"] = timings
    if args.solution_out:
        np.savetxt(args.solution_out, x_sampled[:, None], delimiter=",")
    _write_report(args.report, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gadget


def cmd_gadget(args) -> int:
    try:
        adjacency = read_edge_list(args.edges)
    except (OSError, ValueError) as exc:
        raise rio.InputError(f"{args.edges}: {exc}") from exc
    inst = gen_gadget(adjacency, args.k, b1=args.b1, b2=int(args.b2))
    report = _base_report(args, "gadget")
    timings = {}

    t0 = time.perf_counter()
    best_set, best_cost = brute_force_best_coordinate(inst, args.p)
    timings["brute_force_seconds"] = time.perf_counter() - t0

    # clique verdict: the best set is a clique iff every chosen vertex sees
    # the other k-1 chosen vertices
    sub_adj = inst.adjacency[np.ix_(best_set, best_set)]
    is_clique = bool(np.all(sub_adj.sum(axis=1) == inst.k - 1))
    clique_formula = (inst.b2 * (inst.d - inst.k) + (inst.d - inst.k)
                      + inst.k * (2.0 / inst.b1) ** (args.p / 2.0)
                      * (1.0 - (inst.k - 1) / inst.r) ** (args.p / 2.0))
    report["results"] = {
        "d": inst.d,
        "r": inst.r,
        "k": inst.k,
        "b1": inst.b1,
        "b2": inst.b2,
        "c": inst.c,
        "best_set": list(best_set),
        "best_cost": best_cost,
        "best_set_is_clique": is_clique,
        "adjacency_excess": adjacency_excess(inst, best_cost),
        "margin_bound": clique_margin_bound(inst, args.p),
        "clique_cost_formula": clique_formula,
        "clique_formula_matched": bool(abs(best_cost - clique_formula)
                                       <= 10.0 * inst.d / inst.b1 + 1e-9),
        "verdict": "clique-k found" if is_clique else "no clique of size k at the optimum",
    }
    report["timings"] = timings
    if args.export:
        rio.save_matrix_market(args.export, inst.a, comment="normalized adjacency block")
    _write_report(args.report, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and main


def _add_common(sub, with_loss=True):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--report", default=None, help="write the JSON report here")
    if with_loss:
        sub.add_argument("--loss", default="l1",
                         choices=["l1", "l2", "lp", "huber", "l1l2", "fair"])
        sub.add_argument("--p", type=float, default=None, help="exponent for --loss lp")
        sub.add_argument("--tau", type=float, default=1.0, help="huber threshold")
        sub.add_argument("--fair-c", type=float, default=1.0, dest="fair_c")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robsub",
        description="Robust subspace approximation and regression via sketching "
                    "and leverage-score sampling.")
    subs = parser.add_subparsers(dest="cmd", required=True)

    ap = subs.add_parser("approx", help="fit a rank-k subspace")
    ap.add_argument("--input", required=True, help="matrix file (.mtx or .csv)")
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--stage", default="full", choices=["bicriteria", "dimreduce", "full"])
    ap.add_argument("--subspace-out", default=None, dest="subspace_out",
                    help="write the fitted factor as Matrix Market")
    ap.add_argument("--small-cap", type=int, default=400, dest="small_cap",
                    help="widest small problem: most columns of [A U, r]")
    _add_common(ap)
    ap.set_defaults(func=cmd_approx)

    rp = subs.add_parser("regress", help="robust regression vs full IRLS")
    rp.add_argument("--input", required=True)
    rp.add_argument("--rhs", required=True, help="right-hand side, one-column CSV")
    rp.add_argument("--eps", type=float, default=0.5)
    rp.add_argument("--base-cap", type=int, default=None, dest="base_cap",
                    help="rows the sample expects; an input of at most that many rows "
                    "is solved whole (default ceil(16 (d+1) ln(d+1) / eps^2))")
    rp.add_argument("--solution-out", default=None, dest="solution_out")
    _add_common(rp)
    rp.set_defaults(func=cmd_regress, loss="huber")

    gp = subs.add_parser("gadget", help="generate and verify a clique gadget")
    gp.add_argument("--edges", required=True, help="edge-list text file")
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--b1", type=float, default=1e4)
    gp.add_argument("--b2", type=float, default=1e6)
    gp.add_argument("--p", type=float, default=1.0)
    gp.add_argument("--export", default=None, help="write the adjacency block as .mtx")
    _add_common(gp, with_loss=False)
    gp.set_defaults(func=cmd_gadget)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except rio.InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # numeric errors first: LinAlgError subclasses ValueError
    except (CapExceededError, RuntimeError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
