"""End-to-end and per-layer benchmark of robsub's three entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs ``approx_lp``, ``approx_m2`` or ``m_regress`` in this process on
inputs generated from ``--seed`` (see workloads.py), with one BLAS thread
(within the cap of the usable CPU count), and checks every fit.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import, plus the
median of several input generations and reference solutions), ``fit_s``
(median wall time of the fits made in ``--seconds``, at least five, after
one untimed warm-up fit), ``fit_peak_mb`` (tracemalloc peak of one extra
untimed fit) and ``cost_ratio`` (median fit cost over the reference cost).
It also prints ``fail_ratio``: fits that raised or failed the check, over
fits attempted.

``--trace 1`` alternates untraced and traced fits on the same fit seed and
reports per-layer metrics from the spans of the traced ones (see
spans.py): self and total seconds are medians over traced fits; counts
come from the first traced fit, whose seed is fixed by ``--seed``.

Every metric is printed as ``metric <name> <value> <unit>``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Environment, metrics and spans
are also written to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On a 2-vCPU Xeon host two BLAS threads were no faster on any workload, and
# on regress_tall 35% slower with twice the fit-to-fit spread.
BLAS_THREADS = 1
MIN_FITS = 5             # timed fits per run, even when they outlast --seconds
MIN_TRACED_PAIRS = 2     # untraced/traced pairs per traced run
SETUP_REPEATS = 3

# per-layer metrics: span names reported by self time and by total time
SELF_S = ("sketch.PStableSketch.apply", "conditioning.well_conditioned_basis",
          "conditioning.weighted_leverage_scores", "sketch.apply_right",
          "sketch.make_sparse_sketch", "sketch.orthonormal_union",
          "sketch.gaussian_row_norm_estimates", "bicriteria.const_approx",
          "pipeline.small_approx", "pipeline.approx_lp", "pipeline.approx_m2",
          "regression.m_regress", "regression.irls_solve", "core.residual_cost")
TOTAL_S = ("bicriteria.const_approx", "dimreduce.dim_reduce")
# counts per fit, from the spans inside the entry-point call
SPAN_COUNTS = (
    "sketch.PStableSketch.apply.calls", "sketch.PStableSketch.apply.draws",
    "conditioning.well_conditioned_basis.calls", "conditioning.well_conditioned_basis.width",
    "conditioning.weighted_leverage_scores.buckets", "sketch.apply_right.madds",
    "sketch.orthonormal_union.rows_in", "sampling.make_plan.expected_rows",
    "sampling.draw.rows_in", "sampling.draw.rows_out", "bicriteria.levels",
    "dimreduce.realized_rows", "pipeline.small_approx.side", "regression.irls_solve.rows",
    "regression.regression_objective.calls")
MAX_COUNTS = ("width", "buckets", "side", "rows")   # per-call sizes, not work
# counts per fit from the library's own trace dict: metric -> key
TRACE_COUNTS = {
    "bicriteria.bicriteria_dim": "bicriteria_dim", "dimreduce.reduced_dim": "reduced_dim",
    "pipeline.t_rows": "t_rows", "pipeline.recursion_depth": "recursion_depth",
    "pipeline.base_rows": "base_rows", "regression.levels": "levels",
    "regression.base_rows": "base_rows",
}


def pin_blas_threads() -> None:
    """Set the BLAS thread count, within the nproc cap; run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_robsub() -> float:
    """Import the package from this checkout's ``src``; return the seconds taken."""
    src = ROOT / "src"
    if not (src / "robsub" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no robsub package under {src}; run from a robsub checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import robsub  # noqa: F401
    return time.perf_counter() - start


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def fit_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


class Tally:
    """Fits attempted and failed in this run, and the cost ratios of checked fits."""

    def __init__(self, work, inp, ref: float):
        self.work, self.inp, self.ref = work, inp, ref
        self.attempted = 0
        self.failed = 0
        self.ratios: list[float] = []

    def fit(self, seed: int) -> tuple[float, dict]:
        """One checked fit; returns its wall seconds and the library's trace dict."""
        trace: dict = {}
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.work.fit(self.inp, seed, trace)
        except Exception:  # a failing fit is counted, and the run goes on
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.failed += 1
            return elapsed, trace
        elapsed = time.perf_counter() - start
        ok, ratio = self.work.check(self.inp, self.ref, out)
        if ratio != float("inf"):
            self.ratios.append(ratio)
        if not ok:
            self.failed += 1
            print(f"perfbench: fit seed {seed} failed the check (cost ratio {ratio})",
                  file=sys.stderr)
        return elapsed, trace


def setup(work, seed: int, smoke: bool, repeats: int):
    """Generate the inputs and the reference cost ``repeats`` times; keep the last."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        inp = work.inputs(seed, smoke)
        ref = work.reference(inp)
        times.append(time.perf_counter() - start)
    return inp, ref, times


def end_to_end(work, args, import_s: float):
    inp, ref, setup_times = setup(work, args.seed, args.smoke, SETUP_REPEATS)
    tally = Tally(work, inp, ref)
    tally.fit(fit_seed(args.seed, 0))  # warm-up, not timed
    times = []
    start = time.perf_counter()
    while len(times) < MIN_FITS or time.perf_counter() - start < args.seconds:
        times.append(tally.fit(fit_seed(args.seed, len(times) + 1))[0])
    tracemalloc.start()
    try:
        tally.fit(fit_seed(args.seed, 999))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not tally.ratios:
        raise SystemExit("perfbench: no fit returned a checkable result")
    metrics = {
        "fit_s": (statistics.median(times), "s"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "fit_peak_mb": (peak / 1e6, "MB"),
        "cost_ratio": (statistics.median(tally.ratios), "ratio"),
    }
    extra = {"fail_ratio": (tally.failed / tally.attempted, "ratio"),
             "fits": (len(times), "count")}
    return tally, metrics, extra, []


def layer_metrics(work, rec, traces: dict, traced_times, untraced_times) -> dict:
    """Per-layer metrics from the recorded spans of the traced fits.

    Per fit, a span name's self and total seconds are summed over its spans,
    and its counts over the spans inside the entry-point call (sizes, in
    ``MAX_COUNTS``, take the maximum).  Seconds are medians over traced
    fits; counts are those of the first traced fit.
    """
    selfs = rec.self_times()
    root = []                                  # top-level ancestor of each span
    for i, s in enumerate(rec.spans):
        root.append(i if s.parent is None else root[s.parent])
    per_fit = {fit: defaultdict(int) for fit in traces}
    for i, s in enumerate(rec.spans):
        if s.fit not in per_fit:
            continue
        f = per_fit[s.fit]
        f[s.name + ".self_s"] += selfs[i]
        f[s.name + ".total_s"] += s.duration
        if s.parent is None and s.name == work.entry:
            f["trace.child_cover"] = 1.0 - selfs[i] / s.duration
        if rec.spans[root[i]].name != work.entry:
            continue                           # the output check, not the fit
        f[s.name + ".calls"] += 1
        for key, value in s.counts.items():
            name = f"{s.name}.{key}"
            f[name] = max(f[name], value) if key in MAX_COUNTS else f[name] + value
        parent = rec.spans[s.parent].name if s.parent is not None else None
        if s.name == "conditioning.weighted_leverage_scores" and parent == "bicriteria.const_approx":
            f["bicriteria.levels"] += 1
        if s.name == "sampling.draw" and parent == "dimreduce.dim_reduce":
            f["dimreduce.realized_rows"] += s.counts["rows_out"]

    fits = list(per_fit.values())
    first, first_trace = fits[0], next(iter(traces.values()))
    out = {}
    for name in SELF_S:
        out[name + ".self_s"] = (statistics.median(f[name + ".self_s"] for f in fits), "s")
    for name in TOTAL_S:
        out[name + ".total_s"] = (statistics.median(f[name + ".total_s"] for f in fits), "s")
    out["oracle.svd_truncation_cost.self_s"] = (
        sum(t for t, s in zip(selfs, rec.spans)
            if s.fit == "setup" and s.name == "oracle.svd_truncation_cost"), "s")
    for name in SPAN_COUNTS:
        out[name] = (first[name], "count")
    for name, key in TRACE_COUNTS.items():
        # approx_m2 and m_regress both set base_rows; it belongs to the entry's layer
        mine = key != "base_rows" or work.entry.startswith(name.split(".")[0])
        out[name] = (first_trace.get(key, 0) if mine else 0, "count")
    expected = first["sampling.draw.expected"]
    out["sampling.draw.realized_over_expected"] = (
        first["sampling.draw.rows_out"] / expected if expected else 0.0, "ratio")
    traced_s, untraced_s = statistics.median(traced_times), statistics.median(untraced_times)
    out["trace.fit_s"] = (traced_s, "s")
    out["trace.untraced_fit_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.child_cover"] = (min(f["trace.child_cover"] for f in fits), "ratio")
    out["trace.fits"] = (len(fits), "count")
    return out


def per_layer(work, args, import_s: float):
    import spans

    rec = spans.SpanRecorder()
    with spans.traced(rec):
        inp, ref, _ = setup(work, args.seed, args.smoke, 1)
    tally = Tally(work, inp, ref)
    tally.fit(fit_seed(args.seed, 0))  # warm-up, not timed
    traced_times, untraced_times, traces = [], [], {}
    start = time.perf_counter()
    pair = 0
    while pair < MIN_TRACED_PAIRS or time.perf_counter() - start < args.seconds:
        pair += 1
        seed = fit_seed(args.seed, pair)
        for use_trace in ((False, True) if pair % 2 else (True, False)):
            if not use_trace:
                untraced_times.append(tally.fit(seed)[0])
                continue
            rec.fit = f"fit{pair}"
            with spans.traced(rec):
                elapsed, traces[rec.fit] = tally.fit(seed)
            traced_times.append(elapsed)
    metrics = layer_metrics(work, rec, traces, traced_times, untraced_times)
    return tally, metrics, {}, [vars(s) for s in rec.spans]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_s = import_robsub()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    run = per_layer if args.trace else end_to_end
    tally, metrics, extra, span_dump = run(work, args, import_s)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"args": vars(args), "env": env, "result": result,
              "extra": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
              "spans": span_dump}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
