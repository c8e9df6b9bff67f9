"""In-memory span recorder and the wrappers that feed it.

Tracing never edits the package: ``traced`` replaces each traced function
under every name a layer module binds it to (``robsub.pipeline.dim_reduce``,
``robsub.bicriteria.weighted_leverage_scores``, ...), plus the
``PStableSketch.apply`` method, and puts the originals back on exit.  A
call through a wrapper becomes a span with its name, start, end, parent
span and fit id, and with counts read from its arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import robsub
from robsub.core import nnz

# modules whose bindings are rewritten; io, cli and hardness are left out
LAYER_MODULES = ("sketch", "conditioning", "sampling", "bicriteria", "dimreduce",
                 "pipeline", "regression", "core", "oracle")


def _draw_counts(out, args):
    plan = args["plan"]
    return {"rows_in": plan.q.size, "rows_out": len(out), "expected": plan.expected_size}


# span name -> counts taken from (result, bound arguments)
COUNTERS: dict[str, Optional[Callable]] = {
    "sketch.PStableSketch.apply": lambda out, args: {"draws": args["self"].s * args["self"].n},
    "sketch.make_sparse_sketch": None,
    "sketch.apply_right": lambda out, args: {"madds": args["r"].s * nnz(args["a"])},
    "sketch.orthonormal_union": lambda out, args: {
        "rows_in": sum(b.shape[0] for b in args["blocks"] if b is not None)},
    "sketch.gaussian_row_norm_estimates": None,
    "conditioning.well_conditioned_basis": lambda out, args: {"width": out.m},
    "conditioning.weighted_leverage_scores": lambda out, args: {"buckets": out.bucket_count},
    "sampling.make_plan": lambda out, args: {"expected_rows": out.expected_size},
    "sampling.draw": _draw_counts,
    "bicriteria.const_approx": None,
    "dimreduce.dim_reduce": None,
    "pipeline.approx_lp": None,
    "pipeline.approx_m2": None,
    "pipeline.small_approx": lambda out, args: {"side": args["prob"].max_side()},
    "regression.m_regress": None,
    "regression.irls_solve": lambda out, args: {"rows": args["a"].shape[0]},
    "regression.regression_objective": None,
    "core.residual_cost": None,
    "oracle.svd_truncation_cost": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]       # index of the enclosing span, None at top level
    fit: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans of one process, kept in call order until the benchmark ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fit = "setup"
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.fit))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out


def _wrap(fn: Callable, name: str, rec: SpanRecorder) -> Callable:
    counter = COUNTERS[name]
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            span = rec.end(idx)
        if counter is not None:
            span.counts.update(counter(out, sig.bind(*args, **kwargs).arguments))
        return out

    return wrapper


@contextmanager
def traced(rec: SpanRecorder):
    """Route every binding of the traced functions through ``rec`` while active."""
    patches = []                # (owner, attribute, original, wrapper)
    by_id = {}                  # id of a traced function -> (original, wrapper)
    for name in COUNTERS:
        mod, attr = name.split(".", 1)
        owner = getattr(robsub, mod)
        if "." in attr:         # a method, e.g. "PStableSketch.apply"
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            patches.append((owner, attr, fn, _wrap(fn, name, rec)))
        else:
            fn = getattr(owner, attr)
            by_id[id(fn)] = (fn, _wrap(fn, name, rec))
    for module in [robsub] + [getattr(robsub, m) for m in LAYER_MODULES]:
        patches.extend((module, attr, *by_id[id(value)])
                       for attr, value in vars(module).items() if id(value) in by_id)
    try:
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)
