"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each function listed in ``WRAPS`` by a wrapper
at the name its caller looks it up by: a module attribute (``pay.X``,
``oracle_mod.X`` or a global of the defining module) or a class attribute
(``__post_init__`` runs from the dataclass ``__init__``).  Names that a
module imported with ``from ... import`` are wrapped in the importing
module as well, because that is where its callers find them.  ``src/`` is
never edited; ``uninstall`` puts the originals back.

Every call becomes a span (id, parent id, op id, thread, layer, start, end,
phase).  The span stack is per thread.  A span opened on a thread whose
stack is empty (a worker of the experiment thread pool) takes as parent the
innermost span open on the client thread, which is blocked waiting for it.
Self time is a span's duration minus the union of its children's intervals,
so concurrent children are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
import tracemalloc
from collections import defaultdict

PIPELINES = (
    "surplus_maximizer",
    "pseudo_surplus_maximizer",
    "virtual_surplus_maximizer",
    "heuristic_lb_rrm",
    "heuristic_brm",
    "ex_ante_relaxation",
)
BUILDERS = ("make_categorical", "make_uniform", "make_binomial", "symmetric_instance")

# (layer, owner, attributes); an owner "module:Class" wraps class attributes.
WRAPS = (
    ("core.build", "convexauction.core", BUILDERS),
    ("core.build", "convexauction.cli", BUILDERS),
    ("core.build", "convexauction.core:TypeSpace", ("__post_init__",)),
    ("core.build", "convexauction.core:DiscreteDistribution", ("__post_init__",)),
    ("core.build", "convexauction.core:AuctionInstance", ("__post_init__",)),
    ("core.table", "convexauction.core:ExPostAllocation", ("__post_init__",)),
    ("virtual", "convexauction.mechanisms",
     ("virtual_values", "virtual_values_matrix", "is_regular")),
    ("virtual", "convexauction.oracle", ("virtual_values",)),
    ("alloc.pointwise", "convexauction.mechanisms", ("pointwise_max_batch",)),
    ("alloc.greedy", "convexauction.mechanisms", ("eqp_solver_batch",)),
    ("alloc.closed_form", "convexauction.mechanisms", ("closed_form_alloc_batch",)),
    ("alloc.ex_ante", "convexauction.mechanisms", ("ex_ante_closed_form",)),
    ("payments.perceived", "convexauction.payments", ("perceived_payment",)),
    ("payments.robust", "convexauction.payments", ("robust_payment",)),
    ("payments.collapse", "convexauction.payments", ("interim_collapse",)),
    ("payments.bayesian", "convexauction.payments", ("bayesian_payment", "interim_perceived")),
    ("payments.revenue", "convexauction.payments", ("expected_revenue",)),
    ("mechanisms.pipeline", "convexauction.mechanisms", PIPELINES),
    ("mechanisms.bound_report", "convexauction.mechanisms", ("bound_report",)),
    ("oracle.verify", "convexauction.oracle", ("verify",)),
    ("oracle.search", "convexauction.oracle", ("exact_rrm", "exact_brm")),
    ("oracle.export", "convexauction.oracle", ("export_program",)),
    ("discretization.round", "convexauction.discretization", ("round_allocation",)),
    ("discretization.gap", "convexauction.discretization", ("discretization_gap",)),
    ("discretization.gap", "convexauction.cli", ("discretization_gap",)),
    ("cli.main", "convexauction.cli", ("main",)),
    ("cli.experiment", "convexauction.cli", ("run_experiment",)),
    ("cli.save", "convexauction.cli", ("save_mechanism",)),
    ("cli.load", "convexauction.cli", ("load_mechanism",)),
)
CONSTRAINT_SETS = ("ic", "ir", "xp", "bic", "bir", "xa")
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAPS)) + tuple(
    f"oracle.verify.{c}" for c in CONSTRAINT_SETS
)

# Per-layer metrics beyond <layer>.self_ms and <layer>.calls: (name, unit, better).
EXTRA_METRICS = (
    ("core.build.op_self_ms", "ms", "lower"),
    ("core.build.op_calls", "count", "lower"),
    ("core.table_cells", "count", "lower"),
    ("alloc.rows", "count", "lower"),
    ("mechanisms.peak_mb", "MB", "lower"),
    ("oracle.refusals", "count", "lower"),
    ("oracle.cert_gap", "value", "lower"),
    ("oracle.export.bytes", "bytes", "lower"),
    ("cli.save.bytes", "bytes", "lower"),
    ("cli.experiment.worker_busy_frac", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("src_lines", "count", "lower"),
)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, in output order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_ms", "ms", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    return out + list(EXTRA_METRICS)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.client = threading.get_ident()
        self.client_stack: list[list] = []
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.maxima: dict[tuple[str, str], float] = defaultdict(float)
        self.lock = threading.RLock()
        self.phase = "setup"
        self.op = 0
        self.enabled = True
        self.open_pipelines = 0
        self.pipeline_base = 0
        self.saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self.client:
            return self.client_stack
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            parent = self.client_stack[-1][0] if self.client_stack else 0
        rec = [next(self.ids), parent, self.op, threading.get_ident(), name,
               time.perf_counter(), 0.0, self.phase]
        stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[6] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self.lock:
            self.counts[(self.phase, name)] += amount

    def peak(self, name: str, value: float) -> None:
        with self.lock:
            key = (self.phase, name)
            self.maxima[key] = max(self.maxima[key], value)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from convexauction.oracle import OracleRefusal

        def rows(args, result):
            self.count("alloc.rows", len(args[0]))

        hooks = {  # layer -> (args, result) -> None, after a call that returned
            "core.table": lambda a, r: self.peak("core.table_cells", a[0].table.size),
            "alloc.pointwise": rows,
            "alloc.greedy": rows,
            "alloc.closed_form": rows,
            "oracle.search": self._record_certificate,
            "oracle.export": lambda a, r: self.count("oracle.export.bytes", len(r.encode())),
            "cli.save": lambda a, r: self.count("cli.save.bytes", os.path.getsize(a[0])),
        }
        for layer, owner, names in WRAPS:
            target = _resolve(owner)
            for attr in names:
                original = getattr(target, attr)
                self.saved.append((target, attr, original))
                if layer == "oracle.verify":
                    wrapper = self._wrap_verify(original)
                else:
                    wrapper = self._wrap(original, layer, hooks.get(layer), OracleRefusal)
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self.saved):
            setattr(target, attr, original)
        self.saved.clear()

    def _wrap(self, fn, layer, after, refusal):
        tracer = self
        pipeline = layer == "mechanisms.pipeline"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer.open(layer)
            if pipeline:
                tracer._pipelines_memory(+1)
            try:
                result = fn(*args, **kwargs)
            except refusal:
                tracer.count("oracle.refusals")
                raise
            finally:
                if pipeline:
                    tracer._pipelines_memory(-1)
                tracer.close(rec)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_verify(self, verify):
        """One child span per constraint set, by calling verify once per set.

        verify evaluates each requested set independently, so calling it per
        set returns the same checks.  With ``which`` left to its default the
        sets are chosen inside verify and the call is not split.
        """
        tracer = self

        @functools.wraps(verify)
        def wrapper(instance, mech, which=None, *rest, **kwargs):
            if not tracer.enabled:
                return verify(instance, mech, which, *rest, **kwargs)
            rec = tracer.open("oracle.verify")
            try:
                if which is None:
                    return verify(instance, mech, which, *rest, **kwargs)
                out = {}
                for name in which:
                    with tracer.span(f"oracle.verify.{name.lower()}"):
                        out.update(verify(instance, mech, (name,), *rest, **kwargs))
                return out
            finally:
                tracer.close(rec)

        return wrapper

    def _pipelines_memory(self, step: int) -> None:
        """Traced peak above the start of each period with a pipeline open.

        Pipelines of the experiment pool overlap, and tracemalloc has one
        peak per process, so a period lasts while any pipeline is open.
        """
        if not tracemalloc.is_tracing():
            return
        with self.lock:
            if step > 0 and self.open_pipelines == 0:
                tracemalloc.reset_peak()
                self.pipeline_base = tracemalloc.get_traced_memory()[0]
            self.open_pipelines += step
            if self.open_pipelines == 0:
                grown = tracemalloc.get_traced_memory()[1] - self.pipeline_base
                self.peak("mechanisms.peak_mb", grown / 2**20)

    def _record_certificate(self, args, result) -> None:
        slack = result[1].grid_slack
        if slack is not None:
            self.count("oracle.cert_gap.sum", slack)
            self.count("oracle.cert_gap.n")

    # -- metrics ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> self seconds (duration minus the union of its children)."""
        children = defaultdict(list)
        for rec in self.spans:
            children[rec[1]].append((rec[5], rec[6]))
        out = {}
        for rec in self.spans:
            start, end = rec[5], rec[6]
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(rec[0], ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[rec[0]] = (end - start) - covered
        return out

    def layer_metrics(self, passes: int, pool_size: int) -> dict[str, float]:
        """Per-layer totals of the "spans" phase, per pass; core.build from set-up."""
        selfs = self.self_times()
        by_id = {rec[0]: rec for rec in self.spans}
        totals = defaultdict(float)
        calls = defaultdict(int)
        busy = wall = 0.0
        for rec in self.spans:
            key = (rec[7], rec[4])
            totals[key] += selfs[rec[0]]
            calls[key] += 1
            if rec[7] != "spans":
                continue
            if rec[4] == "cli.experiment":
                wall += rec[6] - rec[5]
            parent = by_id.get(rec[1])
            if parent is None:
                continue
            if rec[3] != self.client and parent[3] == self.client:
                busy += rec[6] - rec[5]
            elif pool_size == 1 and parent[4] == "cli.experiment":
                # no pool: the jobs run in order on the client thread
                busy += rec[6] - rec[5]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * totals[("spans", layer)] / passes
            out[f"{layer}.calls"] = calls[("spans", layer)] / passes
        out["core.build.op_self_ms"] = out["core.build.self_ms"]
        out["core.build.op_calls"] = out["core.build.calls"]
        out["core.build.self_ms"] = 1e3 * totals[("setup", "core.build")]
        out["core.build.calls"] = calls[("setup", "core.build")]
        out["core.table_cells"] = self.maxima[("spans", "core.table_cells")]
        out["mechanisms.peak_mb"] = self.maxima[("memory", "mechanisms.peak_mb")]
        for name in ("alloc.rows", "oracle.refusals", "oracle.export.bytes", "cli.save.bytes"):
            out[name] = self.counts[("spans", name)] / passes
        n_cert = self.counts[("spans", "oracle.cert_gap.n")]
        out["oracle.cert_gap"] = (
            self.counts[("spans", "oracle.cert_gap.sum")] / n_cert if n_cert else 0.0
        )
        out["cli.experiment.worker_busy_frac"] = busy / (wall * pool_size) if wall else 0.0
        out["trace.spans"] = sum(1 for rec in self.spans if rec[7] == "spans") / passes
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line; times in ms from the first span."""
        selfs = self.self_times()
        t0 = min((rec[5] for rec in self.spans), default=0.0)
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r[0]):
                fh.write(json.dumps({
                    "id": rec[0], "parent": rec[1], "op": rec[2], "thread": rec[3],
                    "layer": rec[4], "phase": rec[7],
                    "start_ms": round(1e3 * (rec[5] - t0), 4),
                    "dur_ms": round(1e3 * (rec[6] - rec[5]), 4),
                    "self_ms": round(1e3 * selfs[rec[0]], 4),
                }) + "\n")
