"""Run one workload in this process: set up, time passes, check, report.

Started by ``run.py``, which times this process from its start to the
``ready`` line (set-up) and merges the result line it prints last.  A pass
runs every op of the workload once, one after another (a closed loop with
one client); passes repeat until ``--seconds`` have elapsed.

With ``--trace 1`` the time is split: untraced passes, then passes with
spans on, then one pass with spans and ``tracemalloc``; the first two give
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from convexauction.oracle import OracleRefusal  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
# On a shared host the speed of the machine shifts by up to 1.5x in phases
# of minutes, longer than a run, and moves every timing of a run together.
# A fixed NumPy routine that never calls the program is timed between ops;
# end-to-end timings are reported at the speed at which it takes REF_MS.
REF_MS = 4.0
REF_EVERY_S = 0.2


@dataclass
class Stats:
    latencies: list[float] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    problems: list[str] = field(default_factory=list)


class Reference:
    """Times the reference routine at most every ``REF_EVERY_S`` seconds."""

    def __init__(self):
        # 4 MB in all, allocated once: a constant part of peak_rss_mb
        self.data = np.random.default_rng(0).random(1 << 18)
        self.work = np.empty_like(self.data)
        self.times: list[float] = []
        self.last = -math.inf

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.last < REF_EVERY_S:
            return
        start = time.perf_counter()
        np.multiply(self.data, 1.5, out=self.work)
        np.cumsum(self.work, out=self.work)
        self.work.sort()
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def scale(self) -> float:
        """Factor from this run's times to times at the reference speed."""
        return REF_MS / (1e3 * statistics.median(self.times))


def run_op(op, stats: Stats, tracer=None) -> None:
    """Run one op, time it, then check its answer untimed."""
    root = tracer.open("op") if tracer else None
    start = time.perf_counter()
    try:
        result = op.run()
    except OracleRefusal:
        result, problems = None, None
        stats.refused += 1
    except Exception:
        result, problems = None, [f"raised:\n{traceback.format_exc()}"]
    else:
        problems = []
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.close(root)
        tracer.enabled = False
    if problems == []:
        problems = op.check(result)
    if tracer:
        tracer.enabled = True
    stats.attempted += 1
    if problems is None or problems:
        stats.failed += 1
    stats.problems += [f"{op.label}: {p}" for p in problems or ()]
    stats.latencies.append(elapsed)


def run_passes(wl, seconds: float, stats: Stats, tracer=None, ref=None) -> int:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    start, passes = time.perf_counter(), 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in wl.ops:
            if tracer:
                tracer.op += 1
            run_op(op, stats, tracer)
            if ref:
                ref.sample()
        passes += 1
    stats.passes += passes
    return passes


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Value at percentile ``pct`` and the number of samples beyond it."""
    index = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[index], len(sorted_values) - index - 1


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def end_to_end(stats: Stats, wl, ref: Reference) -> tuple[dict, dict]:
    lat = sorted(stats.latencies)
    tail, beyond = nearest_rank(lat, wl.tail_pct)
    raw = {
        "op_ms.p50": 1e3 * statistics.median(lat),
        "op_ms.tail": 1e3 * tail,
        # every timed op belongs to a whole pass, so this is ops per second
        # of op time over all passes
        "ops_per_s": len(lat) / sum(lat),
    }
    scale = ref.scale()
    metrics = {
        "op_ms.p50": (raw["op_ms.p50"] * scale, "ms"),
        "op_ms.tail": (raw["op_ms.tail"] * scale, "ms"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - stats.failed / stats.attempted, "ratio"),
    }
    info = {"tail_pct": wl.tail_pct, "samples": len(lat), "samples_beyond_tail": beyond,
            "passes": stats.passes, "raw": raw, "ref_ms": REF_MS / scale,
            "ref_samples": len(ref.times), "ref_scale": scale}
    return metrics, info


def traced(wl, seconds: float, stats: Stats, tracer) -> dict:
    plain = Stats()
    tracer.uninstall()
    run_passes(wl, 0.4 * seconds, plain)
    tracer.install()
    tracer.phase = "spans"
    spans = Stats()
    passes = run_passes(wl, 0.4 * seconds, spans, tracer)
    tracer.phase = "memory"
    tracemalloc.start()
    run_passes(wl, 0.0, stats, tracer)
    tracemalloc.stop()
    tracer.uninstall()
    for part in (plain, spans):
        stats.attempted += part.attempted
        stats.failed += part.failed
        stats.refused += part.refused
        stats.problems += part.problems
    pool = min(int(os.environ.get("CONVEX_AUCTION_THREADS", "1")),
               len(workloads.SWEEP_METHODS))
    out = tracer.layer_metrics(passes, max(1, pool))
    out["trace.overhead_frac"] = (statistics.median(spans.latencies)
                                  / statistics.median(plain.latencies) - 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        wl = workloads.build(args.workload, args.seed, work)
        setup = Stats()
        for op in wl.warm:
            run_op(op, setup, tracer)
        if setup.failed:
            print("\n".join(setup.problems) or "warm-up op refused", file=sys.stderr)
            return 1
        wl.cert_gaps.clear()
        print("ready", flush=True)
        if args.setup_only:
            return 0

        stats = Stats()
        if tracer:
            layer = traced(wl, args.seconds, stats, tracer)
            layer["src_lines"] = src_lines()
            metrics = {name: (layer[name], unit) for name, unit, _ in tracing.per_layer_catalog()}
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            info = {}
        else:
            ref = Reference()
            ref.sample(force=True)
            run_passes(wl, args.seconds, stats, ref=ref)
            metrics, info = end_to_end(stats, wl, ref)
        problems = stats.problems + wl.final_check()
        for p in problems[:20]:
            print(f"problem: {p}", file=sys.stderr)
        info.update({
            "workload": args.workload, "seed": args.seed, "refused": stats.refused,
            "failed_frac": stats.failed / stats.attempted, "src_lines": src_lines(),
            "cert_gap": statistics.mean(wl.cert_gaps) if wl.cert_gaps else None,
            "shapes": sorted({op.shape for op in wl.ops}),
        })
        print(json.dumps({
            "correct": not problems,
            "attempted": stats.attempted,
            "failed": stats.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "info": info,
        }))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
