"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep|roundtrip|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in its own child process (``worker.py``) so
that its peak resident memory is its own, with the BLAS thread pools at 1
and ``CONVEX_AUCTION_THREADS`` at one less than the number of usable CPUs
(at least 1).  Set-up time
is the time from starting a child to its ``ready`` line; it is measured on
``SETUPS`` children in all and reported as their median.  End-to-end
timings are scaled to a reference speed of the machine (see ``worker.py``);
``info`` keeps the unscaled values.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
line before it (``info:``) holds the informational fields: tail percentile
and sample counts, refusals, ``src_lines``, the certified gap and the op
shapes.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "roundtrip", "oracle")
SETUPS = 9
LIMIT_S = 170.0  # the whole run, set-ups included


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # One CPU is left to the system and this process, so that the pool does
    # not measure the scheduler on a small machine.
    env["CONVEX_AUCTION_THREADS"] = str(max(1, len(os.sched_getaffinity(0)) - 1))
    return env


def start_child(args, setup_only: bool, deadline: float):
    """Start a worker; returns (process, set-up seconds, watchdog)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready = proc.stdout.readline()
    setup = time.perf_counter() - start
    if ready.strip() != "ready":
        proc.stdout.read()
        proc.wait()
        watchdog.cancel()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup, watchdog


def expected_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "convexauction" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + LIMIT_S

    setups = []
    try:
        for _ in range(0 if args.trace else SETUPS - 1):
            proc, setup, watchdog = start_child(args, True, deadline)
            proc.stdout.read()
            proc.wait()
            watchdog.cancel()
            setups.append(setup)
        proc, setup, watchdog = start_child(args, False, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    lines = proc.stdout.read().splitlines()
    code = proc.wait()
    watchdog.cancel()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"error: worker ended without a result (exit {code})", file=sys.stderr)
        return 1

    info = result.pop("info")
    if not args.trace:
        # the set-ups ran just before the timed passes, at the speed the
        # worker's reference routine measured
        result["metrics"]["setup_s"] = {"value": statistics.median(setups) * info["ref_scale"],
                                        "unit": "s"}
        info["setup_runs_s"] = setups
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != expected_metrics(args.trace):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
