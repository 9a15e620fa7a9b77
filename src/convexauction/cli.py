"""Command-line surface: run experiments, solve, check, discretize, export.

Experiments mirror the method-comparison structure of the library: symmetric
instances of one of the three stock distributions are solved for a range of
bidder counts, and one CSV row is emitted per (method, n) with the objective
kind, value, runtime and verification outcome.  Identical configurations
produce byte-identical CSV when timing is suppressed with --no-timing.

One registry, ``METHODS``, serves ``experiment`` and ``solve``: each entry
maps (profile space, GreedyConfig, OracleConfig) to (Tables, report), and the
report's kind and objective value are what both commands print.
``experiment`` solves every method on the orbit space of its symmetric
instance (K * C(n+K-2, K-1) cells of own type and count of the other
bidders' types; see ``spaces``); ``_run_method`` alone times each run and
verifies it against the default checks of its payment style (``oracle.check``).
``solve``, ``check``, ``discretize`` and mechanism files work on dense
``(n, K_0, ..., K_{n-1})`` tables.

Mechanism files are compact JSON (one line, written by the C encoder; any
JSON layout loads) with explicit field order; allocation and payment
tables are nested arrays indexed [bidder][profile index], profiles flattened
in the lexicographic order documented in ``core``.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import mechanisms as mech_mod
from . import oracle as oracle_mod
from .alloc import GreedyConfig
from .core import (
    AuctionInstance,
    DiscreteDistribution,
    ExPostAllocation,
    InterimAllocation,
    InterimPaymentRule,
    ObjectiveKind,
    RobustPaymentRule,
    TypeSpace,
    make_binomial,
    make_categorical,
    make_uniform,
    symmetric_instance,
)
from .discretization import discretization_gap
from .mechanisms import Mechanism
from .oracle import OracleConfig, OracleRefusal
from .spaces import DenseSpace, OrbitSpace

def _engine(pipeline, engine):
    return lambda space, greedy, oracle: pipeline(space, engine, greedy)


def _as_revenue(tables, report):
    """Report a run's realized robust revenue as its objective."""
    return tables, replace(report, objective_value=report.revenue,
                           kind=ObjectiveKind.REVENUE_ROBUST)


_heur_lb_greedy = _engine(mech_mod.heuristic_lb_rrm_tables, "greedy")
_heur_lb_cf = _engine(mech_mod.heuristic_lb_rrm_tables, "closed_form")
_heur_brm_cf = _engine(mech_mod.heuristic_brm_tables, "closed_form")
METHODS = {
    "exact_rrm": lambda space, greedy, oracle: oracle_mod.exact_tables(space, oracle),
    "exact_brm": lambda space, greedy, oracle: oracle_mod.exact_tables(space, oracle, "brm"),
    "surplus": lambda space, greedy, oracle: mech_mod.surplus_tables(space),
    "virtual_surplus": lambda space, greedy, oracle: mech_mod.virtual_surplus_tables(space),
    "pseudo_surplus_greedy": _engine(mech_mod.pseudo_surplus_tables, "greedy"),
    "pseudo_surplus_cf": _engine(mech_mod.pseudo_surplus_tables, "closed_form"),
    "heur_lb_greedy": _heur_lb_greedy,
    "heur_lb_cf": _heur_lb_cf,
    "heur_rrm_greedy": _heur_lb_greedy,
    "heur_rrm_cf": _heur_lb_cf,
    "heur_rrm_rev": lambda space, greedy, oracle: _as_revenue(*_heur_lb_cf(space, greedy, oracle)),
    "heur_brm_greedy": _engine(mech_mod.heuristic_brm_tables, "greedy"),
    "heur_brm_cf": _heur_brm_cf,
    "heur_brm_rev": _heur_brm_cf,
    "ex_ante": lambda space, greedy, oracle: mech_mod.ex_ante_tables(space, False),
    "ex_ante_trunc": lambda space, greedy, oracle: mech_mod.ex_ante_tables(space, True),
}

# rows that relabel another method's run with ``_as_revenue``; ``experiment``
# runs each distinct pipeline once per n
_REVENUE_OF = {"heur_rrm_rev": _heur_lb_cf}

CSV_COLUMNS = (
    "method", "distribution", "n_bidders", "objective_kind",
    "value", "runtime_ms", "verified",
)


def parse_distribution(spec: str):
    """Parse 'categorical:L,H,p' | 'uniform:K' | 'binomial:t,p' into a bidder."""
    try:
        name, _, args = spec.partition(":")
        if name == "categorical":
            low, high, p_low = (float(a) for a in args.split(","))
            return make_categorical(low, high, p_low)
        if name == "uniform":
            return make_uniform(int(args))
        if name == "binomial":
            trials, p = args.split(",")
            return make_binomial(int(trials), float(p))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad distribution spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown distribution {spec!r}")


@dataclass
class ExperimentConfig:
    distribution: str
    n_min: int
    n_max: int
    methods: tuple[str, ...]
    epsilon: float = 1e-3
    oracle_grid: float = 1e-3
    output_path: str = "experiment.csv"
    timing: bool = True

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("bidder range must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")


def _thread_count() -> int:
    raw = os.environ.get("CONVEX_AUCTION_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"CONVEX_AUCTION_THREADS must be an integer, got {raw!r}") from None
    if value == 0:
        return min(4, os.cpu_count() or 1)
    return max(1, value)


def _write_text(path: str, text: str) -> None:
    """Write ``text`` over ``path`` in place, then cut a regular file to length:
    emptying it on open makes ext4 write it to disk on close, a wait per call."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        fh.write(text)
        if os.path.isfile(path):
            fh.truncate()


def _run_method(method: str, run, space: OrbitSpace, greedy: GreedyConfig, oracle: OracleConfig):
    """Run, time and verify ``method``'s pipeline ``run``; returns (report,
    seconds, verified), or None to skip."""
    start = time.perf_counter()
    try:
        tables, report = run(space, greedy, oracle)
    except OracleRefusal as exc:
        print(f"notice: skipping {method} for n={space.instance.n}: {exc}", file=sys.stderr)
        return None
    verified = all(c.passed for c in oracle_mod.check(tables).values())
    return report, time.perf_counter() - start, verified


def run_experiment(cfg: ExperimentConfig) -> str:
    """Produce the experiment CSV; returns the output path.

    Rows that share a pipeline (an alias, or ``heur_rrm_rev``) share its one
    run per n.  Warnings go to stderr after the runs, in row order, as
    ``warning: <method> n=<n>: <text>``; the CSV does not carry them.
    """
    workers = _thread_count()
    greedy, oracle = GreedyConfig(epsilon=cfg.epsilon), OracleConfig(grid=cfg.oracle_grid)
    space, dist = parse_distribution(cfg.distribution)
    ns = range(cfg.n_min, cfg.n_max + 1)
    pipeline = {m: _REVENUE_OF.get(m, METHODS[m]) for m in cfg.methods}
    rows = [(method, n) for method in cfg.methods for n in ns]
    jobs = {(pipeline[method], n): method for method, n in rows}  # run -> a row's method
    orbits = {n: OrbitSpace(symmetric_instance(space, dist, n)) for n in ns}

    def work(job):
        (run, n), method = job
        return _run_method(method, run, orbits[n], greedy, oracle)

    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = dict(zip(jobs, pool.map(work, jobs.items())))
    else:
        results = dict(zip(jobs, map(work, jobs.items())))

    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for method, n in rows:
        outcome = results[(pipeline[method], n)]
        if outcome is None:
            continue
        report, runtime, verified = outcome
        if method in _REVENUE_OF:
            _, report = _as_revenue(None, report)
        runtime_ms = f"{runtime * 1000:.3f}" if cfg.timing else ""
        writer.writerow(
            [method, cfg.distribution, n, report.kind.value, repr(report.objective_value),
             runtime_ms, str(verified).lower()]
        )
        for text in report.warnings:
            print(f"warning: {method} n={n}: {text}", file=sys.stderr)
    _write_text(cfg.output_path, fh.getvalue())
    return cfg.output_path


# ---------------------------------------------------------------------------
# Mechanism file round-trip
# ---------------------------------------------------------------------------

_FORMAT = "convexauction-mechanism/1"


def _tables_to_lists(table: np.ndarray) -> list:
    n = table.shape[0]
    return [table[i].ravel().tolist() for i in range(n)]


def save_mechanism(path: str, instance: AuctionInstance, mech: Mechanism) -> None:
    doc = {
        "format": _FORMAT,
        "instance": {
            "bidders": [
                {"values": instance.values(i).tolist(), "pmf": instance.pmf(i).tolist()}
                for i in range(instance.n)
            ]
        },
        "provenance": mech.provenance,
        "perceived": mech.perceived,
        "allocation": (
            _tables_to_lists(mech.allocation.table) if mech.allocation else None
        ),
        "robust_payments": (
            _tables_to_lists(mech.robust_payments.table)
            if mech.robust_payments
            else None
        ),
        "interim_allocation": (
            [t.tolist() for t in mech.interim_allocation.tables]
            if mech.interim_allocation
            else None
        ),
        "interim_payments": (
            [t.tolist() for t in mech.interim_payments.tables]
            if mech.interim_payments
            else None
        ),
    }
    _write_text(path, json.dumps(doc) + "\n")


def load_mechanism(path: str) -> tuple[AuctionInstance, Mechanism]:
    """Read a mechanism file.  A missing field, a field of the wrong JSON type,
    or a table that does not match the instance's type counts raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError(f"not a mechanism file: {path}")

    def field(obj, key, kind=object, need=""):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"mechanism file {path} has no {key!r} field")
        if not isinstance(obj[key], kind):
            raise ValueError(f"mechanism file {path}: {key!r} needs {need}")
        return obj[key]

    def array(key, value, want=None, need="a list of numbers"):
        try:
            table = np.array(value)
        except ValueError:  # a ragged table
            table = None
        if table is None or table.dtype.kind not in "iuf" or want not in (None, table.shape):
            raise ValueError(f"mechanism file {path}: {key!r} needs {need}")
        return table

    instance = AuctionInstance(tuple(
        (TypeSpace(array("values", field(b, "values"))),
         DiscreteDistribution(array("pmf", field(b, "pmf"))))
        for b in field(field(doc, "instance"), "bidders", list, "a list of bidders")
    ))
    shape = instance.shape

    def expost(key, rule):
        rows = field(doc, key)
        if rows is None:
            return None
        cells = math.prod(shape)
        need = f"{instance.n} rows of {cells} entries, one number per profile"
        return rule(array(key, rows, (instance.n, cells), need).reshape(instance.n, *shape))

    def interim(key, rule):
        tables = field(doc, key)
        if tables is None:
            return None
        need = f"one entry per type, {list(shape)} per bidder, each a number"
        if not isinstance(tables, list) or len(tables) != instance.n:
            raise ValueError(f"mechanism file {path}: {key!r} needs {need}")
        return rule(tuple(array(key, t, (k,), need) for t, k in zip(tables, shape)))

    mech = Mechanism(
        expost("allocation", ExPostAllocation),
        robust_payments=expost("robust_payments", RobustPaymentRule),
        interim_allocation=interim("interim_allocation", InterimAllocation),
        interim_payments=interim("interim_payments", InterimPaymentRule),
        provenance=field(doc, "provenance", str, "a string"),
        perceived=field(doc, "perceived"),
    )
    return instance, mech


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    space, dist = parse_distribution(args.dist)
    instance = symmetric_instance(space, dist, args.n)
    greedy, oracle = GreedyConfig(epsilon=args.epsilon), OracleConfig(grid=args.oracle_grid)
    tables, report = METHODS[args.method](DenseSpace(instance), greedy, oracle)
    mech = tables.mechanism()
    print(f"method={args.method} kind={report.kind.value}")
    print(f"objective={report.objective_value!r}")
    if report.revenue is not None:
        print(f"revenue={report.revenue!r}")
    if report.grid_slack is not None:
        print(f"grid_slack={report.grid_slack!r}")
    if report.newton_steps is not None:
        print(f"newton_steps={report.newton_steps}")
    for w in report.warnings:
        print(f"warning: {w}")
    if args.output:
        save_mechanism(args.output, instance, mech)
        print(f"wrote {args.output}")
    return 0


def _cmd_check(args) -> int:
    instance, mech = load_mechanism(args.mechanism)
    which = tuple(c.strip() for c in args.constraints.split(",")) if args.constraints else None
    results = oracle_mod.verify(instance, mech, which)
    ok = True
    for name, check in results.items():
        status = "pass" if check.passed else "FAIL"
        print(f"{name}: {status} (worst violation {check.worst_violation!r})")
        ok = ok and check.passed
    return 0 if ok else 1


def _cmd_discretize(args) -> int:
    instance, mech = load_mechanism(args.mechanism)
    if mech.allocation is None:
        print("error: mechanism has no ex-post allocation", file=sys.stderr)
        return 2
    report = discretization_gap(instance, mech.allocation, args.delta)
    print(f"delta={report.delta!r}")
    print(f"max_abs_residual={report.max_abs_residual!r}")
    print(f"perceived_payment_gap={report.perceived_payment_gap!r}")
    print(f"revenue_gap={report.revenue_gap!r}")
    return 0


def _cmd_export(args) -> int:
    space, dist = parse_distribution(args.dist)
    instance = symmetric_instance(space, dist, args.n)
    text = oracle_mod.export_program(instance, args.program)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


_CONFIG_KEYS = ("dist", "bidders", "methods", "epsilon", "oracle_grid", "output", "no_timing")
_SWITCH = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _read_config_file(path: str) -> dict[str, str]:
    """key=value lines with keys from ``_CONFIG_KEYS``, each at most once;
    blank lines and #-comments ignored."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line {line!r} (expected key=value)")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} in {path} (expected one of "
                                 + ", ".join(_CONFIG_KEYS) + ")")
            if key in values:
                raise ValueError(f"config key {key!r} is set twice in {path}")
            values[key] = value.strip()
    return values


def _float(key: str, raw) -> float:
    """``float(raw)``, or a ValueError naming the setting and its value."""
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {raw!r}") from None


def _cmd_experiment(args) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, fallback)

    dist = pick(args.dist, "dist", None)
    bidders = pick(args.bidders, "bidders", None)
    methods_raw = pick(args.methods, "methods", None)
    if not dist or not bidders or methods_raw is None:
        print("error: dist, bidders and methods are required (flags or config file)",
              file=sys.stderr)
        return 2
    methods = tuple(m.strip() for m in methods_raw.split(",") if m.strip())
    low, _, high = bidders.partition("..")
    try:
        n_min, n_max = int(low), int(high or low)
    except ValueError:
        raise ValueError(f"bidders must be N or N..M in whole numbers, got {bidders!r}") from None
    no_timing = file_cfg.get("no_timing", "false").lower()
    if no_timing not in _SWITCH:
        raise ValueError(f"config no_timing={no_timing!r} is not one of " + "/".join(_SWITCH))
    cfg = ExperimentConfig(
        distribution=dist,
        n_min=n_min,
        n_max=n_max,
        methods=methods,
        epsilon=_float("epsilon", pick(args.epsilon, "epsilon", 1e-3)),
        oracle_grid=_float("oracle_grid", pick(args.oracle_grid, "oracle_grid", 1e-3)),
        output_path=pick(args.output, "output", "experiment.csv"),
        timing=not (args.no_timing or _SWITCH[no_timing]),
    )
    path = run_experiment(cfg)
    print(f"wrote {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (``main`` runs it per call)."""
    parser = argparse.ArgumentParser(
        prog="convexauction",
        description="Auction design with quadratic perceived payments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one pipeline on a symmetric instance")
    p.add_argument("--dist", required=True, help="categorical:L,H,p | uniform:K | binomial:t,p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--oracle-grid", type=float, default=1e-3)
    p.add_argument("--output", help="write the mechanism file here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="verify a mechanism file")
    p.add_argument("mechanism")
    p.add_argument("--constraints", help="comma list from ic,ir,bic,bir,xp,xa")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("discretize", help="round a mechanism's allocation and report gaps")
    p.add_argument("mechanism")
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("export", help="emit a mathematical program as text")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--program", required=True, choices=oracle_mod.PROGRAMS)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("experiment", help="method comparison CSV across bidder counts")
    p.add_argument("--config", help="key=value file providing defaults; flags win")
    p.add_argument("--dist")
    p.add_argument("--bidders", help="range like 1..6")
    p.add_argument("--methods", help="comma list from " + ",".join(METHODS))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--oracle-grid", type=float)
    p.add_argument("--output")
    p.add_argument("--no-timing", action="store_const", const=True, default=None,
                   help="leave the runtime column empty for byte-identical reruns")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
