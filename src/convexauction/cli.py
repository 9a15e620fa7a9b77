"""Command-line surface: run experiments, solve, check, discretize, export.

Experiments mirror the method-comparison structure of the library: symmetric
instances of one of the three stock distributions are solved for a range of
bidder counts, and one CSV row is emitted per (method, n) with the objective
kind, value, runtime and verification outcome.  Identical configurations
produce byte-identical CSV when timing is suppressed with --no-timing.
Each setting is one text value, from its flag or else from the --config file,
whose keys are the flags' names; one routine converts it, so a bad value gets
one message from either.  ``GreedyConfig`` and ``OracleConfig`` hold the defaults.

One registry, ``METHODS``, serves ``experiment`` and ``solve``: each entry
maps (profile space, GreedyConfig, OracleConfig) to (Tables, report), and the
report's kind and objective value, as ``_reported`` labels them, are what
both commands print.
``experiment`` holds one space at a time: each bidder count's symmetric
instance as one class of n (``OrbitSpace``: K * C(n+K-2, K-1) cells of own
type and count of the other bidders' types; see ``spaces``);
``_run_method`` alone times each run and verifies it against the default
checks of its payment style (``oracle.check``).
``solve``, ``check``, ``discretize`` and mechanism files work on dense
``(n, K_0, ..., K_{n-1})`` tables.

Mechanism files are compact JSON (one line, byte for byte what ``json.dumps``
writes; any JSON layout loads) written from and read into dense
``mechanisms.Tables``: ex-post tables are nested arrays indexed [bidder]
[profile index], profiles flattened in the lexicographic order documented in
``core``, and interim tables hold one vector per bidder.  A table's text
formats each distinct value once (``_rows``).

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import mechanisms as mech_mod
from . import oracle as oracle_mod
from .alloc import GreedyConfig
from .core import (
    DEFAULT_TOL,
    AuctionInstance,
    DiscreteDistribution,
    ObjectiveKind,
    TypeSpace,
    make_binomial,
    make_categorical,
    make_uniform,
    symmetric_instance,
)
from .discretization import discretization_gap
from .mechanisms import Mechanism, Tables
from .oracle import OracleConfig, OracleRefusal
from .spaces import DenseSpace, OrbitSpace

def _engine(pipeline, engine):
    return lambda space, greedy, oracle: pipeline(space, engine, greedy)


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
    "heur_rrm_rev": _heur_lb_cf,  # reported as its realized revenue (``_reported``)
    "heur_brm_greedy": _engine(mech_mod.heuristic_brm_tables, "greedy"),
    "heur_brm_cf": _heur_brm_cf,
    "heur_brm_rev": _heur_brm_cf,
    "ex_ante": lambda space, greedy, oracle: mech_mod.ex_ante_tables(space, False),
    "ex_ante_trunc": lambda space, greedy, oracle: mech_mod.ex_ante_tables(space, True),
}


def _reported(method, report):
    """The report ``method`` prints: ``heur_rrm_rev`` reads its run's realized
    robust revenue as the objective."""
    if method != "heur_rrm_rev":
        return report
    return replace(report, objective_value=report.revenue, kind=ObjectiveKind.REVENUE_ROBUST)


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
    epsilon: float = GreedyConfig.epsilon
    oracle_grid: float = OracleConfig.grid
    output_path: str = "experiment.csv"
    timing: bool = True

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("bidders must be N..M with 1 <= N <= M, "
                             f"got {self.n_min}..{self.n_max}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")


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

    One n at a time: build its orbit space, run each distinct pipeline once
    on it (an alias or ``heur_rrm_rev`` shares its pipeline's run), keep only
    the outcomes and drop the space.  Rows are written method-major; warnings
    go to stderr after the runs, in row order, as ``warning: <method> n=<n>:
    <text>``; the CSV does not carry them.
    """
    greedy, oracle = GreedyConfig(epsilon=cfg.epsilon), OracleConfig(grid=cfg.oracle_grid)
    space, dist = parse_distribution(cfg.distribution)
    ns = range(cfg.n_min, cfg.n_max + 1)
    results = {}  # (pipeline, n) -> (report, seconds, verified) or None
    for n in ns:
        orbit = OrbitSpace(symmetric_instance(space, dist, n))
        for method in cfg.methods:
            run = METHODS[method]
            if (run, n) not in results:
                results[run, n] = _run_method(method, run, orbit, greedy, oracle)
        del orbit

    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for method, n in itertools.product(cfg.methods, ns):
        outcome = results[METHODS[method], n]
        if outcome is None:
            continue
        report, runtime, verified = outcome
        report = _reported(method, report)
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


def _rows(table) -> str:
    """``json.dumps`` of a table's rows, one list per bidder (an (n, *shape)
    table's flattened rows, or an interim vector), or of None.  Each distinct
    float, by bits so that -0.0 stays apart, is formatted once, by
    ``float.__repr__`` as ``json.dumps`` does: tables repeat few values."""
    if table is None:
        return "null"
    rows = [np.ravel(row) for row in table]
    bits, at = np.unique(np.concatenate(rows).view(np.int64), return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), object)
    words = text[at].tolist()
    starts = itertools.accumulate(map(len, rows), initial=0)
    return "[" + ", ".join("[" + ", ".join(words[s : s + len(row)]) + "]"
                           for s, row in zip(starts, rows)) + "]"


def save_mechanism(path: str, instance: AuctionInstance, mech: Mechanism) -> None:
    """Write ``mech``; a table that does not match ``instance`` raises ValueError first.
    The text is ``json.dumps`` of the whole document and a newline; the
    tables, its last four fields, are written by ``_rows``."""
    tables = Tables.of(instance, mech)
    bidders = [{"values": instance.values(i).tolist(), "pmf": instance.pmf(i).tolist()}
               for i in range(instance.n)]
    text = json.dumps({
        "format": _FORMAT,
        "instance": {"bidders": bidders},
        "provenance": tables.provenance,
        "perceived": tables.perceived,
    })[:-1]
    for key, table in (("allocation", tables.x), ("robust_payments", tables.p),
                       ("interim_allocation", tables.xhat), ("interim_payments", tables.h)):
        text += f', "{key}": {_rows(table)}'
    _write_text(path, text + "}\n")


def load_mechanism(path: str) -> tuple[AuctionInstance, Mechanism]:
    """Read a mechanism file.  A missing field, a field of the wrong JSON type,
    or a table that does not match the instance's type counts raises ValueError."""
    with open(path) as fh:
        text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError(f"not a mechanism file: {path}")

    def field(obj, key, kind=object, need=""):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"mechanism file {path} has no {key!r} field")
        if not isinstance(obj[key], kind):
            raise ValueError(f"mechanism file {path}: {key!r} needs {need}")
        return obj[key]

    def has_boolean(value):  # numpy would read a JSON true or false among numbers as 1 or 0
        kinds = set(map(type, value)) if isinstance(value, list) else {type(value)}
        return bool in kinds or list in kinds and any(map(has_boolean, value))

    # a JSON boolean is written true or false, so a text with neither has none
    booleans = "true" in text or "false" in text

    def array(key, value, want=None, need="a list of numbers"):
        try:
            table = None if booleans and has_boolean(value) else np.array(value)
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
    shape, cells = instance.shape, math.prod(instance.shape)

    def expost(key):
        rows = field(doc, key)
        if rows is None:
            return None
        need = f"{instance.n} rows of {cells} entries, one number per profile"
        return array(key, rows, (instance.n, cells), need).reshape(instance.n, *shape)

    def interim(key):
        tables = field(doc, key)
        if tables is None:
            return None
        need = f"one entry per type, {list(shape)} per bidder, each a number"
        if not isinstance(tables, list) or len(tables) != instance.n:
            raise ValueError(f"mechanism file {path}: {key!r} needs {need}")
        return tuple(array(key, t, (k,), need) for t, k in zip(tables, shape))

    tables = Tables(DenseSpace(instance), expost("allocation"), expost("robust_payments"),
                    interim("interim_allocation"), interim("interim_payments"),
                    field(doc, "provenance", str, "a string"), field(doc, "perceived"))
    return instance, tables.mechanism()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    space, dist = parse_distribution(args.dist)
    instance = symmetric_instance(space, dist, args.n)
    greedy = GreedyConfig(epsilon=_float("epsilon", args.epsilon))
    oracle = OracleConfig(grid=_float("oracle_grid", args.oracle_grid))
    tables, report = METHODS[args.method](DenseSpace(instance), greedy, oracle)
    report = _reported(args.method, report)
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
        save_mechanism(args.output, instance, tables.mechanism())
        print(f"wrote {args.output}")
    return 0


def _cmd_check(args) -> int:
    instance, mech = load_mechanism(args.mechanism)
    stored, space = mech.interim_allocation, DenseSpace(instance)
    if mech.allocation is not None and stored is not None:
        collapse = space.collapse(space.split(mech.allocation.table))
        off = max(float(np.abs(a - b).max()) for a, b in zip(collapse, stored.tables))
        if off > DEFAULT_TOL:
            print(f"notice: the stored interim_allocation is up to {off!r} off the allocation's "
                  "collapse; the checks read the collapse", file=sys.stderr)
    which = tuple(c.strip() for c in args.constraints.split(",")) if args.constraints else None
    results = oracle_mod.verify(instance, mech, which)
    for name, check in results.items():
        status = "pass" if check.passed else "FAIL"
        print(f"{name}: {status} (worst violation {check.worst_violation!r})")
    return 0 if all(check.passed for check in results.values()) else 1


def _cmd_discretize(args) -> int:
    instance, mech = load_mechanism(args.mechanism)
    if mech.allocation is None:
        raise ValueError("mechanism has no ex-post allocation")
    if mech.perceived != "quadratic":
        raise ValueError("discretize prices payments as p = sqrt(q), so it needs "
                         f"perceived='quadratic', got perceived={mech.perceived!r}")
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


_SWITCH = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _read_config_file(path: str, keys) -> dict[str, str]:
    """key=value lines with keys from ``keys``, each once; blank lines and #-comments skipped."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = map(str.strip, line.partition("="))
            if not sep:
                raise ValueError(f"bad config line {line!r} (expected key=value)")
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} in {path} (expected one of "
                                 + ", ".join(keys) + ")")
            if key in values:
                raise ValueError(f"config key {key!r} is set twice in {path}")
            values[key] = value
    return values


def _float(key: str, raw) -> float:
    """``float(raw)``, or a ValueError naming the setting and its value."""
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {raw!r}") from None


def _cmd_experiment(args) -> int:
    # one text value per setting: the file's keys are the flags' names, and a flag wins
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}
    given = _read_config_file(args.config, flags) if args.config else {}
    given.update((k, v) for k, v in flags.items() if v is not None)
    if not given.get("dist") or not given.get("bidders") or "methods" not in given:
        raise ValueError("dist, bidders and methods are required (flags or config file)")
    bidders = given["bidders"]
    low, dots, high = bidders.partition("..")
    try:
        n_min, n_max = int(low), int(high if dots else low)
    except ValueError:
        raise ValueError(f"bidders must be N or N..M in whole numbers, got {bidders!r}") from None
    no_timing = given.get("no_timing", "false").lower()
    if no_timing not in _SWITCH:
        raise ValueError(f"config no_timing={no_timing!r} is not one of " + "/".join(_SWITCH))
    cfg = ExperimentConfig(
        distribution=given["dist"],
        n_min=n_min,
        n_max=n_max,
        methods=tuple(m.strip() for m in given["methods"].split(",") if m.strip()),
        epsilon=_float("epsilon", given.get("epsilon", ExperimentConfig.epsilon)),
        oracle_grid=_float("oracle_grid", given.get("oracle_grid", ExperimentConfig.oracle_grid)),
        output_path=given.get("output", ExperimentConfig.output_path),
        timing=not _SWITCH[no_timing],
    )
    print(f"wrote {run_experiment(cfg)}")
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
    p.add_argument("--epsilon", default=GreedyConfig.epsilon)
    p.add_argument("--oracle-grid", default=OracleConfig.grid)
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
    p.add_argument("--epsilon")
    p.add_argument("--oracle-grid")
    p.add_argument("--output")
    p.add_argument("--no-timing", action="store_const", const="true",
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
