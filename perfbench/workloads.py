"""The three workloads: seeded inputs, timed ops and checks on the answers.

Each workload is a fixed list of ops built from ``--seed``.  The seed moves
type values and probabilities only; instance shapes are fixed, so every
seed costs the program the same work and runs with different seeds can be
compared.  The two instances searched depth-first by the grid oracle are
fixed as well, because that search prunes by value and its cost would
follow the seed.

The checks test properties any correct solver must have, never the output
of today's algorithm: constraint checks re-run by the benchmark, finite
payments, reported revenue equal to the expected payment, golden optima
and the orderings heuristic <= exact RRM <= exact BRM within the grid
slack, and byte-identical files.  ``ex_ante`` is never used as an upper
bound, because it is not one.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from convexauction import cli, core, discretization, mechanisms, oracle

TOL = 1e-9
DELTA = 0.05  # discretization step of the roundtrip ops
# A sweep op at 3.1 M cells peaks at about 330 MB of resident memory, i.e.
# about 13 float64 copies of its table; refuse ops that would not fit.
BYTES_PER_CELL = 128


@dataclass
class Op:
    label: str
    shape: tuple[int, ...]  # (n, K_0, ..., K_{n-1}) of the op's dense tables
    run: Callable[[], object]  # the timed work
    check: Callable[[object], list[str]]  # untimed; returns problems found


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warm: list[Op]  # run once during set-up
    tail_pct: float
    final_check: Callable[[], list[str]] = lambda: []
    cert_gaps: list[float] = field(default_factory=list)


def build(name: str, seed: int, work: str) -> Workload:
    rng = np.random.default_rng(seed)
    wl = {"sweep": sweep, "roundtrip": roundtrip, "oracle": oracle_workload}[name](rng, work)
    budget = min(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4, 4 << 30)
    for op in wl.ops:
        need = math.prod(op.shape) * BYTES_PER_CELL
        if need > budget:
            raise MemoryError(
                f"op {op.label} needs about {need >> 20} MB, above the {budget >> 20} MB budget"
            )
    return wl


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def own_revenue(instance, mech) -> float:
    """Expected payment computed here from the payment tables alone."""
    if mech.robust_payments is not None:
        joint = np.ones(())
        for i in range(instance.n):
            joint = np.multiply.outer(joint, instance.pmf(i))
        return float((mech.robust_payments.table * joint).sum())
    return sum(float(instance.pmf(i) @ h) for i, h in enumerate(mech.interim_payments.tables))


def mechanism_problems(instance, mech, revenue, checks) -> list[str]:
    problems = [f"{name} fails (worst {c.worst_violation!r})"
                for name, c in checks.items() if not c.passed]
    tables = [t.table for t in (mech.allocation, mech.robust_payments) if t is not None]
    for part in (mech.interim_allocation, mech.interim_payments):
        if part is not None:
            tables.extend(part.tables)
    if not all(np.all(np.isfinite(t)) for t in tables):
        problems.append("non-finite allocation or payment")
    if revenue is None or not math.isfinite(revenue):
        problems.append(f"non-finite revenue {revenue!r}")
    elif abs(own_revenue(instance, mech) - revenue) > TOL * max(1.0, abs(revenue)):
        problems.append(f"revenue {revenue!r} is not the expected payment")
    return problems


def same_instance(a, b) -> bool:
    return a.n == b.n and all(
        np.array_equal(a.values(i), b.values(i)) and np.array_equal(a.pmf(i), b.pmf(i))
        for i in range(a.n)
    )


def regular_bidder(rng, k: int):
    """Random (TypeSpace, pmf) with non-decreasing virtual values."""
    while True:
        gaps = rng.uniform(0.5, 1.5, k)
        values = np.cumsum(gaps) - gaps[0] * rng.uniform(0.0, 1.0)
        pmf = rng.uniform(0.6, 1.4, k)
        pmf /= pmf.sum()
        step = np.append(np.diff(values), 0.0)
        phi = values - step * (1.0 - np.cumsum(pmf)) / pmf
        if np.all(np.diff(phi) >= 1e-6):
            return core.TypeSpace(values), core.DiscreteDistribution(pmf)


# ---------------------------------------------------------------------------
# sweep: the README experiment, one (distribution, n) row set per op
# ---------------------------------------------------------------------------

SWEEP_METHODS = ("heur_lb_cf", "heur_rrm_rev", "heur_brm_rev", "ex_ante_trunc", "pseudo_surplus_cf")
CSV_HEADER = ["method", "distribution", "n_bidders", "objective_kind", "value",
              "runtime_ms", "verified"]
# method -> (pipeline, constraint sets, CSV column source)
SWEEP_LIBRARY = {
    "heur_lb_cf": (lambda inst: mechanisms.heuristic_lb_rrm(inst, "closed_form"),
                   ("ic", "ir", "xp"), "objective"),
    "heur_rrm_rev": (lambda inst: mechanisms.heuristic_lb_rrm(inst, "closed_form"),
                     ("ic", "ir", "xp"), "revenue"),
    "heur_brm_rev": (lambda inst: mechanisms.heuristic_brm(inst, "closed_form"),
                     ("bic", "bir", "xp"), "objective"),
    "ex_ante_trunc": (lambda inst: mechanisms.ex_ante_relaxation(inst, True),
                      ("bic", "bir", "xa"), "objective"),
    "pseudo_surplus_cf": (lambda inst: mechanisms.pseudo_surplus_maximizer(inst, "closed_form"),
                          ("ic", "ir", "xp"), "objective"),
}


def csv_problems(data: bytes, dist: str, n: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != CSV_HEADER:
        return ["CSV header differs"]
    problems = []
    if sorted(r[0] for r in rows[1:]) != sorted(SWEEP_METHODS):
        problems.append("CSV rows do not match the requested methods")
    for row in rows[1:]:
        method, dist_col, n_col, _, value, runtime, verified = row
        if (dist_col, n_col, runtime) != (dist, str(n), ""):
            problems.append(f"{method}: bad distribution, n or runtime column")
        if not (math.isfinite(float(value)) and float(value) >= -TOL):
            problems.append(f"{method}: bad value {value}")
        if verified != "true":
            problems.append(f"{method}: not verified")
    return problems


def sweep(rng, work: str) -> Workload:
    low, p_low, p_bin = rng.uniform(0.5, 5.0), rng.uniform(0.3, 0.9), rng.uniform(0.2, 0.8)
    dists = [
        (f"categorical:{low:.3f},10,{p_low:.3f}", 2, range(1, 15),
         lambda: core.make_categorical(float(f"{low:.3f}"), 10.0, float(f"{p_low:.3f}"))),
        ("uniform:5", 5, range(1, 9), lambda: core.make_uniform(5)),
        (f"binomial:9,{p_bin:.3f}", 10, range(1, 6),
         lambda: core.make_binomial(9, float(f"{p_bin:.3f}"))),
    ]
    first_csv: dict[int, bytes] = {}
    rows = []  # (dist spec, n, builder, op index) for the final check

    def make(i, dist, k, n, builder):
        path = os.path.join(work, f"sweep{i}.csv")
        argv = ["experiment", "--dist", dist, "--bidders", f"{n}..{n}",
                "--methods", ",".join(SWEEP_METHODS), "--output", path, "--no-timing"]

        def run():
            rc, _ = quiet_cli(argv)
            if rc != 0:
                raise RuntimeError(f"experiment exited with {rc}")
            with open(path, "rb") as fh:
                return fh.read()

        def check(data):
            problems = csv_problems(data, dist, n)
            if data != first_csv.setdefault(i, data):
                problems.append("CSV differs from the first pass")
            return problems

        rows.append((dist, n, builder, i))
        return Op(f"{dist} n={n}", (n,) + (k,) * n, run, check)

    ops, i = [], 0
    for dist, k, ns, builder in dists:
        for n in ns:
            ops.append(make(i, dist, k, n, builder))
            i += 1

    def final_check() -> list[str]:
        """Solve every row again through the library and verify it here."""
        problems = []
        for dist, n, builder, i in rows:
            if i not in first_csv:
                continue
            values = {r[0]: float(r[4])
                      for r in csv.reader(io.StringIO(first_csv[i].decode())) if r[0] in SWEEP_LIBRARY}
            instance = core.symmetric_instance(*builder(), n)
            for method, (pipeline, constraints, column) in SWEEP_LIBRARY.items():
                mech, report = pipeline(instance)
                checks = oracle.verify(instance, mech, constraints)
                found = mechanism_problems(instance, mech, report.revenue, checks)
                value = report.objective_value if column == "objective" else report.revenue
                if abs(values.get(method, math.nan) - value) > TOL * max(1.0, abs(value)):
                    found.append(f"CSV value differs from the library's {value!r}")
                problems += [f"{dist} n={n} {method}: {p}" for p in found]
        return problems

    warm = [make(100 + j, dist, k, 1, builder) for j, (dist, k, _, builder) in enumerate(dists)]
    return Workload("sweep", ops, warm, tail_pct=95.0, final_check=final_check)


# ---------------------------------------------------------------------------
# roundtrip: pipeline -> save -> load -> verify -> bound_report -> discretize
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pipe:
    name: str
    cli_method: str  # "{engine}" is replaced by greedy or cf
    call: Callable
    constraints: tuple[str, ...]
    bounds: bool  # robust quadratic: bound_report applies
    discretize: bool  # ex-post quadratic: discretization_gap applies


PIPES = (
    Pipe("surplus", "surplus",
         lambda inst, eng: mechanisms.surplus_maximizer(inst), ("ic", "ir", "xp"), False, False),
    Pipe("pseudo_surplus", "pseudo_surplus_{engine}",
         lambda inst, eng: mechanisms.pseudo_surplus_maximizer(inst, eng),
         ("ic", "ir", "xp"), True, True),
    Pipe("virtual_surplus", "virtual_surplus",
         lambda inst, eng: mechanisms.virtual_surplus_maximizer(inst),
         ("ic", "ir", "xp"), False, False),
    Pipe("heuristic_lb_rrm", "heur_rrm_{engine}",
         lambda inst, eng: mechanisms.heuristic_lb_rrm(inst, eng), ("ic", "ir", "xp"), True, True),
    Pipe("heuristic_brm", "heur_brm_{engine}",
         lambda inst, eng: mechanisms.heuristic_brm(inst, eng), ("bic", "bir", "xp"), False, True),
    Pipe("ex_ante", "ex_ante",
         lambda inst, eng: mechanisms.ex_ante_relaxation(inst, False),
         ("bic", "bir", "xa"), False, False),
    Pipe("ex_ante_trunc", "ex_ante_trunc",
         lambda inst, eng: mechanisms.ex_ante_relaxation(inst, True),
         ("bic", "bir", "xa"), False, False),
)
# Bidder type counts per op; 8 shapes against 7 pipelines meet every pairing
# once in 56 ops.  Bidder counts 2..5, type counts 3..6.  Ops 24..31 and
# 48..55 (each shape twice, each pipeline at least twice) are symmetric and
# go through the CLI's solve --output and check commands.
SHAPES = ((3, 5), (4, 6, 3), (6, 4), (3, 4, 5, 3), (5, 3, 4), (4, 3, 5, 3, 6), (6, 5),
          (5, 6, 4, 3))


@dataclass
class RoundTrip:
    revenue: float | None
    instance: object
    mech: object
    checks: dict
    bounds: object = None
    gap: object = None
    check_rc: int = 0


def _finish_roundtrip(path: str, pipe: Pipe, revenue, check_rc=0) -> RoundTrip:
    instance, mech = cli.load_mechanism(path)
    checks = oracle.verify(instance, mech, pipe.constraints)
    bounds = mechanisms.bound_report(instance, mech) if pipe.bounds else None
    gap = (discretization.discretization_gap(instance, mech.allocation, DELTA)
           if pipe.discretize else None)
    return RoundTrip(revenue, instance, mech, checks, bounds, gap, check_rc)


def roundtrip(rng, work: str) -> Workload:
    def make(i: int, shape: tuple[int, ...], pipe: Pipe, symmetric: bool) -> Op:
        n = len(shape)
        engine = "greedy" if n <= 3 else "closed_form"
        path = os.path.join(work, f"rt{i}.json")
        again = os.path.join(work, f"rt{i}.again.json")
        if symmetric:
            k = shape[0]
            if i % 2:
                spec, pair = f"uniform:{k}", core.make_uniform(k)
            else:
                p = float(f"{rng.uniform(0.2, 0.8):.3f}")
                spec, pair = f"binomial:{k - 1},{p}", core.make_binomial(k - 1, p)
            expected = core.symmetric_instance(*pair, n)
            method = pipe.cli_method.format(engine="greedy" if engine == "greedy" else "cf")

            def run():
                rc, text = quiet_cli(["solve", "--dist", spec, "--n", str(n), "--method",
                                      method, "--output", path])
                if rc != 0:
                    raise RuntimeError(f"solve exited with {rc}")
                revenue = next((float(line.partition("=")[2]) for line in text.splitlines()
                                if line.startswith("revenue=")), None)
                rc, _ = quiet_cli(["check", path, "--constraints", ",".join(pipe.constraints)])
                if rc == 2:
                    raise RuntimeError("check exited with 2")
                return _finish_roundtrip(path, pipe, revenue, rc)

            label = f"{pipe.name} solve/check {spec} n={n}"
        else:
            expected = core.AuctionInstance(tuple(regular_bidder(rng, k) for k in shape))

            def run():
                mech, report = pipe.call(expected, engine)
                cli.save_mechanism(path, expected, mech)
                return _finish_roundtrip(path, pipe, report.revenue)

            label = f"{pipe.name}[{engine}] {'x'.join(map(str, shape))}"

        def check(res: RoundTrip) -> list[str]:
            problems = mechanism_problems(res.instance, res.mech, res.revenue, res.checks)
            if res.check_rc != 0:
                problems.append("check command reported a failure")
            if not same_instance(expected, res.instance):
                problems.append("loaded instance differs from the input")
            cli.save_mechanism(again, res.instance, res.mech)
            with open(path, "rb") as a, open(again, "rb") as b:
                if a.read() != b.read():
                    problems.append("save -> load -> save changed the file")
            if res.bounds is not None and not res.bounds.ok:
                problems.append(f"bound ordering fails: {res.bounds.failures}")
            if res.gap is not None:
                if not (res.gap.max_abs_residual <= DELTA + 1e-12
                        and math.isfinite(res.gap.perceived_payment_gap)
                        and math.isfinite(res.gap.revenue_gap)):
                    problems.append("discretization residual or gap out of range")
            return problems

        return Op(label, (n,) + tuple(expected.shape), run, check)

    count = len(SHAPES) * len(PIPES)
    ops = [make(i, SHAPES[i % len(SHAPES)], PIPES[i % len(PIPES)], i // 8 in (3, 6))
           for i in range(count)]
    warm = [make(count + j, (3, 3), pipe, j % 2 == 1) for j, pipe in enumerate(PIPES)]
    return Workload("roundtrip", ops, warm, tail_pct=95.0)


# ---------------------------------------------------------------------------
# oracle: exact solvers paired with heuristics, plus the program exporter
# ---------------------------------------------------------------------------

ROBUST_GOLDEN = 5 * (1 + math.sqrt(2) / 2)
BAYES_GOLDEN = 5 * math.sqrt(3)
PROGRAMS = ("rrm_xp", "rrm_pseudo", "rrm_lb", "brm_xp_naive", "brm_xp",
            "brm_pseudo", "brm_xa", "brm_xa_rel", "brm_xa_rel_trunc")


def oracle_workload(rng, work: str) -> Workload:
    def categorical():
        return core.make_categorical(float(f"{rng.uniform(0.5, 6.0):.3f}"), 10.0,
                                     float(f"{rng.uniform(0.2, 0.8):.3f}"))

    two_point = (core.TypeSpace(np.array([0.0, 100.0])),
                 core.DiscreteDistribution(np.array([0.5, 0.5])))
    u3 = core.make_uniform(3)
    cases = [  # (label, instance, grid, golden (rrm, brm) or None)
        ("golden {0,100} n=2", core.symmetric_instance(*two_point, 2), 1e-3,
         (ROBUST_GOLDEN, BAYES_GOLDEN)),
        ("categorical A n=2", core.symmetric_instance(*categorical(), 2), 1e-3, None),
        ("categorical B n=2", core.symmetric_instance(*categorical(), 2), 1e-3, None),
        ("categorical C n=3", core.symmetric_instance(*categorical(), 3), 1e-2, None),
        ("categorical D n=3", core.symmetric_instance(*categorical(), 3), 1e-2, None),
        ("uniform:3 n=2", core.symmetric_instance(*u3, 2), 0.1, None),
        ("asymmetric pair", core.AuctionInstance((core.make_categorical(2.0, 10.0, 0.6),
                                                  core.make_categorical(4.0, 10.0, 0.3))),
         0.1, None),
        # beyond the grid oracle's node budget today: refused
        ("uniform:3 n=2 fine grid", core.symmetric_instance(*u3, 2), 0.05, None),
        ("asymmetric triple", core.AuctionInstance(tuple(categorical() for _ in range(3))),
         0.1, None),
    ]
    robust_revenue: dict[str, float] = {}
    wl = Workload("oracle", [], [], tail_pct=87.5)

    def make(label, instance, grid, golden, mode) -> Op:
        robust = mode == "rrm"
        constraints = ("ic", "ir", "xp") if robust else ("bic", "bir", "xp")

        def run():
            config = oracle.OracleConfig(grid=grid)
            if robust:
                mech, report = oracle.exact_rrm(instance, config)
                heur = mechanisms.heuristic_lb_rrm(instance, "closed_form")
            else:
                mech, report = oracle.exact_brm(instance, config)
                heur = mechanisms.heuristic_brm(instance, "closed_form")
            return mech, report, heur

        def check(result) -> list[str]:
            mech, report, (hmech, hreport) = result
            revenue, slack = report.revenue, report.grid_slack
            problems = mechanism_problems(instance, mech, revenue,
                                          oracle.verify(instance, mech, constraints))
            problems += ["heuristic: " + p for p in mechanism_problems(
                instance, hmech, hreport.revenue, oracle.verify(instance, hmech, constraints))]
            if slack is None or not (math.isfinite(slack) and slack >= 0):
                return problems + [f"no certified gap ({slack!r})"]
            wl.cert_gaps.append(slack)
            if revenue < hreport.revenue - slack - TOL:
                problems.append(f"exact {revenue!r} below heuristic {hreport.revenue!r}")
            if golden is not None:
                target = golden[0] if robust else golden[1]
                if abs(revenue - target) > slack:
                    problems.append(f"revenue {revenue!r} misses {target!r} by more than {slack}")
            if robust:
                robust_revenue[label] = revenue
            elif robust_revenue.get(label, -math.inf) > revenue + slack + TOL:
                problems.append("exact RRM exceeds exact BRM")
            return problems

        return Op(f"{label} exact_{mode} grid={grid}", (instance.n,) + instance.shape, run, check)

    for label, instance, grid, golden in cases:
        for mode in ("rrm", "brm"):
            wl.ops.append(make(label, instance, grid, golden, mode))

    export_instance = core.symmetric_instance(*u3, 3)

    def export(programs: tuple[str, ...]) -> Op:
        first: dict[str, tuple[str, ...]] = {}

        def run():
            return tuple(oracle.export_program(export_instance, p) for p in programs)

        def check(texts) -> list[str]:
            problems = [f"{p}: empty program" for p, t in zip(programs, texts)
                        if "CONSTRAINT" not in t]
            if texts != first.setdefault("texts", texts):
                problems.append("exported programs differ from the first pass")
            return problems

        return Op(f"export {','.join(programs)} uniform:3 n=3", (3, 3, 3, 3), run, check)

    # Two export ops (robust, Bayesian) make 20 ops per pass.  The tail
    # percentile, p87.5, is the middle of the ranks of the third-slowest op;
    # p90 is the edge between the third- and second-slowest, whose latencies
    # differ by a third, and it spread 30 % between runs.
    wl.ops += [export(PROGRAMS[:3]), export(PROGRAMS[3:])]
    wl.warm = wl.ops[:2] + wl.ops[-2:]
    return wl
