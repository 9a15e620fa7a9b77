"""Certified exact solvers, the constraint verifier, and a program exporter.

Both exact problems are concave maximizations over polyhedra.  Robust
revenue is sum f sqrt(q) with the perceived payments q linear in the
allocation table, subject to linear supply and own-type monotonicity
constraints; Bayesian revenue is the same composed with the linear interim
collapse, with interim monotonicity in place of the ex-post one.  Payments
never need to be optimized: the payment characterization and its interim
analogue pin them to the allocation.

Each problem is built once as dense matrices and solved by a log-barrier
Newton method.  The solver returns the better of its last iterate and that
iterate rounded to the configured grid (when the rounded table is still
feasible), and reports ``grid_slack`` as a certified gap: an upper bound on
the optimum, from Lagrangian duality at the last iterate, minus the revenue
of the returned table.  Instances above the variable cap, or that the
barrier method fails to certify, are refused with an explanation.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import payments as pay
from .core import (
    DEFAULT_TOL,
    AuctionInstance,
    ExPostAllocation,
    MechanismReport,
    ObjectiveKind,
    RobustPaymentRule,
)
from .mechanisms import Mechanism, Tables
from .virtual import virtual_values


class OracleRefusal(ValueError):
    """Raised when an instance is too large for, or not certified by, the solver."""


@dataclass(frozen=True)
class OracleConfig:
    """Rounding grid and size cap for the exact solvers.

    The solver's answer is rounded to multiples of ``grid`` when that keeps
    the table feasible and does not lower revenue; ``max_profile_vars`` caps
    the allocation variables n * K_0 * ... * K_{n-1} of the dense program.
    """

    grid: float = 1e-3
    max_profile_vars: int = 64

    def __post_init__(self):
        if not 0 < self.grid <= 0.1:
            raise ValueError("grid must lie in (0, 0.1]")
        steps = 1.0 / self.grid
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("1/grid must be an integer")
        if self.max_profile_vars < 1:
            raise ValueError("max_profile_vars must be positive")

    @property
    def steps(self) -> int:
        return round(1.0 / self.grid)


# ---------------------------------------------------------------------------
# Constraint verifier
# ---------------------------------------------------------------------------

CONSTRAINTS = ("ic", "ir", "bic", "bir", "xp", "xa")


@dataclass(frozen=True)
class ConstraintCheck:
    passed: bool
    worst_violation: float


def verify(
    instance: AuctionInstance,
    mech: Mechanism,
    which=None,
    tol: float = DEFAULT_TOL,
) -> dict[str, ConstraintCheck]:
    """Exhaustively evaluate the requested constraint sets on a mechanism.

    ``which`` is an iterable over {"ic", "ir", "bic", "bir", "xp", "xa"}.
    When omitted it defaults to the set matching the mechanism's payment
    style: IC/IR/XP for robust payments, BIC/BIR plus XP or XA for interim
    ones.  Violations are results, not errors; a NaN or infinite worst
    violation fails its constraint and is reported as is.
    """
    return check(Tables.of(instance, mech), which, tol)


def check(
    tables: Tables, which=None, tol: float = DEFAULT_TOL
) -> dict[str, ConstraintCheck]:
    """``verify`` on any profile space.

    Every constraint but XP is evaluated block by block on (own type x
    context) matrices; XP asks the space for the bidders' total share at
    each profile.
    """
    if which is None:
        if tables.p is not None:
            which = ("ic", "ir", "xp")
        elif tables.x is not None:
            which = ("bic", "bir", "xp")
        else:
            which = ("bic", "bir", "xa")
    which = tuple(w.lower() for w in which)
    for w in which:
        if w not in CONSTRAINTS:
            raise ValueError(f"unknown constraint {w!r}")

    space = tables.space

    def perceived(p):
        return p**2 if tables.perceived == "quadratic" else p

    xs = None if tables.x is None else space.split(tables.x)
    if tables.p is not None:
        qs = [perceived(p) for p in space.split(tables.p)]
    elif tables.h is not None and xs is not None:
        qs = [np.broadcast_to(perceived(h)[:, None], x.shape) for h, x in zip(tables.h, xs)]
    else:
        qs = None

    results: dict[str, ConstraintCheck] = {}
    for name in which:
        # per-block worst violations; np.max propagates a NaN where max() drops it
        parts: list[float] = []
        if name in ("ic", "ir", "bic", "bir"):
            if name in ("ic", "ir"):
                if xs is None or qs is None:
                    raise ValueError(f"{name} check needs an ex-post allocation and payments")
                pairs = list(zip(xs, qs))
            else:
                if tables.h is None and qs is None:
                    raise ValueError(f"{name} check needs payments")
                xhat = tables.xhat if tables.xhat is not None else space.collapse(xs)
                qhat = ([perceived(h) for h in tables.h] if tables.h is not None
                        else space.collapse(qs))
                # an interim rule is a block with a single context
                pairs = [(a[:, None], b[:, None]) for a, b in zip(xhat, qhat)]
            for block, (x, q) in zip(space.blocks, pairs):
                z = block.values
                util = z[:, None] * x - q
                if name.endswith("ir"):
                    parts.append(-util.min())
                else:
                    # deviation utility of reporting w while holding type v
                    dev = z[:, None, None] * x[None, :, :] - q[None, :, :]
                    parts.append((dev - util[:, None, :]).max())
        elif name == "xp":
            if xs is None:
                raise ValueError("xp check needs an ex-post allocation")
            parts.append(space.supply(tables.x))
        else:  # xa
            if xs is not None:
                parts.append(space.expect(xs) - 1.0)
            else:
                parts.append(space.mean(tables.xhat) - 1.0)
        worst = float(np.max(parts + [0.0]))
        # a violation that could not be evaluated is a failure, reported as is
        results[name] = ConstraintCheck(math.isfinite(worst) and worst <= tol, worst)
    return results


# ---------------------------------------------------------------------------
# Log-barrier solver
# ---------------------------------------------------------------------------

_MU = 50.0  # growth of the barrier parameter t once a point is centred
_CENTRED = 1e-6  # squared Newton decrement below which a point counts as centred
_GAP_TOL = 1e-9  # stop once the certified gap is below this times max(1, bound)
_FP_MARGIN = 1e-12  # relative floating-point margin added to every reported gap
_RIDGE = 1e-13  # keeps the unit-diagonal Newton system non-singular
_MAX_NEWTON = 400


@dataclass(frozen=True)
class _Program:
    """maximize w . sqrt(Q x) (w . Q x if linear) subject to A x <= b.

    x is the allocation table flattened in (n, K_0, ..., K_{n-1}) order; the
    rows of Q x are the perceived payments the objective prices, and A x <= b
    stacks x >= 0, per-profile supply and monotonicity.
    """

    Q: np.ndarray
    w: np.ndarray
    A: np.ndarray
    b: np.ndarray
    linear: bool


def _along(i: int, own: np.ndarray, other: list[np.ndarray]) -> np.ndarray:
    """Matrix on the flattened (n, *shape) table that applies ``own`` along
    bidder i's own-type axis of x_i and ``other[j]`` along bidder j's axis."""
    factors = [np.eye(len(other))[i : i + 1]]
    factors += [own if j == i else m for j, m in enumerate(other)]
    return reduce(np.kron, factors)


def _program(instance: AuctionInstance, mode: str) -> _Program:
    """Dense matrices of the robust (``rrm``, ``rrm_linear``) or Bayesian
    (``brm``) revenue program."""
    n, shape = instance.n, instance.shape
    cells = math.prod(shape)
    bayesian = mode == "brm"
    # Bayesian payments and monotonicity act on the interim collapse, which
    # averages the other bidders' types out
    other = [instance.pmf(j)[None, :] if bayesian else np.eye(k) for j, k in enumerate(shape)]
    pay_rows, mono_rows = [], []
    for i, k in enumerate(shape):
        # q_l = z_l x_l - sum_{j<l} (z_{j+1} - z_j) x_j along one own-type chain
        chain = np.diag(instance.values(i)) - np.tril(np.tile(instance.space(i).gaps, (k, 1)), -1)
        pay_rows.append(_along(i, chain, other))
        mono_rows.append(_along(i, -np.diff(np.eye(k), axis=0), other))
    Q, mono = np.vstack(pay_rows), np.vstack(mono_rows)
    if bayesian:
        w = np.concatenate([instance.pmf(i) for i in range(n)])
    else:
        w = np.tile(instance.joint_pmf.ravel(), n)
    # a zero row (lowest type worth 0) pays nothing and has no sqrt gradient
    priced = np.any(Q != 0, axis=1)
    A = np.vstack([-np.eye(n * cells), np.tile(np.eye(cells), n), mono])
    b = np.concatenate([np.zeros(n * cells), np.ones(cells), np.zeros(len(mono))])
    return _Program(Q[priced], w[priced], A, b, mode == "rrm_linear")


def _revenue(prog: _Program, x: np.ndarray) -> float:
    q = prog.Q @ x
    return float(prog.w @ (q if prog.linear else np.sqrt(np.maximum(q, 0.0))))


def _barrier(prog: _Program, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Log-barrier Newton method (Boyd & Vandenberghe, ch. 11) from a strictly
    feasible x.  Returns the last iterate and an upper bound on the optimum.

    For any multipliers lambda >= 0 with residual r = grad R(x) - A^T lambda,
    concavity gives R(y) <= R(x) + lambda.s + r.(y - x) for every feasible y,
    and feasible tables lie in [0, 1]^N.  The multipliers are the Newton-step
    estimate (1 + A dx / s) / (t s), for which r is the step's own error.
    """
    Q, w, A, b = prog.Q, prog.w, prog.A, prog.b

    def phi(x, t):
        s, q = b - A @ x, Q @ x
        if np.any(s <= 0) or (not prog.linear and np.any(q <= 0)):
            return math.inf
        return -t * _revenue(prog, x) - float(np.log(s).sum())

    t = len(b) / max(_revenue(prog, x), _GAP_TOL)
    for _ in range(_MAX_NEWTON):
        s, q = b - A @ x, Q @ x
        if prog.linear:
            grad, curv = Q.T @ w, 0.0
        else:
            root = np.sqrt(q)
            grad = Q.T @ (w / (2 * root))
            curv = (Q.T * (w / (4 * q * root))) @ Q
        g = A.T @ (1 / s) - t * grad
        H = (A.T / s**2) @ A + t * curv
        # Scaled to a unit diagonal, plus a ridge: where a linear program's
        # optimal face is not a point, H is singular in floating point for
        # large t.  The bound below holds whatever step is taken.
        d = 1 / np.sqrt(np.diag(H))
        try:
            dx = -d * np.linalg.solve(H * np.outer(d, d) + _RIDGE * np.eye(len(x)), d * g)
        except np.linalg.LinAlgError as exc:
            raise OracleRefusal(f"barrier Newton system is singular: {exc}") from exc
        lam2 = float(-g @ dx)
        dual = np.maximum((1 + (A @ dx) / s) / (t * s), 0.0)
        r = grad - A.T @ dual
        value = _revenue(prog, x)
        bound = value + float(dual @ s) + float(np.maximum(r * (1 - x), -r * x).sum())
        if bound - value <= _GAP_TOL * max(1.0, bound):
            return x, bound
        if lam2 <= _CENTRED:
            t *= _MU
            continue
        # 0.99 of the longest step that keeps every slack and priced q positive
        alpha = 1.0
        for level, rate in ((s, A @ dx), (q, -(Q @ dx))):
            if prog.linear and level is q:
                continue
            hit = rate > 0
            if hit.any():
                alpha = min(alpha, 0.99 * float(np.min(level[hit] / rate[hit])))
        if lam2 > 0.25**2:
            # Armijo backtracking far from the centre only; near it the
            # barrier values differ by less than their rounding error
            start = phi(x, t)
            while alpha > 1e-12 and phi(x + alpha * dx, t) > start - 0.25 * alpha * lam2:
                alpha *= 0.5
        x = x + alpha * dx
    raise OracleRefusal(
        f"barrier method did not certify a gap of {_GAP_TOL:g} within "
        f"{_MAX_NEWTON} Newton steps"
    )


def _solve(
    instance: AuctionInstance, config: OracleConfig, mode: str
) -> tuple[ExPostAllocation, float, float]:
    """Best certified table, its objective value and the optimum's upper bound.

    Returns the better of the barrier iterate and that iterate rounded to
    multiples of ``config.grid``, if the rounded table is still feasible.
    """
    n, shape = instance.n, instance.shape
    if n * math.prod(shape) > config.max_profile_vars:
        raise OracleRefusal(
            f"instance has {n * math.prod(shape)} allocation "
            f"variables, above the max_profile_vars cap of {config.max_profile_vars}"
        )
    prog = _program(instance, mode)
    # x_i(v) = (v_i + 1) / ((K_i + 1) n): strictly monotone, strictly inside supply
    sizes = np.array(shape).reshape(n, *([1] * n))
    start = ((np.indices(shape) + 1) / ((sizes + 1) * n)).ravel()
    x, bound = _barrier(prog, start)
    best = max(
        (c for c in (x, np.round(x * config.steps) / config.steps)
         if np.all(prog.A @ c <= prog.b + 1e-12)),
        key=lambda c: _revenue(prog, c),
    )
    return ExPostAllocation(best.reshape(n, *shape)), _revenue(prog, best), bound


def _certified_gap(bound: float, revenue: float) -> float:
    gap = bound - revenue + _FP_MARGIN * bound
    if not gap >= 0:
        raise RuntimeError("returned table beats the barrier's upper bound")
    return gap


def exact_rrm(
    instance: AuctionInstance,
    config: OracleConfig = OracleConfig(),
    perceived: str = "quadratic",
) -> tuple[Mechanism, MechanismReport]:
    """Certified robust revenue maximization.

    Maximizes over monotone, ex-post feasible allocation tables and pins
    payments via the payment characterization.  ``perceived`` selects
    quadratic (p = sqrt(q)) or linear (p = q) payments; the linear mode is
    the classic Myerson problem (a linear program) and serves as a
    cross-check oracle.
    """
    if perceived not in ("quadratic", "linear"):
        raise ValueError("perceived must be 'quadratic' or 'linear'")
    start = time.perf_counter()
    mode = "rrm" if perceived == "quadratic" else "rrm_linear"
    alloc, obj, bound = _solve(instance, config, mode)
    q = pay.perceived_payment(alloc, instance)
    if perceived == "quadratic":
        rule = RobustPaymentRule(np.sqrt(np.maximum(q, 0.0)))
    else:
        rule = RobustPaymentRule(np.maximum(q, 0.0))
    revenue = pay.expected_revenue(rule, instance)
    if abs(revenue - obj) > 1e-6:
        raise RuntimeError("solver objective and recomputed revenue disagree")
    mech = Mechanism(
        alloc, robust_payments=rule,
        provenance=f"exact_rrm[grid={config.grid}]", perceived=perceived,
    )
    report = MechanismReport(
        revenue, ObjectiveKind.EXACT_ORACLE, revenue=revenue,
        verification=verify(instance, mech, ("ic", "ir", "xp")),
        runtime_s=time.perf_counter() - start,
        grid_slack=_certified_gap(bound, revenue),
    )
    return mech, report


def exact_brm(
    instance: AuctionInstance, config: OracleConfig = OracleConfig()
) -> tuple[Mechanism, MechanismReport]:
    """Certified Bayesian revenue maximization.

    Maximizes over ex-post feasible allocation tables (interim feasibility
    alone does not imply an ex-post implementation) whose collapsed interim
    rule is monotone, and pays the per-type interim payments.
    """
    start = time.perf_counter()
    alloc, obj, bound = _solve(instance, config, "brm")
    interim = pay.interim_collapse(alloc, instance)
    h = pay.bayesian_payment(interim, instance)
    revenue = pay.expected_revenue(h, instance)
    if abs(revenue - obj) > 1e-6:
        raise RuntimeError("solver objective and recomputed revenue disagree")
    mech = Mechanism(
        alloc, interim_allocation=interim, interim_payments=h,
        provenance=f"exact_brm[grid={config.grid}]",
    )
    report = MechanismReport(
        revenue, ObjectiveKind.EXACT_ORACLE, revenue=revenue,
        verification=verify(instance, mech, ("bic", "bir", "xp")),
        runtime_s=time.perf_counter() - start,
        grid_slack=_certified_gap(bound, revenue),
    )
    return mech, report


# ---------------------------------------------------------------------------
# Textual program exporter
# ---------------------------------------------------------------------------

PROGRAMS = (
    "rrm_xp", "rrm_pseudo", "rrm_lb", "brm_xp_naive", "brm_xp",
    "brm_pseudo", "brm_xa", "brm_xa_rel", "brm_xa_rel_trunc",
)


def _plabel(prof: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, prof)) + ")"


def _profiles_of(instance):
    return list(itertools.product(*(range(k) for k in instance.shape)))


def _radicand_expr(instance, i, ell, var):
    """z_l*var_l - sum_{j<l} gap_j*var_j for either x or xhat variables."""
    z = instance.values(i)
    gaps = instance.space(i).gaps
    terms = [f"{float(z[ell])!r}*{var(ell)}"]
    for j in range(ell):
        terms.append(f"- {float(gaps[j])!r}*{var(j)}")
    return " ".join(terms)


def export_program(instance: AuctionInstance, which: str) -> str:
    """Emit one mathematical program as deterministic text.

    One variable or constraint per line; objective first.  Constraint lines
    read ``CONSTRAINT <name>: <expr> <= | == <rhs>``.
    """
    if which not in PROGRAMS:
        raise ValueError(f"unknown program {which!r}; choose from {PROGRAMS}")
    n = instance.n
    profs = _profiles_of(instance)
    joint = instance.joint_pmf
    phi_plus = virtual_values(instance).phi_plus
    lines: list[str] = []

    def xvar(i, prof):
        return f"x[{i}][{_plabel(prof)}]"

    def add_expost_block(with_ub=True, monotone_expost=True):
        for i in range(n):
            for prof in profs:
                lines.append(f"VAR {xvar(i, prof)} in [0,1]")
        for prof in profs:
            expr = " + ".join(xvar(i, prof) for i in range(n))
            lines.append(f"CONSTRAINT xp[{_plabel(prof)}]: {expr} <= 1")
        for i in range(n):
            for prof in profs:
                lines.append(f"CONSTRAINT lb_x[{i}][{_plabel(prof)}]: -{xvar(i, prof)} <= 0")
                if with_ub:
                    lines.append(f"CONSTRAINT ub_x[{i}][{_plabel(prof)}]: {xvar(i, prof)} <= 1")
        if monotone_expost:
            for i in range(n):
                for prof in profs:
                    if prof[i] == 0:
                        continue
                    lower = prof[:i] + (prof[i] - 1,) + prof[i + 1 :]
                    lines.append(
                        f"CONSTRAINT mono_x[{i}][{_plabel(prof)}]: "
                        f"{xvar(i, lower)} - {xvar(i, prof)} <= 0"
                    )

    def add_xhat_vars(with_ub):
        for i in range(n):
            for k in range(instance.shape[i]):
                lines.append(f"VAR xhat[{i}][{k}] in " + ("[0,1]" if with_ub else "[0,inf)"))

    def add_xhat_bounds(with_ub):
        for i in range(n):
            for k in range(instance.shape[i]):
                lines.append(f"CONSTRAINT lb_xhat[{i}][{k}]: -xhat[{i}][{k}] <= 0")
                if with_ub:
                    lines.append(f"CONSTRAINT ub_xhat[{i}][{k}]: xhat[{i}][{k}] <= 1")

    def add_collapse(var_name, transform=lambda s: s):
        for i in range(n):
            ctx_pmf = instance.context_pmf(i)
            for k in range(instance.shape[i]):
                terms = []
                for prof in profs:
                    if prof[i] != k:
                        continue
                    ctx = prof[:i] + prof[i + 1 :]
                    w = float(ctx_pmf[ctx]) if ctx else 1.0
                    terms.append(f"{w!r}*{transform(xvar(i, prof))}")
                expr = " + ".join(terms)
                lines.append(
                    f"CONSTRAINT collapse_{var_name}[{i}][{k}]: "
                    f"{var_name}[{i}][{k}] == {expr}"
                )

    def add_interim_monotone():
        for i in range(n):
            for k in range(1, instance.shape[i]):
                lines.append(
                    f"CONSTRAINT mono_xhat[{i}][{k}]: "
                    f"xhat[{i}][{k - 1}] - xhat[{i}][{k}] <= 0"
                )

    def add_xa():
        terms = []
        for i in range(n):
            f = instance.pmf(i)
            for k in range(instance.shape[i]):
                terms.append(f"{float(f[k])!r}*xhat[{i}][{k}]")
        lines.append("CONSTRAINT xa: " + " + ".join(terms) + " <= 1")

    if which == "rrm_xp":
        obj = " + ".join(
            f"{float(joint[prof])!r}*p[{i}][{_plabel(prof)}]"
            for prof in profs for i in range(n)
        )
        lines.append(f"OBJECTIVE maximize: {obj}")
        add_expost_block()
        for i in range(n):
            for prof in profs:
                lines.append(f"VAR p[{i}][{_plabel(prof)}] in [0,inf)")
        for i in range(n):
            for prof in profs:
                rad = _radicand_expr(
                    instance, i, prof[i],
                    lambda j, i=i, prof=prof: xvar(i, prof[:i] + (j,) + prof[i + 1 :]),
                )
                lines.append(
                    f"CONSTRAINT pay[{i}][{_plabel(prof)}]: "
                    f"p[{i}][{_plabel(prof)}]^2 == {rad}"
                )
    elif which in ("rrm_pseudo", "rrm_lb"):
        terms = []
        for prof in profs:
            for i in range(n):
                coef = (
                    float(instance.values(i)[prof[i]])
                    if which == "rrm_pseudo"
                    else float(phi_plus[i][prof[i]])
                )
                terms.append(f"{float(joint[prof])!r}*sqrt({coef!r}*{xvar(i, prof)})")
        lines.append("OBJECTIVE maximize: " + " + ".join(terms))
        add_expost_block()
    elif which == "brm_xp_naive":
        terms = []
        for i in range(n):
            f = instance.pmf(i)
            for k in range(instance.shape[i]):
                terms.append(f"{float(f[k])!r}*phat[{i}][{k}]")
        lines.append("OBJECTIVE maximize: " + " + ".join(terms))
        add_expost_block(monotone_expost=False)
        for i in range(n):
            for prof in profs:
                lines.append(f"VAR p[{i}][{_plabel(prof)}] in [0,inf)")
        add_xhat_vars(with_ub=True)
        for i in range(n):
            for k in range(instance.shape[i]):
                lines.append(f"VAR phat[{i}][{k}] in [0,inf)")
                lines.append(f"VAR qhat[{i}][{k}] in [0,inf)")
        add_collapse("xhat")
        add_collapse("phat", transform=lambda s: s.replace("x[", "p[", 1))
        add_collapse("qhat", transform=lambda s: s.replace("x[", "p[", 1) + "^2")
        add_interim_monotone()
        for i in range(n):
            for k in range(instance.shape[i]):
                rad = _radicand_expr(instance, i, k, lambda j, i=i: f"xhat[{i}][{j}]")
                lines.append(f"CONSTRAINT pay[{i}][{k}]: qhat[{i}][{k}] == {rad}")
    elif which in ("brm_xp", "brm_pseudo"):
        terms = []
        for i in range(n):
            f = instance.pmf(i)
            z = instance.values(i)
            for k in range(instance.shape[i]):
                if which == "brm_xp":
                    terms.append(f"{float(f[k])!r}*h[{i}][{k}]")
                else:
                    terms.append(f"{float(f[k])!r}*sqrt({float(z[k])!r}*xhat[{i}][{k}])")
        lines.append("OBJECTIVE maximize: " + " + ".join(terms))
        add_expost_block(monotone_expost=False)
        add_xhat_vars(with_ub=True)
        if which == "brm_xp":
            for i in range(n):
                for k in range(instance.shape[i]):
                    lines.append(f"VAR h[{i}][{k}] in [0,inf)")
        add_collapse("xhat")
        add_interim_monotone()
        if which == "brm_xp":
            for i in range(n):
                for k in range(instance.shape[i]):
                    rad = _radicand_expr(instance, i, k, lambda j, i=i: f"xhat[{i}][{j}]")
                    lines.append(f"CONSTRAINT pay[{i}][{k}]: h[{i}][{k}]^2 == {rad}")
    elif which == "brm_xa":
        terms = []
        for i in range(n):
            f = instance.pmf(i)
            for k in range(instance.shape[i]):
                terms.append(f"{float(f[k])!r}*h[{i}][{k}]")
        lines.append("OBJECTIVE maximize: " + " + ".join(terms))
        add_xhat_vars(with_ub=True)
        for i in range(n):
            for k in range(instance.shape[i]):
                lines.append(f"VAR h[{i}][{k}] in [0,inf)")
        add_xa()
        add_xhat_bounds(with_ub=True)
        add_interim_monotone()
        for i in range(n):
            for k in range(instance.shape[i]):
                rad = _radicand_expr(instance, i, k, lambda j, i=i: f"xhat[{i}][{j}]")
                lines.append(f"CONSTRAINT pay[{i}][{k}]: h[{i}][{k}]^2 == {rad}")
    else:  # brm_xa_rel and brm_xa_rel_trunc
        terms = []
        for i in range(n):
            f = instance.pmf(i)
            for k in range(instance.shape[i]):
                if which == "brm_xa_rel":
                    terms.append(f"{float(f[k])!r}*sqrt({float(phi_plus[i][k])!r}*xhat[{i}][{k}])")
                else:
                    terms.append(
                        f"{float(f[k])!r}*sqrt({float(phi_plus[i][k])!r})*sqrt(xhat[{i}][{k}])"
                    )
        lines.append("OBJECTIVE maximize: " + " + ".join(terms))
        add_xhat_vars(with_ub=False)
        add_xa()
        add_xhat_bounds(with_ub=False)
        add_interim_monotone()
    return "\n".join(lines) + "\n"
