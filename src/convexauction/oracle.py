"""Certified exact solvers, the constraint verifier, and a program exporter.

Both exact problems are concave maximizations over polyhedra.  Robust
revenue is sum f sqrt(q) with the perceived payments q linear in the
allocation table, subject to linear supply and own-type monotonicity
constraints; Bayesian revenue is the same composed with the linear interim
collapse, with interim monotonicity in place of the ex-post one.  Payments
never need to be optimized: the payment characterization and its interim
analogue pin them to the allocation.

Both are composed from one set of sparse linear blocks (``_Blocks``: supply,
monotonicity, payment chains, the interim collapse and the objective weights,
which also give the XA row) and solved by a log-barrier Newton method;
``export_program`` prints rows of the same blocks.  The solver returns the better of its last
iterate and that iterate rounded to the configured grid (when the rounded
table is still feasible), and reports ``grid_slack`` as a certified gap: an
upper bound on the optimum, from Lagrangian duality at the last iterate,
minus the revenue of the returned table.  Instances above the variable cap,
or that the barrier method fails to certify, are refused with an
explanation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import payments as pay
from .core import (
    DEFAULT_TOL,
    AuctionInstance,
    ExPostAllocation,
    MechanismReport,
    ObjectiveKind,
    RobustPaymentRule,
    own_type_matrix,
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


@dataclass(frozen=True)
class _Sparse:
    """A matrix by its nonzero entries, sorted by row and then by column."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


def _kron(factors: list[np.ndarray]) -> _Sparse:
    """The Kronecker product of small dense matrices, entry by nonzero entry."""
    rows, cols, vals = np.zeros(1, dtype=int), np.zeros(1, dtype=int), np.ones(1)
    for m in factors:
        r, c = np.nonzero(m)
        rows = (rows[:, None] * m.shape[0] + r).ravel()
        cols = (cols[:, None] * m.shape[1] + c).ravel()
        vals = (vals[:, None] * m[r, c]).ravel()
    order = np.lexsort((cols, rows))
    shape = (math.prod(m.shape[0] for m in factors), math.prod(m.shape[1] for m in factors))
    return _Sparse(rows[order], cols[order], vals[order], shape)


def _diagonal(blocks: list[_Sparse]) -> _Sparse:
    """The blocks along the diagonal of one matrix."""
    r0 = np.cumsum([0] + [b.shape[0] for b in blocks])
    c0 = np.cumsum([0] + [b.shape[1] for b in blocks])
    return _Sparse(
        np.concatenate([b.rows + r for b, r in zip(blocks, r0)]),
        np.concatenate([b.cols + c for b, c in zip(blocks, c0)]),
        np.concatenate([b.vals for b in blocks]),
        (int(r0[-1]), int(c0[-1])),
    )


class _Blocks:
    """The linear pieces of the revenue programs, each built when asked for.

    Ex-post pieces act on the allocation table x flattened in (n, K_0, ...,
    K_{n-1}) order; interim pieces (``hat=True``) act on the interim rule x̂,
    flattened bidder by bidder.  Each piece is a small matrix per bidder on
    its own types, expanded across the other bidders' types by a sparse
    Kronecker product.  The solver densifies the pieces (its programs are
    capped at a few dozen variables) and the exporter prints their nonzero
    entries, so every constraint has one definition and exports stay
    proportional to their text.
    """

    def __init__(self, instance: AuctionInstance):
        self.instance = instance

    def _along(self, own, other) -> _Sparse:
        """Block-diagonal over bidders: bidder i's block applies ``own(i)``
        along its own-type axis and ``other(j)`` along each other bidder j's."""
        n = self.instance.n
        return _diagonal([_kron([own(i) if j == i else other(j) for j in range(n)])
                          for i in range(n)])

    def _per_bidder(self, own, hat: bool) -> _Sparse:
        """``own(i)`` applied to x̂, or to x with the other bidders' types held
        fixed; x̂ has no other-type axes, and a 1 x 1 factor adds none."""
        shape = self.instance.shape
        return self._along(own, (lambda j: np.ones((1, 1))) if hat else (lambda j: np.eye(shape[j])))

    def supply(self) -> _Sparse:
        """The bidders' total share at each profile; supply is sum <= 1."""
        return _kron([np.ones((1, self.instance.n))] + [np.eye(k) for k in self.instance.shape])

    def mono(self, hat: bool) -> _Sparse:
        """x at own type k - 1 minus x at own type k, for every k >= 1 (<= 0)."""
        return self._per_bidder(lambda i: -np.diff(np.eye(self.instance.shape[i]), axis=0), hat)

    def chain(self, hat: bool) -> _Sparse:
        """Perceived payments along each own-type chain: ``payments.chain``,
        the payment characterization, applied to the identity."""
        inst = self.instance
        return self._per_bidder(
            lambda i: pay.chain(np.eye(inst.shape[i]), inst.values(i), inst.space(i).gaps), hat)

    def collapse(self) -> _Sparse:
        """x̂ = C x: each bidder's share averaged over the other bidders' types."""
        inst = self.instance
        return self._along(lambda i: np.eye(inst.shape[i]), lambda j: inst.pmf(j)[None, :])

    def weights(self, hat: bool) -> np.ndarray:
        """The objective's weight per entry: f_i(k) on x̂, which is also the XA
        row (expected total share <= 1), and the joint f(v) on x."""
        inst = self.instance
        if hat:
            return np.concatenate([inst.pmf(i) for i in range(inst.n)])
        return np.tile(inst.joint_pmf.ravel(), inst.n)


def _program(instance: AuctionInstance, mode: str) -> _Program:
    """Dense matrices of the robust (``rrm``, ``rrm_linear``) or Bayesian
    (``brm``) revenue program."""
    blk = _Blocks(instance)
    if mode == "brm":
        # Bayesian payments and monotonicity act on the interim collapse
        collapse = blk.collapse().dense()
        Q, mono = blk.chain(True).dense() @ collapse, blk.mono(True).dense() @ collapse
    else:
        Q, mono = blk.chain(False).dense(), blk.mono(False).dense()
    w = blk.weights(mode == "brm")
    # a zero row (lowest type worth 0) pays nothing and has no sqrt gradient
    priced = np.any(Q != 0, axis=1)
    size, supply = Q.shape[1], blk.supply().dense()
    A = np.vstack([-np.eye(size), supply, mono])
    b = np.concatenate([np.zeros(size), np.ones(len(supply)), np.zeros(len(mono))])
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


def _report(instance, mech, payments, which, objective, bound, start) -> MechanismReport:
    """Exact-oracle report: the recomputed revenue, the verified constraint
    sets ``which`` and the certified gap."""
    revenue = pay.expected_revenue(payments, instance)
    if abs(revenue - objective) > 1e-6:
        raise RuntimeError("solver objective and recomputed revenue disagree")
    gap = bound - revenue + _FP_MARGIN * bound
    if not gap >= 0:
        raise RuntimeError("returned table beats the barrier's upper bound")
    return MechanismReport(
        revenue, ObjectiveKind.EXACT_ORACLE, revenue=revenue,
        verification=verify(instance, mech, which),
        runtime_s=time.perf_counter() - start, grid_slack=gap,
    )


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
    mech = Mechanism(
        alloc, robust_payments=rule,
        provenance=f"exact_rrm[grid={config.grid}]", perceived=perceived,
    )
    return mech, _report(instance, mech, rule, ("ic", "ir", "xp"), obj, bound, start)


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
    mech = Mechanism(
        alloc, interim_allocation=interim, interim_payments=h,
        provenance=f"exact_brm[grid={config.grid}]",
    )
    return mech, _report(instance, mech, h, ("bic", "bir", "xp"), obj, bound, start)


# ---------------------------------------------------------------------------
# Textual program exporter
# ---------------------------------------------------------------------------

PROGRAMS = (
    "rrm_xp", "rrm_pseudo", "rrm_lb", "brm_xp_naive", "brm_xp",
    "brm_pseudo", "brm_xa", "brm_xa_rel", "brm_xa_rel_trunc",
)


def _expressions(M: _Sparse, names: list[str]) -> list[str]:
    """Each row of M as a signed sum of coef*name over its nonzero entries
    ("0" if it has none)."""
    exprs = [""] * M.shape[0]
    for r, c, v in zip(M.rows.tolist(), M.cols.tolist(), M.vals.tolist()):
        if exprs[r]:
            exprs[r] += " - " if v < 0 else " + "
        elif v < 0:
            exprs[r] = "-"
        exprs[r] += f"{abs(v)!r}*{names[c]}"
    return [e or "0" for e in exprs]


def export_program(instance: AuctionInstance, which: str) -> str:
    """Emit one mathematical program as deterministic text.

    One variable or constraint per line; objective first.  Constraint lines
    read ``CONSTRAINT <name>: <expr> <= | == <rhs>``.  Every supply,
    monotonicity, payment, collapse and XA row prints the nonzero entries of
    a ``_Blocks`` piece, the pieces the exact solvers compose their programs
    from; a program is a choice of pieces.  Robust programs price the
    ex-post table x, Bayesian ones the interim rule x̂: ``brm_xp`` ties x̂ to
    a feasible x through the collapse, ``brm_xp_naive`` also collapses
    ex-post payments p, and the ``brm_xa*`` programs keep only the ex-ante
    (XA) row.
    """
    if which not in PROGRAMS:
        raise ValueError(f"unknown program {which!r}; choose from {PROGRAMS}")
    blk = _Blocks(instance)
    shape = instance.shape
    hat = which.startswith("brm")
    ex_ante, relaxed = which.startswith("brm_xa"), which.startswith("brm_xa_rel")
    # names are [i][(v_0,...,v_{n-1})] on x, [i][k] on x̂
    profiles = [f"[({','.join(map(str, v))})]" for v in np.ndindex(*shape)]
    xlabels = [f"[{i}]{v}" for i in range(instance.n) for v in profiles]
    labels = [f"[{i}][{k}]" for i, size in enumerate(shape) for k in range(size)] if hat else xlabels
    # the priced variables: x for robust programs, x̂ for Bayesian ones
    priced = [("xhat" if hat else "x") + label for label in labels]
    paid = {"rrm_xp": "p", "brm_xp_naive": "phat", "brm_xp": "h", "brm_xa": "h"}.get(which)
    if paid:
        terms = [paid + label for label in labels]
    else:
        if which.endswith("pseudo"):
            coefs = [instance.values(i) for i in range(instance.n)]
        else:
            coefs = virtual_values(instance).phi_plus
        per_entry = np.concatenate(coefs) if hat else own_type_matrix(instance, coefs).ravel()
        if which.endswith("trunc"):
            terms = [f"sqrt({c!r})*sqrt({v})" for c, v in zip(per_entry.tolist(), priced)]
        else:
            terms = [f"sqrt({c!r}*{v})" for c, v in zip(per_entry.tolist(), priced)]
    weights = blk.weights(hat).tolist()
    lines = ["OBJECTIVE maximize: " + " + ".join(f"{w!r}*{t}" for w, t in zip(weights, terms))]

    def at_most(kind, row_labels, M, names, rhs):
        return [f"CONSTRAINT {kind}{label}: {expr} <= {rhs}"
                for label, expr in zip(row_labels, _expressions(M, names))]

    def defining(kind, lhs, M, names):
        # one row per priced entry: lhs[r] == row r of M
        return [f"CONSTRAINT {kind}{label}: {left} == {expr}"
                for label, left, expr in zip(labels, lhs, _expressions(M, names))]

    def box(var, row_labels, upper=True):
        lines = [f"CONSTRAINT lb_{var}{label}: -1.0*{var}{label} <= 0" for label in row_labels]
        if upper:
            lines += [f"CONSTRAINT ub_{var}{label}: 1.0*{var}{label} <= 1" for label in row_labels]
        return lines

    def monotone(kind, row_labels, names, hat):
        # a row is labelled by its upper entry, the one it subtracts
        mono = blk.mono(hat)
        return at_most(kind, [row_labels[j] for j in mono.cols[mono.vals < 0]], mono, names, 0)

    if not ex_ante:
        x = [f"x{label}" for label in xlabels]
        lines += [f"VAR {v} in [0,1]" for v in x]
        lines += at_most("xp", profiles, blk.supply(), x, 1)
        lines += box("x", xlabels)
        if not hat:
            lines += monotone("mono_x", xlabels, x, False)
        if which in ("rrm_xp", "brm_xp_naive"):
            p = [f"p{label}" for label in xlabels]
            lines += [f"VAR {v} in [0,inf)" for v in p]
    if hat:
        lines += [f"VAR {v} in {'[0,inf)' if relaxed else '[0,1]'}" for v in priced]
        if ex_ante:
            lines += at_most("xa", [""], _kron([blk.weights(True)[None, :]]), priced, 1)
            lines += box("xhat", labels, upper=not relaxed)
        else:
            collapse = blk.collapse()
            lines += defining("collapse_xhat", priced, collapse, x)
        if which == "brm_xp_naive":
            lines += [f"VAR {v}{label} in [0,inf)" for label in labels for v in ("phat", "qhat")]
            lines += defining("collapse_phat", [f"phat{label}" for label in labels], collapse, p)
            qhat = [f"qhat{label}" for label in labels]
            lines += defining("collapse_qhat", qhat, collapse, [f"{v}^2" for v in p])
        elif paid == "h":
            lines += [f"VAR h{label} in [0,inf)" for label in labels]
        lines += monotone("mono_xhat", labels, priced, True)
    if paid:
        # the payment characterization: perceived payment = chain . x (or x̂)
        lhs = [f"qhat{label}" if paid == "phat" else f"{paid}{label}^2" for label in labels]
        lines += defining("pay", lhs, blk.chain(hat), priced)
    return "\n".join(lines) + "\n"
