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
which also give the XA row), built on the cells of a profile space
(``spaces``), and solved by a log-barrier Newton method; ``export_program``
prints rows of the same blocks on the dense space.  Each Newton step
evaluates the slacks and payments once and assembles its Hessian from the
pairs of nonzeros that share a constraint or payment row (one ``bincount``);
the Bayesian monotonicity and payment rows, dense over the contexts, are
paired on the interim rule and applied through the collapse.  The solver
returns the better of its last iterate and that iterate rounded to the
configured grid (when the rounded table is still feasible).  It reports
``grid_slack`` as a certified gap: an upper bound on the optimum, from
Lagrangian duality at the last iterate, minus the revenue of the returned
table, priced by the pipelines' payment step (``mechanisms``); and
``newton_steps``, the Newton steps it took.  Instances above the variable
cap, or that the barrier method fails to certify, are refused with an
explanation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import payments as pay
from .core import DEFAULT_TOL, AuctionInstance, MechanismReport, ObjectiveKind, own_type_matrix
from .mechanisms import Mechanism, Tables, _dense, _interim, _price
from .spaces import DenseSpace, ProfileSpace
from .virtual import virtual_values


class OracleRefusal(ValueError):
    """Raised when an instance is too large for, or not certified by, the solver."""


@dataclass(frozen=True)
class OracleConfig:
    """Rounding grid and size cap for the exact solvers.

    The solver's answer is rounded to multiples of ``grid`` when that keeps
    the table feasible and does not lower revenue; ``max_profile_vars`` caps
    the allocation variables of the program solved, the cells of its profile
    space's table: n * K_0 * ... * K_{n-1} dense, K * C(n+K-2, K-1) on orbits.
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


def _sparse(rows, cols, vals, shape) -> _Sparse:
    """A matrix from lists of entry arrays, in any order."""
    rows, cols, vals = (np.concatenate([np.ravel(a) for a in part]) for part in (rows, cols, vals))
    order = np.lexsort((cols, rows))
    return _Sparse(rows[order], cols[order], vals[order], shape)


class _Blocks:
    """The linear pieces of the revenue programs on one profile space.

    Ex-post pieces act on the allocation table x, flattened in the space's
    own order (``space.shape``); interim pieces (``hat=True``) act on the
    interim rule x̂, flattened block by block.  Each piece is a small matrix
    per block on its own types, applied along every context, and supply is
    the space's own rows.  The solver multiplies by dense copies of the
    pieces and builds its Newton systems from their pairs of nonzeros
    (``_gram``); the exporter prints their nonzero entries.  So every
    constraint has one definition, and exports stay proportional to their
    text.
    """

    def __init__(self, space: ProfileSpace):
        self.space = space
        self.size = math.prod(space.shape)
        # the flat index of every cell, and of every x̂ entry, per block
        self.cells = space.split(np.arange(self.size).reshape(space.shape))
        ends = np.cumsum([len(b.values) for b in space.blocks])
        self.hats = [np.arange(e - len(b.values), e)[:, None] for b, e in zip(space.blocks, ends)]
        self.hat_size = int(ends[-1])

    def _own(self, matrix, hat: bool, shift: int = 0) -> _Sparse:
        """``matrix(block)`` along every block's own types, on x̂ or on x with
        the context held fixed; its row r at a context is anchored at (has the
        row index of) that context's entry r + ``shift``."""
        rows, cols, vals = [], [], []
        for block, index in zip(self.space.blocks, self.hats if hat else self.cells):
            m = matrix(block)
            r, c = np.nonzero(m)
            rows.append(index[r + shift])
            cols.append(index[c])
            vals.append(np.broadcast_to(m[r, c][:, None], index[c].shape))
        width = self.hat_size if hat else self.size
        return _sparse(rows, cols, vals, (width, width))

    def supply(self) -> _Sparse:
        """The bidders' total share at each profile; supply is sum <= 1."""
        profile, cell, count = self.space.supply_rows()
        return _sparse([profile], [cell], [count], (int(profile.max()) + 1, self.size))

    def mono(self, hat: bool) -> _Sparse:
        """x at own type k - 1 minus x at own type k, for every k >= 1 (<= 0);
        rows in the order of their upper entries."""
        m = self._own(lambda b: -np.diff(np.eye(len(b.values)), axis=0), hat, shift=1)
        upper, rows = np.unique(m.rows, return_inverse=True)
        return _Sparse(rows, m.cols, m.vals, (len(upper), m.shape[1]))

    def chain(self, hat: bool) -> _Sparse:
        """Perceived payments along each own-type chain: ``payments.chain``,
        the payment characterization, applied to the identity."""
        return self._own(lambda b: pay.chain(np.eye(len(b.values)), b.values, b.gaps), hat)

    def collapse(self) -> _Sparse:
        """x̂ = C x: each block's share averaged over its contexts."""
        return _sparse(
            [np.broadcast_to(h, c.shape) for h, c in zip(self.hats, self.cells)], self.cells,
            [np.broadcast_to(w, c.shape) for w, c in zip(self.space.weights, self.cells)],
            (self.hat_size, self.size))

    def weights(self, hat: bool) -> np.ndarray:
        """The objective's weight per entry: count * f(k) on x̂, which is also
        the XA row (expected total share <= 1), and times the context's
        probability on x."""
        blocks = self.space.blocks
        if hat:
            return np.concatenate([b.count * b.pmf for b in blocks])
        out = np.empty(self.size)
        for b, cells, w in zip(blocks, self.cells, self.space.weights):
            out[cells] = (b.count * b.pmf)[:, None] * w
        return out


@dataclass(frozen=True)
class _Gram:
    """M.T @ diag(c) @ M for a sparse M, from the pairs of nonzeros that
    share a row: entry (i, j) is the sum over rows r of c[r] m[r, i] m[r, j]."""

    row: np.ndarray
    flat: np.ndarray  # i * width + j
    coef: np.ndarray  # m[row, i] * m[row, j]
    width: int

    def __call__(self, c: np.ndarray) -> np.ndarray:
        out = np.bincount(self.flat, self.coef * c[self.row], self.width * self.width)
        return out.reshape(self.width, self.width)


def _gram(parts: list[tuple[_Sparse, int]], width: int) -> _Gram:
    """The pairs of sparse matrices stacked in row order, each given with the
    index of its first row in the stack."""
    rows, cols, vals = (np.concatenate(a) for a in zip(*((m.rows + first, m.cols, m.vals)
                                                         for m, first in parts)))
    count = np.bincount(rows)
    start, per = np.cumsum(count) - count, count * count
    # pair k of row r is its entries k // count[r] and k % count[r]
    row = np.repeat(np.arange(len(count)), per)
    k = np.arange(len(row)) - np.repeat(np.cumsum(per) - per, per)
    a = start[row] + k // count[row]
    b = start[row] + k % count[row]
    return _Gram(row, cols[a] * width + cols[b], vals[a] * vals[b], width)


class _Program:
    """maximize w . sqrt(Q x) (w . Q x if linear) subject to A x <= b.

    x is the allocation table flattened in its space's order; the rows of
    Q x are the perceived payments the objective prices, and A x <= b stacks
    x >= 0, per-profile supply and monotonicity.  ``G = [A; -Q]`` and
    ``h = [b; 0]`` stack both, so that z = h - G x holds every slack
    b - A x (its first ``m`` entries) and every payment Q x.

    The barrier's Hessian is assembled from pairs of nonzeros (``_Gram``):
    ``gram`` pairs the rows sparse on x, and in the Bayesian program, whose
    monotonicity and payment rows act on x̂ = C x and are dense on x,
    ``hat_gram`` pairs those rows on x̂, applied through C = ``lift``.
    """

    def __init__(self, A, b, Q, w, linear: bool, gram: _Gram, hat_gram=None, lift=None):
        self.m, self.w, self.linear = len(b), w, linear
        self.G = np.vstack([A, -Q])
        self.h = np.concatenate([b, np.zeros(len(Q))])
        self.gram, self.hat_gram, self.lift = gram, hat_gram, lift
        self.linear_grad = Q.T @ w

    @property
    def A(self) -> np.ndarray:
        return self.G[: self.m]

    @property
    def b(self) -> np.ndarray:
        return self.h[: self.m]

    @property
    def Q(self) -> np.ndarray:
        return -self.G[self.m :]

    def value(self, z: np.ndarray) -> float:
        """The objective at z = h - G x."""
        q = z[self.m :]
        return float(self.w @ (q if self.linear else np.sqrt(np.maximum(q, 0.0))))

    def revenue(self, x: np.ndarray) -> float:
        return self.value(self.h - self.G @ x)


def _program(blk: _Blocks, mode: str) -> _Program:
    """The robust (``rrm``, ``rrm_linear``) or Bayesian (``brm``) revenue
    program."""
    hat, size, linear = mode == "brm", blk.size, mode == "rrm_linear"
    chain, mono, supply = blk.chain(hat), blk.mono(hat), blk.supply()
    # a zero row (lowest type worth 0) pays nothing and has no sqrt gradient
    priced, rows = np.unique(chain.rows, return_inverse=True)
    chain = _Sparse(rows, chain.cols, chain.vals, (len(priced), chain.shape[1]))
    lift = blk.collapse().dense() if hat else None
    dense = (lambda m: m.dense()) if lift is None else (lambda m: m.dense() @ lift)
    A = np.vstack([-np.eye(size), supply.dense(), dense(mono)])
    b = np.concatenate([np.zeros(size), np.ones(supply.shape[0]), np.zeros(mono.shape[0])])
    # rows of [A; -Q]: x >= 0, supply, monotonicity, then payments (curved if not linear)
    eye = _Sparse(np.arange(size), np.arange(size), -np.ones(size), (size, size))
    own = [(mono, size + supply.shape[0])] + ([] if linear else [(chain, len(b))])
    gram = _gram([(eye, 0), (supply, size)] + ([] if hat else own), size)
    hat_gram = _gram(own, blk.hat_size) if hat else None
    return _Program(A, b, dense(chain), blk.weights(hat)[priced], linear, gram, hat_gram, lift)


def _system(prog: _Program, z: np.ndarray, t: float):
    """Revenue R, its gradient, and the gradient g and Hessian H of the
    barrier objective -t R(x) - sum log(b - A x), at x with z = h - G x.

    H = A^T diag(1/s^2) A + t Q^T diag(w / (4 q^(3/2))) Q is assembled from
    the program's pair lists, row curvature times pair coefficient.
    """
    m, w = prog.m, prog.w
    s, q = z[:m], z[m:]
    inv = 1 / s
    if prog.linear:
        value, grad, curv = float(w @ q), prog.linear_grad, inv * inv
    else:
        root = np.sqrt(q)
        value = float(w @ root)
        grad = prog.G[m:].T @ (w / (-2 * root))
        curv = np.concatenate((inv * inv, t * w / (4 * q * root)))
    g = prog.G[:m].T @ inv - t * grad
    H = prog.gram(curv)
    if prog.lift is not None:
        H += prog.lift.T @ (prog.hat_gram(curv) @ prog.lift)
    return value, grad, g, H


def _barrier(prog: _Program, x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Log-barrier Newton method (Boyd & Vandenberghe, ch. 11) from a strictly
    feasible x.  Returns the last iterate, an upper bound on the optimum and
    the number of Newton steps taken.

    Each step evaluates the slacks and payments z = h - G x once, for the
    value, the certificate and the line search, and assembles the Newton
    system from the program's pair lists (``_system``).

    For any multipliers lambda >= 0 with residual r = grad R(x) - A^T lambda,
    concavity gives R(y) <= R(x) + lambda.s + r.(y - x) for every feasible y,
    and feasible tables lie in [0, 1]^N.  The multipliers are the Newton-step
    estimate (1 + A dx / s) / (t s), for which r is the step's own error.
    """
    G, h, m = prog.G, prog.h, prog.m
    At = G[:m].T
    # the entries of z that must stay positive: slacks, and payments under a sqrt
    kept = m if prog.linear else len(h)
    diagonal = slice(None, None, len(x) + 1)

    def phi(y, t):
        z = h - G @ y
        if z[:kept].min() <= 0:
            return math.inf
        return -t * prog.value(z) - float(np.log(z[:m]).sum())

    t = m / max(prog.revenue(x), _GAP_TOL)
    for step in range(1, _MAX_NEWTON + 1):
        z = h - G @ x
        s = z[:m]
        value, grad, g, H = _system(prog, z, t)
        # Scaled to a unit diagonal, plus a ridge: where a linear program's
        # optimal face is not a point, H is singular in floating point for
        # large t.  The bound below holds whatever step is taken.
        d = 1 / np.sqrt(H.diagonal())
        H *= d[:, None] * d
        H.flat[diagonal] += _RIDGE
        try:
            dx = -d * np.linalg.solve(H, d * g)
        except np.linalg.LinAlgError as exc:
            raise OracleRefusal(f"barrier Newton system is singular: {exc}") from exc
        lam2 = float(-g @ dx)
        rate = G @ dx  # how fast each entry of z falls along dx
        dual = np.maximum((1 + rate[:m] / s) / (t * s), 0.0)
        r = grad - At @ dual
        bound = value + float(dual @ s) + float(np.maximum(r * (1 - x), -r * x).sum())
        if bound - value <= _GAP_TOL * max(1.0, bound):
            return x, bound, step
        if lam2 <= _CENTRED:
            t *= _MU
            continue
        # 0.99 of the longest step that keeps every slack and priced q positive
        level, fall = z[:kept], rate[:kept]
        hit = fall > 0
        alpha = min(1.0, 0.99 * float((level[hit] / fall[hit]).min(initial=math.inf)))
        if lam2 > 0.25**2:
            # Armijo backtracking far from the centre only; near it the
            # barrier values differ by less than their rounding error
            start = -t * value - float(np.log(s).sum())
            while alpha > 1e-12 and phi(x + alpha * dx, t) > start - 0.25 * alpha * lam2:
                alpha *= 0.5
        x = x + alpha * dx
    raise OracleRefusal(
        f"barrier method did not certify a gap of {_GAP_TOL:g} within "
        f"{_MAX_NEWTON} Newton steps"
    )


def _solve(
    space: ProfileSpace, config: OracleConfig, mode: str
) -> tuple[np.ndarray, float, float, int]:
    """Best certified table, its objective value, the optimum's upper bound
    and the barrier's Newton steps.

    Returns the better of the barrier iterate and that iterate rounded to
    multiples of ``config.grid``, if the rounded table is still feasible.
    """
    size = math.prod(space.shape)
    if size > config.max_profile_vars:
        raise OracleRefusal(
            f"instance has {size} allocation variables, above the "
            f"max_profile_vars cap of {config.max_profile_vars}"
        )
    blk = _Blocks(space)
    prog = _program(blk, mode)
    # x(k, c) = (k + 1) / ((K + 1) n): strictly monotone, strictly inside supply
    start, n = np.empty(blk.size), space.instance.n
    for cells in blk.cells:
        start[cells] = (np.arange(len(cells)) + 1)[:, None] / ((len(cells) + 1) * n)
    x, bound, steps = _barrier(prog, start)
    best = max(
        (c for c in (x, np.round(x * config.steps) / config.steps)
         if np.all(prog.A @ c <= prog.b + 1e-12)),
        key=prog.revenue,
    )
    return best.reshape(space.shape), prog.revenue(best), bound, steps


def exact_tables(
    space: ProfileSpace, config: OracleConfig = OracleConfig(), mode: str = "rrm"
) -> tuple[Tables, MechanismReport]:
    """Certified exact optimum on any profile space, priced by the pipelines'
    payment step; the report's ``grid_slack`` is the certified gap and
    ``newton_steps`` the barrier's Newton steps.

    ``mode`` is ``rrm`` (robust), ``rrm_linear`` (robust, linear perceived
    payments) or ``brm`` (Bayesian).  By symmetry and concavity, the optimum
    on a symmetric instance's ``OrbitSpace`` is its dense program's optimum.
    """
    x, objective, bound, steps = _solve(space, config, mode)
    kind, name = ObjectiveKind.EXACT_ORACLE, f"exact_{mode[:3]}[grid={config.grid}]"
    if mode == "brm":
        tables, report = _interim(space, space.collapse(space.split(x)), (), kind, name, x)
    else:
        perceived = "linear" if mode == "rrm_linear" else "quadratic"
        tables, report = _price(space, x, perceived, kind, name)
    if abs(report.revenue - objective) > 1e-6:
        raise RuntimeError("solver objective and recomputed revenue disagree")
    gap = bound - report.revenue + _FP_MARGIN * bound
    if not gap >= 0:
        raise RuntimeError("returned table beats the barrier's upper bound")
    return tables, replace(report, grid_slack=gap, newton_steps=steps)


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
    mode = "rrm" if perceived == "quadratic" else "rrm_linear"
    return _dense(exact_tables(DenseSpace(instance), config, mode))


def exact_brm(
    instance: AuctionInstance, config: OracleConfig = OracleConfig()
) -> tuple[Mechanism, MechanismReport]:
    """Certified Bayesian revenue maximization.

    Maximizes over ex-post feasible allocation tables (interim feasibility
    alone does not imply an ex-post implementation) whose collapsed interim
    rule is monotone, and pays the per-type interim payments.
    """
    return _dense(exact_tables(DenseSpace(instance), config, "brm"))


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
    blk = _Blocks(DenseSpace(instance))
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
            w = blk.weights(True)
            xa = _Sparse(np.zeros(len(w), dtype=int), np.arange(len(w)), w, (1, len(w)))
            lines += at_most("xa", [""], xa, priced, 1)
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
