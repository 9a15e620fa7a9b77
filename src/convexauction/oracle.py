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
(``spaces``), and solved by a primal-dual interior-point method;
``export_program`` prints rows of the same blocks on the dense space.  Each
Newton step updates the allocation and the constraints' multipliers
together, raises the barrier parameter t from the current duality gap,
evaluates the slacks and payments once and assembles its matrix from the
pairs of nonzeros that share a constraint or payment row (one ``bincount``);
the Bayesian monotonicity and payment rows, dense over the contexts, are
paired on the interim rule and applied through the collapse.  The solver
returns the better of its last iterate and that iterate rounded to the
configured grid (when the rounded table is still feasible).  It reports
``grid_slack`` as a certified gap: an upper bound on the optimum, from
Lagrangian duality at the last iterate, minus the revenue of the returned
table, priced by the pipelines' payment step (``mechanisms``); and
``newton_steps``, the Newton steps it took.  Instances above the variable
cap, or that the solver fails to certify, are refused with an explanation.
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
                    dev = z[:, None, None] * x[None, :, :]
                    dev -= q[None, :, :]
                    dev -= util[:, None, :]
                    parts.append(dev.max())
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
# Interior-point solver
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class _Program:
    """maximize w . sqrt(q) (w . q if linear) over the allocation table x,
    flattened in its space's order, subject to s >= 0: z = h - G x stacks
    the slacks s (first ``m`` entries) of x >= 0, supply and monotonicity,
    then the payments q, so with g = dR/dq the residual grad R - A^T mu of
    slack multipliers mu is the one product -G^T [mu; g] (``_system``).

    The Newton matrix is assembled from pairs of nonzeros (``_Gram``):
    ``gram`` pairs the rows sparse on x, and in the Bayesian program, whose
    monotonicity and payment rows act on x̂ = C x and are dense on x,
    ``hat_gram`` pairs those rows on x̂, applied through C = ``lift``.
    """

    G: np.ndarray
    h: np.ndarray
    m: int
    w: np.ndarray
    linear: bool
    gram: _Gram
    hat_gram: _Gram | None
    lift: np.ndarray | None

    def revenue(self, x: np.ndarray) -> float:
        q = -(self.G[self.m :] @ x)
        return float(self.w @ (q if self.linear else np.sqrt(np.maximum(q, 0.0))))


def _program(blk: _Blocks, mode: str) -> _Program:
    """The robust (``rrm``, ``rrm_linear``) or Bayesian (``brm``) revenue
    program."""
    hat, size, linear = mode == "brm", blk.size, mode == "rrm_linear"
    chain, mono, supply = blk.chain(hat), blk.mono(hat), blk.supply()
    # a zero row (lowest type worth 0) pays nothing and has no sqrt gradient
    priced, index = np.unique(chain.rows, return_inverse=True)
    chain = _Sparse(index, chain.cols, -chain.vals, (len(priced), chain.shape[1]))
    eye = _Sparse(np.arange(size), np.arange(size), -np.ones(size), (size, size))
    # the pieces of G in row order: x >= 0, supply and monotonicity (the
    # slacks), then the payments negated; in brm the last two act on x̂ = C x
    pieces = [eye, supply, mono, chain]
    first = np.cumsum([0] + [p.shape[0] for p in pieces]).tolist()
    lift = blk.collapse().dense() if hat else None
    G = np.vstack([p.dense() if k < 2 or lift is None else p.dense() @ lift
                   for k, p in enumerate(pieces)])
    h = np.repeat([0.0, 1.0, 0.0, 0.0], np.diff(first))
    rows = list(zip(pieces, first))
    own = rows[2:3] if linear else rows[2:]
    gram = _gram(rows[:2] + ([] if hat else own), size)
    hat_gram = _gram(own, blk.hat_size) if hat else None
    return _Program(G, h, first[3], blk.weights(hat)[priced], linear, gram, hat_gram, lift)


def _box(r: np.ndarray, x: np.ndarray) -> float:
    """max of r.(y - x) over y in [0, 1]^N."""
    return float(np.maximum(r * (1 - x), -r * x).sum())


def _system(prog: _Program, x: np.ndarray, lam: np.ndarray, t: float):
    """The primal-dual Newton system at x and multipliers lam > 0.

    Returns z = h - G x (the slacks s and payments q), the revenue R, the
    residual map r(mu) = -G^T [mu; g] (g = w / (2 sqrt q), or w if linear),
    the step's t, and H dx = rhs (Boyd & Vandenberghe, sec. 11.7):

        H = A^T diag(lam / s) A + Q^T diag(g / (2 q)) Q,  rhs = r(1 / (t s))

    with A = G[:m] and Q = -G[m:] (no Q term when linear), assembled from the
    program's pair lists, row curvature times pair coefficient.  The step's t
    is 10 m / max(lam.s, box), a tenth of the larger part of the bound at lam
    (``_barrier``), or the previous t if larger: lam.s alone can reach zero
    while the residual part stays, and a falling t lets full steps cycle.
    """
    m, w = prog.m, prog.w
    z = prog.h - prog.G @ x
    s, q = z[:m], z[m:]
    if prog.linear:
        value, g, curv = float(w @ q), w, lam / s
    else:
        root = np.sqrt(q)
        value, g = float(w @ root), w / (2 * root)
        curv = np.concatenate((lam / s, g / (2 * q)))

    def r(mu: np.ndarray) -> np.ndarray:
        return -(np.concatenate((mu, g)) @ prog.G)

    t = max(t, 10 * m / max(float(lam @ s), _box(r(lam), x)))
    H = prog.gram(curv)
    if prog.lift is not None:
        H += prog.lift.T @ (prog.hat_gram(curv) @ prog.lift)
    return z, value, r, t, H, r(1 / (t * s))


def _barrier(prog: _Program, x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Primal-dual interior-point method (Boyd & Vandenberghe, sec. 11.7) from
    a strictly feasible x.  Returns the last iterate, an upper bound on the
    optimum and the number of Newton steps taken.

    The multipliers lam of the slack rows are iterated with x, starting at
    1 / (t s) with t = m / R(x), and t is raised at every step it can be
    (``_system``), so no step waits for a point to be centred.  Each step
    takes 0.99 of the longest step that keeps lam and every slack and priced
    payment positive.

    For any multipliers mu >= 0 with residual r(mu) (``_system``),
    concavity gives R(y) <= R(x) + mu.s + r(mu).(y - x) for every feasible
    y, and feasible tables lie in [0, 1]^N.  The bound is the smaller of
    this at mu = lam and at the Newton estimate max(lam + dlam, 0).
    """
    G, h, m = prog.G, prog.h, prog.m
    # the entries of z that must stay positive: slacks, and payments under a sqrt
    kept = m if prog.linear else len(h)
    diagonal = slice(None, None, len(x) + 1)
    t = m / max(prog.revenue(x), _GAP_TOL)
    lam = 1 / (t * (h[:m] - G[:m] @ x))
    for step in range(1, _MAX_NEWTON + 1):
        z, value, r, t, H, rhs = _system(prog, x, lam, t)
        s = z[:m]
        # Scaled to a unit diagonal, plus a ridge: where a linear program's
        # optimal face is not a point, H is singular in floating point near
        # the optimum.  Entries below 1e-100 are flushed to zero: in skewed
        # orbit programs the collapse term holds entries down to 1e-300, and
        # LU on subnormal numbers is several times slower.  The bound below
        # holds whatever step is taken.
        d = 1 / np.sqrt(H.diagonal())
        H *= d[:, None] * d
        H[np.abs(H) < 1e-100] = 0.0
        H.flat[diagonal] += _RIDGE
        try:
            dx = d * np.linalg.solve(H, d * rhs)
        except np.linalg.LinAlgError as exc:
            raise OracleRefusal(f"interior-point Newton system is singular: {exc}") from exc
        rate = G @ dx  # how fast each entry of z falls along dx
        dlam = lam * rate[:m] / s - lam + 1 / (t * s)
        bound = value + min(float(mu @ s) + _box(r(mu), x)
                            for mu in (lam, np.maximum(lam + dlam, 0.0)))
        if bound - value <= _GAP_TOL * max(1.0, bound):
            return x, bound, step
        # 0.99 of the longest step that keeps lam, every slack and every
        # priced payment positive
        level, fall = np.concatenate((z[:kept], lam)), np.concatenate((rate[:kept], -dlam))
        hit = fall > 0
        alpha = min(1.0, 0.99 * float((level[hit] / fall[hit]).min(initial=math.inf)))
        # backtrack only where rounding left an entry of z non-positive
        while (h[:kept] - G[:kept] @ (x + alpha * dx)).min() <= 0:
            alpha *= 0.5
        x, lam = x + alpha * dx, lam + alpha * dlam
    raise OracleRefusal(
        f"interior-point method did not certify a gap of {_GAP_TOL:g} within "
        f"{_MAX_NEWTON} Newton steps"
    )


def _solve(
    space: ProfileSpace, config: OracleConfig, mode: str
) -> tuple[np.ndarray, float, float, int]:
    """Best certified table, its objective value, the optimum's upper bound
    and the solver's Newton steps.

    Returns the better of the last iterate and that iterate rounded to
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
         if np.all((prog.h - prog.G @ c)[: prog.m] >= -1e-12)),
        key=prog.revenue,
    )
    return best.reshape(space.shape), prog.revenue(best), bound, steps


def exact_tables(
    space: ProfileSpace, config: OracleConfig = OracleConfig(), mode: str = "rrm"
) -> tuple[Tables, MechanismReport]:
    """Certified exact optimum on any profile space, priced by the pipelines'
    payment step; the report's ``grid_slack`` is the certified gap and
    ``newton_steps`` the solver's Newton steps.

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
        raise RuntimeError("returned table beats the solver's upper bound")
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
