"""Certified exact solvers, the constraint verifier, and a program exporter.

Both exact problems are concave maximizations over polyhedra.  Robust
revenue is sum f sqrt(q) with the perceived payments q linear in the
allocation table, subject to linear supply and own-type monotonicity
constraints; Bayesian revenue is the same composed with the linear interim
collapse, with interim monotonicity in place of the ex-post one.  Payments
never need to be optimized: the payment characterization and its interim
analogue pin them to the allocation.  With p = q in place of sqrt(q), the
robust program is Myerson's linear program (mode ``rrm_linear``), the
cross-check of the virtual-surplus pipeline.

Both are composed from one set of sparse linear blocks (``_Blocks``: supply,
monotonicity, payment chains, the interim collapse and the objective weights,
which also give the XA row), read in order off one layout of a profile
space's cells (``spaces``) per solve, and solved by a primal-dual
interior-point method; ``export_program`` prints rows of the same blocks on
the dense space.  The solver starts from a fixed strictly monotone table
moved toward the closed-form phi+ heuristic as far as stays strictly inside.
Each Newton step updates the allocation and the constraints' multipliers
together, raises the barrier parameter t from the current duality gap (ten
times further after a full step), evaluates each of its terms once, reading
the slacks and payments from the line search's accepted trial, and forms
its matrix as one product of the dense constraint and payment rows, each
scaled by its curvature (the Bayesian monotonicity and payment rows act on
the interim rule and so are dense over the contexts).  A step whose
multipliers' bound already certifies builds no matrix.  The verifier checks
IC a slice of contexts at a time.  The solver returns the better of its last
iterate and that iterate rounded to the grid
(``discretization.round_table``, when it stays feasible).  It reports
``grid_slack`` as a certified gap: an upper bound on the optimum, from
Lagrangian duality at the last iterate, minus the revenue of the returned
table, priced by the pipelines' payment step (``mechanisms``); and
``newton_steps``, the Newton steps it took.  Instances above
``_MAX_CELLS`` allocation variables, that the solver fails to certify, or
whose Newton direction is not finite are refused with an explanation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import payments as pay
from .core import DEFAULT_TOL, AuctionInstance, MechanismReport, ObjectiveKind, grid_steps
from .discretization import round_table
from .mechanisms import (Mechanism, Tables, _allocate, _dense, _engine, _interim, _price,
                         _virtual)
from .spaces import DenseSpace, ProfileSpace
from .virtual import virtual_values


class OracleRefusal(ValueError):
    """Raised when an instance is too large for, or not certified by, the solver."""


@dataclass(frozen=True)
class OracleConfig:
    """Rounding grid for the exact solvers: their answer is rounded to
    multiples of ``grid`` (``round_table``) when that keeps it feasible and
    does not lower revenue."""

    grid: float = 1e-3

    def __post_init__(self):
        grid_steps("grid", self.grid, top=0.1)


# ---------------------------------------------------------------------------
# Constraint verifier
# ---------------------------------------------------------------------------

# what each constraint set reads (x̂ is the collapse of x, or the stored rule
# when there is no x), and each input's name
CONSTRAINTS = {"ic": ("x", "q"), "ir": ("x", "q"), "bic": ("xhat", "qhat"),
               "bir": ("xhat", "qhat"), "xp": ("x",), "xa": ("xhat",)}
_IC_ENTRIES = 2**17  # per slice of a block's deviation tensor; 1 MB
_NEEDS = {"x": "an ex-post allocation", "q": "payments on every profile",
          "xhat": "an interim or ex-post allocation", "qhat": "payments"}


@dataclass(frozen=True)
class ConstraintCheck:
    passed: bool
    worst_violation: float


def verify(instance: AuctionInstance, mech: Mechanism, which=None) -> dict[str, ConstraintCheck]:
    """Exhaustively evaluate the requested constraint sets on a mechanism.

    ``which`` is an iterable over ``CONSTRAINTS``.  When omitted it defaults
    to the set matching the mechanism's payment style: IC/IR/XP for robust
    payments, BIC/BIR plus XP or XA for interim ones.  A set passes when its
    worst violation is at most ``DEFAULT_TOL``; a NaN or infinite one fails
    and is reported as is.  Tables that do not match the instance, and a set
    whose inputs the mechanism lacks, raise ValueError.
    """
    return check(Tables.of(instance, mech), which)


def check(tables: Tables, which=None) -> dict[str, ConstraintCheck]:
    """``verify`` on any profile space.

    Each input is derived once, and only if an asked set reads it: the
    ex-post pair, blocks of ``x`` with ``p`` or with ``h`` broadcast along the
    contexts, and the interim pair.  Its allocation x̂ is the collapse of
    ``x`` whenever there is one, so a stored ``xhat`` is read only without it;
    its payments are ``h``, else the collapse of the ex-post payments.  IC/IR
    and BIC/BIR run one loop over (own type x context) matrices; an interim
    rule is a block with one context.
    """
    if which is None:
        which = (("ic", "ir", "xp") if tables.p is not None
                 else ("bic", "bir", "xp") if tables.x is not None else ("bic", "bir", "xa"))
    which = tuple(w.lower() for w in which)
    for w in which:
        if w not in CONSTRAINTS:
            raise ValueError(f"unknown constraint {w!r}")

    space, power = tables.space, 2 if tables.perceived == "quadratic" else 1
    reads = {k for w in which for k in CONSTRAINTS[w]}
    x = None if tables.x is None else space.split(tables.x)
    h = None if tables.h is None else [v**power for v in tables.h]
    q = xhat = qhat = None
    if "q" in reads or ("qhat" in reads and h is None):
        if tables.p is not None:
            q = [p**power for p in space.split(tables.p)]
        elif h is not None and x is not None:
            q = [np.broadcast_to(v[:, None], a.shape) for v, a in zip(h, x)]
    if "xhat" in reads:
        xhat = tables.xhat if x is None else space.collapse(x)
        qhat = h if h is not None or q is None else space.collapse(q)
    inputs = {"x": x, "q": q, "xhat": xhat, "qhat": qhat}
    for name in which:
        lacking = [_NEEDS[k] for k in CONSTRAINTS[name] if inputs[k] is None]
        if lacking:
            raise ValueError(f"{name} check needs " + " and ".join(lacking))

    results: dict[str, ConstraintCheck] = {}
    for name in which:
        # per-block worst violations; np.max propagates a NaN where max() drops it
        parts: list[float] = []
        if name == "xp":
            parts.append(space.supply(tables.x))
        elif name == "xa":
            parts.append(space.mean(xhat) - 1.0)
        else:
            for block, a, b in zip(space.blocks, *(inputs[k] for k in CONSTRAINTS[name])):
                a, b = (v.reshape(len(v), -1) for v in (a, b))  # an interim vector: one context
                util = block.values[:, None] * a - b
                if name.endswith("ir"):
                    parts.append(-util.min())
                else:
                    # deviation utility of reporting w while holding type v, on
                    # at most _IC_ENTRIES (type, report, context) entries at a time
                    width = max(1, _IC_ENTRIES // len(block.values) ** 2)
                    for c in range(0, a.shape[1], width):
                        dev = block.values[:, None, None] * a[None, :, c : c + width]
                        dev -= b[None, :, c : c + width]
                        dev -= util[:, None, c : c + width]
                        parts.append(dev.max())
        worst = float(np.max(parts + [0.0]))
        # a violation that could not be evaluated is a failure, reported as is
        results[name] = ConstraintCheck(math.isfinite(worst) and worst <= DEFAULT_TOL, worst)
    return results


# ---------------------------------------------------------------------------
# Interior-point solver
# ---------------------------------------------------------------------------

_GAP_TOL = 1e-9  # stop once the certified gap is below this times max(1, bound)
_FP_MARGIN = 1e-12  # relative floating-point margin added to every reported gap
_RIDGE = 1e-13  # keeps the unit-diagonal Newton system non-singular
_MAX_NEWTON = 400
# the most allocation variables solved, the cells of the profile space's
# table: n * K_0 * ... * K_{n-1} dense, K * C(n+K-2, K-1) on orbits
_MAX_CELLS = 64
_MIN_STEP = 1e-12  # the shortest step the line search halves to


class _Sparse(NamedTuple):
    """A matrix by its nonzero entries, sorted by row and then by column."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


class _Blocks:
    """The linear pieces of the revenue programs on one profile space.

    Ex-post pieces act on the allocation table x, flattened in the space's
    own order (``space.shape``); interim pieces (``hat=True``) act on the
    interim rule x̂, flattened block by block.  Each piece is a small matrix
    per block on its own types, applied along every context, and supply adds
    each cell, times its ``multiplicity``, to its ``profile``'s row.  All
    are read in (row, column) order off one layout of the space's ``index``.
    The solver stacks them, dense, into G; the exporter prints their
    nonzeros: each constraint defined once, exports sized by their text.
    """

    def __init__(self, space: ProfileSpace):
        self.space, index = space, space.index
        self.size = size = math.prod(space.shape)
        self.own = np.concatenate([np.arange(len(c)) for c in index])  # of each x̂ entry
        self.hat_size = len(self.own)
        # the layout of x (of x̂): each entry's x̂ entry and position in (x̂
        # entry, context) order, the entry at each position, and each x̂ entry's contexts
        span = np.repeat([c.shape[1] for c in index], [len(c) for c in index])
        cells = np.concatenate([c.ravel() for c in index])
        pos = cells.argsort()
        one = np.arange(self.hat_size)
        self.x = (one.repeat(span)[pos], pos, cells, span)
        self.hat = (one, one, one, np.ones_like(one))
        # each cell's context probability
        self.chance = np.concatenate([w[None].repeat(len(c), 0).ravel()
                                      for w, c in zip(space.weights, index)])[pos]

    def _along(self, rows, cols, vals, hat: bool) -> tuple[_Sparse, np.ndarray]:
        """The x̂ matrix of nonzeros (rows, cols, vals), row-major and each
        row's within its block, along every context of x (or of x̂): the piece
        without its empty rows, and the entry each of its rows is anchored at."""
        of, pos, cells, span = self.hat if hat else self.x
        count = np.bincount(rows, minlength=self.hat_size)[of]
        anchors = count.nonzero()[0]
        of, count = of[anchors], count[anchors]
        # the row anchored at e holds x̂ row of[e]'s nonzeros in turn, and x̂
        # entry j in e's context sits span[j] (j - of[e]) positions on from e
        nz = np.arange(count.sum()) + (rows.searchsorted(of) - count.cumsum() + count).repeat(count)
        at = pos[anchors].repeat(count) + (cols[nz] - rows[nz]) * span[rows[nz]]
        return (_Sparse(np.arange(len(of)).repeat(count), cells[at], vals[nz], (len(of), len(pos))),
                anchors)

    def supply(self) -> _Sparse:
        """The bidders' total share at each profile; supply is sum <= 1."""
        profile = self.space.profile.ravel()
        order = profile.argsort(kind="stable")
        return _Sparse(profile[order], order, self.space.multiplicity.ravel()[order],
                       (int(profile.max()) + 1, self.size))

    def mono(self, hat: bool) -> _Sparse:
        """x at own type k - 1 minus x at own type k, for every k >= 1 (<= 0);
        rows in the order of their upper entries."""
        rows = self.own.nonzero()[0].repeat(2)
        odd = np.arange(len(rows)) % 2  # each row: 1 at x̂ entry k - 1, then -1 at k
        return self._along(rows, rows - 1 + odd, 1.0 - 2.0 * odd, hat)[0]

    def chain(self, hat: bool) -> tuple[_Sparse, np.ndarray]:
        """Perceived payments along each own-type chain (``payments.chain``, the
        payment characterization, on each block's identity) without zero rows (a
        lowest type worth 0), and the entries its rows price."""
        coef = np.zeros((self.hat_size, self.hat_size))
        for b, at in zip(self.space.blocks, (self.own == 0).nonzero()[0]):
            k = len(b.values)
            coef[at : at + k, at : at + k] = pay.chain(np.eye(k), b.values, b.gaps)
        rows, cols = coef.nonzero()
        return self._along(rows, cols, coef[rows, cols], hat)

    def collapse(self) -> _Sparse:
        """x̂ = C x: each block's share averaged over its contexts."""
        of, _, cells, _ = self.x
        return _Sparse(of[cells], cells, self.chance[cells], (self.hat_size, self.size))

    def weights(self, hat: bool) -> np.ndarray:
        """The objective's weight per entry: count * f(k) on x̂ (also the XA
        row, expected total share <= 1), times the context's probability on x."""
        per_type = np.concatenate([b.count * b.pmf for b in self.space.blocks])
        return per_type if hat else per_type[self.x[0]] * self.chance


@dataclass(frozen=True)
class _Program:
    """maximize w . sqrt(q) (w . q if linear) over the allocation table x,
    flattened in its space's order, subject to s >= 0: z = h - G x stacks
    the slacks s (first ``m`` entries) of x >= 0, supply and monotonicity,
    then the payments q, so with g = dR/dq the residual grad R - A^T mu of
    slack multipliers mu is the one product -G^T [mu; g], and the Newton
    matrix the one product G_k^T diag(curvature) G_k over its first k rows
    (``_system``).  G is dense: the Bayesian program's monotonicity and
    payment rows act on x̂ = C x and so are dense over the contexts.
    """

    G: np.ndarray
    h: np.ndarray
    m: int
    first: list[int]  # the first row of each of the ``_PIECES`` of G
    w: np.ndarray
    linear: bool

    def z(self, x: np.ndarray) -> np.ndarray:
        """h - G x: the slacks s (first ``m`` entries), then the payments q."""
        return self.h - self.G @ x

    def revenue(self, x: np.ndarray) -> float:
        q = -(self.G[self.m :] @ x)
        return float(self.w @ (q if self.linear else np.sqrt(np.maximum(q, 0.0))))


_PIECES = ("x >= 0", "supply", "monotonicity", "payment")


def _program(blk: _Blocks, mode: str) -> _Program:
    """The robust (``rrm``, ``rrm_linear``) or Bayesian (``brm``) revenue program."""
    hat, size, linear = mode == "brm", blk.size, mode == "rrm_linear"
    (chain, priced), one = blk.chain(hat), np.arange(size)
    # the pieces of G in row order: x >= 0, supply and monotonicity (the
    # slacks), then the payments negated; in brm the last two act on x̂ = C x
    pieces = [_Sparse(one, one, -np.ones(size), (size, size)), blk.supply(), blk.mono(hat),
              _Sparse(chain.rows, chain.cols, -chain.vals, chain.shape)]
    dense = [p.dense() for p in pieces]
    if hat:  # C's one nonzero per column: the cell's chance, in its x̂ entry's row
        dense[2:] = [d[:, blk.x[0]] * blk.chance for d in dense[2:]]
    first = np.cumsum([0] + [len(d) for d in dense]).tolist()
    h = np.repeat([0.0, 1.0, 0.0, 0.0], np.diff(first))
    return _Program(np.vstack(dense), h, first[3], first[:4], blk.weights(hat)[priced], linear)


def _reach(level: np.ndarray, fall: np.ndarray) -> float:
    """The longest step along which level - step * fall stays positive."""
    hit = fall > 0
    return float((level[hit] / fall[hit]).min(initial=math.inf))


def _box(r: np.ndarray, x: np.ndarray) -> float:
    """max of r.(y - x) over y in [0, 1]^N."""
    return float(np.maximum(r, 0.0).sum() - r @ x)


def _closes(value: float, bound: float) -> bool:
    """Whether an upper bound on the optimum certifies the gap to a value."""
    return bound - value <= _GAP_TOL * max(1.0, bound)


def _system(prog: _Program, x: np.ndarray, z: np.ndarray, lam: np.ndarray, t: float,
            factor: float):
    """The primal-dual Newton system at x, with z = h - G x (the slacks s and
    payments q) and multipliers lam > 0.

    Returns the revenue R, the residual map r(mu) = -G^T [mu; g] (g = w / (2
    sqrt q), or w if linear), lam's part of the bound, lam.s + box(r(lam))
    (``_barrier``), the step's t, 1 / (t s), and H dx = rhs (Boyd &
    Vandenberghe, sec. 11.7), or None for the last three where lam's part
    already certifies and no step is taken:

        H = A^T diag(lam / s) A + Q^T diag(g / (2 q)) Q,  rhs = r(1 / (t s))

    with A = G[:m] and Q = -G[m:] (no Q term when linear), formed as the one
    product G_k^T diag(curvature) G_k over the k rows of G that have a
    curvature.  The step's t is factor * m / max(lam.s, box), or the
    previous t if larger: lam.s alone can reach zero while the residual part
    stays, and a falling t lets full steps cycle.
    """
    m, w = prog.m, prog.w
    s, q = z[:m], z[m:]
    if prog.linear:
        value, g, curv = float(w @ q), w, lam / s
    else:
        root = np.sqrt(q)
        value, g = float(w @ root), w / (2 * root)
        curv = np.concatenate((lam / s, g / (2 * q)))

    def r(mu: np.ndarray) -> np.ndarray:
        return -(np.concatenate((mu, g)) @ prog.G)

    dual, box = float(lam @ s), _box(r(lam), x)
    t = max(t, factor * m / max(dual, box))
    if _closes(value, value + dual + box):
        return value, r, dual + box, t, None, None, None
    inv = 1 / (t * s)
    rows = prog.G[: len(curv)]
    return value, r, dual + box, t, inv, rows.T @ (curv[:, None] * rows), r(inv)


def _barrier(prog: _Program, x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Primal-dual interior-point method (Boyd & Vandenberghe, sec. 11.7) from
    a strictly feasible x.  Returns the last iterate, an upper bound on the
    optimum and the number of Newton steps taken.

    The multipliers lam of the slack rows are iterated with x, starting at
    1 / (t s) with t = m / R(x), and t is raised at every step it can be
    (``_system``): to 10 m over the larger part of the bound at lam, and to
    100 m over it on the step after a full step, so no step waits for a
    point to be centred and the endgame, where full steps are taken, closes
    the gap ten times faster.  Each step takes 0.99 of the longest step that
    keeps lam and every slack and priced payment positive, and the next step
    reads z = h - G x from that trial.  A start that is not strictly inside,
    a direction that is not finite and a step halved below ``_MIN_STEP`` are
    refused.

    For any multipliers mu >= 0 with residual r(mu) (``_system``),
    concavity gives R(y) <= R(x) + mu.s + r(mu).(y - x) for every feasible
    y, and feasible tables lie in [0, 1]^N.  The bound is this at mu = lam
    if that certifies (no Newton system is built), else the smaller of it
    and this at the Newton estimate max(lam + dlam, 0).
    """
    G, m = prog.G, prog.m
    # the entries of z that must stay positive: slacks, and payments under a sqrt
    kept = m if prog.linear else len(prog.h)
    z = prog.z(x)
    bad = np.flatnonzero(~(z[:kept] > 0))
    if bad.size:
        piece = np.searchsorted(prog.first, bad, side="right") - 1
        rows = [f"{_PIECES[p]} row {r - prog.first[p]}" for r, p in zip(bad, piece)]
        raise OracleRefusal(f"start is not strictly inside: {len(bad)} rows not positive ("
                            + ", ".join(rows[:5]) + (", ..." if len(rows) > 5 else "") + ")")
    diagonal = slice(None, None, len(x) + 1)
    t, factor = m / max(prog.revenue(x), _GAP_TOL), 10
    lam = 1 / (t * z[:m])
    for step in range(1, _MAX_NEWTON + 1):
        value, r, at_lam, t, inv, H, rhs = _system(prog, x, z, lam, t, factor)
        if H is None:
            return x, value + at_lam, step
        s = z[:m]
        # Scaled to a unit diagonal, plus a ridge: where a linear program's
        # optimal face is not a point, H is singular in floating point near
        # the optimum.  Entries below 1e-100 are flushed to zero: in skewed
        # orbit programs the Bayesian rows' term holds entries down to
        # 1e-300, and LU on subnormal numbers is several times slower.  The
        # bound below holds whatever step is taken.
        d = 1 / np.sqrt(H.diagonal())
        H *= d[:, None] * d
        H[np.abs(H) < 1e-100] = 0.0
        H.flat[diagonal] += _RIDGE
        try:
            dx = d * np.linalg.solve(H, d * rhs)
        except np.linalg.LinAlgError as exc:
            raise OracleRefusal(f"interior-point Newton system is singular: {exc}") from exc
        rate = G @ dx  # how fast each entry of z falls along dx
        dlam = lam * rate[:m] / s - lam + inv
        mu = np.maximum(lam + dlam, 0.0)
        bound = value + min(at_lam, float(mu @ s) + _box(r(mu), x))
        if _closes(value, bound):
            return x, bound, step
        # 0.99 of the longest step that keeps lam, every slack and every
        # priced payment positive
        alpha = min(1.0, 0.99 * _reach(np.concatenate((z[:kept], lam)),
                                       np.concatenate((rate[:kept], -dlam))))
        # backtrack only where rounding left an entry of z non-positive; a
        # direction that is not finite never leaves one positive
        while True:
            trial = x + alpha * dx
            z = prog.z(trial)
            if z[:kept].min() > 0:
                break
            if not np.isfinite(dx).all():
                raise OracleRefusal("interior-point Newton direction is not finite")
            alpha *= 0.5
            if alpha < _MIN_STEP:
                raise OracleRefusal(f"interior-point line search found no step of at least "
                                    f"{_MIN_STEP:g} that stays strictly inside")
        x, lam = trial, lam + alpha * dlam
        factor = 100 if alpha == 1 else 10
    raise OracleRefusal(
        f"interior-point method did not certify a gap of {_GAP_TOL:g} within "
        f"{_MAX_NEWTON} Newton steps"
    )


def _solve(
    space: ProfileSpace, config: OracleConfig, mode: str
) -> tuple[np.ndarray, float, float, int]:
    """Best certified table, its objective value, the optimum's upper bound
    and the solver's Newton steps.

    Returns the better of the last iterate and ``round_table`` of it on
    ``space`` at ``config.grid``, if the rounded table passes every slack row.
    """
    size = math.prod(space.shape)
    if size > _MAX_CELLS:
        raise OracleRefusal(f"instance has {size} allocation variables, above the cap of "
                            f"{_MAX_CELLS}")
    blk = _Blocks(space)
    prog = _program(blk, mode)
    # x(k, c) = (k + 1) / ((K + 1) n): strictly monotone, strictly inside supply
    start, n = np.empty(blk.size), space.instance.n
    for cells in space.index:
        start[cells] = (np.arange(len(cells)) + 1)[:, None] / ((len(cells) + 1) * n)
    # moved toward the closed-form phi+ heuristic: half way, or half the
    # longest step that keeps every slack row and priced payment positive if
    # that is shorter (on irregular instances the heuristic is not monotone)
    phi_plus, _ = _virtual(space)
    toward = _allocate(space, phi_plus, _engine("closed_form")).ravel() - start
    beta = min(0.5, 0.5 * _reach(prog.z(start), prog.G @ toward))
    x, bound, steps = _barrier(prog, start + beta * toward)
    # rounding keeps x >= 0, supply and ex-post monotonicity, not brm's interim one
    rounded = round_table(space, x.reshape(space.shape), config.grid).ravel()
    feasible = [c for c in (x, rounded) if np.all(prog.z(c)[: prog.m] >= -1e-12)]
    best = max(feasible, key=prog.revenue)
    return best.reshape(space.shape), prog.revenue(best), bound, steps


def exact_tables(
    space: ProfileSpace, config: OracleConfig = OracleConfig(), mode: str = "rrm"
) -> tuple[Tables, MechanismReport]:
    """Certified exact optimum on any profile space, priced by the pipelines'
    payment step; the report's ``grid_slack`` is the certified gap and
    ``newton_steps`` the solver's Newton steps.

    ``mode`` is ``rrm`` (robust), ``rrm_linear`` (robust, linear perceived
    payments) or ``brm`` (Bayesian), and names the tables
    ``exact_<mode>[grid=...]``; any other raises ValueError.  By symmetry and
    concavity, the optimum on a symmetric instance's ``OrbitSpace`` is its
    dense program's optimum.
    """
    if mode not in ("rrm", "rrm_linear", "brm"):
        raise ValueError(f"unknown mode {mode!r}; choose rrm, rrm_linear or brm")
    x, objective, bound, steps = _solve(space, config, mode)
    kind, name = ObjectiveKind.EXACT_ORACLE, f"exact_{mode}[grid={config.grid}]"
    if mode == "brm":
        tables, report = _interim(space, space.collapse(space.split(x)), (), kind, name, x)
    else:
        perceived = "linear" if mode == "rrm_linear" else "quadratic"
        tables, report = _price(space, x, perceived, kind, name)
    if abs(report.revenue - objective) > 1e-6:
        raise OracleRefusal(f"solver objective {objective!r} and recomputed revenue "
                            f"{report.revenue!r} disagree")
    gap = bound - report.revenue + _FP_MARGIN * bound
    if not gap >= 0:
        raise RuntimeError("returned table beats the solver's upper bound")
    return tables, replace(report, grid_slack=gap, newton_steps=steps)


def exact_rrm(
    instance: AuctionInstance, config: OracleConfig = OracleConfig()
) -> tuple[Mechanism, MechanismReport]:
    """Certified robust revenue maximization.

    Maximizes over monotone, ex-post feasible allocation tables and pins the
    payments p = sqrt(q) via the payment characterization.  Its linear
    analogue is ``exact_tables``' ``rrm_linear`` mode.
    """
    return _dense(exact_tables(DenseSpace(instance), config))


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
        per_entry = np.concatenate(coefs)[(blk.hat if hat else blk.x)[0]]  # as ``weights``
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
        m, at = blk.chain(hat)  # a row for every priced entry, "0" where the chain's is zero
        lines += defining("pay", lhs, m._replace(rows=at[m.rows], shape=(len(lhs),) * 2), priced)
    return "\n".join(lines) + "\n"
