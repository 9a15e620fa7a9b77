"""End-to-end auction pipelines and revenue bound evaluators.

Every pipeline follows the same two-step recipe: solve for a per-profile
allocation that optimizes some objective (surplus, pseudo-surplus, virtual
surplus, or the virtual-value heuristic lower bound), then support that
allocation with the matching payment formula.  Greedy and closed-form
variants of the concave objectives are interchangeable up to the greedy
increment.

Each pipeline, and the bound evaluator ``bound_tables``, is written once
over a profile space (``spaces``) on the ``Tables`` of the space's layout.
The public functions run it on the instance's dense space, with
``(n, K_0, ..., K_{n-1})`` tables.  The ``experiment`` command runs it on
the ``OrbitSpace`` of its symmetric instance instead: K * C(n+K-2, K-1)
cells (own type, count of the other bidders' types) in place of n * K^n.
The exact oracles price their solved tables through the same payment step.

Reports carry both the optimized objective and the realized revenue; the two
are close in practice but not the same quantity, so they are never conflated.
Irregular instances are not aborted: the pipeline emits a warning, payments
are clamped where the formula would go negative, and the verifier is the
place where any resulting IC/IR failures show up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import payments as pay
from .alloc import (
    GreedyConfig,
    closed_form_alloc_batch,
    eqp_solver_batch,
    ex_ante_closed_form,
    pointwise_max_batch,
)
from .core import (
    DEFAULT_TOL,
    AuctionInstance,
    ExPostAllocation,
    InterimAllocation,
    InterimPaymentRule,
    MechanismReport,
    ObjectiveKind,
    RobustPaymentRule,
)
from .spaces import DenseSpace, ProfileSpace
# these stay importable here: perfbench/tracing.py wraps them at these names
from .virtual import is_regular, virtual_values, virtual_values_matrix  # noqa: F401


@dataclass(frozen=True, eq=False)
class Mechanism:
    """Bundle of allocation and payment rules plus their provenance.

    ``perceived`` records the utility convention the payments were built
    for: "quadratic" (q = p^2) for the convex-payment pipelines, "linear"
    (q = p) for the classic surplus and virtual-surplus auctions.
    """

    allocation: ExPostAllocation | None
    robust_payments: RobustPaymentRule | None = None
    interim_allocation: InterimAllocation | None = None
    interim_payments: InterimPaymentRule | None = None
    provenance: str = ""
    perceived: str = "quadratic"

    def __post_init__(self):
        if self.perceived not in ("quadratic", "linear"):
            raise ValueError("perceived must be 'quadratic' or 'linear'")


@dataclass(frozen=True, eq=False)
class Tables:
    """A mechanism's rules in one profile space's own layout.

    ``x`` and ``p`` are ex-post allocation and payment tables shaped like the
    space's tables; ``xhat`` and ``h`` hold one interim vector per block.
    """

    space: ProfileSpace
    x: np.ndarray | None = None
    p: np.ndarray | None = None
    xhat: tuple[np.ndarray, ...] | None = None
    h: tuple[np.ndarray, ...] | None = None
    provenance: str = ""
    perceived: str = "quadratic"

    @classmethod
    def of(cls, instance: AuctionInstance, mech: Mechanism) -> Tables:
        """A mechanism's tables on the instance's dense space."""
        return cls(
            DenseSpace(instance),
            x=None if mech.allocation is None else mech.allocation.table,
            p=None if mech.robust_payments is None else mech.robust_payments.table,
            xhat=None if mech.interim_allocation is None else mech.interim_allocation.tables,
            h=None if mech.interim_payments is None else mech.interim_payments.tables,
            provenance=mech.provenance,
            perceived=mech.perceived,
        )

    def mechanism(self) -> Mechanism:
        """The dense tables wrapped (and validated) as a ``Mechanism``."""
        if not isinstance(self.space, DenseSpace):
            raise ValueError("only dense tables make a Mechanism")
        return Mechanism(
            None if self.x is None else ExPostAllocation(self.x),
            robust_payments=None if self.p is None else RobustPaymentRule(self.p),
            interim_allocation=None if self.xhat is None else InterimAllocation(self.xhat),
            interim_payments=None if self.h is None else InterimPaymentRule(self.h),
            provenance=self.provenance,
            perceived=self.perceived,
        )


def _allocate(
    space: ProfileSpace, scores: list[np.ndarray], engine: str, config: GreedyConfig
) -> np.ndarray:
    """Run one allocation engine on every cell's score row."""
    if engine == "pointwise":
        out = pointwise_max_batch(space.rows(scores))
    elif engine == "greedy":
        out = eqp_solver_batch(space.rows(scores), config)
    elif engine == "closed_form":
        out = closed_form_alloc_batch(space.sums(scores), 0.5)
    else:
        raise ValueError(f"unknown allocation engine {engine!r}")
    return space.cells(out)


def _support(space, alloc, perceived, warnings, what="allocation"):
    """Chain payments for one allocation block (or interim vector) per block.

    Monotonicity is checked once; where it fails the payments are clamped at
    zero and a warning is added.  Returns (payment blocks, warnings).
    """
    monotone = all(np.all(np.diff(a, axis=0) >= -DEFAULT_TOL) for a in alloc)
    if not monotone:
        checks = "IC/IR" if what == "allocation" else "BIC/BIR"
        warnings += (f"{what} is not monotone; payments clamped, {checks} not guaranteed",)
    q = [pay.clamp(pay.chain(a, b.values, b.gaps), monotone)
         for a, b in zip(alloc, space.blocks)]
    return [np.sqrt(qi) if perceived == "quadratic" else qi for qi in q], warnings


def _virtual(space: ProfileSpace, plus: bool = True):
    """Virtual values (or their positive part) per block, the instance's
    virtual value table, and a warning naming any irregular bidders."""
    table, regular = space.virtual
    bad = [str(i) for i, ok in enumerate(regular) if not ok]
    warnings = ("irregular distribution for bidder(s) " + ", ".join(bad),) if bad else ()
    scores = [(table.phi_plus if plus else table.phi)[b.bidder] for b in space.blocks]
    return scores, table, warnings


def _check_method(method: str) -> None:
    if method not in ("greedy", "closed_form"):
        raise ValueError("method must be 'greedy' or 'closed_form'")


def _robust(space, scores, engine, config, perceived, kind, provenance,
            warnings=(), value=None):
    """Allocate on ``scores`` at every cell and attach chain payments.

    The objective is E[sum_i value(score_i x_i)], or the revenue when
    ``value`` is None.
    """
    x = _allocate(space, scores, engine, config)
    objective = None if value is None else space.expect(
        [value(s[:, None] * m) for s, m in zip(scores, space.split(x))]
    )
    return _price(space, x, perceived, kind, provenance, warnings, objective)


def _price(space, x, perceived, kind, provenance, warnings=(), objective=None):
    """Attach chain payments to an ex-post table; the objective is the
    revenue when ``objective`` is None."""
    p, warnings = _support(space, space.split(x), perceived, warnings)
    revenue = space.expect(p)
    tables = Tables(space, x, space.join(p), provenance=provenance, perceived=perceived)
    report = MechanismReport(revenue if objective is None else objective, kind,
                             revenue=revenue, warnings=warnings)
    return tables, report


def _interim(space, xhat, warnings, kind, provenance, x=None):
    """Attach per-type Bayesian payments to an interim rule; the objective is
    the revenue."""
    h, warnings = _support(space, xhat, "quadratic", warnings, "interim allocation")
    revenue = space.mean(h)
    tables = Tables(space, x, xhat=tuple(xhat), h=tuple(h), provenance=provenance)
    return tables, MechanismReport(revenue, kind, revenue=revenue, warnings=warnings)


def surplus_tables(space: ProfileSpace) -> tuple[Tables, MechanismReport]:
    """``surplus_maximizer`` on a profile space."""
    return _robust(space, [b.values for b in space.blocks], "pointwise", GreedyConfig(),
                   "linear", ObjectiveKind.SURPLUS, "surplus_maximizer", value=np.asarray)


def pseudo_surplus_tables(
    space: ProfileSpace, method: str = "closed_form", config: GreedyConfig = GreedyConfig()
) -> tuple[Tables, MechanismReport]:
    """``pseudo_surplus_maximizer`` on a profile space."""
    _check_method(method)
    return _robust(space, [b.values for b in space.blocks], method, config, "quadratic",
                   ObjectiveKind.PSEUDO_SURPLUS, f"pseudo_surplus_maximizer[{method}]",
                   value=np.sqrt)


def virtual_surplus_tables(space: ProfileSpace) -> tuple[Tables, MechanismReport]:
    """``virtual_surplus_maximizer`` on a profile space."""
    phi, _, warnings = _virtual(space, plus=False)
    return _robust(space, phi, "pointwise", GreedyConfig(), "linear",
                   ObjectiveKind.REVENUE_ROBUST, "virtual_surplus_maximizer", warnings)


def heuristic_lb_rrm_tables(
    space: ProfileSpace, method: str = "closed_form", config: GreedyConfig = GreedyConfig()
) -> tuple[Tables, MechanismReport]:
    """``heuristic_lb_rrm`` on a profile space."""
    _check_method(method)
    phi_plus, _, warnings = _virtual(space)
    return _robust(space, phi_plus, method, config, "quadratic",
                   ObjectiveKind.HEURISTIC_LOWER_BOUND, f"heuristic_lb_rrm[{method}]",
                   warnings, value=np.sqrt)


def heuristic_brm_tables(
    space: ProfileSpace, method: str = "closed_form", config: GreedyConfig = GreedyConfig()
) -> tuple[Tables, MechanismReport]:
    """``heuristic_brm`` on a profile space."""
    _check_method(method)
    phi_plus, _, warnings = _virtual(space)
    x = _allocate(space, phi_plus, method, config)
    return _interim(space, space.collapse(space.split(x)), warnings,
                    ObjectiveKind.REVENUE_BAYESIAN, f"heuristic_brm[{method}]", x)


def ex_ante_tables(
    space: ProfileSpace, truncate: bool = False
) -> tuple[Tables, MechanismReport]:
    """``ex_ante_relaxation`` on a profile space."""
    _, table, warnings = _virtual(space)
    solution = ex_ante_closed_form(space.instance, table, truncate)
    xhat = tuple(solution.interim.tables[b.bidder] for b in space.blocks)
    return _interim(space, xhat, warnings, ObjectiveKind.EX_ANTE_RELAXATION,
                    "ex_ante_relaxation" + ("_truncated" if truncate else ""))


def _dense(result: tuple[Tables, MechanismReport]) -> tuple[Mechanism, MechanismReport]:
    tables, report = result
    return tables.mechanism(), report


def surplus_maximizer(instance: AuctionInstance) -> tuple[Mechanism, MechanismReport]:
    """Classic surplus-maximizing auction: pointwise winner, linear payments."""
    return _dense(surplus_tables(DenseSpace(instance)))


def pseudo_surplus_maximizer(
    instance: AuctionInstance,
    method: str = "closed_form",
    config: GreedyConfig = GreedyConfig(),
) -> tuple[Mechanism, MechanismReport]:
    """Maximize E[sum sqrt(v_i x_i)] per profile, then attach sqrt payments."""
    return _dense(pseudo_surplus_tables(DenseSpace(instance), method, config))


def virtual_surplus_maximizer(
    instance: AuctionInstance,
) -> tuple[Mechanism, MechanismReport]:
    """Pointwise virtual-value winner with linear payments (reserve-price auction).

    For linear perceived payments, expected revenue equals expected virtual
    surplus, so the report's objective is the realized revenue itself.
    """
    return _dense(virtual_surplus_tables(DenseSpace(instance)))


def heuristic_lb_rrm(
    instance: AuctionInstance,
    method: str = "closed_form",
    config: GreedyConfig = GreedyConfig(),
) -> tuple[Mechanism, MechanismReport]:
    """Robust heuristic: allocate on phi^+ per profile, attach sqrt payments.

    The report's objective is the heuristic lower bound E[sum sqrt(phi^+ x)];
    the realized revenue of the supported auction rides alongside.
    """
    return _dense(heuristic_lb_rrm_tables(DenseSpace(instance), method, config))


def heuristic_brm(
    instance: AuctionInstance,
    method: str = "closed_form",
    config: GreedyConfig = GreedyConfig(),
) -> tuple[Mechanism, MechanismReport]:
    """Bayesian heuristic: same phi^+ allocation, collapsed to interim payments."""
    return _dense(heuristic_brm_tables(DenseSpace(instance), method, config))


def ex_ante_relaxation(
    instance: AuctionInstance, truncate: bool = False
) -> tuple[Mechanism, MechanismReport]:
    """Closed-form proportional-to-phi^+ interim rule with Bayesian payments.

    The untruncated rule saturates the ex-ante constraint and may assign
    interim shares above 1; the truncated variant caps them at 1 before
    computing payments, without re-normalizing.  Its revenue is the value of
    a relaxation, not a bound: ex-post feasible mechanisms can earn more.
    """
    return _dense(ex_ante_tables(DenseSpace(instance), truncate))


@dataclass(frozen=True)
class BoundReport:
    """Objective values and bound-ordering checks for one mechanism."""

    revenue: float
    robust_pseudo_surplus: float
    bayesian_pseudo_surplus: float
    virtual_sqrt_upper: float
    heuristic_lb_value: float
    per_bidder_revenue: tuple[float, ...]
    per_bidder_virtual_sqrt: tuple[float, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def bound_tables(tables: Tables, tol: float = DEFAULT_TOL) -> BoundReport:
    """``bound_report`` on any profile space.

    A block stands for ``block.count`` bidders, so each per-bidder entry
    repeats its block's value that many times.
    """
    space = tables.space
    xs = space.split(tables.x)
    phi_plus, virtual, _ = _virtual(space)
    phi = [virtual.phi[b.bidder] for b in space.blocks]
    values = [b.values for b in space.blocks]
    xhat = tables.xhat if tables.xhat is not None else space.collapse(xs)
    paid = space.collapse(space.split(tables.p)) if tables.p is not None else tables.h
    surplus = space.collapse([f[:, None] * x for f, x in zip(phi, xs)])
    per_bidder_rev, per_bidder_sqrt = (), ()
    for b, h, u in zip(space.blocks, paid, surplus):
        per_bidder_rev += (float(b.pmf @ h),) * b.count
        per_bidder_sqrt += (float(np.sqrt(max(0.0, b.pmf @ u))),) * b.count
    revenue = float(sum(per_bidder_rev))

    def sqrt_of(scores, mats):
        return space.expect([np.sqrt(s[:, None] * m) for s, m in zip(scores, mats)])

    robust_ps = sqrt_of(values, xs)
    bayes_ps = space.mean([np.sqrt(v * a) for v, a in zip(values, xhat)])

    failures = []
    # IR caps p at sqrt(v x) at each profile; BIR caps h at sqrt(v x̂) only
    if tables.p is not None:
        if revenue > robust_ps + tol:
            failures.append("revenue exceeds robust pseudo-surplus")
    elif revenue > bayes_ps + tol:
        failures.append("revenue exceeds Bayesian pseudo-surplus")
    if robust_ps > bayes_ps + tol:
        failures.append("robust pseudo-surplus exceeds Bayesian pseudo-surplus")
    for i, (rev, upper) in enumerate(zip(per_bidder_rev, per_bidder_sqrt)):
        if rev > upper + tol:
            failures.append(
                f"bidder {i} expected payment exceeds sqrt of expected virtual surplus"
            )
    return BoundReport(
        revenue=revenue,
        robust_pseudo_surplus=robust_ps,
        bayesian_pseudo_surplus=bayes_ps,
        virtual_sqrt_upper=float(sum(per_bidder_sqrt)),
        heuristic_lb_value=sqrt_of(phi_plus, xs),
        per_bidder_revenue=per_bidder_rev,
        per_bidder_virtual_sqrt=per_bidder_sqrt,
        failures=tuple(failures),
    )


def bound_report(
    instance: AuctionInstance, mech: Mechanism, tol: float = DEFAULT_TOL
) -> BoundReport:
    """Evaluate the pseudo-surplus, sqrt-of-virtual-surplus, and heuristic bounds.

    Revenue is bounded by the robust pseudo-surplus under ex-post payments
    and by the Bayesian one under interim payments.  Ordering violations are
    reported as failures rather than raised: a broken ordering signals a
    broken mechanism, which is a result, not a crash.
    """
    if mech.allocation is None:
        raise ValueError("bound report needs an ex-post allocation")
    if mech.robust_payments is None and mech.interim_payments is None:
        raise ValueError("bound report needs a mechanism with payments")
    if mech.perceived != "quadratic":
        raise ValueError("bounds are defined for quadratic perceived payments")
    return bound_tables(Tables.of(instance, mech), tol)
