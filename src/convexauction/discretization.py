"""Least-squares rounding of allocations to a grid, with error reporting.

Rounding an optimal allocation to integer multiples of a step delta moves
each entry by a residual of magnitude at most delta.  That shifts any single
perceived payment by at most delta * (2 z_l - z_1) and the total expected
revenue by O(sqrt(delta)); ``discretization_gap`` measures both empirically.

The per-entry least-squares choice (nearest grid point) ignores two coupled
constraints that independent rounding can break: the rounded table must
stay ex-post feasible and monotone.  We therefore round in two passes:
first floor every entry (floors of a feasible monotone table are feasible
and monotone), then for each own type of each bidder, top type first, bump
every entry of that type (all at distinct profiles) up one step where its
ceiling is strictly closer, the profile budget allows it, and the chain
stays monotone.  Both passes keep every entry within delta of the original.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import payments as pay
from .core import (AuctionInstance, ExPostAllocation, RobustPaymentRule, _frozen_array,
                   own_type_matrix)

_BUDGET_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscretizationReport:
    """Residuals and payment/revenue gaps for one rounding pass."""

    delta: float
    residuals: np.ndarray
    max_abs_residual: float
    perceived_payment_gap: float | None = None
    revenue_gap: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "residuals", _frozen_array(self.residuals))


def round_allocation(
    alloc: ExPostAllocation, delta: float
) -> tuple[ExPostAllocation, DiscretizationReport]:
    """Round every entry to the grid, preserving feasibility and monotonicity."""
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    steps = 1.0 / delta
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError("1/delta must be an integer")
    steps_int = round(steps)
    orig = alloc.table
    ks = np.floor(orig / delta + 1e-12).astype(np.int64)

    profile_sums = ks.sum(axis=0)
    # bump pass: top type first within each chain so bumps never overtake
    # the next type's (already final) value
    for i in range(alloc.n):
        # views with bidder i's own type first; writes land in ks and profile_sums
        k, want, total = (np.moveaxis(t, i, 0) for t in (ks[i], orig[i], profile_sums))
        for ell in range(k.shape[0] - 1, -1, -1):
            bump = ((want[ell] - k[ell] * delta > delta / 2 + _BUDGET_TOL)
                    & (total[ell] < steps_int) & (k[ell] < steps_int))
            if ell + 1 < k.shape[0]:
                bump &= k[ell] < k[ell + 1]
            k[ell] += bump
            total[ell] += bump

    rounded = ExPostAllocation(ks * delta)
    residuals = orig - rounded.table
    report = DiscretizationReport(
        delta=delta,
        residuals=residuals,
        max_abs_residual=float(np.abs(residuals).max()),
    )
    return rounded, report


def discretization_gap(
    instance: AuctionInstance, alloc_star: ExPostAllocation, delta: float
) -> DiscretizationReport:
    """Round and measure the induced perceived-payment and revenue gaps.

    Raises when a per-entry perceived-payment gap exceeds the explicit bound
    delta * (2 z_l - z_1); that would signal a rounding bug, not an input
    problem.
    """
    if not alloc_star.is_monotone() or not alloc_star.is_feasible():
        raise ValueError("discretization gap needs a monotone, feasible allocation")
    rounded, report = round_allocation(alloc_star, delta)

    q_star = pay.perceived_payment(alloc_star, instance)
    q_round = pay.perceived_payment(rounded, instance)
    gap = np.abs(q_star - q_round)
    zs = [instance.values(i) for i in range(instance.n)]
    bound = own_type_matrix(instance, [delta * (2 * z - z[0]) for z in zs])
    if (gap - bound).max() > 1e-9:
        raise RuntimeError("perceived-payment gap exceeds the delta*(2z_l - z_1) bound")

    rev_star, rev_round = (
        pay.expected_revenue(RobustPaymentRule(np.sqrt(pay.clamp(q, True))), instance)
        for q in (q_star, q_round)
    )
    return DiscretizationReport(
        delta=delta,
        residuals=report.residuals,
        max_abs_residual=report.max_abs_residual,
        perceived_payment_gap=float(gap.max()),
        revenue_gap=abs(rev_star - rev_round),
    )
