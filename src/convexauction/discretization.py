"""Least-squares rounding of allocations to a grid, with error reporting.

Rounding an optimal allocation to integer multiples of a step delta moves
each entry by a residual of magnitude at most delta.  That shifts any single
perceived payment by at most delta * (2 z_l - z_1) and the total expected
revenue by O(sqrt(delta)); ``discretization_gap`` measures both empirically.

The nearest grid point per entry can break feasibility and monotonicity, so
``round_table`` rounds the cells of any profile space in two passes: floor
every entry (floors of a feasible monotone table are feasible and monotone),
then for each block's own types, top first, bump each cell (all at distinct
profiles) up one step where its ceiling is strictly closer, the chain stays
monotone, and its profile's total plus the cell's multiplicity stays within
1/delta steps (the space's ``profile`` and ``multiplicity``).
``round_allocation``, ``discretization_gap`` and the exact oracle all round
with it; every entry stays within delta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import payments as pay
from .core import (AuctionInstance, ExPostAllocation, RobustPaymentRule, _frozen_array,
                   grid_steps, make_uniform, own_type_matrix)
from .spaces import DenseSpace, ProfileSpace

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


def round_table(space: ProfileSpace, x: np.ndarray, delta: float) -> np.ndarray:
    """``x``, a table of ``space``'s layout, rounded to multiples of delta,
    keeping x >= 0, supply and monotonicity in own type."""
    steps = grid_steps("delta", delta)
    want = x.ravel()
    ks = np.floor(want / delta + 1e-12)
    closer = want - ks * delta > delta / 2 + _BUDGET_TOL  # a cell moves only at its turn
    # every cell lies in one profile, where its share counts mult times
    at, mult = space.profile.ravel(), space.multiplicity.ravel()
    total = np.bincount(at, mult * ks)
    for cells in space.index:
        k, up, p, m = ks[cells], closer[cells], at[cells], mult[cells]
        # top type first, so a bump never overtakes the next type's final value;
        # a bump needs x above (k + 1/2) delta, so no entry of [0, 1] passes 1
        for ell in range(len(k) - 1, -1, -1):
            bump = up[ell] & (total[p[ell]] + m[ell] <= steps)
            if ell + 1 < len(k):
                bump &= k[ell] < k[ell + 1]
            k[ell] += bump
            total[p[ell]] += bump * m[ell]
        ks[cells] = k
    return (ks * delta).reshape(space.shape)


def _round(space: DenseSpace, alloc: ExPostAllocation, delta: float):
    rounded = ExPostAllocation(round_table(space, alloc.table, delta))
    residuals = alloc.table - rounded.table
    return rounded, DiscretizationReport(delta, residuals, float(np.abs(residuals).max()))


def round_allocation(
    alloc: ExPostAllocation, delta: float
) -> tuple[ExPostAllocation, DiscretizationReport]:
    """Round every entry to the grid, preserving feasibility and monotonicity."""
    # rounding reads only the layout, so any instance of the table's shape does
    layout = AuctionInstance(tuple(make_uniform(k) for k in alloc.table.shape[1:]))
    return _round(DenseSpace(layout), alloc, delta)


def discretization_gap(
    instance: AuctionInstance, alloc_star: ExPostAllocation, delta: float
) -> DiscretizationReport:
    """Round and measure the induced perceived-payment and revenue gaps.

    ``perceived_payment`` checks the input's shape, then monotonicity, once
    each; feasibility is checked next (each a ValueError).  A per-entry payment
    gap above delta * (2 z_l - z_1) raises RuntimeError: a rounding bug, not bad input.
    """
    q_star = pay.perceived_payment(alloc_star, instance)
    if not alloc_star.is_feasible():
        raise ValueError("discretization gap needs a monotone, feasible allocation")
    rounded, report = _round(DenseSpace(instance), alloc_star, delta)
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
    return replace(report, perceived_payment_gap=float(gap.max()),
                   revenue_gap=abs(rev_star - rev_round))
