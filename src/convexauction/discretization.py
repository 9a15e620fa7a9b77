"""Least-squares rounding of allocations to a grid, with error reporting.

Rounding an optimal allocation to integer multiples of a step delta moves
each entry by a residual of magnitude at most delta.  That shifts any single
perceived payment by at most delta * (2 z_l - z_1) and the total expected
revenue by O(sqrt(delta)); ``discretization_tables`` measures both on any
profile space, and ``discretization_gap`` is its dense view.

The nearest grid point per entry can break feasibility and monotonicity, so
``round_table`` rounds the cells of any profile space in two passes: floor
every entry (floors of a feasible monotone table are feasible and monotone),
then for each block's own types, top first, bump each cell (all at distinct
profiles) up one step where its ceiling is strictly closer, the chain stays
monotone, and its profile's total plus the cell's multiplicity stays within
1/delta steps (the space's ``profile`` and ``multiplicity``).
``round_allocation``, ``discretization_tables`` and the exact oracle all
round with it; every entry stays within delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import payments as pay
from .core import AuctionInstance, ExPostAllocation, _frozen_array, grid_steps, make_uniform
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


def round_allocation(
    alloc: ExPostAllocation, delta: float
) -> tuple[ExPostAllocation, DiscretizationReport]:
    """Round every entry to the grid, preserving feasibility and monotonicity."""
    # rounding reads only the layout, so any instance of the table's shape does
    layout = AuctionInstance(tuple(make_uniform(k) for k in alloc.table.shape[1:]))
    rounded = ExPostAllocation(round_table(DenseSpace(layout), alloc.table, delta))
    residuals = alloc.table - rounded.table
    return rounded, DiscretizationReport(delta, residuals, float(np.abs(residuals).max()))


def discretization_tables(space: ProfileSpace, x: np.ndarray, delta: float) -> DiscretizationReport:
    """``discretization_gap`` on any profile space, for a monotone, feasible
    table ``x`` of its layout: rounded by ``round_table`` and both priced by
    ``payments.chain``.  A payment gap above delta * (2 z_l - z_1) at any
    entry raises RuntimeError: a rounding bug, not bad input."""
    rounded = round_table(space, x, delta)
    q_star, q_round = ([pay.chain(m, b.values, b.gaps) for m, b in zip(space.split(t), space.blocks)]
                       for t in (x, rounded))
    gaps = [np.abs(star - r) for star, r in zip(q_star, q_round)]
    if any((g - delta * (2 * b.values - b.values[0])[:, None]).max() > 1e-9
           for g, b in zip(gaps, space.blocks)):
        raise RuntimeError("perceived-payment gap exceeds the delta*(2z_l - z_1) bound")
    rev_star, rev_round = (space.expect([np.sqrt(pay.clamp(q, True)) for q in qs])
                           for qs in (q_star, q_round))
    residuals = x - rounded
    return DiscretizationReport(delta, residuals, float(np.abs(residuals).max()),
                                max(float(g.max()) for g in gaps), abs(rev_star - rev_round))


def discretization_gap(
    instance: AuctionInstance, alloc_star: ExPostAllocation, delta: float
) -> DiscretizationReport:
    """Round and measure the induced perceived-payment and revenue gaps:
    ``discretization_tables`` on the dense space, once the input's shape,
    monotonicity and feasibility are checked, in turn (each a ValueError)."""
    instance.check_table("allocation table", alloc_star.table)
    if not alloc_star.is_monotone():
        raise ValueError("perceived payments require a monotone allocation")
    if not alloc_star.is_feasible():
        raise ValueError("discretization gap needs a monotone, feasible allocation")
    return discretization_tables(DenseSpace(instance), alloc_star.table, delta)
