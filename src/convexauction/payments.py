"""Myerson payment formulas adapted to quadratic perceived payments.

Given a monotone ex-post allocation x, the perceived payment that makes the
mechanism IC and IR is

    q_i(z_l, v_-i) = z_l x_i(z_l, v_-i) - sum_{j<l} (z_{j+1} - z_j) x_i(z_j, v_-i),

with the empty-sum convention at the lowest type.  With the fixed convention
q(p) = p^2, the actual robust payment is p_i = sqrt(q_i), and the Bayesian
per-type payment h_i is the square root of the same expression evaluated on
the interim allocation.  The general invertible-convex-cost variant (replace
the square/square-root pair by C_i and its inverse) is out of scope here.

The formula is written once, in ``chain``, over one bidder's block of a
profile space (own types as rows, contexts as columns; see ``spaces``).
Pipelines and exact oracles price through ``mechanisms`` on any space; the
functions below apply it to dense tables.  Radicands in [-1e-9, 0) are
clamped to zero; anything more negative means the input allocation was not
monotone and is a hard error.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AuctionInstance,
    ExPostAllocation,
    InterimAllocation,
    InterimPaymentRule,
    RobustPaymentRule,
)
from .spaces import DenseSpace

_CLAMP = 1e-9


def chain(x: np.ndarray, values: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Perceived payments along axis 0 (own type) of an allocation block.

    ``x`` is an ``(own type x context)`` matrix or an interim vector; the
    context, if any, is held fixed along each own-type chain.
    """
    view = (-1,) + (1,) * (x.ndim - 1)
    weighted = gaps.reshape(view) * x
    # exclusive prefix sum of (z_{j+1} - z_j) x(z_j) along the own-type axis
    prefix = np.cumsum(weighted, axis=0) - weighted
    return values.reshape(view) * x - prefix


def clamp(q: np.ndarray, monotone: bool) -> np.ndarray:
    """Perceived payments clamped at zero.

    A monotone allocation has q >= 0 up to rounding, so there a radicand
    below -1e-9 means malformed input and is an error.
    """
    if monotone and np.any(q < -_CLAMP):
        raise ValueError(
            "negative perceived payment: allocation is non-monotone or malformed"
        )
    return np.maximum(q, 0.0)


def perceived_payment(
    alloc: ExPostAllocation, instance: AuctionInstance
) -> np.ndarray:
    """Perceived payments q_i(v) for a monotone allocation, shape (n, *shape).

    Raises ValueError when the allocation is not monotone; the payment
    characterization does not define payments for non-monotone rules.
    """
    if alloc.table.shape != (instance.n, *instance.shape):
        raise ValueError("allocation table does not match instance dimensions")
    if not alloc.is_monotone():
        raise ValueError("perceived payments require a monotone allocation")
    space = DenseSpace(instance)
    return space.join([chain(x, b.values, b.gaps)
                       for x, b in zip(space.split(alloc.table), space.blocks)])


def robust_payment(
    alloc: ExPostAllocation, instance: AuctionInstance
) -> RobustPaymentRule:
    """Actual payments p_i(v) = sqrt(q_i(v)) under quadratic perceived payments."""
    return RobustPaymentRule(np.sqrt(clamp(perceived_payment(alloc, instance), True)))


def interim_collapse(
    alloc: ExPostAllocation, instance: AuctionInstance
) -> InterimAllocation:
    """Expected allocation over the other bidders' types, per bidder and type."""
    if alloc.table.shape != (instance.n, *instance.shape):
        raise ValueError("allocation table does not match instance dimensions")
    space = DenseSpace(instance)
    return InterimAllocation(space.collapse(space.split(alloc.table)))


def interim_perceived(
    interim: InterimAllocation, instance: AuctionInstance
) -> tuple[np.ndarray, ...]:
    """Interim perceived payments q_hat_i(v_i) from an interim allocation."""
    return tuple(
        chain(t, instance.values(i), instance.space(i).gaps)
        for i, t in enumerate(interim.tables)
    )


def bayesian_payment(
    interim: InterimAllocation, instance: AuctionInstance
) -> InterimPaymentRule:
    """Per-type payments h_i(v_i) with h_i^2 equal to the interim perceived payment."""
    if interim.n != instance.n:
        raise ValueError("interim allocation does not match instance dimensions")
    qhat = interim_perceived(interim, instance)
    return InterimPaymentRule(tuple(np.sqrt(clamp(q, True)) for q in qhat))


def expected_revenue(
    rule: RobustPaymentRule | InterimPaymentRule, instance: AuctionInstance
) -> float:
    """Total expected payments to the auctioneer."""
    space = DenseSpace(instance)
    if isinstance(rule, RobustPaymentRule):
        if rule.table.shape != (instance.n, *instance.shape):
            raise ValueError("payment table does not match instance dimensions")
        return space.expect(space.split(rule.table))
    for i in range(instance.n):
        if rule.tables[i].shape != (instance.shape[i],):
            raise ValueError("payment table does not match instance dimensions")
    return space.mean(rule.tables)
