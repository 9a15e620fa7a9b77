"""Allocation engines: pointwise winner selection, equi-marginal greedy,
closed-form proportional shares, and the ex-ante closed form.

All engines treat a score of zero as "not competing": only strictly positive
scores can receive supply, and when no score is positive the allocation is
identically zero.  The greedy and closed-form engines solve the same concave
program (maximize sum of sqrt(c_i^+ x_i) on the simplex).  The greedy engine
hands out the supply in 1/epsilon steps of epsilon: bidders with equal scores
form a group that moves in whole group steps, and the steps with the largest
marginal gains win.  It finds those steps by an exchange from the closed-form
start rather than by simulating them one by one; a tie at the last step is
split evenly among the tied bidders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AuctionInstance, InterimAllocation
from .virtual import VirtualValueTable

TIE_TOL = 1e-12


@dataclass(frozen=True)
class GreedyConfig:
    """Increment epsilon for the greedy solver.

    1/epsilon must be an integer so that 1/epsilon steps exactly exhaust the
    unit supply and the greedy allocation sums to 1.
    """

    epsilon: float = 1e-3

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        steps = 1.0 / self.epsilon
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("1/epsilon must be an integer")

    @property
    def steps(self) -> int:
        return round(1.0 / self.epsilon)


@dataclass(frozen=True, eq=False)
class ExAnteSolution:
    """Interim allocation proportional to phi^+, plus its normalizer."""

    interim: InterimAllocation
    normalizer: float
    truncated: bool


def pointwise_max(c) -> np.ndarray:
    """All-or-split allocation: 1/|M| to each maximizer if any score > 0."""
    return pointwise_max_batch(np.asarray(c, dtype=np.float64)[None, :])[0]


def pointwise_max_batch(scores: np.ndarray) -> np.ndarray:
    """Row-wise pointwise maximization over a (profiles x bidders) matrix.

    A positive score wins when it is at least (1 - ``TIE_TOL``) times the row's top score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    out = np.zeros_like(scores)
    top = scores.max(axis=1, keepdims=True)
    winners = (scores >= top - TIE_TOL * top) & (scores > 0)
    counts = winners.sum(axis=1, keepdims=True)
    np.divide(winners, counts, out=out, where=counts > 0)
    return out


def eqp_solver(c, config: GreedyConfig = GreedyConfig()) -> np.ndarray:
    """Greedy equi-marginal allocation for the square-root objective.

    Bidders whose sqrt(c_i^+) agree within ``TIE_TOL`` times the largest one
    form a group of m; a group step gives each of them epsilon/m and gains
    sqrt(c^+) * (sqrt(x + eps) - sqrt(x)) at their current share x.  The
    result takes the 1/epsilon largest group-step gains, splitting a tie at
    the last step evenly among the members of the tied groups; all zeros when
    no score is positive.
    """
    return eqp_solver_batch(np.asarray(c, dtype=np.float64)[None, :], config)[0]


def eqp_solver_batch(scores: np.ndarray, config: GreedyConfig = GreedyConfig()) -> np.ndarray:
    """Row-wise greedy equi-marginal allocation, computed from whole group steps.

    Each row is sorted by s = sqrt(c^+); scores within tol = ``TIE_TOL`` times
    the row's largest s of their neighbour form a group of m members that
    share one representative s (the group's largest).  Group step t gives
    each member eps/m and gains
    s * (sqrt(t eps/m + eps) - sqrt(t eps/m)), which falls with t, so the
    greedy takes the S = 1/eps largest step gains of its row.  The step counts
    start at floor(m x_cf / eps) from the closed form and are corrected by an
    exchange; where the S-th gain ties (within tol) across groups, the
    boundary steps are split evenly among all members of the tied groups.
    Everything is computed in sorted order, so permuting a row's columns
    permutes its output exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    out = np.zeros_like(scores)
    live = (scores > 0).any(axis=1)
    if not live.any():
        return out
    eps, total = config.epsilon, config.steps
    root = np.sqrt(np.maximum(scores[live], 0.0))
    order = np.argsort(-root, axis=1, kind="stable")
    s = np.take_along_axis(root, order, axis=1)
    rows, cols = s.shape
    tol = TIE_TOL * s[:, :1]
    head = np.ones_like(s, dtype=bool)
    head[:, 1:] = (s[:, :-1] - s[:, 1:] > tol) | ((s[:, :-1] > 0) != (s[:, 1:] > 0))
    group = np.cumsum(head, axis=1) - 1  # column -> group, groups in score order
    lin = group + cols * np.arange(rows)[:, None]
    m = np.bincount(lin.ravel(), minlength=rows * cols).reshape(rows, cols)
    sg = np.zeros_like(s)  # per group: representative score (the group's first)
    np.put(sg, lin[head], s[head])
    valid = (m > 0) & (sg > 0)
    width = eps / np.maximum(m, 1)  # one group step's share per member

    def frontier(t, s_, w, ok):
        """Gains of each group's next step and of its last taken step."""
        x, prev = t * w, np.maximum(t - 1, 0) * w
        nxt = np.where(ok, s_ * (np.sqrt(x + eps) - np.sqrt(x)), -np.inf)
        last = np.where(ok & (t > 0), s_ * (np.sqrt(prev + eps) - np.sqrt(prev)), np.inf)
        return nxt, last

    weight = (sg / sg[:, :1]) ** 2  # c^+ relative to the row's largest
    share = weight / (weight * m).sum(axis=1, keepdims=True)
    steps = np.where(valid, np.floor(m * share / eps), 0).astype(np.int64)

    # Exchange: add the best untaken step while fewer than S are taken, drop the
    # worst taken one while more are, and swap the two while the best untaken
    # gain exceeds the worst taken one.  Adds and drops come first; in the swap
    # phase the worst taken gain never falls and the best untaken never rises,
    # so no dropped step returns and no swapped-in step leaves: at most
    # |sum(start) - S| + S moves per row, and the loop below ends every row.
    pending = np.arange(rows)
    for _ in range(int(np.abs(steps.sum(axis=1) - total).max()) + total + 1):
        t = steps[pending]
        nxt, last = frontier(t, sg[pending], width[pending], valid[pending])
        used = t.sum(axis=1)
        best, worst = nxt.argmax(axis=1), last.argmin(axis=1)
        r = np.arange(len(pending))
        swap = (used == total) & (nxt[r, best] > last[r, worst])
        add, drop = (used < total) | swap, (used > total) | swap
        if not (add | drop).any():
            break
        steps[pending[add], best[add]] += 1
        steps[pending[drop], worst[drop]] -= 1
        pending = pending[add | drop]
    else:
        raise RuntimeError("greedy exchange did not settle")

    # Ties at the S-th step: free the taken boundary steps and split them
    # evenly among every member of the groups tied there.
    nxt, last = frontier(steps, sg, width, valid)
    cut = last.min(axis=1, keepdims=True)
    waiting = nxt >= cut - tol
    taken = (last <= cut + tol) & waiting.any(axis=1, keepdims=True)
    band = taken.astype(np.int64) + waiting
    freed = taken.sum(axis=1, keepdims=True) * eps
    members = np.maximum((band * m).sum(axis=1, keepdims=True), 1)
    per_group = (steps - taken) * width + band * freed / members
    x = np.take_along_axis(per_group, group, axis=1)
    sorted_back = np.empty_like(x)
    np.put_along_axis(sorted_back, order, x, axis=1)
    out[live] = sorted_back
    return out


def closed_form_alloc(c, alpha: float = 0.5) -> np.ndarray:
    """Optimal shares (c_j^+)^(a/(1-a)) / sum_i (c_i^+)^(a/(1-a)); zeros if no c_i > 0."""
    return closed_form_alloc_batch(np.asarray(c, dtype=np.float64)[None, :], alpha)[0]


def closed_form_alloc_batch(scores: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Row-wise proportional closed form over a (profiles x bidders) matrix."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly in (0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    powered = np.maximum(scores, 0.0) ** (alpha / (1.0 - alpha))
    totals = powered.sum(axis=1, keepdims=True)
    out = np.zeros_like(scores)
    np.divide(powered, totals, out=out, where=totals > 0)
    return out


def ex_ante_closed_form(
    instance: AuctionInstance, table: VirtualValueTable, truncate: bool
) -> ExAnteSolution:
    """Interim allocation proportional to phi^+, normalized by sum_i E[phi_i^+].

    The untruncated solution saturates the ex-ante supply constraint exactly;
    entries may exceed 1.  With ``truncate`` they are capped at 1 afterwards,
    with no re-normalization (re-normalizing would change the bound).
    """
    expectations = [
        float(instance.pmf(i) @ table.phi_plus[i]) for i in range(instance.n)
    ]
    normalizer = float(sum(expectations))
    if normalizer <= 0:
        interim = tuple(np.zeros(instance.shape[i]) for i in range(instance.n))
        return ExAnteSolution(InterimAllocation(interim), 0.0, truncate)
    interim = [table.phi_plus[i] / normalizer for i in range(instance.n)]
    if truncate:
        interim = [np.minimum(t, 1.0) for t in interim]
    return ExAnteSolution(InterimAllocation(tuple(interim)), normalizer, truncate)
