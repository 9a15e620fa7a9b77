"""Domain types for discrete-type auctions with convex perceived payments.

Each bidder draws a private type from a finite, strictly increasing grid of
non-negative values with a full-support probability mass function.  Bidders
are independent, so the joint distribution over type profiles is the product
of the per-bidder pmfs.

Profiles are ordered lexicographically with bidder 0 as the slowest index.
That order is the contract for every table in this package: ex-post
allocation and payment tables are ndarrays of shape ``(n, K_0, ..., K_{n-1})``
indexed by ``[bidder][type index of bidder 0]...[type index of bidder n-1]``,
and flattened profile indices in CSV or serialized output use the same
C-order convention.  Pipelines may also run on a space of bidder classes
(``spaces``): ``experiment`` uses one class of n, with ``(K, C)`` tables of
type counts, C = C(n+K-2, K-1).  Every serialized table stays dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce

import numpy as np

DEFAULT_TOL = 1e-9
PMF_TOL = 1e-12


def grid_steps(name: str, step: float, top: float = 1.0) -> int:
    """1/step for a step in (0, top] with an integer inverse; else a ValueError naming it."""
    if not 0 < step <= top:
        raise ValueError(f"{name} must lie in (0, {top:g}]")
    steps = 1.0 / step
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"1/{name} must be an integer")
    return round(steps)


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _finite_array(values) -> np.ndarray:
    """Read-only float copy of a constructor's input; rejects NaN and inf."""
    arr = _frozen_array(values)
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite (got NaN or inf)")
    return arr


@dataclass(frozen=True, eq=False)
class TypeSpace:
    """Sorted grid of non-negative bidder types z_1 < ... < z_K.

    The one-past-the-end sentinel z_{K+1} = z_K is realized by index
    clamping (see ``gaps``), not by an extra stored entry.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("type space needs at least one value")
        if arr[0] < 0:
            raise ValueError("type values must be non-negative")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("type values must be strictly increasing")
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return int(self.values.size)

    @cached_property
    def gaps(self) -> np.ndarray:
        """z_{k+1} - z_k per index, with 0 at the top (sentinel z_{K+1} = z_K)."""
        g = np.zeros(self.size)
        if self.size > 1:
            g[:-1] = np.diff(self.values)
        return _frozen_array(g)


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Full-support pmf aligned with a TypeSpace, plus its cdf."""

    pmf: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.pmf)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf needs at least one entry")
        if np.any(arr <= 0) or np.any(arr > 1):
            raise ValueError("pmf entries must lie in (0, 1]")
        if abs(arr.sum() - 1.0) > PMF_TOL:
            raise ValueError(f"pmf must sum to 1 (got {arr.sum()!r})")
        object.__setattr__(self, "pmf", arr)

    @cached_property
    def cdf(self) -> np.ndarray:
        return _frozen_array(np.cumsum(self.pmf))


@dataclass(frozen=True, eq=False)
class AuctionInstance:
    """n independent bidders, each a (TypeSpace, DiscreteDistribution) pair."""

    bidders: tuple[tuple[TypeSpace, DiscreteDistribution], ...]

    def __post_init__(self):
        bidders = tuple(map(tuple, self.bidders))
        if not bidders:
            raise ValueError("instance needs at least one bidder")
        for space, dist in set(bidders):
            if space.size != dist.pmf.size:
                raise ValueError("type space and pmf lengths differ")
        object.__setattr__(self, "bidders", bidders)

    @property
    def n(self) -> int:
        return len(self.bidders)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(space.size for space, _ in self.bidders)

    def space(self, i: int) -> TypeSpace:
        return self.bidders[i][0]

    def dist(self, i: int) -> DiscreteDistribution:
        return self.bidders[i][1]

    def values(self, i: int) -> np.ndarray:
        return self.bidders[i][0].values

    def pmf(self, i: int) -> np.ndarray:
        return self.bidders[i][1].pmf

    @cached_property
    def joint_pmf(self) -> np.ndarray:
        """f(v) over the full profile grid, shape ``self.shape``."""
        out = reduce(np.multiply.outer, (self.pmf(i) for i in range(self.n)))
        return _frozen_array(np.asarray(out).reshape(self.shape))

    def context_pmf(self, i: int) -> np.ndarray:
        """f_{-i}(v_{-i}) over the other bidders' grid (scalar 1.0 if n == 1)."""
        others = [self.pmf(j) for j in range(self.n) if j != i]
        if not others:
            return np.ones(())
        return np.asarray(reduce(np.multiply.outer, others))

    def check_table(self, what: str, table) -> None:
        """Raise ValueError naming ``what`` unless ``table`` is an ndarray of
        shape ``(n, *shape)`` or n interim vectors of lengths K_i."""
        dense = isinstance(table, np.ndarray)
        got = table.shape if dense else [np.shape(v) for v in table]
        if got != ((self.n, *self.shape) if dense else [(k,) for k in self.shape]):
            raise ValueError(f"{what} does not match instance dimensions")


def symmetric_instance(
    space: TypeSpace, dist: DiscreteDistribution, n: int
) -> AuctionInstance:
    """n identical bidders sharing one type space and pmf."""
    if n < 1:
        raise ValueError("need at least one bidder")
    return AuctionInstance(((space, dist),) * n)


# ---------------------------------------------------------------------------
# Distribution constructors used in the experiments
# ---------------------------------------------------------------------------


def make_categorical(
    low: float, high: float, p_low: float
) -> tuple[TypeSpace, DiscreteDistribution]:
    """Two-point type space {low, high} with pmf {p_low, 1 - p_low}."""
    if not 0 <= low < high:
        raise ValueError("need 0 <= low < high")
    if not 0 < p_low < 1:
        raise ValueError("p_low must lie strictly in (0, 1)")
    return TypeSpace(np.array([low, high])), DiscreteDistribution(
        np.array([p_low, 1.0 - p_low])
    )


def make_uniform(points: int) -> tuple[TypeSpace, DiscreteDistribution]:
    """Uniform pmf on the grid {0, 1/(points-1), ..., 1}; {0} if points == 1."""
    if points < 1:
        raise ValueError("points must be >= 1")
    if points == 1:
        values = np.array([0.0])
    else:
        values = np.linspace(0.0, 1.0, points)
    return TypeSpace(values), DiscreteDistribution(np.full(points, 1.0 / points))


def make_binomial(trials: int, p: float) -> tuple[TypeSpace, DiscreteDistribution]:
    """Types {0, ..., trials} with pmf C(trials, k) p^k (1-p)^(trials-k); from
    1,030 trials on, C(trials, k) overflows a float and a ValueError says so."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < p < 1:
        raise ValueError("p must lie strictly in (0, 1)")
    try:
        pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    except OverflowError:
        raise ValueError(f"{trials} trials: C({trials}, k) is too large for a float") from None
    return TypeSpace(np.arange(trials + 1.0)), DiscreteDistribution(pmf)


# ---------------------------------------------------------------------------
# Allocation and payment tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExPostAllocation:
    """Per-bidder allocation fraction x_i(v), shape ``(n, K_0, ..., K_{n-1})``."""

    table: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.table)
        if arr.ndim < 2 or arr.shape[0] != arr.ndim - 1:
            raise ValueError("table must have shape (n, K_0, ..., K_{n-1})")
        if np.any(arr < -DEFAULT_TOL) or np.any(arr > 1 + DEFAULT_TOL):
            raise ValueError("allocation entries must lie in [0, 1]")
        object.__setattr__(self, "table", arr)

    def is_feasible(self) -> bool:
        """Ex-post feasible: the bidders' shares sum to at most 1 everywhere."""
        return bool(np.all(self.table.sum(axis=0) <= 1 + DEFAULT_TOL))

    def is_monotone(self) -> bool:
        """Each bidder's share is non-decreasing in their own type."""
        return all(np.all(np.diff(t, axis=i) >= -DEFAULT_TOL) for i, t in enumerate(self.table))


@dataclass(frozen=True, eq=False)
class InterimAllocation:
    """Per-bidder expected allocation over others' types; ragged per bidder.

    Entries are non-negative but may exceed 1 for relaxed (untruncated)
    solutions; truncated producers cap them at 1 themselves.
    """

    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        tabs = tuple(_finite_array(t) for t in self.tables)
        for t in tabs:
            if t.ndim != 1:
                raise ValueError("interim tables are one vector per bidder")
            if np.any(t < -DEFAULT_TOL):
                raise ValueError("interim allocation entries must be >= 0")
        object.__setattr__(self, "tables", tabs)

    def is_monotone(self) -> bool:
        return all(np.all(np.diff(t) >= -DEFAULT_TOL) for t in self.tables)


@dataclass(frozen=True, eq=False)
class RobustPaymentRule:
    """Actual payments p_i(v) >= 0 per profile; perceived payment is p_i^2."""

    table: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.table)
        if np.any(arr < -DEFAULT_TOL):
            raise ValueError("payments must be non-negative")
        object.__setattr__(self, "table", arr)


@dataclass(frozen=True, eq=False)
class InterimPaymentRule:
    """Deterministic per-type payments h_i(v_i) >= 0; ragged per bidder."""

    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        tabs = tuple(_finite_array(t) for t in self.tables)
        for t in tabs:
            if np.any(t < -DEFAULT_TOL):
                raise ValueError("payments must be non-negative")
        object.__setattr__(self, "tables", tabs)


class ObjectiveKind(str, Enum):
    REVENUE_ROBUST = "revenue_robust"
    REVENUE_BAYESIAN = "revenue_bayesian"
    PSEUDO_SURPLUS = "pseudo_surplus"
    SURPLUS = "surplus"
    HEURISTIC_LOWER_BOUND = "heuristic_lower_bound"
    EX_ANTE_RELAXATION = "ex_ante_relaxation"  # a relaxation's value, not a bound
    EXACT_ORACLE = "exact_oracle"


@dataclass
class MechanismReport:
    """Objective value under ``kind``, realized revenue, warnings, and an exact
    optimum's certified gap and Newton steps; whoever runs a method times and
    verifies it."""

    objective_value: float
    kind: ObjectiveKind
    revenue: float | None = None
    warnings: tuple[str, ...] = ()
    grid_slack: float | None = None
    newton_steps: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.objective_value) or self.objective_value < -DEFAULT_TOL:
            raise ValueError("objective value must be finite and non-negative")
        self.objective_value = max(0.0, float(self.objective_value))
