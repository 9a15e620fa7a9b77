"""Profile spaces: the cells a pipeline's tables are indexed by.

A pipeline works on *blocks*.  A block is one bidder's cells as an
``(own type x context)`` matrix, with a probability for each context.  The
chain payment formula, the monotone clamp, the IC/IR/BIC/BIR checks, the
interim collapse and every expectation are written once over such matrices
(``payments.chain``, ``mechanisms``, ``oracle.check``).

A ``ProfileSpace`` takes the bidders in *classes*, runs of identically
distributed bidders.  A pointwise rule sees a profile only through each
class's type counts, so one block stands for all n_c bidders of class c: its
contexts count the types of the class's other n_c - 1 bidders and of every
other class, weighted by the product of the counts' multinomial
probabilities.  A class's count vectors are ranked in the combinatorial
number system (``_compositions``), profiles and contexts in mixed radix over
the classes, class 0 slowest.  The engine (``groups``) reads one row per
profile and one column per class of one bidder, holding its score, or per
type of a larger class, sized by its count; the table holds each column's
cells in turn, one per profile its bidder lies in.  ``DenseSpace`` is n
classes of one: ``(n, K_0, ..., K_{n-1})`` tables in the order of ``core``.
``OrbitSpace`` is one class of n: ``(K, C)`` tables, C = C(n+K-2, K-1)
contexts, K * C cells in place of n * K^n, and the dense layout at n = 1.
Other classes give a flat table.  ``cells``, the supply check, the exact
oracle's constraints and the rounding read the cells through ``index``,
``profile`` and ``multiplicity``.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .core import AuctionInstance
from .virtual import VirtualValueTable, is_regular, virtual_values


_SUPPLY_CELLS = 2**16  # per slice of the supply check; 1 MB of shares


class Block(NamedTuple):
    """One class's cells: own types as rows, contexts as columns."""

    bidder: int  # the class's first bidder, whose values and pmf the rows use
    values: np.ndarray
    gaps: np.ndarray
    pmf: np.ndarray
    count: int  # bidders the block stands for


def _read_only(a: np.ndarray) -> np.ndarray:
    # a layout array is shared by every table of its space, so none may write it
    a.setflags(write=False)
    return a


def _compositions(total: int, k: int) -> np.ndarray:
    """Every count vector over K types summing to ``total``, one row each in rank
    order, column-major.  Counted from the top type, the bars
    b_j = c_{K-1} + ... + c_{K-1-j} + j are a (K-1)-subset, ranked as
    sum_j C(b_j, j+1); so the unit vector e_k has rank k.  Rank r is decoded
    last bar first: b_{j-1} is the largest b with C(b, j) = ``binom[b, j]`` at
    most r, and r -= C(b_{j-1}, j)."""
    binom = np.array([[math.comb(a, j) for j in range(k)] for a in range(total + k - 1)], np.int64)
    bars = np.empty((k + 1, math.comb(total + k - 1, k - 1)), dtype=np.int64)
    bars[0], bars[k] = -1, total + k - 1
    rank = np.arange(bars.shape[1])
    for j in range(k - 1, 0, -1):
        bars[j] = np.searchsorted(binom[:, j], rank, side="right") - 1
        rank -= binom[bars[j], j]
    return (np.diff(bars, axis=0)[::-1] - 1).T


class ProfileSpace:
    """Tables over the type profiles of ``instance``, whose bidders come in
    ``classes``: the sizes of consecutive runs of identical bidders.  The
    layout is built on first use: the ex-ante rows read only the blocks."""

    def __init__(self, instance: AuctionInstance, classes: tuple[int, ...]):
        firsts = tuple(accumulate(classes[:-1], initial=0))
        if sum(classes) != instance.n or min(classes) < 1:
            raise ValueError("classes must split the bidders into runs")
        for i, size in zip(firsts, classes):
            space, dist = instance.bidders[i]
            if not all(np.array_equal(s.values, space.values) and np.array_equal(d.pmf, dist.pmf)
                       # only other objects: symmetric_instance shares one pair
                       for s, d in set(instance.bidders[i + 1 : i + size]) - {(space, dist)}):
                raise ValueError("a class needs identically distributed bidders")
        self.instance, self.classes, self._firsts = instance, classes, firsts
        self._types = [instance.space(i).size for i in firsts]
        self._sizes = [math.comb(n + k - 1, k - 1) for n, k in zip(classes, self._types)]
        # per class, its engine columns and the grid of each column's cells: a
        # class of one is one column over every profile; a larger class is one
        # column per type, whose cells count its other bidders on its own axis
        self._columns = []
        for c, (n, k) in enumerate(zip(classes, self._types)):
            grid = (*self._sizes[:c], math.comb(n + k - 2, k - 1), *self._sizes[c + 1 :])
            self._columns.append((1, tuple(self._sizes)) if n == 1 else (k, grid))
        grids = {grid for _, grid in self._columns}
        self.shape = ((sum(g for g, _ in self._columns), *grids.pop()) if len(grids) == 1
                      else (sum(g * math.prod(grid) for g, grid in self._columns),))

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        inst = self.instance
        return tuple(Block(i, inst.values(i), inst.space(i).gaps, inst.pmf(i), n)
                     for i, n in zip(self._firsts, self.classes))

    @cached_property
    def profiles(self) -> tuple[np.ndarray, ...]:
        """Per class, its bidders' type counts at each of its profiles, in the
        smallest signed integer type that holds -(n_c+1)."""
        return tuple(_compositions(n, k).astype(np.min_scalar_type(-n - 1))
                     for n, k in zip(self.classes, self._types))

    @cached_property
    def contexts(self) -> tuple[np.ndarray, ...]:
        """Per class, the type counts of its bidders but one, row-major: its
        first C(n_c+K_c-2, K_c-1) profiles, which hold a type-0 bidder, less it."""
        return tuple(np.ascontiguousarray(p[: math.comb(n + k - 2, k - 1)]
                                          - np.eye(k, dtype=p.dtype)[0])
                     for n, k, p in zip(self.classes, self._types, self.profiles))

    def _chances(self, c: int, others: bool) -> np.ndarray:
        """Probability of each count vector of class c's m bidders (all but one
        if ``others``): m!/prod c_j! * prod f_j^c_j in log space, as factorials
        overflow a float from 171 on; for m = 1 the pmf, bit for bit."""
        m, pmf = self.classes[c] - others, self.blocks[c].pmf
        if m < 2:
            return pmf if m else np.ones(1)
        counts = (self.contexts if others else self.profiles)[c]
        log_factorial = np.array([math.lgamma(a + 1) for a in range(m + 1)])
        return np.exp(log_factorial[m] - log_factorial[counts].sum(axis=1) + counts @ np.log(pmf))

    @cached_property
    def weights(self) -> tuple[np.ndarray, ...]:
        """Probability of each context, per block; multiplied left to right in
        class order, as ``context_pmf`` does."""
        return tuple(_read_only(reduce(np.multiply.outer, [self._chances(d, d == c) for d in range(
            len(self.classes))]).ravel()) for c in range(len(self.classes)))

    @cached_property
    def index(self) -> tuple[np.ndarray, ...]:
        """Every cell's flat index, per block: a column's cells in mixed radix
        over its grid, after the cells of the columns before it."""
        out, start = [], 0
        for c, (g, grid) in enumerate(self._columns):
            cells = np.arange(start, start + g * math.prod(grid)).reshape(g, *grid)
            # own types lie along a class of one's axis, or a larger class's columns
            own = c + 1 if self.classes[c] == 1 else 0
            # row-major, so that every block's gathers come out row-major too
            out.append(_read_only(np.ascontiguousarray(
                cells.swapaxes(0, own).reshape(self._types[c], -1))))
            start += cells.size
        return tuple(out)

    def split(self, table: np.ndarray) -> list[np.ndarray]:
        """One ``(own type x context)`` matrix per block: a view of the table
        for a larger class, whose cells are one run of it in order."""
        flat = table.reshape(-1)
        return [flat[c[0, 0] : c[0, 0] + c.size].reshape(c.shape) if n > 1 else flat[c]
                for c, n in zip(self.index, self.classes)]

    def join(self, mats: list[np.ndarray]) -> np.ndarray:
        """The table whose blocks are ``mats``; inverse of ``split``."""
        out = np.empty(self.shape, np.result_type(*mats))
        for cells, m in zip(self.index, mats):
            out.reshape(-1)[cells] = m
        return out

    def _columns_of(self, rows: list[np.ndarray]) -> np.ndarray:
        """(P, G) engine columns from one (columns x class profiles) matrix per
        class, each laid along its class's axis of the profile grid."""
        if len(rows) == 1:  # one class: its rows are the columns
            return rows[0].T
        m = len(self.classes)
        out = np.empty((sum(map(len, rows)), *self._sizes), np.result_type(*rows))
        start = 0
        for c, r in enumerate(rows):
            out[start : start + len(r)] = r.reshape(len(r), *(1,) * c, -1, *(1,) * (m - 1 - c))
            start += len(r)
        return out.reshape(len(out), -1).T

    @cached_property
    def _column_sizes(self) -> np.ndarray:
        # a class of one's column holds one bidder, a type's its count
        return self._columns_of([np.ones((1, k), np.int8) if n == 1 else self.profiles[c].T
                                 for c, (n, k) in enumerate(zip(self.classes, self._types))])

    def groups(self, scores: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Engine input from one own-type score vector per block: a (P, G) score
        matrix, one row per full type profile in mixed radix and one column per
        class of one (its bidder's score, size 1) or type of a larger class (its
        score, sized by its count), and the (P, G) column sizes.  An absent type
        scores 0 (or -0), which no engine lets compete."""
        rows = [s[None] if n == 1 else s[:, None] * (self.profiles[c].T > 0)
                for c, (n, s) in enumerate(zip(self.classes, scores))]
        return self._columns_of(rows), self._column_sizes

    @cached_property
    def _at(self) -> np.ndarray:
        # each cell's index in the engine's (G, P) output: its column's profiles with
        # bidders, in order, since adding a type-k bidder keeps contexts' rank order
        return np.flatnonzero(self._column_sizes.T).reshape(self.shape)

    @property
    def profile(self) -> np.ndarray:
        """The full type profile each cell lies in; derived on each call, since
        keeping it would hold one more index per cell of an orbit table."""
        return _read_only(self._at % len(self._column_sizes))

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """How many bidders' shares at its profile each cell stands for (c_k + 1)."""
        return _read_only(self.cells(self._column_sizes).astype(np.float64))

    def cells(self, out: np.ndarray) -> np.ndarray:
        """The table from the engine's (P, G) output for ``groups``: each
        column's rows at its cells' ``profile``."""
        return out.T.ravel()[self._at]

    @cached_property
    def virtual(self) -> tuple[VirtualValueTable, tuple[bool, ...]]:
        """phi and phi^+ per block, and its regularity: one K-vector per class,
        its first bidder's, which is bit for bit each of its bidders' own."""
        table = virtual_values(self.instance, self._firsts)
        return table, is_regular(table)

    def supply(self, table: np.ndarray) -> float:
        """Worst excess of the bidders' total share over 1 at any profile,
        summed a slice of cells at a time, in order, as one ``bincount`` is."""
        at, mult, table = self._at.ravel(), self.multiplicity.ravel(), table.ravel()
        total = np.zeros(len(self._column_sizes))
        for s in range(0, len(at), _SUPPLY_CELLS):
            cells = slice(s, s + _SUPPLY_CELLS)
            # each cell's profile, as ``profile`` reads it, gets its shares
            np.add.at(total, at[cells] % len(total), mult[cells] * table[cells])
        return float(total.max()) - 1.0

    def collapse(self, mats) -> tuple[np.ndarray, ...]:
        """Expectation over contexts: one own-type vector per block."""
        return tuple(m @ w for m, w in zip(mats, self.weights))

    def mean(self, vectors) -> float:
        """Sum over bidders of the expectation of an own-type vector."""
        return float(sum(b.count * (b.pmf @ v) for b, v in zip(self.blocks, vectors)))

    def expect(self, mats) -> float:
        """Sum over bidders of the expectation of a per-cell quantity."""
        return self.mean(self.collapse(mats))


class DenseSpace(ProfileSpace):
    """Every profile of any instance: n classes of one bidder.  Every dense
    space of one instance reads and fills one layout, kept on the instance
    (as ``AuctionInstance.joint_pmf`` is), so the layout is built once."""

    # the instance is kept out of the shared layout: a layout that referred to
    # it would make a cycle, which only the garbage collector frees, often
    # long after the instance is dropped
    __slots__ = ("instance",)

    def __init__(self, instance: AuctionInstance):
        self.__dict__ = instance.__dict__.setdefault("dense_layout", {})
        if self.__dict__:
            self.instance = instance
        else:
            super().__init__(instance, (1,) * instance.n)


class OrbitSpace(ProfileSpace):
    """Type-count orbits of identically distributed bidders: one class of n."""

    def __init__(self, instance: AuctionInstance):
        super().__init__(instance, (instance.n,))
