"""Profile spaces: the cells a pipeline's tables are indexed by.

A pipeline works on *blocks*.  A block is one bidder's cells as an
``(own type x context)`` matrix, with a probability for each context.  The
chain payment formula, the monotone clamp, the IC/IR/BIC/BIR checks, the
interim collapse and every expectation are written once over such matrices
(``payments.chain``, ``mechanisms``, ``oracle.check``).  Two spaces supply
the blocks:

* ``DenseSpace`` (any instance).  Tables are ``(n, K_0, ..., K_{n-1})`` in
  the lexicographic order documented in ``core``.  Bidder i's block is its
  table with the own-type axis moved first and the other bidders' profiles
  as columns, weighted by ``instance.context_pmf(i)``.
* ``OrbitSpace`` (symmetric instances).  With i.i.d. bidders every pointwise
  rule depends only on a bidder's own type k and the multiset of the other
  bidders' types, a *context* c counting how many of the n - 1 others hold
  each type.  Tables are ``(K, C)`` with C = C(n+K-2, K-1) contexts, each
  weighted by its multinomial probability (n-1)!/prod c_j! * prod f_j^c_j.
  One block stands for all n bidders: K * C cells in place of n * K^n.

Only two things differ between the spaces: the engine input (``groups``, one
row per full type profile and one column per group of same-score bidders,
with the group sizes) and the cell layout (``index``, ``profile`` and
``multiplicity``), through which ``cells``, the ex-post supply check, the
exact oracle's constraints and the rounding read the tables.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import AuctionInstance, own_type_matrix
from .virtual import VirtualValueTable, is_regular, virtual_values


class Block(NamedTuple):
    """One bidder's cells: own types as rows, contexts as columns."""

    bidder: int  # the bidder whose values and pmf the rows use
    values: np.ndarray
    gaps: np.ndarray
    pmf: np.ndarray
    count: int  # bidders the block stands for


def _block(instance: AuctionInstance, i: int, count: int) -> Block:
    return Block(i, instance.values(i), instance.space(i).gaps, instance.pmf(i), count)


class ProfileSpace:
    """Tables of one layout, and the per-block views the kernels work on."""

    instance: AuctionInstance
    shape: tuple[int, ...]  # the table shape
    blocks: tuple[Block, ...]
    weights: tuple[np.ndarray, ...]  # probability of each context, per block
    # the cell layout, stated once: every cell's flat index, per block
    # (``index``); and as tables, the full type profile each cell lies in, and
    # how many bidders' shares at that profile the cell stands for
    profile: np.ndarray
    multiplicity: np.ndarray

    def split(self, table: np.ndarray) -> list[np.ndarray]:
        """One ``(own type x context)`` matrix per block."""
        raise NotImplementedError

    def join(self, mats: list[np.ndarray]) -> np.ndarray:
        """The table whose blocks are ``mats``; inverse of ``split``."""
        raise NotImplementedError

    @cached_property
    def index(self) -> list[np.ndarray]:
        return self.split(np.arange(math.prod(self.shape)).reshape(self.shape))

    def groups(self, scores: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray | int]:
        """Engine input from one own-type score vector per block: a (P, G)
        score matrix, one row per full type profile as numbered in ``profile``
        and G = ``shape[0]`` groups of same-score bidders, and the group sizes."""
        raise NotImplementedError

    def cells(self, out: np.ndarray) -> np.ndarray:
        """The allocation table from the engine's (P, G) output for ``groups``:
        cell (a, ...) is row ``profile[a, ...]`` of column a, which starts at
        a * P in the column-major output."""
        g = self.shape[0]
        column = np.arange(g).reshape((g,) + (1,) * (len(self.shape) - 1))
        return out.T.ravel()[column * len(out) + self.profile]

    @cached_property
    def virtual(self) -> tuple[VirtualValueTable, tuple[bool, ...]]:
        """The instance's virtual values and each bidder's regularity."""
        table = virtual_values(self.instance)
        return table, is_regular(table)

    def supply(self, table: np.ndarray) -> float:
        """Worst excess of the bidders' total share over 1 at any profile."""
        shares = (self.multiplicity * table).ravel()
        return float(np.bincount(self.profile.ravel(), shares).max()) - 1.0

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
    """Every profile of any instance; one block per bidder."""

    def __init__(self, instance: AuctionInstance):
        self.instance = instance
        self.shape = (instance.n, *instance.shape)
        self.multiplicity = np.broadcast_to(1.0, self.shape)

    @cached_property
    def blocks(self):
        return tuple(_block(self.instance, i, 1) for i in range(self.instance.n))

    @cached_property
    def weights(self):
        return tuple(self.instance.context_pmf(i).ravel() for i in range(self.instance.n))

    def split(self, table):
        # contiguous, so every block's products take the same NumPy path
        return [np.ascontiguousarray(np.moveaxis(table[i], i, 0).reshape(k, -1))
                for i, k in enumerate(self.instance.shape)]

    def join(self, mats):
        shape = self.instance.shape
        out = np.empty((len(shape), *shape))
        for i, m in enumerate(mats):
            own_first = m.reshape(shape[i], *shape[:i], *shape[i + 1 :])
            out[i] = np.moveaxis(own_first, 0, i)
        return out

    def groups(self, scores):
        # bidder i's score in column i, a group of one
        return own_type_matrix(self.instance, scores).reshape(self.instance.n, -1).T, 1

    @cached_property
    def profile(self):
        # bidder i's share at profile v is cell (i, v)
        size = math.prod(self.instance.shape)
        return np.tile(np.arange(size), self.instance.n).reshape(self.shape)


def _compositions(total: int, binom: np.ndarray) -> np.ndarray:
    """Every count vector over K types summing to ``total``, one row each in rank
    order (``OrbitSpace``), column-major.  Rank r is decoded last bar first: for
    j = K-1 down to 1, b_j is the largest b with C(b, j) = ``binom[b, j]`` at
    most r, and r -= C(b_j, j)."""
    k = binom.shape[1]
    bars = np.empty((k + 1, math.comb(total + k - 1, k - 1)), dtype=np.int64)
    bars[0], bars[k] = -1, total + k - 1
    rank = np.arange(bars.shape[1])
    for j in range(k - 1, 0, -1):
        bars[j] = np.searchsorted(binom[:, j], rank, side="right") - 1
        rank -= binom[bars[j], j]
    return (np.diff(bars, axis=0) - 1).T


class OrbitSpace(ProfileSpace):
    """Symmetric instances: cells (own type, context), one block for all bidders.

    Contexts are indexed by their rank in the combinatorial number system, so
    the index of any count vector is computed, not searched for: the bars
    b_j = c_0 + ... + c_j + j are a (K-1)-subset, ranked as sum_j C(b_j, j+1),
    which orders c_{K-1} descending, then c_{K-2} descending, and so on.  The
    layout is built on first use: the ex-ante rows read only the block, at any n.
    """

    def __init__(self, instance: AuctionInstance):
        if not instance.is_symmetric():
            raise ValueError("orbit space needs identically distributed bidders")
        n, k = instance.n, instance.shape[0]
        self.instance = instance
        self.shape = (k, math.comb(n + k - 2, k - 1))
        self.blocks = (_block(instance, 0, n),)

    @cached_property
    def _binom(self) -> np.ndarray:
        # binom[a, j] = C(a, j), for the ranks of full type profiles (``profile``)
        n, k = self.instance.n, self.shape[0]
        return np.array([[math.comb(a, j) for j in range(k)] for a in range(n + k - 1)], np.int64)

    @cached_property
    def profiles(self) -> np.ndarray:
        # every full type profile's counts, in the smallest signed integer type
        # that holds n (one that holds -(n+1) does); the first C profiles hold
        # a type-(K-1) bidder, and less that bidder they are the contexts
        n = self.instance.n
        return _compositions(n, self._binom).astype(np.min_scalar_type(-n - 1))

    @cached_property
    def contexts(self) -> np.ndarray:
        contexts = self.profiles[: self.shape[1]].copy()
        contexts[:, -1] -= 1
        return contexts

    @cached_property
    def weights(self):
        # multinomial probabilities in log space: factorials overflow a float from 171 on
        n = self.instance.n
        log_factorial = np.array([math.lgamma(a + 1) for a in range(n)])
        log_weight = log_factorial[n - 1] - log_factorial[self.contexts].sum(axis=1)
        return (np.exp(log_weight + self.contexts @ np.log(self.instance.pmf(0))),)

    @cached_property
    def multiplicity(self):
        return self.contexts.T + 1.0  # cell (k, c) is c_k + 1 bidders

    def split(self, table):
        return [table]

    def join(self, mats):
        return mats[0]

    @cached_property
    def _present(self) -> np.ndarray:
        return self.profiles.T > 0

    def groups(self, scores):
        # type k's score in column k, a group of its count; absent types score
        # 0 (or -0), which no engine lets compete
        return (scores[0][:, None] * self._present).T, self.profiles

    @cached_property
    def profile(self):
        # cell (k, c) is one of the c_k + 1 type-k bidders at full type count
        # m = c + e_k, so the total share at m is sum_k m_k x(k, m - e_k).  m's
        # bars are c's plus one from j = k on: rank
        # sum_{j<k} C(b_j, j+1) + sum_{j>=k} C(b_j+1, j+1)
        k, c = self.shape
        j = np.arange(k - 1)[:, None]
        bars = np.cumsum(self.contexts.T[:-1], axis=0, dtype=np.int64) + j
        profile = np.zeros((k, c), dtype=np.int64)
        np.cumsum(self._binom[bars, j + 1], axis=0, out=profile[1:])
        profile[:-1] += np.cumsum(self._binom[bars + 1, j + 1][::-1], axis=0)[::-1]
        return profile
