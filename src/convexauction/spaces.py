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

Only three things differ between the spaces: the engine score row built for
each cell (``rows`` and ``cells``), the closed form's input (``sums``: on
orbits each cell's own score beside ``contexts @ score``, the other bidders'
sum), and the cell layout (``index``, ``profile`` and ``multiplicity``), which
the ex-post supply check, the exact oracle's constraints and the rounding read.
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
    # the cell layout, stated once: every cell's flat index, per block; and as
    # tables, the full type profile each cell lies in, and how many bidders'
    # shares at that profile the cell stands for
    index: list[np.ndarray]
    profile: np.ndarray
    multiplicity: np.ndarray

    def split(self, table: np.ndarray) -> list[np.ndarray]:
        """One ``(own type x context)`` matrix per block."""
        raise NotImplementedError

    def join(self, mats: list[np.ndarray]) -> np.ndarray:
        """The table whose blocks are ``mats``; inverse of ``split``."""
        raise NotImplementedError

    def rows(self, scores: list[np.ndarray]) -> np.ndarray:
        """Engine input: every bidder's score at each cell, shape (cells, n).

        ``scores`` holds one own-type score vector per block.
        """
        raise NotImplementedError

    def sums(self, scores: list[np.ndarray]) -> np.ndarray:
        """Closed-form engine input, read back by ``cells``: ``rows``, or at
        alpha = 1/2 the own score beside the sum of the other positive scores."""
        return self.rows(scores)

    def cells(self, rows: np.ndarray) -> np.ndarray:
        """The allocation table from the engine's output for ``rows``."""
        raise NotImplementedError

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
        self.blocks = tuple(_block(instance, i, 1) for i in range(instance.n))
        self.multiplicity = np.broadcast_to(1.0, self.shape)

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

    def rows(self, scores):
        return own_type_matrix(self.instance, scores).reshape(self.instance.n, -1).T

    def cells(self, rows):
        return rows.T.reshape(self.instance.n, *self.instance.shape)

    @cached_property
    def profile(self):
        # bidder i's share at profile v is cell (i, v)
        size = math.prod(self.instance.shape)
        return np.tile(np.arange(size), self.instance.n).reshape(self.shape)

    @cached_property
    def index(self):
        return [i * self.profile[0].size + v for i, v in enumerate(self.split(self.profile))]


def _compositions(total: int, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every count vector over len(pmf) types summing to ``total``, in rank
    order (``OrbitSpace``), and its multinomial probability total!/prod c_j! *
    prod pmf_j^c_j in log space: the factorials overflow a float from 171 on."""
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total])
    for _ in pmf[1:]:
        # each row branches into every count left..0 for this type, last type first
        reps = left + 1
        c = np.repeat(np.cumsum(reps) - 1, reps) - np.arange(reps.sum())
        counts = np.column_stack([np.repeat(counts, reps, axis=0), c])
        left = np.repeat(left, reps) - c
    counts = np.ascontiguousarray(np.column_stack([counts, left])[:, ::-1])
    log_factorial = np.array([math.lgamma(a + 1) for a in range(total + 1)])
    log_weight = log_factorial[total] - log_factorial[counts].sum(axis=1) + counts @ np.log(pmf)
    return counts, np.exp(log_weight)


class OrbitSpace(ProfileSpace):
    """Symmetric instances: cells (own type, context), one block for all bidders.

    Contexts are indexed by their rank in the combinatorial number system, so
    the index of any count vector is computed, not searched for: the bars
    b_j = c_0 + ... + c_j + j are a (K-1)-subset, ranked as sum_j C(b_j, j+1),
    which orders c_{K-1} descending, then c_{K-2} descending, and so on.
    """

    def __init__(self, instance: AuctionInstance):
        if not instance.is_symmetric():
            raise ValueError("orbit space needs identically distributed bidders")
        n, k = instance.n, instance.shape[0]
        self.instance = instance
        # binom[a, j] = C(a, j), for the ranks of full type profiles (``profile``)
        self._binom = np.array(
            [[math.comb(a, j) for j in range(k)] for a in range(n + k - 1)], dtype=np.int64
        )
        self.contexts, weights = _compositions(n - 1, instance.pmf(0))
        self.shape = (k, len(self.contexts))
        self.weights = (weights,)
        self.blocks = (_block(instance, 0, n),)
        self.multiplicity = self.contexts.T + 1.0  # cell (k, c) is c_k + 1 bidders

    def split(self, table):
        return [table]

    def join(self, mats):
        return mats[0]

    def rows(self, scores):
        s = scores[0]
        k, c, n = s.size, len(self.contexts), self.instance.n
        own = np.broadcast_to(s[:, None, None], (k, c, 1))
        # the other bidders' scores, by ascending type, at each context
        others = np.repeat(np.tile(s, c), self.contexts.ravel()).reshape(c, n - 1)
        others = np.broadcast_to(others, (k, c, n - 1))
        return np.concatenate([own, others], axis=2).reshape(k * c, n)

    def sums(self, scores):
        s = scores[0]
        out = np.empty((s.size, len(self.contexts), 2))
        out[..., 0] = s[:, None]
        out[..., 1] = self.contexts @ np.maximum(s, 0.0)
        return out.reshape(-1, 2)

    def cells(self, rows):
        return rows[:, 0].reshape(-1, len(self.contexts)).copy()  # a view keeps rows alive

    @cached_property
    def index(self):
        return [np.arange(math.prod(self.shape)).reshape(self.shape)]

    @cached_property
    def profile(self):
        # cell (k, c) is one of the c_k + 1 type-k bidders at full type count
        # m = c + e_k, so the total share at m is sum_k m_k x(k, m - e_k),
        # read from the table, not the engine's rows.  m's bars are c's plus
        # one from j = k on: rank sum_{j<k} C(b_j, j+1) + sum_{j>=k} C(b_j+1, j+1)
        k, c = self.shape
        j = np.arange(k - 1)[:, None]
        bars = np.cumsum(self.contexts.T[:-1], axis=0) + j
        profile = np.zeros((k, c), dtype=np.int64)
        np.cumsum(self._binom[bars, j + 1], axis=0, out=profile[1:])
        profile[:-1] += np.cumsum(self._binom[bars + 1, j + 1][::-1], axis=0)[::-1]
        return profile
