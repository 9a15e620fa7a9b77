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

Only two things differ between the spaces: the engine score row built for
each cell (``rows`` and ``cells``), and the ex-post supply check
(``supply``).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import AuctionInstance, own_type_matrix


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
    blocks: tuple[Block, ...]
    weights: tuple[np.ndarray, ...]  # probability of each context, per block

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

    def cells(self, rows: np.ndarray) -> np.ndarray:
        """The allocation table from the engine's output for ``rows``."""
        raise NotImplementedError

    def supply(self, table: np.ndarray) -> float:
        """Worst excess of the bidders' total share over 1 at any profile."""
        raise NotImplementedError

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
        self.blocks = tuple(_block(instance, i, 1) for i in range(instance.n))

    @cached_property
    def weights(self):
        return tuple(self.instance.context_pmf(i).ravel() for i in range(self.instance.n))

    def split(self, table):
        return [np.moveaxis(table[i], i, 0).reshape(k, -1)
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

    def supply(self, table):
        return float(table.sum(axis=0).max()) - 1.0


def _compositions(total: int, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every count vector over len(pmf) types summing to ``total``, and its
    multinomial probability total!/prod c_j! * prod pmf_j^c_j."""
    pascal = np.array(
        [[math.comb(a, b) for b in range(total + 1)] for a in range(total + 1)], dtype=float
    )
    counts = np.zeros((1, 0), dtype=np.int64)
    left, weight = np.array([total]), np.ones(1)
    for f in pmf[:-1]:
        # each row branches into every count 0..left for this type
        reps = left + 1
        c = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        left = np.repeat(left, reps)
        weight = np.repeat(weight, reps) * pascal[left, c] * f**c
        counts = np.column_stack([np.repeat(counts, reps, axis=0), c])
        left = left - c
    return np.column_stack([counts, left]), weight * pmf[-1] ** left


class OrbitSpace(ProfileSpace):
    """Symmetric instances: cells (own type, context), one block for all bidders.

    Contexts are indexed by their rank in the combinatorial number system,
    so the index of any count vector is computed, not searched for.
    """

    def __init__(self, instance: AuctionInstance):
        if not instance.is_symmetric():
            raise ValueError("orbit space needs identically distributed bidders")
        n, k = instance.n, instance.shape[0]
        self.instance = instance
        # binom[a, j] = C(a, j); ranks of count vectors summing to n - 1 or n
        self._binom = np.array(
            [[math.comb(a, j) for j in range(k)] for a in range(n + k - 1)], dtype=np.int64
        )
        counts, weights = _compositions(n - 1, instance.pmf(0))
        order = np.argsort(self._rank(counts))
        self.contexts = counts[order]
        self.weights = (weights[order],)
        self.blocks = (_block(instance, 0, n),)
        # the other bidders' types, ascending, at each context
        self._others = np.repeat(np.tile(np.arange(k), len(counts)),
                                 self.contexts.ravel()).reshape(len(counts), n - 1)

    def _rank(self, counts: np.ndarray) -> np.ndarray:
        """Rank of count vectors (last axis) among those with the same sum.

        The bars b_j = c_0 + ... + c_j + j of the stars-and-bars picture are
        a (K-1)-subset, ranked as sum_j C(b_j, j+1).
        """
        k = counts.shape[-1]
        bars = np.cumsum(counts[..., :-1], axis=-1) + np.arange(k - 1)
        return self._binom[bars, np.arange(1, k)].sum(axis=-1)

    def split(self, table):
        return [table]

    def join(self, mats):
        return mats[0]

    def rows(self, scores):
        s = scores[0]
        k, c, n = s.size, len(self.contexts), self.instance.n
        own = np.broadcast_to(s[:, None, None], (k, c, 1))
        others = np.broadcast_to(s[self._others], (k, c, n - 1))
        return np.concatenate([own, others], axis=2).reshape(k * c, n)

    def cells(self, rows):
        return rows[:, 0].reshape(-1, len(self.contexts))

    @cached_property
    def _profiles(self) -> tuple[np.ndarray, np.ndarray]:
        """Every full type count m, and the context index of m - e_k for
        each type k that m holds (0 where m_k = 0, which m_k then zeroes)."""
        full, _ = _compositions(self.instance.n, self.instance.pmf(0))
        k = full.shape[1]
        index = self._rank(full[:, None, :] - np.eye(k, dtype=np.int64))
        return full, np.where(full > 0, index, 0)

    def supply(self, table):
        # sum_k m_k x(k, m - e_k) is the bidders' total share at profile m,
        # read from the table, never from the engine's own rows
        full, index = self._profiles
        shares = (full * table[np.arange(full.shape[1]), index]).sum(axis=1)
        return float(shares.max()) - 1.0
