"""The exact oracle's program build against the per-block build it replaced.

``_Blocks`` reads every piece off one layout of the space's cells; the
reference below builds each piece block by block, each entry broadcast along
the contexts and the entries sorted afterwards, as the solver once did.
Every piece, and the programs composed from them, must agree bit for bit,
and the exported programs byte for byte.  The Newton matrix the solver forms
from G is checked against an independent formula in ``test_oracle``.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexauction import (AuctionInstance, DiscreteDistribution, TypeSpace, make_categorical,
                           make_uniform, symmetric_instance)
from convexauction import oracle
from convexauction import payments as pay
from convexauction.spaces import DenseSpace, OrbitSpace, ProfileSpace


def _ref_sparse(rows, cols, vals, shape):
    rows, cols, vals = (np.concatenate([np.ravel(a) for a in part]) for part in (rows, cols, vals))
    order = np.lexsort((cols, rows))
    return oracle._Sparse(rows[order], cols[order], vals[order], shape)


class _ReferenceBlocks:
    """The per-block build: each block's small matrix broadcast along its
    contexts, then sorted by (row, column)."""

    def __init__(self, space):
        self.space = space
        self.size = math.prod(space.shape)
        ends = np.cumsum([len(b.values) for b in space.blocks])
        self.hats = [np.arange(e - len(b.values), e)[:, None] for b, e in zip(space.blocks, ends)]
        self.hat_size = int(ends[-1])

    def own(self, matrix, hat, shift=0):
        rows, cols, vals = [], [], []
        for block, index in zip(self.space.blocks, self.hats if hat else self.space.index):
            m = matrix(block)
            r, c = np.nonzero(m)
            rows.append(index[r + shift])
            cols.append(index[c])
            vals.append(np.broadcast_to(m[r, c][:, None], index[c].shape))
        width = self.hat_size if hat else self.size
        return _ref_sparse(rows, cols, vals, (width, width))

    def supply(self):
        profile = self.space.profile
        return _ref_sparse([profile], [np.arange(self.size)], [self.space.multiplicity],
                           (int(profile.max()) + 1, self.size))

    def mono(self, hat):
        m = self.own(lambda b: -np.diff(np.eye(len(b.values)), axis=0), hat, shift=1)
        upper, rows = np.unique(m.rows, return_inverse=True)
        return oracle._Sparse(rows, m.cols, m.vals, (len(upper), m.shape[1]))

    def chain(self, hat):
        """The chain with its zero rows dropped, and the rows it keeps."""
        m = self.own(lambda b: pay.chain(np.eye(len(b.values)), b.values, b.gaps), hat)
        priced, rows = np.unique(m.rows, return_inverse=True)
        return oracle._Sparse(rows, m.cols, m.vals, (len(priced), m.shape[1])), priced

    def collapse(self):
        cells = self.space.index
        return _ref_sparse(
            [np.broadcast_to(h, c.shape) for h, c in zip(self.hats, cells)], cells,
            [np.broadcast_to(w, c.shape) for w, c in zip(self.space.weights, cells)],
            (self.hat_size, self.size))

    def weights(self, hat):
        blocks = self.space.blocks
        if hat:
            return np.concatenate([b.count * b.pmf for b in blocks])
        mats = [(b.count * b.pmf)[:, None] * w for b, w in zip(blocks, self.space.weights)]
        return self.space.join(mats).ravel()


def _ref_program(blk, mode):
    """(G, h, m, w) as the per-piece dense stack built them."""
    hat, size = mode == "brm", blk.size
    (chain, priced), mono, supply = blk.chain(hat), blk.mono(hat), blk.supply()
    chain = oracle._Sparse(chain.rows, chain.cols, -chain.vals, chain.shape)
    eye = oracle._Sparse(np.arange(size), np.arange(size), -np.ones(size), (size, size))
    pieces = [eye, supply, mono, chain]
    first = np.cumsum([0] + [p.shape[0] for p in pieces]).tolist()
    lift = blk.collapse().dense() if hat else None
    G = np.vstack([p.dense() if k < 2 or lift is None else p.dense() @ lift
                   for k, p in enumerate(pieces)])
    h = np.repeat([0.0, 1.0, 0.0, 0.0], np.diff(first))
    return G, h, first[3], blk.weights(hat)[priced]


def _same(a, b):
    """Bit for bit: dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_piece(new, ref):
    return new.shape == ref.shape and all(
        _same(getattr(new, f), getattr(ref, f)) for f in ("rows", "cols", "vals"))


def _bidder(draw, k):
    values = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k)))
    if draw(st.booleans()):
        values = values - values[0]  # a lowest type worth 0: its chain row is zero
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    return TypeSpace(values), DiscreteDistribution(raw / raw.sum())


@st.composite
def spaces(draw):
    """A dense asymmetric space (n <= 3, K <= 3), an orbit space (n <= 6,
    K <= 4), or two classes of one to three bidders each."""
    kind = draw(st.sampled_from(["dense", "orbit", "classes"]))
    if kind == "dense":
        n = draw(st.integers(1, 3))
        return DenseSpace(AuctionInstance(tuple(_bidder(draw, draw(st.integers(1, 3)))
                                                for _ in range(n))))
    if kind == "orbit":
        bidder = _bidder(draw, draw(st.integers(1, 4)))
        return OrbitSpace(symmetric_instance(*bidder, draw(st.integers(1, 6))))
    classes = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    first, second = (_bidder(draw, draw(st.integers(1, 3))) for _ in classes)
    return ProfileSpace(AuctionInstance((first,) * classes[0] + (second,) * classes[1]), classes)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(spaces())
def test_layout_pieces_and_programs_match_the_per_block_build(space):
    blk, ref = oracle._Blocks(space), _ReferenceBlocks(space)
    assert (blk.size, blk.hat_size) == (ref.size, ref.hat_size)
    assert _same_piece(blk.supply(), ref.supply())
    assert _same_piece(blk.collapse(), ref.collapse())
    for hat in (False, True):
        assert _same_piece(blk.mono(hat), ref.mono(hat)), hat
        (chain, priced), (ref_chain, ref_priced) = blk.chain(hat), ref.chain(hat)
        assert _same_piece(chain, ref_chain) and _same(priced, ref_priced), hat
        assert _same(blk.weights(hat), ref.weights(hat)), hat
    for mode in ("rrm", "rrm_linear", "brm"):
        prog = oracle._program(blk, mode)
        G, h, m, w = _ref_program(ref, mode)
        assert _same(prog.G, G) and _same(prog.h, h) and prog.m == m and _same(prog.w, w), mode


# sha256 of each exported program, as the per-block build printed it
EXPORTS = {
    "uniform:3 n=3": (lambda: symmetric_instance(*make_uniform(3), 3), {
        "rrm_xp": "86e7ae43a18b7797740bb6cb0d6f30fd3943ac358a3e1f9c75548721aeb56393",
        "rrm_pseudo": "0c09323a028632a1934acfbc5d6e4c6731435757d639387b9dd7ddfeaadd28ff",
        "rrm_lb": "73e81a7773c82c63c0870e19da3f90dfcbf1af612b29308aac217bbcb57b9467",
        "brm_xp_naive": "5b217537b8a39914a74c7c86748805a31a41cd3579ef579ff685b6ea6aa616d4",
        "brm_xp": "dc6b7e6c71e5048bd52c405a363347f5e052893e2b83e90589dd94b4e699e2c3",
        "brm_pseudo": "a9c1b7cdc8821bbce27c2f83d7f77eb8da7c33adfcbcd47193627cf4ffb39e15",
        "brm_xa": "523c6bb7a114efda4895d1a50b67325e61d0283f44141d9d7fc950b90c2b5f9f",
        "brm_xa_rel": "7e0bf5976dacd45b9d02dfb65ef61ba6c585b002c78b8a526f13c2ff45c19f8c",
        "brm_xa_rel_trunc": "84306780aff2d8868506e325eccc5712c65c4d21df99a53f7a6d805e3e3057c5",
    }),
    "asymmetric pair": (lambda: AuctionInstance((make_categorical(2.0, 10.0, 0.6),
                                                 make_categorical(4.0, 10.0, 0.3))), {
        "rrm_xp": "6ba21ac92837eb8cebcff664dc088efe7d6f4a4246b3a0d98b50c89023acc2e7",
        "rrm_pseudo": "f7e48740b9846205aaebcb4dff0d8780f3f8fca8c35ca7a3ed679f7c0469c178",
        "rrm_lb": "926b107f906234f45bee33392d76eb6be120f7997a5fd60e0f39d8fc7f02e8ab",
        "brm_xp_naive": "42806a4bf60c3e9662c9f727c8b1acdda58d569ac444d547c0d60abb25a6ed77",
        "brm_xp": "c8336bfb51b1901b04252ff7523194fe30906c978d6c4b7d0f149e45023a01a2",
        "brm_pseudo": "cd91e3b80ccfff88aa2f8800130833be7aa911e345e35373e385436dd28e6200",
        "brm_xa": "f2ba58161703300dc0fd991f2f2704bec9201a9846f572bd33f3a94634d62767",
        "brm_xa_rel": "f1eaa65ba9cf6e2b42783a681361770e09dcb2eec4296ddd435896d3e9529276",
        "brm_xa_rel_trunc": "dd53622b54038bb1d926f5a1f438acd51f678efcf5a17588dea9330f3b8ad3fe",
    }),
}


@pytest.mark.parametrize("label", EXPORTS)
def test_exports_are_byte_identical_to_the_per_block_build(label):
    make, digests = EXPORTS[label]
    instance = make()
    assert set(digests) == set(oracle.PROGRAMS)
    for which, digest in digests.items():
        text = oracle.export_program(instance, which)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, which
