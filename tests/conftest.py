from dataclasses import replace

import numpy as np
import pytest

from convexauction import (
    AuctionInstance,
    DiscreteDistribution,
    InterimAllocation,
    TypeSpace,
    bayesian_payment,
    heuristic_brm,
    make_binomial,
    make_categorical,
    make_uniform,
    symmetric_instance,
)


@pytest.fixture
def two_bidder_0_100():
    """The worked 2-bidder {0, 100} uniform-pmf instance."""
    space, dist = make_categorical(0, 100, 0.5)
    return symmetric_instance(space, dist, 2)


@pytest.fixture
def categorical_pair():
    space, dist = make_categorical(3, 10, 0.8)
    return symmetric_instance(space, dist, 2)


def single_type_instance(value: float, n: int) -> AuctionInstance:
    space = TypeSpace(np.array([value]))
    dist = DiscreteDistribution(np.array([1.0]))
    return symmetric_instance(space, dist, n)


def corpus_instances(max_n: int = 5):
    """The three experiment distributions crossed with bidder counts."""
    out = []
    for label, (space, dist) in (
        ("categorical", make_categorical(3, 10, 0.8)),
        ("uniform", make_uniform(5)),
        ("binomial", make_binomial(4, 0.5)),
    ):
        for n in range(1, max_n + 1):
            out.append((f"{label}-n{n}", symmetric_instance(space, dist, n)))
    return out


def random_instance(rng, max_n: int = 3, max_k: int = 4) -> AuctionInstance:
    """Random small instance: sorted positive values, full-support pmf."""
    n = int(rng.integers(1, max_n + 1))
    bidders = []
    for _ in range(n):
        k = int(rng.integers(1, max_k + 1))
        values = np.cumsum(rng.uniform(0.1, 1.0, size=k))
        raw = rng.uniform(0.1, 1.0, size=k)
        bidders.append((TypeSpace(values), DiscreteDistribution(raw / raw.sum())))
    return AuctionInstance(tuple(bidders))


def random_monotone_allocation(rng, instance: AuctionInstance) -> np.ndarray:
    """Random feasible table, monotone in each bidder's own type.

    Entries are capped at 1/n so per-profile sums stay within supply.
    """
    n, shape = instance.n, instance.shape
    table = rng.uniform(0.0, 1.0 / n, size=(n, *shape))
    for i in range(n):
        table[i] = np.sort(table[i], axis=i)
    return table


def raised_heuristic_brm():
    """``heuristic_brm`` on categorical:3,10,0.8 with n = 3, its stored x̂
    raised by 0.3 and h the Bayesian payments of the raised x̂.  Its ex-post
    allocation still collapses to the unraised x̂, against which h breaks BIR
    by 0.9 and earns 4.54 where the mechanism earns 3.41."""
    instance = symmetric_instance(*make_categorical(3, 10, 0.8), 3)
    mech, _ = heuristic_brm(instance)
    raised = InterimAllocation(tuple(t + 0.3 for t in mech.interim_allocation.tables))
    return instance, replace(mech, interim_allocation=raised,
                             interim_payments=bayesian_payment(raised, instance))
