"""Property tests for the certified exact oracles on random regular instances."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexauction import (
    AuctionInstance,
    DiscreteDistribution,
    OracleConfig,
    TypeSpace,
    exact_brm,
    exact_rrm,
    heuristic_brm,
    heuristic_lb_rrm,
    is_regular,
    verify,
    virtual_values,
)

PROPERTY_SETTINGS = settings(max_examples=30, derandomize=True, deadline=None, database=None)
CONFIG = OracleConfig(grid=1e-3)


@st.composite
def regular_instances(draw):
    """n <= 3 bidders with K <= 3 types each, at most 64 allocation variables."""
    n = draw(st.integers(1, 3))
    bidders = []
    for _ in range(n):
        k = draw(st.integers(1, 3))
        steps = draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k))
        values = np.cumsum(steps)
        if draw(st.booleans()):
            values = values - values[0]  # a lowest type worth 0 never pays
        raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
        bidders.append((TypeSpace(values), DiscreteDistribution(raw / raw.sum())))
    instance = AuctionInstance(tuple(bidders))
    assume(n * math.prod(instance.shape) <= 64)
    assume(all(is_regular(virtual_values(instance))))
    return instance


def _certified(report) -> float:
    slack = report.grid_slack
    assert math.isfinite(slack) and slack >= 0
    return slack


@PROPERTY_SETTINGS
@given(regular_instances())
def test_exact_rrm_is_feasible_and_dominates_heuristic(instance):
    mech, report = exact_rrm(instance, CONFIG)
    assert all(c.passed for c in verify(instance, mech, ("ic", "ir", "xp")).values())
    slack = _certified(report)
    _, heur = heuristic_lb_rrm(instance, "closed_form")
    assert report.revenue >= heur.revenue - slack


@PROPERTY_SETTINGS
@given(regular_instances())
def test_exact_brm_is_feasible_and_dominates_heuristic_and_rrm(instance):
    mech, report = exact_brm(instance, CONFIG)
    assert all(c.passed for c in verify(instance, mech, ("bic", "bir", "xp")).values())
    slack = _certified(report)
    _, heur = heuristic_brm(instance, "closed_form")
    assert report.revenue >= heur.revenue - slack
    _, rrm = exact_rrm(instance, CONFIG)
    assert rrm.revenue <= report.revenue + slack
