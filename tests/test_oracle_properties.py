"""Property tests for the certified exact oracles on random instances."""

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
    symmetric_instance,
    verify,
    virtual_values,
)
from convexauction.mechanisms import heuristic_brm_tables, heuristic_lb_rrm_tables
from convexauction.oracle import check, exact_tables
from convexauction.spaces import DenseSpace, OrbitSpace

PROPERTY_SETTINGS = settings(max_examples=30, derandomize=True, deadline=None, database=None)
CONFIG = OracleConfig(grid=1e-3)


def _bidder(draw, k, rare_middle=False):
    steps = draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k))
    values = np.cumsum(steps)
    if draw(st.booleans()):
        values = values - values[0]  # a lowest type worth 0 never pays
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    if rare_middle:  # a rare middle type makes a bidder irregular
        raw[1:-1] = draw(st.floats(0.005, 0.1))
    return TypeSpace(values), DiscreteDistribution(raw / raw.sum())


@st.composite
def regular_instances(draw):
    """n <= 3 bidders with K <= 3 types each, at most 64 allocation variables."""
    n = draw(st.integers(1, 3))
    instance = AuctionInstance(tuple(_bidder(draw, draw(st.integers(1, 3))) for _ in range(n)))
    assume(n * math.prod(instance.shape) <= 64)
    assume(all(is_regular(virtual_values(instance))))
    return instance


@st.composite
def irregular_instances(draw):
    """As ``regular_instances``, with a first bidder of three types whose
    middle one is rare enough to make it irregular."""
    n = draw(st.integers(1, 3))
    first = _bidder(draw, 3, rare_middle=True)
    others = tuple(_bidder(draw, draw(st.integers(1, 3))) for _ in range(n - 1))
    instance = AuctionInstance((first,) + others)
    assume(n * math.prod(instance.shape) <= 64)
    assume(not is_regular(virtual_values(instance))[0])
    return instance


@st.composite
def orbit_instances(draw):
    """n = 2..12 copies of one regular bidder with K = 2..4 types, whose orbit
    table, K * C(n+K-2, K-1) cells, fits the oracle's 64-variable cap."""
    k = draw(st.integers(2, 4))
    fits = [n for n in range(2, 13) if k * math.comb(n + k - 2, k - 1) <= CONFIG.max_profile_vars]
    instance = symmetric_instance(*_bidder(draw, k), draw(st.sampled_from(fits)))
    assume(is_regular(virtual_values(instance))[0])
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


@PROPERTY_SETTINGS
@given(irregular_instances())
def test_exact_solvers_certify_and_verify_on_irregular_instances(instance):
    """The solver starts toward the closed-form heuristic, which is not
    monotone here, only as far as stays strictly inside: every mode still
    certifies its gap within 30 Newton steps and verifies."""
    space, reports = DenseSpace(instance), {}
    for mode, sets in (("rrm", ("ic", "ir", "xp")), ("rrm_linear", ("ic", "ir", "xp")),
                       ("brm", ("bic", "bir", "xp"))):
        tables, report = exact_tables(space, CONFIG, mode)
        bound = report.revenue + report.grid_slack
        assert 0 <= report.grid_slack <= 1e-9 * max(1.0, bound) + 1e-12 * bound, mode
        assert report.newton_steps <= 30, mode
        assert all(c.passed for c in check(tables, sets).values()), mode
        reports[mode] = report
    assert reports["rrm"].revenue <= reports["brm"].revenue + reports["brm"].grid_slack


@PROPERTY_SETTINGS
@given(orbit_instances())
def test_orbit_revenues_are_ordered_within_certified_gaps(instance):
    """On the orbit space: heuristic RRM <= exact RRM <= exact BRM, and
    heuristic BRM <= exact BRM, each within the exact side's certified gap;
    both exact tables pass their default checks."""
    space = OrbitSpace(instance)
    (rrm_tables, rrm), (brm_tables, brm) = (exact_tables(space, CONFIG, m) for m in ("rrm", "brm"))
    for tables in (rrm_tables, brm_tables):
        assert all(c.passed for c in check(tables).values()), tables.provenance
    _, heur_rrm = heuristic_lb_rrm_tables(space, "closed_form")
    _, heur_brm = heuristic_brm_tables(space, "closed_form")
    assert heur_rrm.revenue <= rrm.revenue + _certified(rrm)
    assert rrm.revenue <= brm.revenue + _certified(brm)
    assert heur_brm.revenue <= brm.revenue + _certified(brm)


@st.composite
def spaces(draw):
    """``regular_instances`` on the dense space, or ``orbit_instances`` on
    the orbit space."""
    if draw(st.booleans()):
        return DenseSpace(draw(regular_instances()))
    return OrbitSpace(draw(orbit_instances()))


@PROPERTY_SETTINGS
@given(spaces(), st.integers(-40, 40))
def test_exact_revenue_scales_with_the_values_within_gaps(space, e):
    """Revenue is homogeneous of degree 1/2 in the values: at c z, with
    c = 2^e, both modes certify, and R(c z) / sqrt(c) is R(z) within the
    gaps, the scaled one divided by sqrt(c) too."""
    c = 2.0**e
    scaled = type(space)(AuctionInstance(tuple((TypeSpace(c * s.values), d)
                                               for s, d in space.instance.bidders)))
    for mode in ("rrm", "brm"):
        _, base = exact_tables(space, CONFIG, mode)
        _, moved = exact_tables(scaled, CONFIG, mode)
        root = math.sqrt(c)
        assert abs(moved.revenue / root - base.revenue) <= (_certified(moved) / root
                                                            + _certified(base)), mode
