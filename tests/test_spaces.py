"""Dense and orbit profile spaces: same numbers, and an orbit verifier that fails."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexauction import (
    DiscreteDistribution,
    GreedyConfig,
    TypeSpace,
    is_regular,
    make_uniform,
    symmetric_instance,
    virtual_values,
)
from convexauction.cli import METHODS, main
from convexauction.mechanisms import heuristic_lb_rrm_tables
from convexauction.oracle import check
from convexauction.spaces import DenseSpace, OrbitSpace
from conftest import corpus_instances

# the spaces are under test, not the greedy increment: a coarse one keeps
# the greedy rows fast at n = 5
GREEDY = GreedyConfig(epsilon=0.05)
TOL = 1e-12


@st.composite
def regular_symmetric_instances(draw):
    """n <= 5 identical bidders with K <= 5 types and non-decreasing phi.

    Draws the virtual values and the pmf, then solves
    phi_k = z_k - (z_{k+1} - z_k)(1 - F_k)/f_k backwards for the values.
    """
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    pmf = raw / raw.sum()
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=k, max_size=k))
    phi = np.cumsum(steps) - draw(st.floats(0.0, 2.0))
    hazard = (1.0 - np.cumsum(pmf)) / pmf
    z = phi.copy()
    for j in range(k - 2, -1, -1):
        z[j] = (phi[j] + hazard[j] * z[j + 1]) / (1.0 + hazard[j])
    z = z - z[0] + draw(st.sampled_from([0.0, 0.5]))
    instance = symmetric_instance(TypeSpace(z), DiscreteDistribution(pmf), n)
    assert all(is_regular(virtual_values(instance)))
    return instance


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a))


def assert_spaces_agree(instance):
    dense, orbit = DenseSpace(instance), OrbitSpace(instance)
    for method in dict.fromkeys(METHODS.values()):  # aliases once
        if method.exact:
            continue
        (dt, dr), (ot, orr) = (method.run(space, GREEDY) for space in (dense, orbit))
        assert _close(dr.objective_value, orr.objective_value), dt.provenance
        assert _close(dr.revenue, orr.revenue), dt.provenance
        dc, oc = check(dt, method.constraints), check(ot, method.constraints)
        for name in method.constraints:
            assert dc[name].passed == oc[name].passed, (dt.provenance, name)
            assert _close(dc[name].worst_violation, oc[name].worst_violation), (
                dt.provenance, name)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(regular_symmetric_instances())
def test_dense_and_orbit_agree_on_random_regular_instances(instance):
    assert_spaces_agree(instance)


CORPUS = corpus_instances(5)


@pytest.mark.parametrize("label,instance", CORPUS, ids=[label for label, _ in CORPUS])
def test_dense_and_orbit_agree_on_corpus(label, instance):
    assert_spaces_agree(instance)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (3, 1), (4, 3), (6, 5), (9, 2)])
def test_contexts_are_the_count_vectors_indexed_by_rank(n, k):
    space = OrbitSpace(symmetric_instance(*make_uniform(k), n))
    contexts = space.contexts
    assert len(contexts) == math.comb(n + k - 2, k - 1)
    assert np.all(contexts.sum(axis=1) == n - 1) and np.all(contexts >= 0)
    assert len({tuple(c) for c in contexts}) == len(contexts)
    np.testing.assert_array_equal(space._rank(contexts), np.arange(len(contexts)))
    assert math.isclose(space.weights[0].sum(), 1.0, rel_tol=1e-12)


def test_orbit_verifier_fails_xp_on_a_scaled_table():
    space = OrbitSpace(symmetric_instance(*make_uniform(5), 4))
    tables, _ = heuristic_lb_rrm_tables(space)
    assert check(tables, ("xp",))["xp"].passed
    result = check(replace(tables, x=1.01 * tables.x), ("xp",))["xp"]
    assert not result.passed
    assert math.isclose(result.worst_violation, 0.01, rel_tol=1e-9)


def test_orbit_verifier_fails_ic_on_a_non_monotone_chain():
    space = OrbitSpace(symmetric_instance(*make_uniform(5), 4))
    tables, _ = heuristic_lb_rrm_tables(space)
    assert check(tables, ("ic",))["ic"].passed
    x = tables.x.copy()
    context = int(np.argmax(np.ptp(x, axis=0)))
    x[:, context] = x[::-1, context]  # one own-type chain, now decreasing
    assert not check(replace(tables, x=x), ("ic",))["ic"].passed


def test_experiment_at_twenty_bidders_verifies_every_method(tmp_path):
    """uniform:5 at n = 20: 5 * C(23, 4) = 44,275 orbit cells, 5^20 * 20 dense.

    The greedy increment is 0.01: at 0.05 the greedy pseudo-surplus rule is
    not monotone here and fails IC, which is the engine's step, not the space.
    """
    methods = [name for name, method in METHODS.items() if not method.exact]
    out = tmp_path / "n20.csv"
    assert main(["experiment", "--dist", "uniform:5", "--bidders", "20..20",
                 "--methods", ",".join(methods), "--epsilon", "0.01",
                 "--output", str(out), "--no-timing"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == methods
    assert all(r["verified"] == "true" for r in rows)


def test_greedy_methods_at_twenty_bidders_verify_at_default_epsilon(tmp_path):
    """The greedy engine on 44,275 orbit rows of 20 scores, at eps = 1e-3."""
    methods = ["heur_lb_greedy", "pseudo_surplus_greedy", "heur_brm_greedy"]
    out = tmp_path / "greedy20.csv"
    assert main(["experiment", "--dist", "uniform:5", "--bidders", "20..20",
                 "--methods", ",".join(methods), "--output", str(out), "--no-timing"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == methods
    assert all(r["verified"] == "true" for r in rows)
