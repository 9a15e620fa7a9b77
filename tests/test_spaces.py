"""Dense and orbit profile spaces: same numbers, and an orbit verifier that fails."""

import csv
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexauction import (
    DiscreteDistribution,
    GreedyConfig,
    OracleConfig,
    TypeSpace,
    is_regular,
    make_uniform,
    symmetric_instance,
    virtual_values,
)
from convexauction.alloc import closed_form_alloc_batch
from convexauction.cli import METHODS, main
from convexauction.mechanisms import (
    bound_tables,
    heuristic_brm_tables,
    heuristic_lb_rrm_tables,
    pseudo_surplus_tables,
)
from convexauction.oracle import OracleRefusal, check, exact_tables
from convexauction.payments import chain
from convexauction.spaces import DenseSpace, OrbitSpace
from conftest import corpus_instances

# the spaces are under test, not the greedy increment: a coarse one keeps
# the greedy rows fast at n = 5
GREEDY = GreedyConfig(epsilon=0.05)
ORACLE = OracleConfig()
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


def assert_exact_agree(method, dense, orbit):
    """Dense and orbit optima agree within their summed certified gaps, and
    both verify; instances above the dense program's cap are skipped."""
    try:
        dt, dr = method(dense, GREEDY, ORACLE)
    except OracleRefusal:
        return
    ot, orr = method(orbit, GREEDY, ORACLE)
    assert abs(dr.revenue - orr.revenue) <= dr.grid_slack + orr.grid_slack, dt.provenance
    for tables in (dt, ot):
        assert all(c.passed for c in check(tables).values()), (dt.provenance, check(tables))


def assert_spaces_agree(instance):
    dense, orbit = DenseSpace(instance), OrbitSpace(instance)
    for method, name in dict(zip(METHODS.values(), METHODS)).items():  # aliases once
        if name.startswith("exact_"):
            assert_exact_agree(method, dense, orbit)
            continue
        (dt, dr), (ot, orr) = (method(space, GREEDY, ORACLE) for space in (dense, orbit))
        assert _close(dr.objective_value, orr.objective_value), dt.provenance
        assert _close(dr.revenue, orr.revenue), dt.provenance
        dc, oc = check(dt), check(ot)
        assert dc.keys() == oc.keys()
        for key in dc:
            assert dc[key].passed == oc[key].passed, (dt.provenance, key)
            assert _close(dc[key].worst_violation, oc[key].worst_violation), (dt.provenance, key)
        if "greedy" not in name:
            # the greedy increment can break monotonicity (see ROADMAP); the rest must pass
            assert all(c.passed for c in dc.values()), (dt.provenance, dc)
        if dt.perceived != "quadratic" or dt.x is None:
            continue
        db, ob = bound_tables(dt), bound_tables(ot)
        for field in fields(db):
            d, o = getattr(db, field.name), getattr(ob, field.name)
            if field.name == "failures":
                assert d == o, dt.provenance
            else:
                d, o = np.atleast_1d(d), np.atleast_1d(o)
                assert d.shape == o.shape and all(map(_close, d, o)), (dt.provenance, field.name)
        if all(c.passed for c in dc.values()):
            assert db.ok, (dt.provenance, db.failures)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(regular_symmetric_instances())
def test_dense_and_orbit_agree_on_random_regular_instances(instance):
    assert_spaces_agree(instance)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(regular_symmetric_instances())
def test_bayesian_payments_square_to_the_expected_chain_payments(instance):
    """h^2 = E[q]: each interim payment squared is the collapse of the chain
    payments over the ex-post table, for the heuristic Bayesian rows (closed
    form and greedy) and, within the solver's cap, the exact one."""
    for space in (DenseSpace(instance), OrbitSpace(instance)):
        rows = [heuristic_brm_tables(space, method, GREEDY) for method in ("closed_form", "greedy")]
        if math.prod(space.shape) <= ORACLE.max_profile_vars:
            rows.append(exact_tables(space, ORACLE, "brm"))
        for tables, _ in rows:
            q = [chain(x, b.values, b.gaps) for x, b in zip(space.split(tables.x), space.blocks)]
            for h, expected in zip(tables.h, space.collapse(q)):
                bound = TOL * np.maximum(1.0, np.abs(expected))
                assert np.all(np.abs(h**2 - expected) <= bound), (tables.provenance, h**2, expected)


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


def _supply_reference(space):
    """(profile, cell, multiplicity): every full count vector c + e_k ranked
    on its own, then a stable sort of the cells by profile."""
    k = space.shape[0]
    full = space.contexts + np.eye(k, dtype=np.int64)[:, None]
    profile = space._rank(full).ravel()
    cell = np.argsort(profile, kind="stable")
    return profile[cell], cell, space.contexts.T.ravel()[cell] + 1.0


@pytest.mark.parametrize("k", range(1, 7))
def test_supply_rows_equal_ranking_every_full_profile(k):
    for n in range(1, 13):
        space = OrbitSpace(symmetric_instance(*make_uniform(k), n))
        got, want = space.supply_rows(), _supply_reference(space)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b, err_msg=f"n={n}")


def _closed_form_reference(space, scores):
    """The closed form on every bidder's score at each cell, column 0 kept."""
    return closed_form_alloc_batch(space.rows([scores]), 0.5)[:, 0].reshape(space.shape)


@pytest.mark.parametrize("n,k,low,seed", [
    (1, 1, 0.0, 0), (1, 1, 2.0, 1), (1, 4, 0.0, 2), (5, 1, 0.0, 3), (6, 1, 1.5, 4),
    (2, 3, 0.0, 5), (3, 2, 0.3, 6), (4, 5, 0.0, 7), (7, 2, 0.0, 8), (9, 4, 0.2, 9),
    (5, 6, 0.0, 10),
])
def test_orbit_closed_form_from_context_sums_equals_full_rows(n, k, low, seed):
    """Own score beside ``contexts @ score`` gives the shares of the full
    (cells, n) rows, within 1e-12 relative, zeros included; a lowest type
    at value 0 has phi^+ = 0."""
    rng = np.random.default_rng(seed)
    values = low + np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, k - 1))])
    raw = rng.uniform(0.1, 1.0, k)
    space = OrbitSpace(symmetric_instance(TypeSpace(values),
                                          DiscreteDistribution(raw / raw.sum()), n))
    phi_plus = virtual_values(space.instance).phi_plus[0]
    if low == 0.0:
        assert phi_plus[0] == 0.0
    for (tables, _), scores in ((heuristic_lb_rrm_tables(space), phi_plus),
                                (pseudo_surplus_tables(space), values)):
        want = _closed_form_reference(space, scores)
        assert np.all(np.abs(tables.x - want) <= TOL * np.abs(want)), (tables.x, want)


def test_orbit_closed_form_peak_memory_per_cell():
    """uniform:5 at n = 30 has 204,600 orbit cells; the closed form reads two
    numbers per cell, not the n others' scores (729 bytes per cell before)."""
    space = OrbitSpace(symmetric_instance(*make_uniform(5), 30))
    tracemalloc.start()
    try:
        heuristic_lb_rrm_tables(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * math.prod(space.shape)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_orbit_weights_are_the_multinomial_probabilities(n):
    pmf = np.array([0.2, 0.3, 0.5])
    space = OrbitSpace(symmetric_instance(TypeSpace(np.array([1.0, 2.0, 3.0])),
                                          DiscreteDistribution(pmf), n))
    for c, weight in zip(space.contexts.tolist(), space.weights[0]):
        exact = math.comb(n - 1, c[0]) * math.comb(n - 1 - c[0], c[1]) * math.prod(pmf**c)
        assert math.isclose(weight, exact, rel_tol=1e-14), (c, weight, exact)


def test_orbit_weights_sum_to_one_at_two_thousand_bidders():
    """Probabilities of 1,999 other bidders; the factorials overflow a float."""
    weights = OrbitSpace(symmetric_instance(*make_uniform(2), 2000)).weights[0]
    assert len(weights) == 2000
    assert abs(weights.sum() - 1.0) <= 1e-9


def test_experiment_at_eleven_hundred_bidders_verifies(tmp_path):
    out = tmp_path / "n1100.csv"
    assert main(["experiment", "--dist", "categorical:3,10,0.8", "--bidders", "1100..1100",
                 "--methods", "heur_brm_cf", "--output", str(out), "--no-timing"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["n_bidders"], r["verified"]) for r in rows] == [("1100", "true")]


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
    methods = [name for name in METHODS if not name.startswith("exact_")]
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
