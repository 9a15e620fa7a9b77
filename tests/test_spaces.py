"""Dense, orbit and class profile spaces: same numbers, and an orbit verifier that fails."""

import contextlib
import csv
import math
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexauction import (
    AuctionInstance,
    DiscreteDistribution,
    GreedyConfig,
    OracleConfig,
    TypeSpace,
    is_regular,
    make_binomial,
    make_categorical,
    make_uniform,
    symmetric_instance,
    virtual_values,
)
from convexauction.alloc import closed_form_alloc_batch, eqp_solver_batch, pointwise_max_batch
from convexauction.cli import METHODS, main
from convexauction.mechanisms import (
    bound_tables,
    ex_ante_tables,
    heuristic_brm_tables,
    heuristic_lb_rrm_tables,
    pseudo_surplus_tables,
    surplus_tables,
    virtual_surplus_tables,
)
from convexauction import oracle
from convexauction.oracle import OracleRefusal, check, exact_tables
from convexauction.payments import chain
from convexauction.spaces import DenseSpace, OrbitSpace, ProfileSpace
from conftest import corpus_instances

# the spaces are under test, not the greedy increment: a coarse one keeps
# the greedy rows fast at n = 5
GREEDY = GreedyConfig(epsilon=0.05)
ORACLE = OracleConfig()
TOL = 1e-12


def _regular_bidder(draw, k):
    """A type space of k types and a pmf with non-decreasing phi.

    Draws the virtual values and the pmf, then solves
    phi_k = z_k - (z_{k+1} - z_k)(1 - F_k)/f_k backwards for the values.
    """
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    pmf = raw / raw.sum()
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=k, max_size=k))
    phi = np.cumsum(steps) - draw(st.floats(0.0, 2.0))
    hazard = (1.0 - np.cumsum(pmf)) / pmf
    z = phi.copy()
    for j in range(k - 2, -1, -1):
        z[j] = (phi[j] + hazard[j] * z[j + 1]) / (1.0 + hazard[j])
    z = z - z[0] + draw(st.sampled_from([0.0, 0.5]))
    return TypeSpace(z), DiscreteDistribution(pmf)


@st.composite
def regular_symmetric_instances(draw):
    """n <= 5 identical regular bidders with K <= 5 types."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    instance = symmetric_instance(*_regular_bidder(draw, k), n)
    assert all(is_regular(virtual_values(instance)))
    return instance


@st.composite
def regular_class_instances(draw):
    """Two or three classes of regular bidders, one of one bidder and one of
    two or three, in any order, with K <= 4 types each and at most 400 dense
    cells (the largest K shrinks until they fit)."""
    classes = draw(st.permutations([1, draw(st.integers(2, 3))]
                                   + draw(st.lists(st.integers(1, 3), max_size=1))))
    ks = [draw(st.integers(1, 4)) for _ in classes]
    while sum(classes) * math.prod(k**n for k, n in zip(ks, classes)) > 400:
        ks[ks.index(max(ks))] -= 1
    bidders = ()
    for n, k in zip(classes, ks):
        bidders += (_regular_bidder(draw, k),) * n
    instance = AuctionInstance(bidders)
    assert all(is_regular(virtual_values(instance)))
    return instance, tuple(classes)


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


def assert_spaces_agree(dense, orbit):
    """Every method's objective, revenue, checks and bounds agree on the dense
    space and on ``orbit``, another space of the same instance."""
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
    assert_spaces_agree(DenseSpace(instance), OrbitSpace(instance))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(regular_symmetric_instances())
def test_bayesian_payments_square_to_the_expected_chain_payments(instance):
    """h^2 = E[q]: each interim payment squared is the collapse of the chain
    payments over the ex-post table, for the heuristic Bayesian rows (closed
    form and greedy) and, within the solver's cap, the exact one."""
    for space in (DenseSpace(instance), OrbitSpace(instance)):
        rows = [heuristic_brm_tables(space, method, GREEDY) for method in ("closed_form", "greedy")]
        if math.prod(space.shape) <= oracle._MAX_CELLS:
            rows.append(exact_tables(space, ORACLE, "brm"))
        for tables, _ in rows:
            q = [chain(x, b.values, b.gaps) for x, b in zip(space.split(tables.x), space.blocks)]
            for h, expected in zip(tables.h, space.collapse(q)):
                bound = TOL * np.maximum(1.0, np.abs(expected))
                assert np.all(np.abs(h**2 - expected) <= bound), (tables.provenance, h**2, expected)


CORPUS = corpus_instances(5)


@pytest.mark.parametrize("label,instance", CORPUS, ids=[label for label, _ in CORPUS])
def test_dense_and_orbit_agree_on_corpus(label, instance):
    assert_spaces_agree(DenseSpace(instance), OrbitSpace(instance))


def _class_cells(dense, space, classes):
    """The flat index, in ``space``'s table, of each dense cell (i, v): the
    cell of bidder i's class at own type v_i whose profile has v's type
    counts in every class."""
    def counts(profile):  # one tuple of type counts per class
        return tuple(map(tuple, profile))
    at = {}
    digits = np.unravel_index(space.profile, [len(p) for p in space.profiles])
    for c, cells in enumerate(space.index):
        for k, row in enumerate(cells):
            for cell in row:
                profile = [space.profiles[d][r.flat[cell]] for d, r in enumerate(digits)]
                at[c, k, counts(profile)] = cell
    firsts = np.cumsum((0,) + classes)
    out = np.empty(dense.shape, dtype=np.int64)
    for i, *v in np.ndindex(dense.shape):
        c = int(np.searchsorted(firsts, i, side="right")) - 1
        profile = [np.bincount(v[a:b], minlength=len(space.blocks[d].values))
                   for d, (a, b) in enumerate(zip(firsts, firsts[1:]))]
        out[(i, *v)] = at[c, v[i], counts(profile)]
    return out


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(regular_class_instances())
def test_class_space_tables_equal_the_dense_tables(drawn):
    """Two or three classes: every non-exact pipeline's tables, cell by cell,
    and every method's numbers agree with the dense space's."""
    instance, classes = drawn
    dense, space = DenseSpace(instance), ProfileSpace(instance, classes)
    cells = _class_cells(dense, space, classes)
    firsts = np.cumsum((0,) + classes)
    block = np.searchsorted(firsts, np.arange(instance.n), side="right") - 1
    for method, name in dict(zip(METHODS.values(), METHODS)).items():
        if name.startswith("exact_"):
            continue
        (dt, _), (ct, _) = (method(s, GREEDY, ORACLE) for s in (dense, space))
        for field in ("x", "p"):
            d, c = getattr(dt, field), getattr(ct, field)
            assert (d is None) == (c is None), (dt.provenance, field)
            if d is not None:
                np.testing.assert_allclose(c.ravel()[cells], d, rtol=TOL, atol=TOL,
                                           err_msg=f"{dt.provenance} {field}")
        for field in ("xhat", "h"):
            d, c = getattr(dt, field), getattr(ct, field)
            assert (d is None) == (c is None), (dt.provenance, field)
            for i in range(instance.n * (d is not None)):
                np.testing.assert_allclose(c[block[i]], d[i], rtol=TOL, atol=TOL,
                                           err_msg=f"{dt.provenance} {field}")
    assert_spaces_agree(dense, space)


def _rank(counts):
    """Reference rank of count vectors (last axis) among those with the same
    sum: counted from the top type, the bars b_j = c_{K-1} + ... + c_{K-1-j} + j
    of the stars-and-bars picture are a (K-1)-subset, ranked as
    sum_j C(b_j, j+1)."""
    k = counts.shape[-1]
    bars = np.cumsum(counts[..., ::-1][..., :-1], axis=-1) + np.arange(k - 1)
    return np.vectorize(math.comb, otypes=[np.int64])(bars, np.arange(1, k)).sum(axis=-1)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (3, 1), (4, 3), (6, 5), (9, 2)])
def test_contexts_are_the_count_vectors_indexed_by_rank(n, k):
    space = OrbitSpace(symmetric_instance(*make_uniform(k), n))
    (contexts,) = space.contexts
    assert len(contexts) == math.comb(n + k - 2, k - 1)
    assert np.all(contexts.sum(axis=1) == n - 1) and np.all(contexts >= 0)
    assert len({tuple(c) for c in contexts}) == len(contexts)
    np.testing.assert_array_equal(_rank(contexts), np.arange(len(contexts)))
    assert math.isclose(space.weights[0].sum(), 1.0, rel_tol=1e-12)


def _supply_reference(space):
    """(profile, cell, multiplicity) sorted by profile and cell.  On orbits
    every full count vector c + e_k is ranked on its own, then the cells are
    sorted stably by profile; on dense tables bidder i's share at profile v
    is cell i * P + v."""
    if isinstance(space, DenseSpace):
        n, size = space.instance.n, math.prod(space.instance.shape)
        profile = np.repeat(np.arange(size), n)
        return profile, profile + size * np.tile(np.arange(n), size), np.ones(n * size)
    (contexts,) = space.contexts
    full = contexts + np.eye(contexts.shape[1], dtype=np.int64)[:, None]
    profile = _rank(full).ravel()
    cell = np.argsort(profile, kind="stable")
    return profile[cell], cell, contexts.T.ravel()[cell] + 1.0


@pytest.mark.parametrize("k", range(1, 7))
def test_cell_layout_ranks_every_full_profile(k):
    """Each cell's profile and multiplicity: on orbits the reference rank of
    c + e_k and c_k + 1; on dense tables v's flat index and 1 at cell (i, v).
    ``index`` is every cell's flat index split into blocks.  The supply check
    and the rounding budget add the same numbers in the same order as over
    the sorted (profile, cell, multiplicity) entries."""
    rng = np.random.default_rng(k)
    for n in range(1, 13):
        instance = symmetric_instance(*make_uniform(k), n)
        orbit = OrbitSpace(instance)
        (profiles,), (contexts,) = orbit.profiles, orbit.contexts
        (profile,), (multiplicity,) = orbit.split(orbit.profile), orbit.split(orbit.multiplicity)
        full = contexts + np.eye(k, dtype=np.int64)[:, None]
        np.testing.assert_array_equal(profile, _rank(full), err_msg=f"n={n}")
        # the engine's rows: every full profile once, in rank order
        assert len(profiles) == math.comb(n + k - 1, k - 1)
        assert np.all(profiles.sum(axis=1) == n) and np.all(profiles >= 0)
        np.testing.assert_array_equal(_rank(profiles), np.arange(len(profiles)))
        np.testing.assert_array_equal(profiles[profile], full)
        np.testing.assert_array_equal(_rank(contexts), np.arange(len(contexts)))
        np.testing.assert_array_equal(multiplicity, contexts.T + 1)
        spaces = [orbit]
        if k**n <= 4096:
            dense = DenseSpace(instance)
            flat = np.arange(k**n).reshape(instance.shape)
            np.testing.assert_array_equal(dense.profile, np.broadcast_to(flat, dense.shape))
            np.testing.assert_array_equal(dense.multiplicity, np.ones(dense.shape))
            spaces.append(dense)
        for space in spaces:
            size = math.prod(space.shape)
            want = space.split(np.arange(size).reshape(space.shape))
            assert len(space.index) == len(want)
            for got, expected in zip(space.index, want):
                np.testing.assert_array_equal(got, expected)
            profile, cell, count = _supply_reference(space)
            table = rng.uniform(0.0, 1.0 / n, space.shape)
            totals = np.bincount(profile, count * table.ravel()[cell])
            assert space.supply(table) == float(totals.max()) - 1.0
            budget = np.bincount(space.profile.ravel(), space.multiplicity.ravel() * table.ravel())
            assert budget.tobytes() == totals.tobytes(), f"n={n}"


def _cell_rows(space, s):
    """Every bidder's score at each orbit cell, shape (cells, n): the cell's
    own score, then the other bidders' by ascending type."""
    (contexts,) = space.contexts
    k, c, n = s.size, len(contexts), space.instance.n
    own = np.broadcast_to(s[:, None, None], (k, c, 1))
    others = np.repeat(np.tile(s, c), contexts.ravel()).reshape(c, n - 1)
    others = np.broadcast_to(others, (k, c, n - 1))
    return np.concatenate([own, others], axis=2).reshape(k * c, n)


@pytest.mark.parametrize("n,k,low,seed", [
    (1, 1, 0.0, 0), (1, 1, 2.0, 1), (1, 4, 0.0, 2), (5, 1, 0.0, 3), (6, 1, 1.5, 4),
    (2, 3, 0.0, 5), (3, 2, 0.3, 6), (4, 5, 0.0, 7), (7, 2, 0.0, 8), (9, 4, 0.2, 9),
    (5, 6, 0.0, 10),
])
def test_orbit_engines_on_full_profiles_equal_the_cell_rows(n, k, low, seed):
    """One engine row per full type profile, with group sizes, gives the
    shares of the (cells, n) rows that list every bidder's score: pointwise
    and greedy bit for bit, the closed form within 1e-12 relative, zeros
    included.  A lowest type at value 0 has phi^+ = 0; phi itself can be
    negative."""
    rng = np.random.default_rng(seed)
    values = low + np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, k - 1))])
    raw = rng.uniform(0.1, 1.0, k)
    space = OrbitSpace(symmetric_instance(TypeSpace(values),
                                          DiscreteDistribution(raw / raw.sum()), n))
    phi = virtual_values(space.instance)
    phi_plus = phi.phi_plus[0]
    if low == 0.0:
        assert phi_plus[0] == 0.0
    exact = [(surplus_tables(space), values, pointwise_max_batch),
             (virtual_surplus_tables(space), phi.phi[0], pointwise_max_batch)]
    for eps in (1e-3, 0.05):
        cfg = GreedyConfig(epsilon=eps)
        engine = lambda rows, cfg=cfg: eqp_solver_batch(rows, cfg)  # noqa: E731
        exact += [(heuristic_lb_rrm_tables(space, "greedy", cfg), phi_plus, engine),
                  (pseudo_surplus_tables(space, "greedy", cfg), values, engine)]
    for (tables, _), scores, engine in exact:
        want = engine(_cell_rows(space, scores))[:, 0].reshape(space.shape)
        assert tables.x.tobytes() == want.tobytes(), (tables.provenance, tables.x, want)
    for (tables, _), scores in ((heuristic_lb_rrm_tables(space), phi_plus),
                                (pseudo_surplus_tables(space), values)):
        want = closed_form_alloc_batch(_cell_rows(space, scores))[:, 0].reshape(space.shape)
        assert np.all(np.abs(tables.x - want) <= TOL * np.abs(want)), (tables.x, want)


@pytest.mark.parametrize("run,n,bound", [
    pytest.param(surplus_tables, 30, 128, id="pointwise"),
    pytest.param(lambda space: heuristic_lb_rrm_tables(space, "greedy"), 30, 512, id="greedy"),
    pytest.param(heuristic_lb_rrm_tables, 30, 128, id="closed_form"),
    pytest.param(lambda space: heuristic_lb_rrm_tables(space, "greedy"), 50, 64, id="greedy_n50"),
])
def test_orbit_engine_peak_memory_per_cell(run, n, bound):
    """uniform:5 at n = 30 has 204,600 orbit cells and 46,376 full type
    profiles; each engine reads one row of five scores per profile.  An
    engine fed a row of the n bidders' scores per cell needs about 520 bytes
    per cell pointwise and 5,200 greedy, above these bounds.  At n = 50
    (1,464,125 cells, 316,251 profiles) the greedy engine runs in slices of
    profiles; run whole, its own arrays take about 200 bytes per cell."""
    space = OrbitSpace(symmetric_instance(*make_uniform(5), n))
    tracemalloc.start()
    try:
        run(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * math.prod(space.shape)


@pytest.mark.parametrize("run", [
    surplus_tables,
    lambda space: heuristic_lb_rrm_tables(space, "greedy", GREEDY),
    lambda space: heuristic_lb_rrm_tables(space, "closed_form"),
], ids=["pointwise", "greedy", "closed_form"])
def test_orbit_allocation_owns_its_memory(run):
    """The orbit ``x`` is not a view of the engine's (profiles, K) output,
    which would stay alive as long as the table does."""
    tables, _ = run(OrbitSpace(symmetric_instance(*make_uniform(5), 12)))
    assert tables.x.shape == (5, 1365)
    assert tables.x.base is None


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_orbit_weights_are_the_multinomial_probabilities(n):
    pmf = np.array([0.2, 0.3, 0.5])
    space = OrbitSpace(symmetric_instance(TypeSpace(np.array([1.0, 2.0, 3.0])),
                                          DiscreteDistribution(pmf), n))
    for c, weight in zip(space.contexts[0].tolist(), space.weights[0]):
        exact = math.comb(n - 1, c[0]) * math.comb(n - 1 - c[0], c[1]) * math.prod(pmf**c)
        assert math.isclose(weight, exact, rel_tol=1e-14), (c, weight, exact)


def test_orbit_weights_sum_to_one_at_two_thousand_bidders():
    """Probabilities of 1,999 other bidders; the factorials overflow a float."""
    weights = OrbitSpace(symmetric_instance(*make_uniform(2), 2000)).weights[0]
    assert len(weights) == 2000
    assert abs(weights.sum() - 1.0) <= 1e-9


@pytest.mark.parametrize("n", [127, 128, 32767, 32768])
def test_orbit_counts_hold_n_at_the_integer_type_bounds(n):
    """The counts' integer type widens at these n.  Every full profile holds n
    bidders, so where all n have the top type each gets 1/n, not 0."""
    space = OrbitSpace(symmetric_instance(*make_uniform(2), n))
    (profiles,), (contexts,) = space.profiles, space.contexts
    assert np.all(profiles.sum(axis=1) == n) and np.all(profiles >= 0)
    (top,) = np.flatnonzero(contexts[:, 1] == n - 1)
    for tables, _ in (surplus_tables(space), heuristic_lb_rrm_tables(space, "greedy"),
                      pseudo_surplus_tables(space)):
        assert math.isclose(tables.x[1, top], 1.0 / n, rel_tol=TOL), tables.provenance


def test_experiment_at_eleven_hundred_bidders_verifies(tmp_path):
    out = tmp_path / "n1100.csv"
    assert main(["experiment", "--dist", "categorical:3,10,0.8", "--bidders", "1100..1100",
                 "--methods", "heur_brm_cf", "--output", str(out), "--no-timing"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["n_bidders"], r["verified"]) for r in rows] == [("1100", "true")]


def test_ex_ante_rows_at_a_thousand_bidders_never_build_the_orbit_layout():
    """binomial:9,0.5 at n = 1,000: C(1008, 9), about 2.9e21 contexts.  The
    ex-ante rows and their BIC/BIR/XA checks read only the block."""
    space = OrbitSpace(symmetric_instance(*make_binomial(9, 0.5), 1000))
    assert space.shape == (10, math.comb(1008, 9))
    for truncate in (False, True):
        tables, report = ex_ante_tables(space, truncate)
        assert report.revenue > 0
        assert all(c.passed for c in check(tables).values())
    layout = {"profiles", "contexts", "weights", "index", "_column_sizes", "_at", "profile",
              "multiplicity"}
    assert not layout & set(vars(space))


@pytest.mark.parametrize("space_of", [DenseSpace, OrbitSpace,
                                      lambda instance: ProfileSpace(instance, (1, 2))],
                         ids=["dense", "orbit", "classes"])
def test_layout_arrays_are_read_only(space_of):
    """Every table of a space reads one layout, so none may write it."""
    space = space_of(symmetric_instance(*make_uniform(3), 3))
    for name, arrays in (("index", space.index), ("weights", space.weights),
                         ("profile", [space.profile]), ("multiplicity", [space.multiplicity])):
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[0] = 1
            assert not a.flags.writeable, name


def test_dense_spaces_of_one_instance_share_one_layout():
    instance = symmetric_instance(*make_uniform(3), 2)
    space = DenseSpace(instance)
    again = DenseSpace(instance)
    assert again.instance is instance and again.index is space.index
    assert again.multiplicity is space.multiplicity and again.weights is space.weights
    twin = symmetric_instance(*make_uniform(3), 2)
    assert DenseSpace(twin).instance is twin and DenseSpace(twin).index is not space.index


def test_dense_layout_is_freed_with_its_instance():
    """The layout kept on an instance does not refer back to it, so dropping
    the instance frees both at once, without a garbage collection."""
    import gc
    import weakref

    gc.disable()
    try:
        instance = symmetric_instance(*make_uniform(3), 3)
        space = DenseSpace(instance)
        heuristic_lb_rrm_tables(space)
        check(heuristic_lb_rrm_tables(DenseSpace(instance))[0])
        gone = weakref.ref(instance), weakref.ref(space.index[0])
        del instance, space
        assert [ref() for ref in gone] == [None, None]
    finally:
        gc.enable()


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


_GREEDY_METHODS = ("heur_lb_greedy", "pseudo_surplus_greedy", "heur_brm_greedy")
# the orbit grid the README's safe greedy increments are measured on: 81 rows
_GREEDY_GRID = ([("uniform:5", make_uniform(5), n) for n in range(2, 13)]
                + [("categorical:3,10,0.8", make_categorical(3, 10, 0.8), n) for n in range(2, 13)]
                + [("binomial:9,0.5", make_binomial(9, 0.5), n) for n in range(2, 7)])


def _greedy_row(bidder, n, method, epsilon):
    space = OrbitSpace(symmetric_instance(*bidder, n))
    tables, report = METHODS[method](space, GreedyConfig(epsilon=epsilon), ORACLE)
    return check(tables), report


@pytest.mark.parametrize("epsilon", [1e-3, 1e-2])
def test_greedy_methods_verify_on_the_orbit_grid_at_safe_epsilon(epsilon):
    """At eps = 1e-3 and 1e-2 every greedy row of the grid verifies, unwarned."""
    failed = []
    for label, bidder, n in _GREEDY_GRID:
        for method in _GREEDY_METHODS:
            checks, report = _greedy_row(bidder, n, method, epsilon)
            if report.warnings or not all(c.passed for c in checks.values()):
                failed.append((label, n, method))
    assert failed == []


def test_greedy_pseudo_surplus_fails_ic_at_epsilon_five_hundredths():
    """At eps = 0.05 the first failing row of the grid: uniform:5 at n = 7,
    whose greedy pseudo-surplus rule is not monotone, warns and fails IC by
    about 1.8e-3; at n = 6 it still verifies."""
    checks, report = _greedy_row(make_uniform(5), 7, "pseudo_surplus_greedy", 0.05)
    assert report.warnings == ("allocation is not monotone; payments clamped, "
                               "IC/IR not guaranteed",)
    assert not checks["ic"].passed
    assert math.isclose(checks["ic"].worst_violation, 1.7857e-3, abs_tol=1e-7)
    assert checks["ir"].passed and checks["xp"].passed
    checks, _ = _greedy_row(make_uniform(5), 6, "pseudo_surplus_greedy", 0.05)
    assert all(c.passed for c in checks.values())


_SHARED = make_uniform(3)[0]  # one type space, given two pmfs below


@pytest.mark.parametrize("instance, classes, message", [
    (symmetric_instance(*make_uniform(3), 3), (2, 2), "classes must split the bidders"),
    (symmetric_instance(*make_uniform(3), 3), (3, 0), "classes must split the bidders"),
    (AuctionInstance((make_uniform(3), make_uniform(2))), (2,), "identically distributed"),
    (AuctionInstance((make_uniform(3), make_uniform(3))), (2,), None),
    (AuctionInstance(((_SHARED, DiscreteDistribution(np.full(3, 1 / 3))),
                      (_SHARED, DiscreteDistribution(np.array([0.2, 0.3, 0.5]))))),
     (2,), "identically distributed"),
], ids=["too-many", "empty-class", "mixed-class", "equal-objects", "shared-space-other-pmf"])
def test_profile_space_rejects_classes_that_are_not_runs(instance, classes, message):
    """A class is a run of identically distributed bidders: distinct objects
    holding equal arrays make one, a shared type space with another pmf not."""
    with pytest.raises(ValueError, match=message) if message else contextlib.nullcontext():
        ProfileSpace(instance, classes)


def test_virtual_values_are_held_once_per_class():
    """A class of 10^5 bidders holds one phi, bit for bit the one-bidder
    table's, and its ex-ante rows and their check read the block alone,
    never the layout; each class of a two-class space holds its first
    bidder's phi."""
    space = OrbitSpace(symmetric_instance(*make_uniform(5), 10**5))
    table, regular = space.virtual
    one = virtual_values(symmetric_instance(*make_uniform(5), 1))
    assert regular == (True,)
    for got, want in ((table.phi, one.phi), (table.phi_plus, one.phi_plus)):
        assert len(got) == 1 and got[0].tobytes() == want[0].tobytes()
    for truncate in (False, True):
        tables, _ = ex_ante_tables(space, truncate)
        assert all(c.passed for c in check(tables).values())
    assert not {"index", "profiles", "weights"} & set(vars(space))
    instance = AuctionInstance((make_uniform(5),) * 2 + (make_binomial(4, 0.5),) * 3)
    per_bidder = virtual_values(instance).phi
    got = ProfileSpace(instance, (2, 3)).virtual[0].phi
    assert [p.tobytes() for p in got] == [per_bidder[0].tobytes(), per_bidder[2].tobytes()]


def test_orbit_ex_ante_revenue_at_a_hundred_thousand_bidders_is_within_two_ulps():
    """uniform:5 has phi^+ = (0, 0, 0, 1/2, 1) and E[phi^+] = 3/10, so x̂ =
    (0, 0, 0, 5, 10) / (3n), its chain payments q = (0, 0, 0, 5/4, 35/12) / n
    and the revenue n sum_k f_k sqrt(q_k) = sqrt(n) (sqrt(5/4) + sqrt(35/12)) / 5.
    The normalizer n E[phi^+], a product rather than a sum of n equal terms,
    keeps it within 2 ulps (the sum read 178.72302309226623, 8.2e-13 off)."""
    n = 10**5
    with localcontext() as ctx:
        ctx.prec = 40
        exact = Decimal(n).sqrt() * ((Decimal(5) / 4).sqrt() + (Decimal(35) / 12).sqrt()) / 5
        space = OrbitSpace(symmetric_instance(*make_uniform(5), n))
        for truncate in (False, True):
            revenue = ex_ante_tables(space, truncate)[1].revenue
            assert abs(Decimal(revenue) - exact) <= 2 * Decimal(np.spacing(float(exact))), revenue


_RARE_MIDDLE = (TypeSpace(np.array([1.0, 2.0, 3.0])),
                DiscreteDistribution(np.array([0.475, 0.05, 0.475])))


@pytest.mark.parametrize("run", [
    virtual_surplus_tables, heuristic_lb_rrm_tables, heuristic_brm_tables, ex_ante_tables,
    lambda space: ex_ante_tables(space, True),
], ids=["virtual_surplus", "heur_lb", "heur_brm", "ex_ante", "ex_ante_trunc"])
def test_irregular_warning_names_every_bidder_a_block_stands_for(run):
    """A rare middle type makes a bidder irregular: three such bidders warn
    alike on the orbit and the dense space, and a class space names the run
    of bidders its irregular class stands for."""
    instance = symmetric_instance(*_RARE_MIDDLE, 3)
    dense = run(DenseSpace(instance))[1].warnings
    assert "irregular distribution for bidder(s) 0-2" in dense
    assert run(OrbitSpace(instance))[1].warnings == dense
    mixed = AuctionInstance((make_uniform(3),) * 2 + (_RARE_MIDDLE,) * 3)
    assert "irregular distribution for bidder(s) 2-4" in run(
        ProfileSpace(mixed, (2, 3)))[1].warnings


def test_irregular_warning_on_a_million_bidders_is_one_short_line():
    """An orbit names its irregular bidders as one run, not one by one: the
    warning once listed all 10^6 of them in 7.9 MB."""
    space = OrbitSpace(symmetric_instance(*_RARE_MIDDLE, 10**6))
    warnings = ex_ante_tables(space)[1].warnings
    assert warnings == ("irregular distribution for bidder(s) 0-999999",)
    assert len(warnings[0]) < 100
