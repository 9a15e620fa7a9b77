import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from convexauction import (
    AuctionInstance,
    DiscreteDistribution,
    ExPostAllocation,
    Mechanism,
    OracleConfig,
    OracleRefusal,
    TypeSpace,
    exact_brm,
    exact_rrm,
    export_program,
    heuristic_brm,
    heuristic_lb_rrm,
    make_categorical,
    make_uniform,
    robust_payment,
    symmetric_instance,
    verify,
)
from convexauction import (
    InterimAllocation,
    InterimPaymentRule,
    RobustPaymentRule,
    bayesian_payment,
    bound_report,
)
from convexauction import oracle
from convexauction.alloc import GreedyConfig
from convexauction.cli import METHODS
from convexauction.discretization import round_table
from convexauction.mechanisms import heuristic_brm_tables, heuristic_lb_rrm_tables, surplus_tables
from convexauction import spaces
from convexauction.spaces import DenseSpace, OrbitSpace, ProfileSpace
from conftest import raised_heuristic_brm, single_type_instance


def two_value_uniform(lo, hi, n=2):
    space = TypeSpace(np.array([float(lo), float(hi)]))
    dist = DiscreteDistribution(np.array([0.5, 0.5]))
    return symmetric_instance(space, dist, n)


class TestVerify:
    def test_worked_example_passes(self, two_bidder_0_100):
        table = np.zeros((2, 2, 2))
        table[0, 1, 0] = table[1, 0, 1] = 1.0
        table[0, 1, 1] = table[1, 1, 1] = 0.5
        alloc = ExPostAllocation(table)
        mech = Mechanism(alloc, robust_payments=robust_payment(alloc, two_bidder_0_100))
        checks = verify(two_bidder_0_100, mech, ("ic", "ir", "xp"))
        assert all(c.passed for c in checks.values())

    def test_deliberate_overallocation_fails_xp_exactly_one(self, two_bidder_0_100):
        table = np.zeros((2, 2, 2))
        table[0, 1, 1] = table[1, 1, 1] = 1.0
        mech = Mechanism(ExPostAllocation(table))
        result = verify(two_bidder_0_100, mech, ("xp",))["xp"]
        assert not result.passed
        assert result.worst_violation == 1.0

    def test_bayesian_mechanism_bic_bir_pass_but_ir_fails(self, two_bidder_0_100):
        table = np.zeros((2, 2, 2))
        table[0, 1, 0] = table[1, 0, 1] = 1.0
        table[0, 1, 1] = table[1, 1, 1] = 0.5
        alloc = ExPostAllocation(table)
        interim = InterimAllocation((np.array([0.0, 0.75]), np.array([0.0, 0.75])))
        h = bayesian_payment(interim, two_bidder_0_100)
        mech = Mechanism(alloc, interim_allocation=interim, interim_payments=h)
        checks = verify(two_bidder_0_100, mech, ("bic", "bir", "xp", "ir"))
        assert checks["bic"].passed and checks["bir"].passed and checks["xp"].passed
        # per-profile IR fails at (100, 100): utility 50 - 75 = -25
        assert not checks["ir"].passed
        assert math.isclose(checks["ir"].worst_violation, 25.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_robust_violations_fail_ic_ir(self, two_bidder_0_100):
        # p = 1e200 squares to inf: IR's worst violation is inf, IC's inf - inf = NaN
        mech = Mechanism(
            ExPostAllocation(np.full((2, 2, 2), 0.5)),
            robust_payments=RobustPaymentRule(np.full((2, 2, 2), 1e200)),
        )
        checks = verify(two_bidder_0_100, mech, ("ic", "ir"))
        assert math.isnan(checks["ic"].worst_violation)
        assert math.isinf(checks["ir"].worst_violation)
        assert not checks["ic"].passed and not checks["ir"].passed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_interim_violations_fail_bic_bir(self, two_bidder_0_100):
        interim = InterimAllocation((np.array([0.0, 0.75]), np.array([0.0, 0.75])))
        h = InterimPaymentRule((np.full(2, 1e200), np.full(2, 1e200)))
        mech = Mechanism(None, interim_allocation=interim, interim_payments=h)
        checks = verify(two_bidder_0_100, mech, ("bic", "bir"))
        assert math.isnan(checks["bic"].worst_violation)
        assert math.isinf(checks["bir"].worst_violation)
        assert not checks["bic"].passed and not checks["bir"].passed

    def test_unknown_constraint_rejected(self, two_bidder_0_100):
        mech = Mechanism(ExPostAllocation(np.zeros((2, 2, 2))))
        with pytest.raises(ValueError):
            verify(two_bidder_0_100, mech, ("nope",))


class TestOneInterimRule:
    """x̂ is the collapse of the ex-post allocation whenever there is one."""

    def test_raised_interim_rule_fails_bir(self):
        instance, raised = raised_heuristic_brm()
        checks = verify(instance, raised)
        assert list(checks) == ["bic", "bir", "xp"]
        assert not checks["bir"].passed
        assert math.isclose(checks["bir"].worst_violation, 0.9)

    def test_stored_interim_rule_is_not_read_beside_an_allocation(self):
        instance = symmetric_instance(*make_categorical(3, 10, 0.8), 3)
        mech, _ = heuristic_brm(instance)
        halved = InterimAllocation(tuple(t / 2 for t in mech.interim_allocation.tables))
        unstored = verify(instance, replace(mech, interim_allocation=None), ("bic", "xa"))
        assert verify(instance, replace(mech, interim_allocation=halved), ("bic", "xa")) == unstored
        assert all(c.passed for c in unstored.values())

    def test_producers_store_the_collapse_bit_for_bit(self):
        space = OrbitSpace(symmetric_instance(*make_uniform(3), 4))
        for tables in (heuristic_brm_tables(space)[0], heuristic_brm_tables(space, "greedy")[0],
                       oracle.exact_tables(space, OracleConfig(), "brm")[0]):
            for stored, collapsed in zip(tables.xhat, space.collapse(space.split(tables.x))):
                assert np.array_equal(stored, collapsed)


TABLES = ("x", "p", "xhat", "h")


@pytest.mark.parametrize("space_of", [DenseSpace, OrbitSpace])
@pytest.mark.parametrize("keep", list(itertools.product((False, True), repeat=4)),
                         ids=lambda keep: "+".join(t for t, k in zip(TABLES, keep) if k) or "none")
def test_every_table_subset_checks_or_names_what_it_lacks(space_of, keep):
    """Each subset of {x, p, xhat, h} on each set: a result where the set's
    inputs can be derived (x with p or h for IC/IR; xhat or x, with h or p,
    for BIC/BIR; x for XP; x or xhat for XA), else a ValueError naming it."""
    space = space_of(symmetric_instance(*make_uniform(3), 3))
    robust, _ = heuristic_lb_rrm_tables(space)
    bayesian, _ = heuristic_brm_tables(space)
    full = replace(robust, xhat=bayesian.xhat, h=bayesian.h)
    tables = replace(full, **{t: None for t, k in zip(TABLES, keep) if not k})
    x, p, xhat, h = keep
    derivable = {"ic": x and (p or h), "ir": x and (p or h), "bic": (x or xhat) and (p or h),
                 "bir": (x or xhat) and (p or h), "xp": x, "xa": x or xhat}
    for name in oracle.CONSTRAINTS:
        if derivable[name]:
            assert list(oracle.check(tables, (name,))) == [name]
        else:
            with pytest.raises(ValueError, match=f"^{name} check needs "):
                oracle.check(tables, (name,))
    try:
        results = oracle.check(tables)
    except ValueError as exc:
        assert re.match(r"(ic|ir|bic|bir|xp|xa) check needs ", str(exc))
    else:
        assert all(derivable[name] for name in results)


def _instance(*type_counts):
    return AuctionInstance(tuple(
        (TypeSpace(np.linspace(1.0, 2.0, k)), DiscreteDistribution(np.full(k, 1.0 / k)))
        for k in type_counts))


def test_tables_of_another_instance_are_rejected():
    """A (2, 3)-type mechanism checked or bounded on the (3, 2)-type instance."""
    mech, _ = heuristic_lb_rrm(_instance(2, 3))
    for instance in (_instance(3, 2), _instance(2, 3, 2)):
        with pytest.raises(ValueError, match="allocation table does not match instance"):
            verify(instance, mech, ("ic", "ir"))
        with pytest.raises(ValueError, match="allocation table does not match instance"):
            bound_report(instance, mech)
    payments = replace(mech, allocation=None)
    with pytest.raises(ValueError, match="payment table does not match instance"):
        verify(_instance(3, 2), payments, ("ic",))
    bayesian, _ = heuristic_brm(_instance(2, 3))
    interim = Mechanism(None, interim_allocation=bayesian.interim_allocation)
    with pytest.raises(ValueError, match="interim allocation does not match instance"):
        verify(_instance(3, 2), interim, ("xa",))
    paid = Mechanism(None, interim_payments=bayesian.interim_payments)
    with pytest.raises(ValueError, match="interim payments does not match instance"):
        verify(_instance(2, 2), paid, ("bic",))


@pytest.mark.parametrize("entries", [1, 9, 50])
def test_ic_in_context_slices_matches_the_whole_tensor(monkeypatch, entries):
    """IC over slices of a few contexts gives the whole tensor's worst
    violation bit for bit, on a robust rule and on one that fails IC (the
    Bayesian rule's interim payments charged at every context)."""
    space = OrbitSpace(symmetric_instance(*make_uniform(3), 4))
    robust, _ = heuristic_lb_rrm_tables(space)
    bayesian, _ = heuristic_brm_tables(space)
    whole = [oracle.check(t, ("ic", "ir")) for t in (robust, replace(bayesian, xhat=None))]
    assert not whole[1]["ic"].passed
    monkeypatch.setattr(oracle, "_IC_ENTRIES", entries)
    sliced = [oracle.check(t, ("ic", "ir")) for t in (robust, replace(bayesian, xhat=None))]
    assert sliced == whole


def test_ic_check_peak_memory_per_cell():
    """uniform:5 at n = 50 on orbits: 1,464,125 cells on 292,825 contexts.
    IC evaluated on each block's whole (K, K, C) deviation tensor peaks at
    about 90 bytes per cell; over context slices, about 50."""
    space = OrbitSpace(symmetric_instance(*make_uniform(5), 50))
    tables, _ = surplus_tables(space)
    tracemalloc.start()
    try:
        checks = oracle.check(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks.values())
    assert peak <= 64 * math.prod(space.shape)


def test_xp_check_peak_memory_per_cell():
    """XP on the same table.  Summed over the whole table at once, with its
    profile index, the supply totals peak at about 42 bytes per cell; over
    slices of cells, about 10.4, of which 8 are the multiplicity the space
    keeps: the squared payments, which XP does not read, are not derived."""
    space = OrbitSpace(symmetric_instance(*make_uniform(5), 50))
    tables, _ = surplus_tables(space)
    tracemalloc.start()
    try:
        checks = oracle.check(tables, ("xp",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks["xp"].passed
    assert peak <= 12 * math.prod(space.shape)


@pytest.mark.parametrize("cells", [1, 7, 2**16])
def test_supply_in_slices_matches_one_bincount(monkeypatch, cells):
    """The sliced supply total adds each profile's shares in cell order, as
    one bincount over the whole table does: the same worst excess, bit for
    bit, on a dense, an orbit and a two-class space."""
    rng = np.random.default_rng(4)
    for space in (DenseSpace(symmetric_instance(*make_uniform(3), 3)),
                  OrbitSpace(symmetric_instance(*make_uniform(5), 6)),
                  ProfileSpace(AuctionInstance((make_uniform(3),) * 2 + (make_uniform(2),) * 3),
                               (2, 3))):
        table = rng.random(space.shape)
        whole = np.bincount(space.profile.ravel(), (space.multiplicity * table).ravel())
        monkeypatch.setattr(spaces, "_SUPPLY_CELLS", cells)
        assert space.supply(table) == float(whole.max()) - 1.0


class TestExactRrm:
    def test_single_bidder_single_type(self):
        inst = single_type_instance(1.0, 1)
        mech, report = exact_rrm(inst, OracleConfig(grid=0.01))
        assert math.isclose(report.revenue, 1.0)
        np.testing.assert_allclose(mech.allocation.table, 1.0)

    @pytest.mark.parametrize("v", [25.0, 64.0])
    def test_two_value_closed_form(self, v):
        inst = two_value_uniform(0, v)
        config = OracleConfig(grid=1e-3)
        _, report = exact_rrm(inst, config)
        expected = 0.5 * (math.sqrt(v) + math.sqrt(v / 2))
        assert abs(report.revenue - expected) <= report.grid_slack

    @pytest.mark.parametrize("v", [25.0, 64.0])
    def test_three_bidder_closed_form_off_grid(self, v):
        # the high bidders of each profile split the item equally, so the
        # optimum holds 1/3 shares that no grid point reaches
        inst = two_value_uniform(0, v, n=3)
        mech, report = exact_rrm(inst, OracleConfig(grid=1e-3))
        expected = math.sqrt(v) / 8 * (3 + 6 / math.sqrt(2) + 3 / math.sqrt(3))
        assert 0.0 <= expected - report.revenue <= report.grid_slack
        assert math.isclose(mech.allocation.table[0][1, 1, 1], 1 / 3, abs_tol=1e-9)

    def test_dominates_heuristics(self, categorical_pair):
        config = OracleConfig(grid=1e-3)
        _, oracle_report = exact_rrm(categorical_pair, config)
        for pipeline in (heuristic_lb_rrm,):
            _, rep = pipeline(categorical_pair, "closed_form")
            assert oracle_report.revenue >= rep.revenue - oracle_report.grid_slack

    def test_output_passes_verifier(self, categorical_pair):
        mech, _ = exact_rrm(categorical_pair, OracleConfig(grid=0.01))
        checks = verify(categorical_pair, mech, ("ic", "ir", "xp"))
        assert all(c.passed for c in checks.values())

    def test_matches_heuristic_allocation_on_worked_example(self, two_bidder_0_100):
        config = OracleConfig(grid=1e-3)
        oracle_mech, _ = exact_rrm(two_bidder_0_100, config)
        heur_mech, _ = heuristic_lb_rrm(two_bidder_0_100, "closed_form")
        gap = np.abs(oracle_mech.allocation.table - heur_mech.allocation.table)
        assert gap.max() <= config.grid + 1e-12

    def test_asymmetric_with_degenerate_partner(self):
        # bidder 2 has the single type 0 and never pays; everything should go
        # to bidder 1 whenever their value is positive
        b1 = (TypeSpace(np.array([0.0, 36.0])), DiscreteDistribution(np.array([0.5, 0.5])))
        b2 = (TypeSpace(np.array([0.0])), DiscreteDistribution(np.array([1.0])))
        inst = AuctionInstance((b1, b2))
        mech, report = exact_rrm(inst, OracleConfig(grid=0.02))
        assert math.isclose(report.revenue, 0.5 * 6.0, abs_tol=report.grid_slack)
        assert math.isclose(mech.allocation.table[0][1, 0], 1.0)

    def test_uniform5_pair_solves_and_beats_heuristic(self):
        # 2 x 25 variables: the largest symmetric pair under the variable cap
        inst = symmetric_instance(*make_uniform(5), 2)
        mech, report = exact_rrm(inst, OracleConfig(grid=1e-3))
        assert all(c.passed for c in verify(inst, mech, ("ic", "ir", "xp")).values())
        assert 0.0 <= report.grid_slack <= 1e-6
        _, heur = heuristic_lb_rrm(inst, "closed_form")
        assert report.revenue >= heur.revenue - report.grid_slack

    def test_refusal_on_large_instance(self):
        space, dist = make_uniform(5)
        inst_big = symmetric_instance(space, dist, 3)
        with pytest.raises(OracleRefusal, match=r"^instance has 375 allocation variables, above "
                                                r"the cap of 64$"):
            exact_rrm(inst_big, OracleConfig(grid=0.1))

    def test_no_random_monotone_table_beats_the_oracle(self, categorical_pair):
        config = OracleConfig(grid=0.01)
        _, report = exact_rrm(categorical_pair, config)
        rng = np.random.default_rng(99)
        from convexauction import expected_revenue

        best = 0.0
        for _ in range(3000):
            table = rng.uniform(0.0, 1.0, size=(2, 2, 2))
            table /= np.maximum(table.sum(axis=0, keepdims=True), 1.0)
            for i in range(2):
                table[i] = np.sort(table[i], axis=i)
            alloc = ExPostAllocation(table)
            if not alloc.is_feasible():
                continue
            rev = expected_revenue(robust_payment(alloc, categorical_pair), categorical_pair)
            best = max(best, rev)
        assert best <= report.revenue + report.grid_slack

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(grid=0.3)
        with pytest.raises(ValueError):
            OracleConfig(grid=0.007)

    @pytest.mark.parametrize("mode", ["cubic", "bogus", "rrm_lin", "RRM"])
    def test_unknown_mode_is_refused_before_solving(self, monkeypatch, mode):
        def solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(oracle, "_solve", solve)
        with pytest.raises(ValueError, match=rf"^unknown mode '{mode}'; choose rrm, rrm_linear "
                                             r"or brm$"):
            oracle.exact_tables(DenseSpace(two_value_uniform(0, 1)), OracleConfig(), mode)

    def test_single_bidder_three_types_analytic_optimum(self):
        # types {0, 1/2, 1}, uniform pmf: q_2 = x_2/2 - x_1/2 and
        # q_3 = x_3 - x_1/2 - x_2/2, so x_1 = 0 and x_3 = 1 are forced and
        # d/dx_2 [sqrt(x_2/2) + sqrt(1 - x_2/2)] = 0 at x_2 = 1;
        # the optimum is x = (0, 1, 1) with revenue (2/3) sqrt(1/2)
        space = TypeSpace(np.array([0.0, 0.5, 1.0]))
        dist = DiscreteDistribution(np.full(3, 1.0 / 3))
        inst = AuctionInstance(((space, dist),))
        config = OracleConfig(grid=0.01)
        mech, report = exact_rrm(inst, config)
        np.testing.assert_allclose(mech.allocation.table[0], [0.0, 1.0, 1.0])
        assert math.isclose(report.revenue, 2 * math.sqrt(0.5) / 3, abs_tol=1e-9)
        # single-bidder interim equals ex-post, so the Bayesian optimum matches
        _, brm_report = exact_brm(inst, config)
        assert math.isclose(brm_report.revenue, report.revenue, abs_tol=1e-9)


class TestExactBrm:
    def test_single_bidder_single_type(self):
        inst = single_type_instance(1.0, 1)
        mech, report = exact_brm(inst, OracleConfig(grid=0.01))
        assert math.isclose(report.revenue, 1.0)
        np.testing.assert_allclose(mech.interim_payments.tables[0], [1.0])

    def test_brm_at_least_rrm_same_grid(self):
        for inst in (
            two_value_uniform(0, 100),
            symmetric_instance(*make_uniform(2), 2),
        ):
            config = OracleConfig(grid=0.01)
            _, rrm = exact_rrm(inst, config)
            _, brm = exact_brm(inst, config)
            assert brm.revenue >= rrm.revenue - 1e-9

    def test_output_passes_verifier(self, two_bidder_0_100):
        mech, _ = exact_brm(two_bidder_0_100, OracleConfig(grid=0.01))
        checks = verify(two_bidder_0_100, mech, ("bic", "bir", "xp"))
        assert all(c.passed for c in checks.values())

    def test_dominates_bayesian_heuristic(self, categorical_pair):
        config = OracleConfig(grid=1e-3)
        _, oracle_report = exact_brm(categorical_pair, config)
        _, heur = heuristic_brm(categorical_pair, "closed_form")
        assert oracle_report.revenue >= heur.revenue - oracle_report.grid_slack

    def test_uniform5_pair_solves_and_beats_heuristic(self):
        inst = symmetric_instance(*make_uniform(5), 2)
        mech, report = exact_brm(inst, OracleConfig(grid=1e-3))
        assert all(c.passed for c in verify(inst, mech, ("bic", "bir", "xp")).values())
        assert 0.0 <= report.grid_slack <= 1e-6
        _, heur = heuristic_brm(inst, "closed_form")
        assert report.revenue >= heur.revenue - report.grid_slack

    def test_no_random_feasible_table_beats_the_oracle(self, two_bidder_0_100):
        config = OracleConfig(grid=0.01)
        _, report = exact_brm(two_bidder_0_100, config)
        rng = np.random.default_rng(123)
        from convexauction import expected_revenue, interim_collapse

        best = 0.0
        for _ in range(3000):
            table = rng.uniform(0.0, 1.0, size=(2, 2, 2))
            table /= np.maximum(table.sum(axis=0, keepdims=True), 1.0)
            alloc = ExPostAllocation(table)
            if not alloc.is_feasible():
                continue
            interim = interim_collapse(alloc, two_bidder_0_100)
            if not interim.is_monotone():
                continue
            rev = expected_revenue(
                bayesian_payment(interim, two_bidder_0_100), two_bidder_0_100
            )
            best = max(best, rev)
        assert best <= report.revenue + report.grid_slack


@pytest.mark.parametrize("solver", [exact_rrm, exact_brm])
def test_symmetric_instance_gives_swap_invariant_table(solver):
    # the interior-point iterates commute with swapping the bidders, so from
    # a symmetric start they are symmetric without any symmetry quotient
    inst = symmetric_instance(*make_uniform(3), 2)
    mech, _ = solver(inst, OracleConfig(grid=0.05))
    table = mech.allocation.table
    np.testing.assert_allclose(table[0], table[1].T, rtol=0, atol=1e-9)


class TestLinearOracle:
    def test_linear_rrm_equals_virtual_surplus_pipeline(self, categorical_pair):
        from convexauction import virtual_surplus_maximizer

        _, vs = virtual_surplus_maximizer(categorical_pair)
        tables, lin = oracle.exact_tables(DenseSpace(categorical_pair), OracleConfig(grid=1e-3),
                                          "rrm_linear")
        assert abs(vs.revenue - lin.revenue) <= lin.grid_slack
        # named as the linear program it solves, not as the robust one
        assert tables.provenance == "exact_rrm_linear[grid=0.001]"
        assert tables.perceived == "linear"


def _interior_point(blk, rng):
    """A random strictly feasible table: the solver's start, each cell moved
    by at most 0.3 of the gap between adjacent own types."""
    x, n = np.empty(blk.size), blk.space.instance.n
    for cells in blk.space.index:
        k = len(cells)
        x[cells] = (np.arange(1, k + 1)[:, None] + rng.uniform(-0.3, 0.3, cells.shape)) / (
            (k + 1) * n)
    return x


NEWTON_SPACES = {
    "golden {0,100} n=2": lambda: DenseSpace(two_value_uniform(0, 100)),
    "categorical n=3": lambda: DenseSpace(symmetric_instance(*make_categorical(3, 10, 0.8), 3)),
    "uniform:5 n=2 orbits": lambda: OrbitSpace(symmetric_instance(*make_uniform(5), 2)),
    "uniform:5 n=4 orbits": lambda: OrbitSpace(symmetric_instance(*make_uniform(5), 4)),
}


class TestNewtonSystem:
    @pytest.mark.parametrize("mode", ["rrm", "rrm_linear", "brm"])
    @pytest.mark.parametrize("label", NEWTON_SPACES)
    def test_program_rows_stack_the_block_pieces(self, label, mode):
        """G = [-I; supply; mono; -chain] and h = [0; 1; 0; 0], the first m
        rows the slacks; zero chain rows are dropped, and in brm mono and
        chain act on x through the collapse."""
        blk = oracle._Blocks(NEWTON_SPACES[label]())
        prog = oracle._program(blk, mode)
        hat = mode == "brm"
        lift = blk.collapse().dense() if hat else np.eye(blk.size)
        supply, mono, chain = blk.supply().dense(), blk.mono(hat).dense(), blk.chain(hat)[0].dense()
        assert chain.any(axis=1).all()
        G = np.vstack([-np.eye(blk.size), supply, mono @ lift, -(chain @ lift)])
        h = np.concatenate([np.zeros(blk.size), np.ones(len(supply)), np.zeros(len(mono)),
                            np.zeros(len(chain))])
        np.testing.assert_array_equal(prog.G, G)
        np.testing.assert_array_equal(prog.h, h)
        assert prog.m == blk.size + len(supply) + len(mono)

    @pytest.mark.parametrize("mode", ["rrm", "rrm_linear", "brm"])
    @pytest.mark.parametrize("label", NEWTON_SPACES)
    def test_structured_system_matches_dense_formula(self, label, mode):
        """H = A^T diag(lam / s) A + Q^T diag(w / (4 q^1.5)) Q (no Q term when
        linear) and rhs = grad R - A^T (1 / (t s)), with A, b and Q read from
        G and h, agree with ``_system``'s at random strictly feasible
        (x, lam), and the residual map gives grad R at 0; t is
        factor m / max(lam.s, box), or the previous t if that is larger, and
        lam's part of the bound is lam.s + box."""
        blk = oracle._Blocks(NEWTON_SPACES[label]())
        prog = oracle._program(blk, mode)
        m, w = prog.m, prog.w
        A, b, Q = prog.G[:m], prog.h[:m], -prog.G[m:]
        rng = np.random.default_rng(7)
        for scale, previous, factor in ((1.0, 1.0, 10), (1e-3, 1e9, 10), (1.0, 1.0, 100)):
            x = _interior_point(blk, rng)
            lam = scale * rng.uniform(0.5, 2.0, m)
            s, q = b - A @ x, Q @ x
            assert s.min() > 0 and q.min() > 0
            H = (A.T * (lam / s)) @ A
            if mode == "rrm_linear":
                grad = Q.T @ w
            else:
                grad = Q.T @ (w / (2 * np.sqrt(q)))
                H += (Q.T * (w / (4 * q * np.sqrt(q)))) @ Q
            r = grad - A.T @ lam
            box = np.maximum(r * (1 - x), -r * x).sum()
            t = max(previous, factor * m / max(lam @ s, box))
            rhs = grad - A.T @ (1 / (t * s))
            z2 = prog.z(x)
            assert np.abs(z2[:m] - s).max() <= 1e-12 * np.abs(s).max()
            _, residual, at_lam, t2, inv, H2, rhs2 = oracle._system(prog, x, z2, lam, previous,
                                                                     factor)
            assert t2 == pytest.approx(t, rel=1e-12)
            assert at_lam == pytest.approx(lam @ s + box, rel=1e-12)
            assert np.abs(inv - 1 / (t * s)).max() <= 1e-12 * np.abs(inv).max()
            assert np.abs(H2 - H).max() <= 1e-12 * np.abs(H).max()
            assert np.abs(rhs2 - rhs).max() <= 1e-12 * np.abs(rhs).max()
            grad2 = residual(np.zeros(m))
            assert np.abs(grad2 - grad).max() <= 1e-12 * np.abs(grad).max()

    @pytest.mark.parametrize("mode", ["rrm", "rrm_linear", "brm"])
    def test_start_not_strictly_inside_is_refused(self, mode):
        """A start on or outside the feasible set's boundary is refused on
        entry, naming its rows, where the line search would halve its step
        without end."""
        blk = oracle._Blocks(NEWTON_SPACES["categorical n=3"]())
        prog = oracle._program(blk, mode)
        zero = r"not strictly inside: \d+ rows not positive \(x >= 0 row 0, x >= 0 row 1, "
        with pytest.raises(OracleRefusal, match=zero):
            oracle._barrier(prog, np.zeros(blk.size))
        # every profile's total share is 1.5, and no own type gets more than the one below
        with pytest.raises(OracleRefusal, match=r"not positive \(supply row 0, supply row 1, "):
            oracle._barrier(prog, np.full(blk.size, 0.5))

    @pytest.mark.parametrize("mode", ["rrm", "rrm_linear", "brm"])
    def test_step_limit_is_refused(self, monkeypatch, mode):
        """A solve that has not certified its gap within ``_MAX_NEWTON``
        steps is refused, naming the gap and the limit."""
        monkeypatch.setattr(oracle, "_MAX_NEWTON", 3)
        space = NEWTON_SPACES["categorical n=3"]()
        with pytest.raises(OracleRefusal, match=r"did not certify a gap of 1e-09 within 3 Newton "
                                                r"steps$"):
            oracle.exact_tables(space, OracleConfig(), mode)

    def test_step_halved_below_the_floor_is_refused(self, monkeypatch):
        """A line search that would halve its step below ``_MIN_STEP`` is
        refused rather than halving on: here every step is a full Newton
        step, which leaves the feasible set, and one halving is too many."""
        monkeypatch.setattr(oracle, "_reach", lambda level, fall: math.inf)
        monkeypatch.setattr(oracle, "_MIN_STEP", 0.75)
        with pytest.raises(OracleRefusal, match=r"line search found no step of at least 0\.75 "
                                                r"that stays strictly inside"):
            oracle.exact_tables(NEWTON_SPACES["categorical n=3"](), OracleConfig(), "rrm")

    @pytest.mark.parametrize("mode", ["rrm", "rrm_linear", "brm"])
    def test_singular_newton_system_is_refused(self, monkeypatch, mode):
        """A Newton system that LU finds singular is refused, naming LU's
        reason, from whichever step it arises at."""
        solves, real = [], np.linalg.solve

        def solve(a, b):
            solves.append(a.shape)
            if len(solves) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(OracleRefusal, match=r"^interior-point Newton system is singular: "
                                                r"Singular matrix$"):
            oracle.exact_tables(NEWTON_SPACES["categorical n=3"](), OracleConfig(), mode)
        assert len(solves) == 2

    @pytest.mark.parametrize("mode", ["rrm", "rrm_linear", "brm"])
    @pytest.mark.parametrize("label", NEWTON_SPACES)
    def test_certified_at_lam_skips_the_last_system(self, monkeypatch, label, mode):
        """Only the last step may skip its Newton system, and only where
        lam's part of the bound certifies; the report stays certified.  The
        skip fires at the end of every rrm and brm solve here."""
        skipped, real = [], oracle._system

        def spy(prog, x, z, lam, t, factor):
            out = real(prog, x, z, lam, t, factor)
            value, at_lam, H = out[0], out[2], out[5]
            skipped.append(H is None)
            assert (H is None) == oracle._closes(value, value + at_lam)
            return out

        monkeypatch.setattr(oracle, "_system", spy)
        monkeypatch.setattr(oracle, "_MAX_CELLS", 400)
        _, report = oracle.exact_tables(NEWTON_SPACES[label](), OracleConfig(), mode)
        assert len(skipped) == report.newton_steps and not any(skipped[:-1])
        assert skipped[-1] or mode == "rrm_linear"
        assert _certified(report)

    @pytest.mark.parametrize("mode", ["rrm", "rrm_linear"])
    @pytest.mark.parametrize("label", NEWTON_SPACES)
    def test_rounded_candidate_passes_every_slack_row(self, label, mode):
        """The robust programs' slack rows are x >= 0, supply and ex-post
        monotonicity, which the grid rounding keeps: at random strictly
        feasible tables and at the solver's last iterate from one of them."""
        space = NEWTON_SPACES[label]()
        blk = oracle._Blocks(space)
        prog = oracle._program(blk, mode)
        rng = np.random.default_rng(11)
        points = [_interior_point(blk, rng) for _ in range(5)]
        points.append(oracle._barrier(prog, points[0])[0])
        for x in points:
            for grid in (1e-3, 1e-2, 0.05, 0.1):
                rounded = round_table(space, x.reshape(space.shape), grid).ravel()
                assert (prog.h - prog.G @ rounded)[: prog.m].min() >= -1e-12, grid


def test_exact_rows_report_their_newton_steps():
    """Exact rows carry the barrier's positive step count, at most the cap;
    every other row leaves it unset."""
    space = OrbitSpace(symmetric_instance(*make_categorical(3, 10, 0.8), 4))
    for name, method in METHODS.items():
        _, report = method(space, GreedyConfig(), OracleConfig())
        if name.startswith("exact_"):
            assert isinstance(report.newton_steps, int), name
            assert 0 < report.newton_steps <= oracle._MAX_NEWTON, name
        else:
            assert report.newton_steps is None, name


def _certified(report) -> bool:
    """The gap every exact report must certify: 1e-9 relative to the bound,
    plus the 1e-12 relative floating-point margin."""
    bound = report.revenue + report.grid_slack
    return 0 <= report.grid_slack <= 1e-9 * max(1.0, bound) + 1e-12 * bound


# the benchmark's oracle instances, with fixed draws of its categorical
# parameters; categorical 1.032,10,0.201 at n = 3 made full Newton steps
# cycle when t was allowed to fall
STEP_CASES = {
    "golden {0,100} n=2": (lambda: two_value_uniform(0, 100), 1e-3),
    "categorical 0.5,10,0.2 n=2": (
        lambda: symmetric_instance(*make_categorical(0.5, 10, 0.2), 2), 1e-3),
    "categorical 5.9,10,0.8 n=2": (
        lambda: symmetric_instance(*make_categorical(5.9, 10, 0.8), 2), 1e-3),
    "categorical 1.032,10,0.201 n=3": (
        lambda: symmetric_instance(*make_categorical(1.032, 10, 0.201), 3), 1e-2),
    "categorical 3,10,0.5 n=3": (
        lambda: symmetric_instance(*make_categorical(3, 10, 0.5), 3), 1e-2),
    "uniform:3 n=2": (lambda: symmetric_instance(*make_uniform(3), 2), 0.1),
    "uniform:3 n=2 fine grid": (lambda: symmetric_instance(*make_uniform(3), 2), 0.05),
    "asymmetric pair": (lambda: AuctionInstance(
        (make_categorical(2, 10, 0.6), make_categorical(4, 10, 0.3))), 0.1),
    "asymmetric triple": (lambda: AuctionInstance(
        (make_categorical(2, 10, 0.6), make_categorical(4, 10, 0.3),
         make_categorical(1, 10, 0.5))), 0.1),
}


@pytest.mark.parametrize("solver", [exact_rrm, exact_brm])
@pytest.mark.parametrize("label", STEP_CASES)
def test_benchmark_instances_certify_within_30_newton_steps(label, solver):
    make, grid = STEP_CASES[label]
    _, report = solver(make(), OracleConfig(grid=grid))
    assert _certified(report)
    assert report.newton_steps <= 30


# the optima before the primal-dual step, with their certified gaps
ORBIT_OPTIMA = {
    (100, "rrm"): (20.08448850478922, 2.973398526275738e-09),
    (100, "brm"): (20.106101540135572, 1.498276832189647e-08),
    (200, "rrm"): (28.419077886292992, 1.1374649699609223e-08),
    (200, "brm"): (28.43432148462382, 1.504015951774524e-08),
}


@pytest.mark.parametrize("n, mode", ORBIT_OPTIMA)
def test_large_orbit_programs_certify_and_agree(monkeypatch, n, mode):
    """categorical:3,10,0.8 at n = 100 and 200 (200 and 400 orbit cells)."""
    monkeypatch.setattr(oracle, "_MAX_CELLS", 400)
    space = OrbitSpace(symmetric_instance(*make_categorical(3, 10, 0.8), n))
    _, report = oracle.exact_tables(space, OracleConfig(), mode)
    assert _certified(report)
    value, gap = ORBIT_OPTIMA[n, mode]
    assert abs(report.revenue - value) <= report.grid_slack + gap


def test_orbit_linear_program_certifies_within_30_newton_steps(monkeypatch):
    """The linear program's endgame on orbits: categorical:3,10,0.8 at
    n = 100 took 42 steps from the fixed start with a tenfold t update."""
    monkeypatch.setattr(oracle, "_MAX_CELLS", 400)
    space = OrbitSpace(symmetric_instance(*make_categorical(3, 10, 0.8), 100))
    _, report = oracle.exact_tables(space, OracleConfig(), "rrm_linear")
    assert _certified(report)
    assert report.newton_steps <= 30


class TestExportProgram:
    def test_objective_first_and_line_format(self):
        inst = symmetric_instance(*make_uniform(2), 2)
        text = export_program(inst, "rrm_xp")
        lines = text.strip().splitlines()
        assert lines[0].startswith("OBJECTIVE maximize: ")
        for line in lines[1:]:
            assert re.match(r"^(VAR \S+ in \S+|CONSTRAINT [^:]+: .+ (<=|==) .+)$", line)

    def test_worked_example_counts(self):
        inst = symmetric_instance(*make_uniform(2), 2)
        lines = export_program(inst, "rrm_xp").strip().splitlines()
        assert sum(1 for l in lines if l.startswith("VAR x[")) == 8
        assert sum(1 for l in lines if l.startswith("VAR p[")) == 8
        assert sum(1 for l in lines if l.startswith("CONSTRAINT xp[")) == 4
        lines = export_program(inst, "brm_xa").strip().splitlines()
        assert sum(1 for l in lines if l.startswith("VAR xhat[")) == 4
        assert sum(1 for l in lines if l.startswith("VAR h[")) == 4
        assert sum(1 for l in lines if l.startswith("CONSTRAINT xa:")) == 1

    def test_truncated_relaxation_drops_payment_constraints(self):
        inst = symmetric_instance(*make_uniform(2), 2)
        for which in ("brm_xa_rel", "brm_xa_rel_trunc"):
            lines = export_program(inst, which).strip().splitlines()
            assert not any(l.startswith("CONSTRAINT pay") for l in lines)
            assert not any(l.startswith("VAR h[") for l in lines)
            assert not any(l.startswith("CONSTRAINT ub_xhat") for l in lines)

    def test_large_export_stays_proportional_to_its_text(self):
        # 15,625 allocation variables, far above the solver's cap: one dense
        # matrix over them would take 15,625**2 * 8 bytes, about 1.95 GB
        inst = symmetric_instance(*make_uniform(5), 5)
        tracemalloc.start()
        try:
            lines = export_program(inst, "rrm_xp").strip().splitlines()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6
        nP = 5 * 5**5
        counts = {"OBJECTIVE": 1, "VAR x[": nP, "VAR p[": nP, "CONSTRAINT xp[": 5**5,
                  "CONSTRAINT lb_x[": nP, "CONSTRAINT ub_x[": nP,
                  "CONSTRAINT mono_x[": 5 * 4 * 5**4, "CONSTRAINT pay[": nP}
        for prefix, count in counts.items():
            assert sum(1 for l in lines if l.startswith(prefix)) == count, prefix
        assert len(lines) == sum(counts.values())

    def test_deterministic(self):
        inst = symmetric_instance(*make_uniform(3), 2)
        assert export_program(inst, "brm_xp") == export_program(inst, "brm_xp")

    def test_unknown_program_rejected(self):
        inst = single_type_instance(1.0, 1)
        with pytest.raises(ValueError):
            export_program(inst, "nope")


_VAR = re.compile(r"[a-z]+\[\d+\]\[[^\]]*\]")


def _evaluate(expr: str, env: dict[str, float]) -> float:
    """Value of an exported expression with every variable replaced by env's."""
    text = _VAR.sub(lambda m: f"({env[m.group()]!r})", expr).replace("^", "**")
    return eval(text, {"__builtins__": {}, "sqrt": math.sqrt})


def _asymmetric_pair():
    return AuctionInstance((
        (TypeSpace(np.array([1.0, 2.5, 4.0])), DiscreteDistribution(np.array([0.2, 0.5, 0.3]))),
        (TypeSpace(np.array([0.5, 3.0])), DiscreteDistribution(np.array([0.6, 0.4]))),
    ))


class TestExportMatchesSolver:
    """The exported program is the one the exact solver solves: its table
    satisfies every exported constraint and the objective prices it at the
    reported revenue."""

    @pytest.mark.parametrize("which", ["rrm_xp", "brm_xp"])
    def test_solver_table_satisfies_every_exported_row(self, which, two_bidder_0_100):
        for inst in (two_bidder_0_100, _asymmetric_pair()):
            mech, report = (exact_rrm if which == "rrm_xp" else exact_brm)(inst)
            env = {}
            for (i, *v), value in np.ndenumerate(mech.allocation.table):
                env[f"x[{i}][({','.join(map(str, v))})]"] = float(value)
                if which == "rrm_xp":
                    env[f"p[{i}][({','.join(map(str, v))})]"] = float(
                        mech.robust_payments.table[(i, *v)])
            if which == "brm_xp":
                for i in range(inst.n):
                    for k in range(inst.shape[i]):
                        env[f"xhat[{i}][{k}]"] = float(mech.interim_allocation.tables[i][k])
                        env[f"h[{i}][{k}]"] = float(mech.interim_payments.tables[i][k])
            lines = export_program(inst, which).splitlines()
            objective = lines[0].removeprefix("OBJECTIVE maximize: ")
            assert abs(_evaluate(objective, env) - report.revenue) <= 1e-9
            rows = [line for line in lines if line.startswith("CONSTRAINT ")]
            assert rows
            for line in rows:
                lhs, sense, rhs = re.match(r"CONSTRAINT [^:]+: (.+) (<=|==) (.+)$", line).groups()
                gap = _evaluate(lhs, env) - _evaluate(rhs, env)
                assert (gap <= 1e-9 if sense == "<=" else abs(gap) <= 1e-9), (line, gap)
