import math
import re

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
)
from conftest import single_type_instance


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
        with pytest.raises(OracleRefusal, match="max_profile_vars"):
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
    # the barrier's central points are unique, so on a symmetric instance
    # they are symmetric without any symmetry quotient
    inst = symmetric_instance(*make_uniform(3), 2)
    mech, _ = solver(inst, OracleConfig(grid=0.05))
    table = mech.allocation.table
    np.testing.assert_allclose(table[0], table[1].T, rtol=0, atol=1e-9)


class TestLinearOracle:
    def test_linear_rrm_equals_virtual_surplus_pipeline(self, categorical_pair):
        from convexauction import virtual_surplus_maximizer

        _, vs = virtual_surplus_maximizer(categorical_pair)
        _, lin = exact_rrm(categorical_pair, OracleConfig(grid=1e-3), perceived="linear")
        assert abs(vs.revenue - lin.revenue) <= lin.grid_slack


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

    def test_deterministic(self):
        inst = symmetric_instance(*make_uniform(3), 2)
        assert export_program(inst, "brm_xp") == export_program(inst, "brm_xp")

    def test_unknown_program_rejected(self):
        inst = single_type_instance(1.0, 1)
        with pytest.raises(ValueError):
            export_program(inst, "nope")
