import math
from dataclasses import replace

import numpy as np
import pytest

from convexauction import (
    AuctionInstance,
    DiscreteDistribution,
    GreedyConfig,
    InterimPaymentRule,
    ObjectiveKind,
    TypeSpace,
    bound_report,
    ex_ante_relaxation,
    exact_rrm,
    heuristic_brm,
    heuristic_lb_rrm,
    make_uniform,
    pseudo_surplus_maximizer,
    surplus_maximizer,
    symmetric_instance,
    verify,
    virtual_surplus_maximizer,
)
from conftest import corpus_instances, single_type_instance


def two_value_uniform(lo: float, hi: float, n: int) -> AuctionInstance:
    space = TypeSpace(np.array([lo, hi]))
    dist = DiscreteDistribution(np.array([0.5, 0.5]))
    return symmetric_instance(space, dist, n)


class TestSurplusMaximizer:
    def test_two_bidder_one_two(self):
        """Hand simulation on values {1, 2}: ties split, payment formula applied.

        With the tie at (1,1) splitting the good, the winner's linear Myerson
        payment at (2,1) is 2*1 - 1*(1/2) = 1.5, and expected surplus is
        (1 + 2 + 2 + 2)/4.
        """
        inst = two_value_uniform(1.0, 2.0, 2)
        mech, report = surplus_maximizer(inst)
        np.testing.assert_allclose(mech.allocation.table[:, 0, 0], [0.5, 0.5])
        np.testing.assert_allclose(mech.allocation.table[0, 1, 0], 1.0)
        assert math.isclose(mech.robust_payments.table[0, 1, 0], 1.5)
        assert math.isclose(report.objective_value, 1.75)
        assert math.isclose(report.revenue, 1.5)
        checks = verify(inst, mech, ("ic", "ir", "xp"))
        assert all(c.passed for c in checks.values())

    def test_single_bidder_single_type(self):
        inst = single_type_instance(1.0, 1)
        mech, report = surplus_maximizer(inst)
        assert math.isclose(report.objective_value, 1.0)
        assert math.isclose(report.revenue, 1.0)
        np.testing.assert_allclose(mech.allocation.table, 1.0)

    def test_all_zero_values(self):
        inst = single_type_instance(0.0, 2)
        _, report = surplus_maximizer(inst)
        assert report.objective_value == 0.0


class TestPseudoSurplusMaximizer:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_tight_family_closed_form(self, n):
        inst = single_type_instance(1.0, n)
        mech, report = pseudo_surplus_maximizer(inst, "closed_form")
        np.testing.assert_allclose(mech.allocation.table, 1.0 / n, atol=1e-9)
        np.testing.assert_allclose(
            mech.robust_payments.table, math.sqrt(1.0 / n), atol=1e-9
        )
        assert math.isclose(report.objective_value, math.sqrt(n), abs_tol=1e-9)
        assert math.isclose(report.revenue, math.sqrt(n), abs_tol=1e-9)

    def test_worked_example_pseudo_surplus(self, two_bidder_0_100=None):
        inst = two_value_uniform(0.0, 100.0, 2)
        _, report = pseudo_surplus_maximizer(inst, "closed_form")
        assert math.isclose(report.objective_value, 2.5 * (2 + math.sqrt(2)))

    def test_zero_value_instance(self):
        inst = single_type_instance(0.0, 3)
        _, report = pseudo_surplus_maximizer(inst, "closed_form")
        assert report.objective_value == 0.0

    def test_greedy_matches_closed_form(self):
        inst = two_value_uniform(0.0, 100.0, 2)
        cfg = GreedyConfig(epsilon=1e-3)
        _, greedy = pseudo_surplus_maximizer(inst, "greedy", cfg)
        _, closed = pseudo_surplus_maximizer(inst, "closed_form")
        assert abs(greedy.revenue - closed.revenue) <= 5 * cfg.epsilon * 2 * 100


class TestVirtualSurplusMaximizer:
    def test_reserve_bid_behaviour(self):
        space = TypeSpace(np.arange(1, 6) / 5)
        dist = DiscreteDistribution(np.full(5, 0.2))
        inst = AuctionInstance(((space, dist),))
        mech, report = virtual_surplus_maximizer(inst)
        # allocates exactly when the virtual value is positive: v >= 3/5
        np.testing.assert_allclose(mech.allocation.table[0], [0, 0, 1, 1, 1])
        np.testing.assert_allclose(
            mech.robust_payments.table[0], [0, 0, 0.6, 0.6, 0.6], atol=1e-12
        )
        assert math.isclose(report.revenue, 0.36)

    def test_single_type(self):
        inst = single_type_instance(1.0, 1)
        _, report = virtual_surplus_maximizer(inst)
        assert math.isclose(report.revenue, 1.0)

    def test_matches_linear_oracle(self, categorical_pair):
        _, report = virtual_surplus_maximizer(categorical_pair)
        from convexauction import OracleConfig

        _, oracle_report = exact_rrm(
            categorical_pair, OracleConfig(grid=1e-3), perceived="linear"
        )
        assert abs(report.revenue - oracle_report.revenue) <= oracle_report.grid_slack

    def test_revenue_equals_virtual_surplus(self):
        from convexauction.virtual import virtual_values_matrix

        for label, inst in corpus_instances(max_n=3):
            mech, report = virtual_surplus_maximizer(inst)
            phi = virtual_values_matrix(inst)
            vs = float((phi * mech.allocation.table * inst.joint_pmf).sum())
            assert math.isclose(report.revenue, vs, abs_tol=1e-9), label

    def test_surplus_pipeline_also_matches_virtual_surplus(self):
        from convexauction.virtual import virtual_values_matrix

        for label, inst in corpus_instances(max_n=3):
            mech, report = surplus_maximizer(inst)
            phi = virtual_values_matrix(inst)
            vs = float((phi * mech.allocation.table * inst.joint_pmf).sum())
            assert math.isclose(report.revenue, vs, abs_tol=1e-9), label


class TestHeuristicPipelines:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_tight_lower_bound_family(self, n):
        inst = single_type_instance(1.0, n)
        mech, report = heuristic_lb_rrm(inst, "closed_form")
        assert math.isclose(report.objective_value, math.sqrt(n), abs_tol=1e-9)
        assert math.isclose(report.revenue, math.sqrt(n), abs_tol=1e-9)
        np.testing.assert_allclose(
            mech.robust_payments.table, math.sqrt(1.0 / n), atol=1e-9
        )

    def test_zero_virtual_value_instance(self):
        inst = single_type_instance(0.0, 2)
        mech, report = heuristic_lb_rrm(inst, "closed_form")
        assert report.objective_value == 0.0 and report.revenue == 0.0
        np.testing.assert_allclose(mech.allocation.table, 0.0)
        _, brm_report = heuristic_brm(inst, "closed_form")
        assert brm_report.revenue == 0.0

    def test_revenue_at_least_lb_objective(self, categorical_pair):
        _, report = heuristic_lb_rrm(categorical_pair, "closed_form")
        assert report.revenue >= report.objective_value - 1e-9

    def test_bayesian_at_least_robust(self, categorical_pair):
        _, robust = heuristic_lb_rrm(categorical_pair, "closed_form")
        _, bayes = heuristic_brm(categorical_pair, "closed_form")
        assert bayes.revenue >= robust.revenue - 1e-9

    def test_worked_example_bayesian_revenue(self):
        inst = two_value_uniform(0.0, 100.0, 2)
        _, report = heuristic_brm(inst, "closed_form")
        assert math.isclose(report.revenue, 5 * math.sqrt(3))

    def test_greedy_and_closed_form_agree_on_corpus(self):
        cfg = GreedyConfig(epsilon=1e-3)
        for label, inst in corpus_instances(max_n=4):
            max_value = max(float(inst.values(i)[-1]) for i in range(inst.n))
            tol = 5 * cfg.epsilon * inst.n * max(max_value, 1.0)
            for pipeline in (pseudo_surplus_maximizer, heuristic_lb_rrm, heuristic_brm):
                _, greedy = pipeline(inst, "greedy", cfg)
                _, closed = pipeline(inst, "closed_form")
                assert abs(greedy.revenue - closed.revenue) <= tol, label

    def test_monotone_allocations_across_engines(self):
        for label, inst in corpus_instances(max_n=3):
            for mech, _ in (
                surplus_maximizer(inst),
                pseudo_surplus_maximizer(inst, "closed_form"),
                pseudo_surplus_maximizer(inst, "greedy"),
                virtual_surplus_maximizer(inst),
                heuristic_lb_rrm(inst, "closed_form"),
                heuristic_lb_rrm(inst, "greedy"),
            ):
                assert mech.allocation.is_monotone(), label
                assert mech.allocation.is_feasible(), label


class TestIrregularInstances:
    def test_pipelines_warn_and_verifier_reports_failures(self):
        space = TypeSpace(np.array([1.0, 2.0, 3.0]))
        dist = DiscreteDistribution(np.array([0.6, 0.05, 0.35]))
        inst = symmetric_instance(space, dist, 2)
        mech, report = virtual_surplus_maximizer(inst)
        assert any("irregular" in w for w in report.warnings)
        assert not mech.allocation.is_monotone()
        checks = verify(inst, mech, ("ic", "ir", "xp"))
        assert not checks["ic"].passed  # surfaced by the verifier, not an abort
        mech, report = heuristic_lb_rrm(inst, "closed_form")
        assert any("not monotone" in w for w in report.warnings)
        assert report.revenue >= 0


class TestExAnteRelaxation:
    def test_untruncated_saturates_and_verifies(self, categorical_pair):
        mech, report = ex_ante_relaxation(categorical_pair, truncate=False)
        checks = verify(categorical_pair, mech, ("bic", "bir", "xa"))
        assert all(c.passed for c in checks.values())
        assert report.revenue > 0

    def test_value_is_labelled_a_relaxation_not_a_bound(self):
        """uniform:5, n = 3: a verified ex-post feasible mechanism earns more."""
        inst = symmetric_instance(*make_uniform(5), 3)
        values = []
        for truncate in (False, True):
            _, report = ex_ante_relaxation(inst, truncate)
            assert report.kind is ObjectiveKind.EX_ANTE_RELAXATION
            assert report.kind.value == "ex_ante_relaxation"
            values.append(report.objective_value)
        assert math.isclose(values[0], 0.97891, abs_tol=1e-5)
        assert math.isclose(values[1], 0.94407, abs_tol=1e-5)
        mech, heur = heuristic_brm(inst, "closed_form")
        assert all(c.passed for c in verify(inst, mech, ("bic", "bir", "xp")).values())
        assert math.isclose(heur.revenue, 1.00783, abs_tol=1e-5)
        assert heur.revenue > max(values)

    def test_truncated_verifies(self, categorical_pair):
        mech, report = ex_ante_relaxation(categorical_pair, truncate=True)
        checks = verify(categorical_pair, mech, ("bic", "bir", "xa"))
        assert all(c.passed for c in checks.values())
        for t in mech.interim_allocation.tables:
            assert np.all(t <= 1 + 1e-12)


class TestBoundReport:
    def test_tight_single_type_family(self):
        for n in (1, 2, 5):
            inst = single_type_instance(1.0, n)
            mech, _ = pseudo_surplus_maximizer(inst, "closed_form")
            rep = bound_report(inst, mech)
            assert rep.ok
            for value in (
                rep.revenue,
                rep.robust_pseudo_surplus,
                rep.bayesian_pseudo_surplus,
                rep.virtual_sqrt_upper,
            ):
                assert math.isclose(value, math.sqrt(n), abs_tol=1e-9)

    def test_worked_example_values(self):
        inst = two_value_uniform(0.0, 100.0, 2)
        mech, _ = heuristic_lb_rrm(inst, "closed_form")
        rep = bound_report(inst, mech)
        assert rep.ok
        assert math.isclose(rep.robust_pseudo_surplus, 2.5 * (2 + math.sqrt(2)))
        assert math.isclose(rep.bayesian_pseudo_surplus, 5 * math.sqrt(3))

    def test_zero_mechanism(self):
        inst = single_type_instance(0.0, 2)
        mech, _ = heuristic_lb_rrm(inst, "closed_form")
        rep = bound_report(inst, mech)
        assert rep.ok
        assert rep.revenue == 0.0 == rep.robust_pseudo_surplus

    def test_interim_payments_are_bounded_by_bayesian_pseudo_surplus(self):
        # BIR caps h at sqrt(v x̂), not at sqrt(v x) at each profile: this
        # verified mechanism earns more than the robust pseudo-surplus
        inst = symmetric_instance(*make_uniform(5), 4)
        mech, _ = heuristic_brm(inst, "closed_form")
        assert all(c.passed for c in verify(inst, mech).values())
        rep = bound_report(inst, mech)
        assert rep.ok, rep.failures
        assert rep.robust_pseudo_surplus < rep.revenue <= rep.bayesian_pseudo_surplus
        doubled = InterimPaymentRule(tuple(2 * h for h in mech.interim_payments.tables))
        rep = bound_report(inst, replace(mech, interim_payments=doubled))
        assert "revenue exceeds Bayesian pseudo-surplus" in rep.failures

    def test_rejects_linear_mechanism(self):
        inst = single_type_instance(1.0, 2)
        mech, _ = surplus_maximizer(inst)
        with pytest.raises(ValueError):
            bound_report(inst, mech)


class TestVerificationByConstruction:
    def test_robust_pipelines_pass_ic_ir_xp(self):
        for label, inst in corpus_instances(max_n=3):
            for mech, _ in (
                surplus_maximizer(inst),
                pseudo_surplus_maximizer(inst, "closed_form"),
                virtual_surplus_maximizer(inst),
                heuristic_lb_rrm(inst, "closed_form"),
            ):
                checks = verify(inst, mech, ("ic", "ir", "xp"))
                assert all(c.passed for c in checks.values()), (label, checks)

    def test_bayesian_pipelines_pass_bic_bir_xp(self):
        for label, inst in corpus_instances(max_n=3):
            mech, _ = heuristic_brm(inst, "closed_form")
            checks = verify(inst, mech, ("bic", "bir", "xp"))
            assert all(c.passed for c in checks.values()), (label, checks)
