import math

import numpy as np
import pytest

from convexauction import (
    ExPostAllocation,
    InterimAllocation,
    InterimPaymentRule,
    bayesian_payment,
    expected_revenue,
    interim_collapse,
    perceived_payment,
    robust_payment,
    symmetric_instance,
)
from convexauction.cli import parse_distribution
from convexauction.payments import interim_perceived
from conftest import random_instance, random_monotone_allocation, single_type_instance


def worked_example_allocation() -> np.ndarray:
    """Optimal robust allocation for 2 bidders with types {0, 100}."""
    table = np.zeros((2, 2, 2))
    table[0, 1, 0] = 1.0
    table[1, 0, 1] = 1.0
    table[0, 1, 1] = 0.5
    table[1, 1, 1] = 0.5
    return table


class TestPerceivedPayment:
    def test_worked_example(self, two_bidder_0_100):
        alloc = ExPostAllocation(worked_example_allocation())
        q = perceived_payment(alloc, two_bidder_0_100)
        assert math.isclose(q[0, 1, 1], 50.0)
        assert math.isclose(q[0, 1, 0], 100.0)
        assert q[0, 0, 0] == q[0, 0, 1] == 0.0

    def test_single_bidder_single_type(self):
        inst = single_type_instance(1.0, 1)
        q = perceived_payment(ExPostAllocation(np.array([[1.0]])), inst)
        np.testing.assert_allclose(q, [[1.0]])

    def test_two_type_direct_formula(self):
        from convexauction import AuctionInstance, DiscreteDistribution, TypeSpace

        inst = AuctionInstance(
            ((TypeSpace(np.array([0.0, 1.0])), DiscreteDistribution(np.array([0.5, 0.5]))),)
        )
        q = perceived_payment(ExPostAllocation(np.array([[0.0, 1.0]])), inst)
        np.testing.assert_allclose(q, [[0.0, 1.0]])

    def test_rejects_non_monotone(self, two_bidder_0_100):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 0.9  # drops when own type rises
        alloc = ExPostAllocation(table)
        with pytest.raises(ValueError, match="monotone"):
            perceived_payment(alloc, two_bidder_0_100)

    def test_payment_monotone_in_own_type(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            inst = random_instance(rng)
            alloc = ExPostAllocation(random_monotone_allocation(rng, inst))
            q = perceived_payment(alloc, inst)
            for i in range(inst.n):
                assert np.all(np.diff(q[i], axis=i) >= -1e-9)


class TestRobustPayment:
    def test_worked_example_pattern(self, two_bidder_0_100):
        rule = robust_payment(
            ExPostAllocation(worked_example_allocation()), two_bidder_0_100
        )
        assert math.isclose(rule.table[0, 1, 0], 10.0)
        assert math.isclose(rule.table[0, 1, 1], math.sqrt(50))

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_symmetric_single_type_split(self, n):
        inst = single_type_instance(1.0, n)
        table = np.full((n, *([1] * n)), 1.0 / n)
        rule = robust_payment(ExPostAllocation(table), inst)
        np.testing.assert_allclose(rule.table, math.sqrt(1.0 / n), atol=1e-12)

    def test_zero_allocation_gives_zero_payments(self, categorical_pair):
        rule = robust_payment(
            ExPostAllocation(np.zeros((2, 2, 2))), categorical_pair
        )
        np.testing.assert_allclose(rule.table, 0.0)


class TestInterimCollapse:
    def test_worked_example(self, two_bidder_0_100):
        interim = interim_collapse(
            ExPostAllocation(worked_example_allocation()), two_bidder_0_100
        )
        np.testing.assert_allclose(interim.tables[0], [0.0, 0.75])
        np.testing.assert_allclose(interim.tables[1], [0.0, 0.75])

    def test_constant_allocation(self, categorical_pair):
        interim = interim_collapse(
            ExPostAllocation(np.full((2, 2, 2), 0.3)), categorical_pair
        )
        for t in interim.tables:
            np.testing.assert_allclose(t, 0.3)

    @pytest.mark.parametrize("dist, n", [
        ("uniform:5", 5), ("uniform:5", 7), ("binomial:4,0.5", 5), ("uniform:3", 8),
    ])
    def test_symmetric_table_gives_every_bidder_the_same_vector(self, dist, n):
        """x_i(v) = g(v_i, sorted(v_-i)) is the same (own type x context)
        matrix for every bidder, so each collapses to bitwise the same vector."""
        instance = symmetric_instance(*parse_distribution(dist), n)
        profiles = np.indices(instance.shape).reshape(n, -1).T
        others = [np.sort(np.delete(profiles, i, axis=1), axis=1) for i in range(n)]
        _, context = np.unique(np.concatenate(others), axis=0, return_inverse=True)
        g = np.random.default_rng(3).uniform(0.0, 1.0 / n, (instance.shape[0], context.max() + 1))
        context = context.reshape(n, -1)
        table = np.stack([g[profiles[:, i], context[i]].reshape(instance.shape)
                          for i in range(n)])
        first, *rest = interim_collapse(ExPostAllocation(table), instance).tables
        for i, t in enumerate(rest, 1):
            assert t.tobytes() == first.tobytes(), i


class TestBayesianPayment:
    def test_worked_example(self, two_bidder_0_100):
        interim = InterimAllocation((np.array([0.0, 0.75]), np.array([0.0, 0.75])))
        h = bayesian_payment(interim, two_bidder_0_100)
        np.testing.assert_allclose(h.tables[0], [0.0, 5 * math.sqrt(3)])

    def test_zero_interim(self, two_bidder_0_100):
        interim = InterimAllocation((np.zeros(2), np.zeros(2)))
        h = bayesian_payment(interim, two_bidder_0_100)
        for t in h.tables:
            np.testing.assert_allclose(t, 0.0)

    def test_truncated_ex_ante_hand_formula(self, categorical_pair):
        interim = InterimAllocation(
            (np.array([1.25 / 6, 1.0]), np.array([1.25 / 6, 1.0]))
        )
        h = bayesian_payment(interim, categorical_pair)
        expected_top = math.sqrt(10.0 * 1.0 - 7.0 * (1.25 / 6))
        assert math.isclose(h.tables[0][1], expected_top, rel_tol=1e-12)

    def test_negative_radicand_rejected(self, two_bidder_0_100):
        interim = InterimAllocation((np.array([0.9, 0.1]), np.array([0.0, 0.0])))
        with pytest.raises(ValueError, match="non-monotone|negative"):
            bayesian_payment(interim, two_bidder_0_100)


class TestFractionalBeatsIntegral:
    def test_split_at_reserve_type_raises_revenue(self):
        """At the reserve type, splitting the good beats awarding it whole.

        On the even uniform grid {j/4} both bidders at the reserve type 1/2
        paying sqrt(1/4) each collect 1 in total, whereas allocating the
        whole good to one of them collects only sqrt(1/2).
        """
        from convexauction import AuctionInstance, DiscreteDistribution, TypeSpace

        space = TypeSpace(np.arange(1, 5) / 4)
        dist = DiscreteDistribution(np.full(4, 0.25))
        inst = AuctionInstance(((space, dist), (space, dist)))
        reserve = (1, 1)  # both bidders at value 1/2

        def revenue_at_reserve(split):
            table = np.zeros((2, 4, 4))
            for i in range(2):
                own = [slice(None)] * 2
                own[i] = slice(reserve[i], None)
                table[(i, *own)] = split[i]
            alloc = ExPostAllocation(np.minimum(table, 1.0))
            q = perceived_payment(alloc, inst)
            return sum(math.sqrt(q[i][reserve]) for i in range(2))

        fractional = revenue_at_reserve((0.5, 0.5))
        integral = revenue_at_reserve((1.0, 0.0))
        assert math.isclose(fractional, 1.0, abs_tol=1e-12)
        assert math.isclose(integral, math.sqrt(0.5), abs_tol=1e-12)
        assert fractional > integral


class TestExpectedRevenue:
    def test_worked_example_robust(self, two_bidder_0_100):
        rule = robust_payment(
            ExPostAllocation(worked_example_allocation()), two_bidder_0_100
        )
        assert math.isclose(
            expected_revenue(rule, two_bidder_0_100), 5 * (1 + math.sqrt(2) / 2)
        )

    def test_worked_example_bayesian(self, two_bidder_0_100):
        interim = InterimAllocation((np.array([0.0, 0.75]), np.array([0.0, 0.75])))
        h = bayesian_payment(interim, two_bidder_0_100)
        assert math.isclose(expected_revenue(h, two_bidder_0_100), 5 * math.sqrt(3))

    def test_zero_payments(self, categorical_pair):
        rule = robust_payment(ExPostAllocation(np.zeros((2, 2, 2))), categorical_pair)
        assert expected_revenue(rule, categorical_pair) == 0.0

    @pytest.mark.parametrize("lengths", [(2,), (2, 2, 2), (2, 3), (1, 1)])
    def test_interim_vectors_of_another_shape_are_rejected(self, categorical_pair, lengths):
        """One vector per bidder, of its type count (2 here); any other shape
        is a ValueError, not a revenue, a broadcast vector or an IndexError."""
        vectors = tuple(np.zeros(k) for k in lengths)
        with pytest.raises(ValueError, match="payment table does not match instance"):
            expected_revenue(InterimPaymentRule(vectors), categorical_pair)
        for price in (bayesian_payment, interim_perceived):
            with pytest.raises(ValueError, match="interim allocation does not match instance"):
                price(InterimAllocation(vectors), categorical_pair)


class TestIdentities:
    def test_h_squared_equals_expected_perceived(self):
        """Interim payments square to the expected ex-post perceived payment."""
        rng = np.random.default_rng(33)
        for _ in range(50):
            inst = random_instance(rng)
            alloc = ExPostAllocation(random_monotone_allocation(rng, inst))
            q = perceived_payment(alloc, inst)
            h = bayesian_payment(interim_collapse(alloc, inst), inst)
            for i in range(inst.n):
                own_first = np.moveaxis(q[i], i, 0).reshape(inst.shape[i], -1)
                qhat = own_first @ inst.context_pmf(i).ravel()
                np.testing.assert_allclose(h.tables[i] ** 2, qhat, atol=1e-9)

    def test_jensen_ordering_bayesian_at_least_robust(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            inst = random_instance(rng)
            alloc = ExPostAllocation(random_monotone_allocation(rng, inst))
            robust = expected_revenue(robust_payment(alloc, inst), inst)
            bayes = expected_revenue(
                bayesian_payment(interim_collapse(alloc, inst), inst), inst
            )
            assert bayes >= robust - 1e-9

    def test_interim_perceived_matches_definition(self, categorical_pair):
        interim = InterimAllocation((np.array([0.2, 0.7]), np.array([0.1, 0.5])))
        qhat = interim_perceived(interim, categorical_pair)
        np.testing.assert_allclose(qhat[0], [3 * 0.2, 10 * 0.7 - 7 * 0.2])
        np.testing.assert_allclose(qhat[1], [3 * 0.1, 10 * 0.5 - 7 * 0.1])
