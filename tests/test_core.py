import itertools
import math

import numpy as np
import pytest

from convexauction import (
    AuctionInstance,
    DiscreteDistribution,
    ExPostAllocation,
    InterimAllocation,
    InterimPaymentRule,
    MechanismReport,
    ObjectiveKind,
    RobustPaymentRule,
    TypeSpace,
    make_binomial,
    make_categorical,
    make_uniform,
    symmetric_instance,
)
from convexauction.core import DEFAULT_TOL
from convexauction.mechanisms import ex_ante_tables
from convexauction.spaces import OrbitSpace


class TestConstructors:
    def test_categorical_two_point_values(self):
        space, dist = make_categorical(3, 10, 0.8)
        np.testing.assert_allclose(space.values, [3.0, 10.0])
        np.testing.assert_allclose(dist.pmf, [0.8, 0.2])

    def test_categorical_half_half(self):
        space, dist = make_categorical(0, 100, 0.5)
        np.testing.assert_allclose(space.values, [0.0, 100.0])
        np.testing.assert_allclose(dist.pmf, [0.5, 0.5])

    @pytest.mark.parametrize("low,high,p", [(0, 1, 1.0), (0, 1, 0.0), (5, 3, 0.5), (-1, 1, 0.5)])
    def test_categorical_rejects(self, low, high, p):
        with pytest.raises(ValueError):
            make_categorical(low, high, p)

    def test_uniform_experiment_grid(self):
        space, dist = make_uniform(5)
        np.testing.assert_allclose(space.values, [0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(dist.pmf, np.full(5, 0.2))

    def test_uniform_degenerate_points(self):
        space, dist = make_uniform(1)
        np.testing.assert_allclose(space.values, [0.0])
        np.testing.assert_allclose(dist.pmf, [1.0])
        space, dist = make_uniform(2)
        np.testing.assert_allclose(space.values, [0.0, 1.0])
        np.testing.assert_allclose(dist.pmf, [0.5, 0.5])
        with pytest.raises(ValueError):
            make_uniform(0)

    def test_binomial_pmf_values(self):
        space, dist = make_binomial(4, 0.5)
        np.testing.assert_allclose(space.values, [0, 1, 2, 3, 4])
        np.testing.assert_allclose(dist.pmf, np.array([1, 4, 6, 4, 1]) / 16)

    def test_binomial_direct_evaluation(self):
        # independent oracle: the binomial formula itself
        _, dist = make_binomial(2, 0.25)
        np.testing.assert_allclose(dist.pmf, [0.5625, 0.375, 0.0625], atol=1e-15)
        _, dist = make_binomial(1, 0.5)
        np.testing.assert_allclose(dist.pmf, [0.5, 0.5])

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_binomial_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            make_binomial(4, p)

    def test_binomial_refuses_coefficients_beyond_a_float(self):
        """C(1030, 515) is above the largest float: a ValueError naming the
        trial count, not an OverflowError."""
        assert make_binomial(1029, 0.5)[0].size == 1030
        with pytest.raises(ValueError, match="1030 trials"):
            make_binomial(1030, 0.5)


class TestTypeSpace:
    def test_rejects_duplicates_and_negatives(self):
        with pytest.raises(ValueError):
            TypeSpace(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            TypeSpace(np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            TypeSpace(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            TypeSpace(np.array([]))

    def test_gaps_sentinel(self):
        space = TypeSpace(np.array([1.0, 3.0, 7.0]))
        np.testing.assert_allclose(space.gaps, [2.0, 4.0, 0.0])

    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([1.0, 0.0]))


class TestOnePmfCheck:
    """Each pmf is checked once, per bidder; the instance adds no check of the
    product of the sums, which drifts past any tolerance as n grows."""

    PMF = [0.3, 0.3, 0.4 - 9e-13]

    def test_many_valid_bidders_make_an_instance(self):
        bidder = (TypeSpace(np.array([1.0, 2.0, 3.0])), DiscreteDistribution(np.array(self.PMF)))
        # the product of the 1,200 sums is 1 - 1.08e-9, beyond DEFAULT_TOL
        assert abs(math.prod([float(bidder[1].pmf.sum())] * 1200) - 1) > DEFAULT_TOL
        instance = symmetric_instance(*bidder, 1200)
        tables, report = ex_ante_tables(OrbitSpace(instance))
        assert len(tables.xhat) == 1 and tables.xhat[0].shape == (3,)
        assert np.isfinite(report.revenue) and report.revenue > 0

    def test_a_pmf_off_by_more_than_its_tolerance_is_refused(self):
        with pytest.raises(ValueError, match="pmf must sum to 1"):
            DiscreteDistribution(np.array([0.3, 0.3, 0.4 - 2e-12]))


class TestProfiles:
    def test_single_bidder_single_type(self):
        space = TypeSpace(np.array([1.0]))
        dist = DiscreteDistribution(np.array([1.0]))
        np.testing.assert_array_equal(AuctionInstance(((space, dist),)).joint_pmf, [1.0])

    def test_joint_pmf_matches_enumeration(self, categorical_pair):
        joint = categorical_pair.joint_pmf
        pmfs = [categorical_pair.pmf(i) for i in range(categorical_pair.n)]
        # lexicographic, bidder 0 slowest: C order of the joint table
        for idx in itertools.product(*(range(k) for k in categorical_pair.shape)):
            prob = math.prod(pmfs[i][k] for i, k in enumerate(idx))
            assert math.isclose(joint[idx], prob, rel_tol=1e-12)
        assert math.isclose(joint.sum(), 1.0, abs_tol=1e-9)


class TestAllocationTables:
    def test_feasibility_and_monotonicity(self):
        table = np.zeros((2, 2, 2))
        table[0, 1, :] = 1.0
        alloc = ExPostAllocation(table)
        assert alloc.is_feasible() and alloc.is_monotone()
        bad = table.copy()
        bad[1, 1, 1] = 0.5
        assert not ExPostAllocation(bad).is_feasible()
        nonmono = np.zeros((1, 3))
        nonmono[0] = [0.5, 0.2, 0.9]
        assert not ExPostAllocation(nonmono).is_monotone()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ExPostAllocation(np.full((1, 2), 1.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: TypeSpace(np.array([0.0, bad])),
        lambda bad: DiscreteDistribution(np.array([0.5, bad])),
        lambda bad: ExPostAllocation(np.array([[0.0, bad]])),
        lambda bad: InterimAllocation((np.array([0.0, bad]),)),
        lambda bad: RobustPaymentRule(np.array([[0.0, bad]])),
        lambda bad: InterimPaymentRule((np.array([0.0, bad]),)),
    ],
    ids=["TypeSpace", "DiscreteDistribution", "ExPostAllocation",
         "InterimAllocation", "RobustPaymentRule", "InterimPaymentRule"],
)
def test_constructors_reject_non_finite(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def _mismatched_bidder():
    return ((TypeSpace(np.array([0.0, 1.0])), DiscreteDistribution(np.array([1.0]))),)


@pytest.mark.parametrize("build, message", [
    (lambda: DiscreteDistribution(np.array([])), "pmf needs at least one entry"),
    (lambda: AuctionInstance(()), "instance needs at least one bidder"),
    (lambda: AuctionInstance(_mismatched_bidder()), "type space and pmf lengths differ"),
    (lambda: symmetric_instance(*make_uniform(2), 0), "need at least one bidder"),
    (lambda: make_binomial(0, 0.5), "trials must be >= 1"),
    (lambda: ExPostAllocation(np.zeros((2, 3))), r"shape \(n, K_0"),
    (lambda: InterimAllocation((np.zeros((2, 2)),)), "one vector per bidder"),
    (lambda: InterimAllocation((np.array([0.0, -0.5]),)), "entries must be >= 0"),
    (lambda: RobustPaymentRule(np.array([[0.0, -0.5]])), "payments must be non-negative"),
    (lambda: InterimPaymentRule((np.array([-0.5]),)), "payments must be non-negative"),
    (lambda: MechanismReport(-1.0, ObjectiveKind.SURPLUS), "finite and non-negative"),
    (lambda: MechanismReport(math.nan, ObjectiveKind.SURPLUS), "finite and non-negative"),
], ids=["empty-pmf", "no-bidders", "lengths-differ", "zero-symmetric", "zero-trials",
        "expost-shape", "interim-2d", "interim-negative", "robust-negative", "interim-pay-negative",
        "report-negative", "report-nan"])
def test_constructors_reject_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
