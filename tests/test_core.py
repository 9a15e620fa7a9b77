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
    RobustPaymentRule,
    TypeSpace,
    make_binomial,
    make_categorical,
    make_uniform,
)


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
