import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexauction import (
    AuctionInstance,
    DiscreteDistribution,
    TypeSpace,
    heuristic_brm,
    heuristic_lb_rrm,
    is_regular,
    make_binomial,
    make_categorical,
    make_uniform,
    symmetric_instance,
    virtual_values,
)
from conftest import random_instance, single_type_instance


def reserve_grid_instance(k: int, n: int = 1) -> AuctionInstance:
    """Uniform types {j/k : 1 <= j <= k}, the per-bidder reserve-bid grid."""
    space = TypeSpace(np.arange(1, k + 1) / k)
    dist = DiscreteDistribution(np.full(k, 1.0 / k))
    return symmetric_instance(space, dist, n)


class TestVirtualValues:
    def test_uniform_grid_closed_form(self):
        inst = reserve_grid_instance(5)
        phi = virtual_values(inst).phi[0]
        expected = 2 * np.arange(1, 6) / 5 - 1
        np.testing.assert_allclose(phi, expected, atol=1e-12)
        assert np.isclose(phi[2], 0.2)  # phi(0.6)

    def test_single_type(self):
        inst = single_type_instance(1.0, 1)
        np.testing.assert_allclose(virtual_values(inst).phi[0], [1.0])

    def test_categorical_hand_evaluation(self):
        space, dist = make_categorical(3, 10, 0.8)
        inst = AuctionInstance(((space, dist),))
        phi = virtual_values(inst).phi[0]
        # z_1 - (z_2 - z_1)(1 - F_1)/f_1 = 3 - 7 * 0.2 / 0.8
        np.testing.assert_allclose(phi, [1.25, 10.0])

    def test_top_type_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            inst = random_instance(rng)
            table = virtual_values(inst)
            for i in range(inst.n):
                assert table.phi[i][-1] == inst.values(i)[-1]

    def test_phi_never_exceeds_value(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            inst = random_instance(rng)
            table = virtual_values(inst)
            for i in range(inst.n):
                assert np.all(table.phi[i] <= inst.values(i) + 1e-12)
                assert np.all(table.phi_plus[i] >= table.phi[i])
                assert np.all(table.phi_plus[i] >= 0)

    def test_uniform_experiment_grid_values(self):
        space, dist = make_uniform(5)
        inst = AuctionInstance(((space, dist),))
        phi = virtual_values(inst).phi[0]
        np.testing.assert_allclose(phi, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-12)


def revenues(space, dist) -> list[float]:
    return [run(symmetric_instance(space, dist, n), "closed_form")[1].revenue
            for run in (heuristic_brm, heuristic_lb_rrm) for n in (2, 3)]


def nudged(values: np.ndarray, steps: list[int]) -> np.ndarray:
    """Each value moved by its number of ulp; 0 moves up only."""
    out = values.copy()
    for j, step in enumerate(steps):
        step = abs(step) if out[j] == 0 else step
        for _ in range(abs(step)):
            out[j] = np.nextafter(out[j], math.copysign(np.inf, step))
    return out


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11])
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_a_zero_virtual_value_does_not_depend_on_rounding(k, data):
    """uniform:K with odd K has phi = 0 at the middle type, whatever the last
    bits of the grid; so such a type never wins supply, and revenues hold."""
    space, dist = make_uniform(k)
    steps = data.draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    moved = TypeSpace(nudged(space.values, steps))
    phi = virtual_values(symmetric_instance(moved, dist, 1)).phi[0]
    assert phi[k // 2] == 0.0
    np.testing.assert_allclose(revenues(moved, dist), revenues(space, dist), rtol=0, atol=1e-12)


class TestRegularity:
    def test_uniform_and_categorical_regular(self):
        assert is_regular(virtual_values(reserve_grid_instance(5))) == (True,)
        space, dist = make_categorical(3, 10, 0.8)
        inst = AuctionInstance(((space, dist),))
        assert is_regular(virtual_values(inst)) == (True,)

    def test_crafted_pmf_consistent_with_definition(self):
        space = TypeSpace(np.array([1.0, 2.0, 10.0]))
        dist = DiscreteDistribution(np.array([0.1, 0.8, 0.1]))
        inst = AuctionInstance(((space, dist),))
        table = virtual_values(inst)
        # independent evaluation of the definition
        z, f = space.values, dist.pmf
        cdf = np.cumsum(f)
        gaps = np.array([1.0, 8.0, 0.0])
        expected = z - gaps * (1 - cdf) / f
        np.testing.assert_allclose(table.phi[0], expected, atol=1e-12)
        assert is_regular(table) == (bool(np.all(np.diff(expected) >= 0)),)

    @pytest.mark.parametrize("trials", [57, 58, 100, 300, 1000])
    def test_binomial_half_is_regular(self, trials):
        """binomial:t,0.5 is regular.  Near the top, 1 - F_k cancels to noise
        over a tiny f_k (t = 58 and 100 read irregular that way); summed from
        the top, the mass above k keeps phi rising.  t stays below 1,024, from
        where dividing by the subnormal pmf of the lowest type overflows and
        is refused."""
        inst = AuctionInstance((make_binomial(trials, 0.5),))
        assert is_regular(virtual_values(inst)) == (True,)

    @pytest.mark.parametrize("trials, p", [(1024, 0.5), (590, 0.7), (309, 0.9)])
    def test_hazard_past_the_float_range_is_refused(self, trials, p):
        """From these t the lowest type's pmf is so small that gap * tail / f
        overflows: refused, naming the bidder, the type and its pmf entry; at
        one trial fewer every phi is finite."""
        space, dist = make_binomial(trials, p)
        message = (f"bidder 1's virtual value at type 0 overflows: its pmf entry "
                   f"{float(dist.pmf[0])!r} is too small")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            virtual_values(AuctionInstance((make_uniform(2), (space, dist))))
        below = virtual_values(AuctionInstance((make_binomial(trials - 1, p),)))
        assert np.isfinite(below.phi[0]).all()

    def test_irregular_case_detected(self):
        space = TypeSpace(np.array([1.0, 2.0, 3.0]))
        dist = DiscreteDistribution(np.array([0.6, 0.05, 0.35]))
        inst = AuctionInstance(((space, dist),))
        table = virtual_values(inst)
        assert table.phi[0][1] < table.phi[0][0]
        assert is_regular(table) == (False,)
