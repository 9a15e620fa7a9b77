import math
from dataclasses import replace

import numpy as np
import pytest

from convexauction import (
    DiscreteDistribution,
    ExPostAllocation,
    RobustPaymentRule,
    TypeSpace,
    discretization_gap,
    heuristic_lb_rrm,
    pseudo_surplus_maximizer,
    round_allocation,
    symmetric_instance,
)
from convexauction import payments as pay
from convexauction.discretization import discretization_tables, round_table
from convexauction.mechanisms import heuristic_lb_rrm_tables, pseudo_surplus_tables
from convexauction.spaces import OrbitSpace
from conftest import corpus_instances, random_instance, random_monotone_allocation


def _dense_axis_rounding(table: np.ndarray, delta: float) -> np.ndarray:
    """Reference: the floor-then-bump rounding written on the dense table's
    axes, bidder by bidder and own type top first."""
    steps = round(1.0 / delta)
    ks = np.floor(table / delta + 1e-12).astype(np.int64)
    profile_sums = ks.sum(axis=0)
    for i in range(table.shape[0]):
        k, want, total = (np.moveaxis(t, i, 0) for t in (ks[i], table[i], profile_sums))
        for ell in range(k.shape[0] - 1, -1, -1):
            bump = ((want[ell] - k[ell] * delta > delta / 2 + 1e-12)
                    & (total[ell] < steps) & (k[ell] < steps))
            if ell + 1 < k.shape[0]:
                bump &= k[ell] < k[ell + 1]
            k[ell] += bump
            total[ell] += bump
    return ks * delta


def _dense_gap(instance, alloc, delta):
    """Reference: the gaps on the dense table's axes, as ``discretization_gap``
    once took them: each bidder's bound broadcast along its own-type axis,
    ``perceived_payment`` of the table and of its rounding, and
    ``expected_revenue`` of the two robust payment rules."""
    rounded, report = round_allocation(alloc, delta)
    q_star, q_round = (pay.perceived_payment(a, instance) for a in (alloc, rounded))
    gap = np.abs(q_star - q_round)
    n, shape = instance.n, instance.shape
    bound = np.empty((n, *shape))
    for i in range(n):
        z, view = instance.values(i), [1] * n
        view[i] = shape[i]
        bound[i] = (delta * (2 * z - z[0])).reshape(view)
    assert (gap - bound).max() <= 1e-9
    rev_star, rev_round = (
        pay.expected_revenue(RobustPaymentRule(np.sqrt(pay.clamp(q, True))), instance)
        for q in (q_star, q_round)
    )
    return replace(report, perceived_payment_gap=float(gap.max()),
                   revenue_gap=abs(rev_star - rev_round))


def _assert_same_report(got, want):
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert got.residuals.shape == want.residuals.shape
    assert (got.delta, got.max_abs_residual, got.perceived_payment_gap, got.revenue_gap) == (
        want.delta, want.max_abs_residual, want.perceived_payment_gap, want.revenue_gap)


class TestRoundAllocation:
    def test_nearest_grid_point(self):
        alloc = ExPostAllocation(np.array([[0.37, 0.37]]))
        rounded, report = round_allocation(alloc, 0.1)
        np.testing.assert_allclose(rounded.table, [[0.4, 0.4]])
        np.testing.assert_allclose(report.residuals, [[-0.03, -0.03]])

    def test_on_grid_unchanged(self):
        alloc = ExPostAllocation(np.array([[0.2, 0.5]]))
        rounded, report = round_allocation(alloc, 0.1)
        np.testing.assert_allclose(rounded.table, alloc.table)
        assert report.max_abs_residual <= 1e-12

    def test_feasibility_forces_floor(self):
        table = np.full((2, 1, 1), 0.55)
        rounded, _ = round_allocation(ExPostAllocation(table), 0.1)
        np.testing.assert_allclose(rounded.table, 0.5)
        assert rounded.is_feasible()

    def test_residual_bound_and_structure_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            inst = random_instance(rng)
            alloc = ExPostAllocation(random_monotone_allocation(rng, inst))
            for delta in (0.5, 0.25, 0.1, 0.05):
                rounded, report = round_allocation(alloc, delta)
                assert report.max_abs_residual <= delta + 1e-12
                assert rounded.is_feasible()
                assert rounded.is_monotone()
                want = _dense_axis_rounding(alloc.table, delta)
                assert rounded.table.tobytes() == want.tobytes()

    def test_orbit_tables_stay_feasible_monotone_and_on_the_grid(self):
        """On type-count orbits a cell's bump adds its multiplicity to its
        profile's total; random symmetric instances up to n = 9."""
        rng = np.random.default_rng(23)
        for _ in range(30):
            n, k = int(rng.integers(1, 10)), int(rng.integers(1, 5))
            values = np.cumsum(rng.uniform(0.1, 1.0, k)) - rng.choice([0.1, 0.0])
            pmf = rng.uniform(0.1, 1.0, k)
            space = OrbitSpace(symmetric_instance(
                TypeSpace(values), DiscreteDistribution(pmf / pmf.sum()), n))
            # both rules are monotone in own type, the virtual one on regular instances
            runs = [pseudo_surplus_tables] + [heuristic_lb_rrm_tables] * all(space.virtual[1])
            for tables, _ in (run(space) for run in runs):
                for delta in (0.5, 0.25, 0.1, 0.05, 0.01):
                    r = round_table(space, tables.x, delta)
                    assert np.abs(tables.x - r).max() <= delta + 1e-12
                    assert space.supply(r) <= 1e-12
                    assert all(np.all(np.diff(m, axis=0) >= 0) for m in space.split(r))
                    assert r.min() >= 0
                    np.testing.assert_array_equal(r, np.round(r / delta) * delta)

    def test_rejects_bad_delta(self):
        alloc = ExPostAllocation(np.array([[0.5]]))
        with pytest.raises(ValueError):
            round_allocation(alloc, 0.3)
        with pytest.raises(ValueError):
            round_allocation(alloc, 0.0)


class TestDiscretizationGap:
    def test_aligned_allocation_has_zero_gaps(self, categorical_pair):
        table = np.zeros((2, 2, 2))
        table[0, 1, 0] = table[1, 0, 1] = 1.0
        table[0, 1, 1] = table[1, 1, 1] = 0.5
        report = discretization_gap(categorical_pair, ExPostAllocation(table), 0.1)
        assert report.max_abs_residual == 0.0
        assert report.perceived_payment_gap == 0.0
        assert report.revenue_gap == 0.0

    def test_categorical_sweep_scaling(self, categorical_pair):
        mech, _ = heuristic_lb_rrm(categorical_pair, "closed_form")
        gaps = []
        for delta in (0.1, 0.05, 0.025, 0.0125):
            report = discretization_gap(categorical_pair, mech.allocation, delta)
            gaps.append(report.revenue_gap)
            # explicit per-entry bound is enforced inside discretization_gap;
            # re-check the loosest version here
            zmax = 10.0
            assert report.perceived_payment_gap <= delta * 2 * zmax + 1e-9
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + 1e-9

    def test_sqrt_delta_scaling_stays_bounded(self, categorical_pair):
        mech, _ = heuristic_lb_rrm(categorical_pair, "closed_form")
        ratios = []
        for delta in (0.1, 0.05, 0.025):
            report = discretization_gap(categorical_pair, mech.allocation, delta)
            ratios.append(report.revenue_gap / math.sqrt(delta))
        # gap(delta)/sqrt(delta) stays bounded as the grid refines
        assert max(ratios) <= 1.0

    def test_rejects_non_monotone_input(self, categorical_pair):
        """Feasible but not monotone: refused by the payment step's own check."""
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 0.9
        alloc = ExPostAllocation(table)
        assert alloc.is_feasible() and not alloc.is_monotone()
        with pytest.raises(ValueError, match="perceived payments require a monotone allocation"):
            discretization_gap(categorical_pair, alloc, 0.1)

    def test_rejects_infeasible_input(self, categorical_pair):
        alloc = ExPostAllocation(np.full((2, 2, 2), 0.6))
        assert alloc.is_monotone() and not alloc.is_feasible()
        with pytest.raises(ValueError, match="monotone, feasible allocation"):
            discretization_gap(categorical_pair, alloc, 0.1)

    def test_checks_the_allocation_once(self, categorical_pair, monkeypatch):
        mech, _ = heuristic_lb_rrm(categorical_pair, "closed_form")
        seen, real = [], ExPostAllocation.is_monotone
        monkeypatch.setattr(ExPostAllocation, "is_monotone",
                            lambda alloc: seen.append(alloc) or real(alloc))
        discretization_gap(categorical_pair, mech.allocation, 0.05)
        assert [a for a in seen if a is mech.allocation] == [mech.allocation]

    def test_matches_the_dense_arithmetic_on_random_tables(self):
        """``discretization_tables`` on the dense space against the reference,
        bit for bit, on random monotone feasible tables."""
        rng = np.random.default_rng(29)
        for _ in range(40):
            inst = random_instance(rng, max_n=4)
            alloc = ExPostAllocation(random_monotone_allocation(rng, inst))
            for delta in (0.5, 0.1, 0.05):
                _assert_same_report(discretization_gap(inst, alloc, delta),
                                    _dense_gap(inst, alloc, delta))

    def test_matches_the_dense_arithmetic_on_pipeline_tables(self):
        for _, inst in corpus_instances(max_n=3):
            for run in (heuristic_lb_rrm, pseudo_surplus_maximizer):
                mech, _ = run(inst)
                for delta in (0.5, 0.1, 0.05):
                    _assert_same_report(discretization_gap(inst, mech.allocation, delta),
                                        _dense_gap(inst, mech.allocation, delta))

    def test_rejects_table_of_another_shape(self, categorical_pair):
        table = ExPostAllocation(np.full((3, 2, 2, 2), 0.2))
        with pytest.raises(ValueError, match="does not match instance dimensions"):
            discretization_gap(categorical_pair, table, 0.1)


def test_orbit_gaps_stay_within_their_bounds():
    """On type-count orbits of random symmetric regular instances up to
    n = 8, K = 4: residuals within delta, the payment gap within the largest
    delta * (2 z_k - z_0), and a finite revenue gap."""
    rng = np.random.default_rng(31)
    spaces = []
    while len(spaces) < 25:
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        values = np.cumsum(rng.uniform(0.1, 1.0, k)) - rng.choice([0.1, 0.0])
        pmf = rng.uniform(0.1, 1.0, k)
        space = OrbitSpace(symmetric_instance(
            TypeSpace(values), DiscreteDistribution(pmf / pmf.sum()), n))
        if all(space.virtual[1]):
            spaces.append(space)
    for space in spaces:
        z = space.blocks[0].values
        for run in (heuristic_lb_rrm_tables, pseudo_surplus_tables):
            tables, _ = run(space)
            for delta in (0.5, 0.1, 0.05):
                report = discretization_tables(space, tables.x, delta)
                assert report.residuals.shape == space.shape
                assert report.max_abs_residual <= delta + 1e-12
                assert report.perceived_payment_gap <= delta * (2 * z[-1] - z[0]) + 1e-9
                assert math.isfinite(report.revenue_gap)
