import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexauction import (
    GreedyConfig,
    closed_form_alloc,
    eqp_solver,
    ex_ante_closed_form,
    make_categorical,
    pointwise_max,
    symmetric_instance,
    virtual_values,
)
from convexauction.alloc import TIE_TOL, closed_form_alloc_batch, eqp_solver_batch
from conftest import single_type_instance

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)
EPSILONS = (1.0, 0.5, 0.25, 0.1, 0.05, 0.01, 1e-3)


def _reference_eqp(scores, eps):
    """The greedy as a 1/eps loop: each step gives eps/|M| to the bidders M tied
    (within TIE_TOL times the largest sqrt(c^+)) for the largest gain
    sqrt(c^+) (sqrt(x + eps) - sqrt(x)).
    Returns (x, whether some step was split across different scores)."""
    scores = np.asarray(scores, dtype=np.float64)
    root, active = np.sqrt(np.maximum(scores, 0.0)), scores > 0
    x, split = np.zeros_like(scores), False
    if not active.any():
        return x, split
    for _ in range(round(1 / eps)):
        gain = np.where(active, root * (np.sqrt(x + eps) - np.sqrt(x)), -np.inf)
        members = active & (gain >= gain.max() - TIE_TOL * root.max())
        split |= np.unique(scores[members]).size > 1
        x += np.where(members, eps / members.sum(), 0.0)
    return x, split


# Negative, zero, tiny positive and distinct positive scores, drawn with
# repeats.  The second kind of row, up to 20 scores from a few quarter values
# as in the orbit rows of uniform:5, often makes the loop split a step between
# groups.
SCORES = st.one_of(
    st.sampled_from([-1.5, 0.0, 1e-16, 4e-16, 0.25, 0.5, 1.0, 2.0, 4.0, 9.0]),
    st.floats(0.01, 10.0),
)
ROWS = st.one_of(
    st.lists(SCORES, min_size=1, max_size=8),
    st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=20),
).map(np.array)


def _greedy(row, eps):
    return eqp_solver(row, GreedyConfig(epsilon=eps))


class TestPointwiseMax:
    def test_unique_maximum(self):
        np.testing.assert_allclose(pointwise_max([3.0, 10.0]), [0.0, 1.0])
        # the tie tolerance is relative to the row's top score
        np.testing.assert_array_equal(pointwise_max([1e-300, 4e-300]), [0.0, 1.0])

    def test_tie_split(self):
        np.testing.assert_allclose(pointwise_max([5.0, 5.0]), [0.5, 0.5])

    def test_no_positive_scores(self):
        np.testing.assert_allclose(pointwise_max([-1.0, -2.0]), [0.0, 0.0])
        np.testing.assert_allclose(pointwise_max([0.0, 0.0]), [0.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = rng.uniform(-1, 2, size=4)
            lam = rng.uniform(0.1, 50)
            np.testing.assert_array_equal(pointwise_max(c), pointwise_max(lam * c))


class TestGreedyConfig:
    def test_epsilon_must_divide_one(self):
        with pytest.raises(ValueError):
            GreedyConfig(epsilon=0.3)
        with pytest.raises(ValueError):
            GreedyConfig(epsilon=0.0)
        assert GreedyConfig(epsilon=0.01).steps == 100


class TestEqpSolver:
    def test_symmetric_pair(self):
        x = eqp_solver([1.0, 1.0], GreedyConfig(epsilon=0.01))
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)

    def test_four_to_one(self):
        x = eqp_solver([4.0, 1.0], GreedyConfig(epsilon=1e-3))
        np.testing.assert_allclose(x, [0.8, 0.2], atol=1e-3)
        assert math.isclose(x.sum(), 1.0, abs_tol=1e-12)

    def test_all_negative(self):
        np.testing.assert_allclose(eqp_solver([-3.0, -7.0]), [0.0, 0.0])

    def test_zero_scores_excluded(self):
        x = eqp_solver([2.0, 0.0], GreedyConfig(epsilon=0.01))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    def test_matches_closed_form_on_random_vectors(self):
        rng = np.random.default_rng(42)
        cfg = GreedyConfig(epsilon=1e-3)
        for n in range(1, 7):
            scores = rng.uniform(0.05, 10.0, size=(30, n))
            greedy = eqp_solver_batch(scores, cfg)
            closed = closed_form_alloc_batch(scores, 0.5)
            assert np.abs(greedy - closed).max() <= 2 * cfg.epsilon


class TestEqpAgainstReference:
    @pytest.mark.parametrize("eps", EPSILONS)
    @PROPERTY_SETTINGS
    @given(row=ROWS)
    def test_matches_the_loop(self, eps, row):
        expected, split = _reference_eqp(row, eps)
        x = _greedy(row, eps)
        if not split:
            np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12)
        assert np.abs(x - expected).max() <= eps + 1e-12

    @pytest.mark.parametrize("eps", EPSILONS)
    @PROPERTY_SETTINGS
    @given(row=ROWS, data=st.data())
    def test_invariants(self, eps, row, data):
        x = _greedy(row, eps)
        if np.any(row > 0):
            assert math.isclose(x.sum(), 1.0, abs_tol=1e-12)
        else:
            assert np.all(x == 0.0)
        assert np.all(x[row <= 0] == 0.0)
        for value in np.unique(row):
            assert np.ptp(x[row == value]) == 0.0
        perm = np.array(data.draw(st.permutations(range(row.size))))
        np.testing.assert_array_equal(_greedy(row[perm], eps), x[perm])
        assert np.abs(x - closed_form_alloc(row)).max() <= 2 * eps

    @pytest.mark.parametrize("eps", (0.1, 1e-3))
    @PROPERTY_SETTINGS
    @given(row=ROWS)
    def test_scale_invariant(self, eps, row):
        """Scaling every score by 4^k scales each sqrt(c^+) and gain by 2^k
        exactly, so with ties relative to the row's largest score the shares
        do not change, down to scores near 1e-270."""
        x = _greedy(row, eps)
        for scale in (4.0**-450, 4.0**-20, 4.0**100):
            np.testing.assert_array_equal(_greedy(row * scale, eps), x)

    def test_tiny_scores_are_not_one_tie(self):
        """Below c ~ 1e-24 an absolute tie tolerance made every positive score
        one group, so [1e-300, 4e-300] split evenly; the closed form and the
        scale-free greedy give [0.2, 0.8]."""
        for row in ([1e-300, 4e-300], [1e-30, 4e-30], [1.0, 4.0]):
            x = eqp_solver(row, GreedyConfig(epsilon=1e-3))
            np.testing.assert_allclose(x, [0.2, 0.8], rtol=0, atol=1e-12)
            np.testing.assert_allclose(x, closed_form_alloc(row), rtol=0, atol=1e-12)
            np.testing.assert_allclose(x, _reference_eqp(row, 1e-3)[0], rtol=0, atol=1e-12)

    def test_mid_run_tie_regression(self):
        """[0, 0.5 x3, 1 x16]: the loop splits a step between the two groups
        mid-run (sqrt(9 eps/8) - sqrt(eps/8) = sqrt(0.5 eps)), which leaves its
        shares off the group-step grid; the engine counts whole group steps."""
        row = np.array([0.0] + [0.5] * 3 + [1.0] * 16)
        eps = 1e-3
        expected, split = _reference_eqp(row, eps)
        x = _greedy(row, eps)
        assert split
        assert x[0] == 0.0 and np.ptp(x[1:4]) == 0.0 and np.ptp(x[4:]) == 0.0
        np.testing.assert_allclose(x[1:4] * 3 / eps, 85.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(x[4:] * 16 / eps, 915.0, rtol=0, atol=1e-9)
        assert 1e-12 < np.abs(x - expected).max() < eps
        assert math.isclose(x.sum(), 1.0, abs_tol=1e-12)

    def test_last_step_tie_is_split_among_members(self):
        """[0.25, 1 x16] at eps = 0.1: the 16-group's tenth step gains
        sqrt(eps/16) (5 - 3) = sqrt(eps)/2, exactly the singleton's first, and
        it is the last step, so all 17 bidders share it as the loop does."""
        row = np.array([0.25] + [1.0] * 16)
        x = _greedy(row, 0.1)
        np.testing.assert_allclose(x, [0.1 / 17] + [0.9 / 16 + 0.1 / 17] * 16,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(x, _reference_eqp(row, 0.1)[0], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(_greedy(row[::-1], 0.1), x[::-1])

    def test_scores_equal_up_to_rounding_move_together(self):
        """1 and 1 + 1e-15 form one group of two, as in the loop, whose gains
        tie within TIE_TOL at every step; as two singletons the pair's shares
        would be whole eps steps and differ from the loop by eps here."""
        cfg = GreedyConfig(epsilon=0.01)
        row = np.array([4.0, 1.0, 1.0 + 1e-15])
        x = eqp_solver(row, cfg)
        np.testing.assert_allclose(x, eqp_solver([4.0, 1.0, 1.0], cfg), rtol=0, atol=1e-12)
        np.testing.assert_allclose(x, _reference_eqp(row, 0.01)[0], rtol=0, atol=1e-12)


class TestClosedForm:
    def test_proportional_split_table(self):
        np.testing.assert_allclose(closed_form_alloc([100.0, 100.0]), [0.5, 0.5])
        np.testing.assert_allclose(closed_form_alloc([100.0, 0.0]), [1.0, 0.0])

    def test_alpha_two_thirds(self):
        x = closed_form_alloc([2.0, 1.0], alpha=2 / 3)
        np.testing.assert_allclose(x, [0.8, 0.2], atol=1e-12)
        # independent oracle: fine grid search over the power objective
        grid = np.linspace(0.0, 1.0, 100001)
        objective = (2.0 ** (2 / 3)) * grid ** (2 / 3) + (1.0 - grid) ** (2 / 3)
        best = grid[np.argmax(objective)]
        assert abs(best - x[0]) <= 1e-4

    def test_sums_to_one_or_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = rng.uniform(-2, 4, size=5)
            x = closed_form_alloc(c)
            assert np.all(x >= 0) and np.all(x <= 1)
            if np.any(c > 0):
                assert math.isclose(x.sum(), 1.0, rel_tol=1e-12)
            else:
                assert x.sum() == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            c = rng.uniform(0.01, 5, size=4)
            lam = rng.uniform(0.1, 20)
            np.testing.assert_allclose(
                closed_form_alloc(c), closed_form_alloc(lam * c), atol=1e-12
            )

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            closed_form_alloc([1.0], alpha=1.0)


class TestExAnte:
    def test_categorical_pair_hand_evaluation(self, categorical_pair):
        table = virtual_values(categorical_pair)
        sol = ex_ante_closed_form(categorical_pair, table, truncate=False)
        # per bidder E[phi+] = 0.8 * 1.25 + 0.2 * 10 = 3, normalizer = 6
        assert math.isclose(sol.normalizer, 6.0, abs_tol=1e-12)
        np.testing.assert_allclose(sol.interim.tables[0], [1.25 / 6, 10 / 6], atol=1e-12)
        assert sol.interim.is_monotone()

    def test_truncation_caps_at_one(self, categorical_pair):
        table = virtual_values(categorical_pair)
        sol = ex_ante_closed_form(categorical_pair, table, truncate=True)
        np.testing.assert_allclose(sol.interim.tables[0], [1.25 / 6, 1.0], atol=1e-12)

    def test_single_type_self_normalizes(self):
        inst = single_type_instance(1.0, 1)
        sol = ex_ante_closed_form(inst, virtual_values(inst), truncate=False)
        np.testing.assert_allclose(sol.interim.tables[0], [1.0])

    def test_zero_virtual_values_give_zero_solution(self):
        inst = single_type_instance(0.0, 2)
        sol = ex_ante_closed_form(inst, virtual_values(inst), truncate=False)
        assert sol.normalizer == 0.0
        for t in sol.interim.tables:
            np.testing.assert_allclose(t, 0.0)

    def test_untruncated_saturates_ex_ante_constraint(self):
        for space_dist, n in [(make_categorical(3, 10, 0.8), 2),
                              (make_categorical(0, 100, 0.5), 3)]:
            inst = symmetric_instance(*space_dist, n)
            sol = ex_ante_closed_form(inst, virtual_values(inst), truncate=False)
            total = sum(
                float(inst.pmf(i) @ sol.interim.tables[i]) for i in range(inst.n)
            )
            assert math.isclose(total, 1.0, abs_tol=1e-9)
