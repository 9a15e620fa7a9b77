"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np

from convexauction import (
    DiscreteDistribution,
    ExPostAllocation,
    GreedyConfig,
    Mechanism,
    OracleConfig,
    TypeSpace,
    bayesian_payment,
    bound_report,
    discretization_gap,
    exact_brm,
    exact_rrm,
    export_program,
    heuristic_brm,
    heuristic_lb_rrm,
    interim_collapse,
    make_categorical,
    perceived_payment,
    pseudo_surplus_maximizer,
    surplus_maximizer,
    symmetric_instance,
    verify,
    virtual_surplus_maximizer,
)
from convexauction.alloc import closed_form_alloc_batch, eqp_solver_batch
from conftest import (
    corpus_instances,
    random_instance,
    random_monotone_allocation,
    single_type_instance,
)

_shared = {}


def _report(number: int, text: str):
    print(f"[acceptance] criterion {number}: PASS - {text}")


def two_value_instance(v: float, n: int = 2):
    space = TypeSpace(np.array([0.0, float(v)]))
    dist = DiscreteDistribution(np.array([0.5, 0.5]))
    return symmetric_instance(space, dist, n)


def test_criterion_1_golden_robust_oracle():
    inst = two_value_instance(100.0)
    start = time.perf_counter()
    mech, report = exact_rrm(inst, OracleConfig(grid=1e-3))
    elapsed = time.perf_counter() - start
    target = 5 * (1 + math.sqrt(2) / 2)
    assert abs(report.revenue - target) <= 0.02
    assert abs(mech.allocation.table[0][1, 1] - 0.5) <= 1e-3
    assert abs(mech.allocation.table[1][1, 1] - 0.5) <= 1e-3
    assert abs(mech.robust_payments.table[0][1, 0] - 10.0) <= 0.02
    assert abs(mech.robust_payments.table[0][1, 1] - math.sqrt(50)) <= 0.02
    assert elapsed < 5.0
    _report(1, f"exact_rrm revenue {report.revenue:.5f} ~ {target:.5f} in {elapsed:.2f}s")


def test_criterion_2_golden_bayesian_oracle():
    inst = two_value_instance(100.0)
    start = time.perf_counter()
    mech, report = exact_brm(inst, OracleConfig(grid=1e-3))
    elapsed = time.perf_counter() - start
    target = 5 * math.sqrt(3)
    assert abs(report.revenue - target) <= 0.02
    assert abs(mech.interim_allocation.tables[0][1] - 0.75) <= 0.01
    assert abs(mech.interim_payments.tables[0][1] - target) <= 0.01
    assert elapsed < 5.0
    _report(2, f"exact_brm revenue {report.revenue:.5f} ~ {target:.5f} in {elapsed:.2f}s")


def test_criterion_3_brm_rrm_ratio():
    ratios = []
    for v in (25.0, 100.0):
        inst = two_value_instance(v)
        config = OracleConfig(grid=1e-3)
        _, rrm = exact_rrm(inst, config)
        _, brm = exact_brm(inst, config)
        ratio = brm.revenue / rrm.revenue
        assert 1.010 <= ratio <= 1.020
        ratios.append(ratio)
    _report(3, f"BRM/RRM ratios {[round(r, 5) for r in ratios]} ~ sqrt(6)/(sqrt(2)+1)")


def test_criterion_4_tight_bound_family():
    eps = 1e-3
    for n in range(1, 9):
        inst = single_type_instance(1.0, n)
        root_n = math.sqrt(n)
        mech, report = pseudo_surplus_maximizer(inst, "closed_form")
        np.testing.assert_allclose(mech.allocation.table, 1.0 / n, atol=1e-9)
        np.testing.assert_allclose(
            mech.robust_payments.table, math.sqrt(1.0 / n), atol=1e-9
        )
        assert abs(report.objective_value - root_n) <= 1e-9
        assert abs(report.revenue - root_n) <= 1e-9
        mech, report = pseudo_surplus_maximizer(inst, "greedy", GreedyConfig(epsilon=eps))
        np.testing.assert_allclose(mech.allocation.table, 1.0 / n, atol=1e-9)
        np.testing.assert_allclose(
            mech.robust_payments.table, math.sqrt(1.0 / n), atol=1e-9
        )
        assert abs(report.objective_value - root_n) <= 2 * eps * root_n
        assert abs(report.revenue - root_n) <= 2 * eps * root_n
    _report(4, "pseudo-surplus maximizers tight at sqrt(n) for n = 1..8")


def test_criterion_5_h_consistency_suite():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        inst = random_instance(rng, max_n=3, max_k=4)
        alloc = ExPostAllocation(random_monotone_allocation(rng, inst))
        q = perceived_payment(alloc, inst)
        h = bayesian_payment(interim_collapse(alloc, inst), inst)
        for i in range(inst.n):
            own_first = np.moveaxis(q[i], i, 0).reshape(inst.shape[i], -1)
            qhat = own_first @ inst.context_pmf(i).ravel()
            np.testing.assert_allclose(h.tables[i] ** 2, qhat, atol=1e-9)
        checked += 1
    _report(5, "h_i^2 equals the expected perceived payment on 200 random rules")


def test_criterion_6_ordering_suite():
    start = time.perf_counter()
    tol = 1e-9
    count = 0
    for label, inst in corpus_instances(max_n=5):
        _, lb_report = heuristic_lb_rrm(inst, "closed_form")
        mech_rrm, rrm_report = heuristic_lb_rrm(inst, "closed_form")
        mech_brm, brm_report = heuristic_brm(inst, "closed_form")
        assert lb_report.objective_value <= rrm_report.revenue + tol, label
        assert rrm_report.revenue <= brm_report.revenue + tol, label

        rep = bound_report(inst, mech_rrm)
        assert rep.ok, (label, rep.failures)
        assert rep.revenue <= rep.robust_pseudo_surplus + tol, label
        assert rep.robust_pseudo_surplus <= rep.bayesian_pseudo_surplus + tol, label
        assert brm_report.revenue <= rep.bayesian_pseudo_surplus + tol, label
        for i in range(inst.n):
            assert rep.per_bidder_revenue[i] <= rep.per_bidder_virtual_sqrt[i] + tol, label
        count += 1
    _shared["criterion6_seconds"] = time.perf_counter() - start
    _report(6, f"ordering chain holds on {count} corpus instances")


def test_criterion_7_verifier_suite():
    for label, inst in corpus_instances(max_n=3):
        for mech, _ in (
            surplus_maximizer(inst),
            pseudo_surplus_maximizer(inst, "closed_form"),
            virtual_surplus_maximizer(inst),
            heuristic_lb_rrm(inst, "closed_form"),
        ):
            checks = verify(inst, mech, ("ic", "ir", "xp"))
            assert all(c.passed for c in checks.values()), (label, mech.provenance)
        mech, _ = heuristic_brm(inst, "closed_form")
        checks = verify(inst, mech, ("bic", "bir", "xp"))
        assert all(c.passed for c in checks.values()), label

    inst = two_value_instance(100.0)
    table = np.zeros((2, 2, 2))
    table[0, 1, 1] = table[1, 1, 1] = 1.0
    result = verify(inst, Mechanism(ExPostAllocation(table)), ("xp",))["xp"]
    assert not result.passed and result.worst_violation == 1.0
    _report(7, "pipelines verify IC/IR/XP and BIC/BIR/XP; negative test fails XP by 1.0")


def test_criterion_8_greedy_closed_form_agreement():
    rng = np.random.default_rng(77)
    cfg = GreedyConfig(epsilon=1e-3)
    remaining = 500
    worst = 0.0
    for n in range(1, 7):
        rows = 84 if n < 6 else remaining
        remaining -= rows
        scores = rng.uniform(0.05, 10.0, size=(rows, n))
        greedy = eqp_solver_batch(scores, cfg)
        closed = closed_form_alloc_batch(scores)
        worst = max(worst, float(np.abs(greedy - closed).max()))
    assert worst <= 2e-3
    _report(8, f"greedy vs closed form worst entry gap {worst:.2e} <= 2e-3 on 500 vectors")


def test_criterion_9_discretization_scaling():
    space, dist = make_categorical(3, 10, 0.8)
    inst = symmetric_instance(space, dist, 2)
    mech, _ = heuristic_lb_rrm(inst, "closed_form")
    gaps = []
    for delta in (0.1, 0.05, 0.025, 0.0125):
        # discretization_gap enforces the per-entry delta*(2 z_l - z_1)
        # perceived-payment bound internally and raises on violation
        report = discretization_gap(inst, mech.allocation, delta)
        gaps.append(report.revenue_gap)
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= earlier + 1e-9
    _report(9, f"revenue gaps {['%.2e' % v for v in gaps]} non-increasing, q-gap bound holds")


def test_criterion_10_export_counts():
    for n, k in ((2, 2), (2, 5), (3, 2)):
        space = TypeSpace(np.linspace(1.0, 2.0, k))
        dist = DiscreteDistribution(np.full(k, 1.0 / k))
        inst = symmetric_instance(space, dist, n)
        P = k**n
        S = n * k
        M_xp = n * (k - 1) * k ** (n - 1)
        M_int = n * (k - 1)
        expected = {
            "rrm_xp": {"VAR x[": n * P, "VAR p[": n * P, "CONSTRAINT xp[": P,
                       "CONSTRAINT lb_x[": n * P, "CONSTRAINT ub_x[": n * P,
                       "CONSTRAINT mono_x[": M_xp, "CONSTRAINT pay[": n * P},
            "rrm_pseudo": {"VAR x[": n * P, "CONSTRAINT xp[": P,
                           "CONSTRAINT lb_x[": n * P, "CONSTRAINT ub_x[": n * P,
                           "CONSTRAINT mono_x[": M_xp},
            "rrm_lb": {"VAR x[": n * P, "CONSTRAINT xp[": P,
                       "CONSTRAINT lb_x[": n * P, "CONSTRAINT ub_x[": n * P,
                       "CONSTRAINT mono_x[": M_xp},
            "brm_xp_naive": {"VAR x[": n * P, "VAR p[": n * P, "VAR xhat[": S,
                             "VAR phat[": S, "VAR qhat[": S, "CONSTRAINT xp[": P,
                             "CONSTRAINT lb_x[": n * P, "CONSTRAINT ub_x[": n * P,
                             "CONSTRAINT collapse_xhat[": S,
                             "CONSTRAINT collapse_phat[": S,
                             "CONSTRAINT collapse_qhat[": S,
                             "CONSTRAINT mono_xhat[": M_int, "CONSTRAINT pay[": S},
            "brm_xp": {"VAR x[": n * P, "VAR xhat[": S, "VAR h[": S,
                       "CONSTRAINT xp[": P, "CONSTRAINT lb_x[": n * P,
                       "CONSTRAINT ub_x[": n * P, "CONSTRAINT collapse_xhat[": S,
                       "CONSTRAINT mono_xhat[": M_int, "CONSTRAINT pay[": S},
            "brm_pseudo": {"VAR x[": n * P, "VAR xhat[": S, "CONSTRAINT xp[": P,
                           "CONSTRAINT lb_x[": n * P, "CONSTRAINT ub_x[": n * P,
                           "CONSTRAINT collapse_xhat[": S,
                           "CONSTRAINT mono_xhat[": M_int},
            "brm_xa": {"VAR xhat[": S, "VAR h[": S, "CONSTRAINT xa:": 1,
                       "CONSTRAINT lb_xhat[": S, "CONSTRAINT ub_xhat[": S,
                       "CONSTRAINT mono_xhat[": M_int, "CONSTRAINT pay[": S},
            "brm_xa_rel": {"VAR xhat[": S, "CONSTRAINT xa:": 1,
                           "CONSTRAINT lb_xhat[": S, "CONSTRAINT mono_xhat[": M_int},
            "brm_xa_rel_trunc": {"VAR xhat[": S, "CONSTRAINT xa:": 1,
                                 "CONSTRAINT lb_xhat[": S,
                                 "CONSTRAINT mono_xhat[": M_int},
        }
        for program, spec_counts in expected.items():
            lines = export_program(inst, program).strip().splitlines()
            assert lines[0].startswith("OBJECTIVE maximize: "), program
            total_counted = 1
            for prefix, want in spec_counts.items():
                got = sum(1 for line in lines if line.startswith(prefix))
                assert got == want, (program, prefix, got, want, n, k)
                total_counted += want
            assert total_counted == len(lines), (program, total_counted, len(lines))
    _report(10, "exported variable/constraint counts match the closed-form formulas")


def test_criterion_11_desk_scale_budget():
    assert "criterion6_seconds" in _shared, "ordering suite must run first"
    elapsed = _shared["criterion6_seconds"]
    assert elapsed < 120.0
    _report(11, f"corpus ordering suite finished in {elapsed:.1f}s (< 120s); "
               "no full-scale figure reproduction attempted")
