import math

import numpy as np
import pytest

from aoiplan.channel import fading_severity
from aoiplan.errors import NoFeasiblePlanError, OracleBudgetError
from aoiplan.inner import Infeasible, IntervalSpec, solve_interval
from aoiplan.matching import AssignmentProblem
from aoiplan.oracle import (
    check_inner,
    mc_expected_capacity,
    oracle_inner,
    oracle_matching,
    oracle_plan,
)

from conftest import synthetic_profile
from test_inner import single_entry_profile


def test_budget_enforced_never_truncated():
    with pytest.raises(OracleBudgetError):
        oracle_matching(AssignmentProblem(np.zeros((4, 4)), 1))
    with pytest.raises(OracleBudgetError):
        check_inner(2, 2, 5)
    with pytest.raises(OracleBudgetError):
        oracle_plan(13, 3, lambda i, j: 1.0)
    with pytest.raises(OracleBudgetError):
        mc_expected_capacity(1.0, 1.0, samples=2_000_000, seed=0)


def test_oracle_matching_trivial_cases():
    out = oracle_matching(AssignmentProblem(np.array([[1.0, 2.0], [0.1, 3.0]]), 1))
    assert out.select.sum() == 0 and out.total_weight == 0.0
    w = np.array([[0.5, -1.5], [0.2, 0.9]])
    out = oracle_matching(AssignmentProblem(w, 1))
    assert out.select[0, 1] == 1 and out.select.sum() == 1


def test_oracle_inner_zero_target():
    prof = synthetic_profile(1)
    spec = IntervalSpec(start=1, end=3, rb_cap=1, rate_target=0.0, power_cap=4.0)
    assert oracle_inner(spec, prof) == 0.0


def test_oracle_inner_closed_form_case():
    prof = single_entry_profile(1.0)
    spec = IntervalSpec(start=1, end=2, rb_cap=1, rate_target=2.0, power_cap=10.0)
    assert oracle_inner(spec, prof) == pytest.approx(3.0, rel=1e-4)


def test_oracle_inner_verdicts_agree_with_solver():
    rng = np.random.default_rng(55)
    both_inf = 0
    for trial in range(100):
        N, K, L = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 4)
        prof = synthetic_profile(int(rng.integers(1 << 30)), N=N, K=K, L=L)
        cap = int(rng.integers(1, 3))
        pbar = float(rng.uniform(1.0, 10.0))
        probe = IntervalSpec(start=1, end=L + 1, rb_cap=cap, rate_target=1e18, power_cap=pbar)
        phimax = solve_interval(probe, prof).max_rate
        u = float(rng.uniform(0.2, 0.95)) if rng.random() < 0.5 else float(rng.uniform(1.05, 1.4))
        spec = IntervalSpec(start=1, end=L + 1, rb_cap=cap,
                            rate_target=u * phimax, power_cap=pbar)
        ours = solve_interval(spec, prof)
        ref = oracle_inner(spec, prof)
        assert isinstance(ours, Infeasible) == isinstance(ref, Infeasible), trial
        if isinstance(ref, Infeasible):
            both_inf += 1
    assert both_inf > 10  # the sweep really exercised both verdicts


def test_oracle_plan_unit_bound_unique_sequence():
    instants, energy, count = oracle_plan(5, 1, lambda i, j: 1.0)
    assert instants == (1, 2, 3, 4, 5)
    assert count == 1
    assert energy == pytest.approx(5.0)


def test_oracle_plan_fibonacci_count():
    # gaps of 1 or 2 over six slots: compositions count = Fibonacci(7)
    _, _, count = oracle_plan(6, 2, lambda i, j: 1.0)
    assert count == 13


def test_oracle_plan_all_infeasible():
    with pytest.raises(NoFeasiblePlanError):
        oracle_plan(4, 2, lambda i, j: math.inf)


def test_mc_capacity_zero_snr_exact():
    mean, stderr = mc_expected_capacity(4.0, 0.0, samples=1000, seed=1)
    assert mean == 0.0 and stderr == 0.0


def test_mc_capacity_concentrates_at_large_shape():
    mean, stderr = mc_expected_capacity(5e4, 100.0, samples=200_000, seed=2)
    assert mean == pytest.approx(math.log2(101.0), abs=3.0 * stderr + 1e-3)


def test_mc_capacity_golden_rayleigh_point():
    # frozen reference: unit shape, mean SNR 100, fixed seed
    mean, stderr = mc_expected_capacity(1.0, 100.0, samples=100_000, seed=7)
    assert mean == pytest.approx(5.889492506, abs=1e-8)
    assert 0.0 < stderr < 0.01
    # sanity: sits between the severity-discounted bound and the Jensen cap
    lo = math.log2(1.0 + fading_severity(1.0) * 100.0)
    hi = math.log2(1.0 + 100.0)
    assert lo <= mean <= hi
