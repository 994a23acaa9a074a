import numpy as np
import pytest

import aoiplan.sim
from aoiplan import build_profile
from aoiplan.channel import sample_fading
from aoiplan.sim import (
    _realized_payload,
    _success_trace,
    age_aware_plan,
    baseline_average,
    baseline_instantaneous,
    baseline_periodic,
    expected_trace,
    roll_age,
    simulate,
)

from conftest import desk_scenario


@pytest.fixture(scope="module")
def feasible_setup():
    s = desk_scenario(3, vbar=3.0, pbar_dbm=23.0)
    return s, build_profile(s, 3)


def test_roll_age_hand_trace():
    # scripted success pattern over six slots
    success = np.array([False, True, False, False, True, False])
    age = roll_age(success)
    assert list(age) == [0, 1, 0, 1, 2, 0, 1]
    assert age.max() == 2


def test_periodic_instants():
    s = desk_scenario(5, T=9, tau=3, vbar=1.0)
    prof = build_profile(s, 5)
    plan = baseline_periodic(s, prof, rb_cap=2)
    assert plan.instants == (1, 4, 7)


def test_periodic_equals_age_aware_at_unit_bound():
    s = desk_scenario(6, T=5, tau=1, vbar=1.0)
    prof = build_profile(s, 6)
    per = baseline_periodic(s, prof, rb_cap=2)
    aa = age_aware_plan(s, prof, rb_cap=2)
    assert per.instants == aa.instants == tuple(range(1, 6))
    assert per.planned_energy == pytest.approx(aa.planned_energy, rel=1e-12)


def test_age_aware_never_costlier_than_periodic(feasible_setup):
    s, prof = feasible_setup
    aa = age_aware_plan(s, prof, rb_cap=2)
    per = baseline_periodic(s, prof, rb_cap=2)
    assert aa.planned_energy <= per.planned_energy + 1e-12


def test_instantaneous_is_costliest(feasible_setup):
    s, prof = feasible_setup
    inst = baseline_instantaneous(s, prof, rb_cap=2)
    aa = age_aware_plan(s, prof, rb_cap=2)
    if inst.feasible:
        assert aa.planned_energy <= inst.planned_energy * (1.0 + 1e-9)


def test_average_is_cheapest(feasible_setup):
    s, prof = feasible_setup
    avg = baseline_average(s, prof, rb_cap=2)
    aa = age_aware_plan(s, prof, rb_cap=2)
    assert avg.feasible
    assert avg.planned_energy <= aa.planned_energy * (1.0 + 1e-6)


def test_zero_threshold_always_succeeds():
    s = desk_scenario(7, vbar=4.0)
    prof = build_profile(s, 7)
    plan = age_aware_plan(s, prof, rb_cap=2)
    plan.delivery_threshold = 0.0
    report = simulate(plan, prof, replicas=20, seed=1)
    assert report.success_rate == 1.0
    assert report.expected_peak_age <= s.aoi_bound_tau


def test_zero_power_plan_never_succeeds(feasible_setup):
    s, prof = feasible_setup
    plan = age_aware_plan(s, prof, rb_cap=2)
    for leg in plan.legs:
        leg.power = np.zeros_like(leg.power)
        leg.assignment = np.zeros_like(leg.assignment)
    report = simulate(plan, prof, replicas=5, seed=2, keep_traces=True)
    assert report.success_rate == 0.0
    trace = report.traces[0]
    # age grows linearly without any reset
    assert list(trace.age) == list(range(s.horizon_T + 1))


def test_expected_trace_meets_bound(feasible_setup):
    s, prof = feasible_setup
    plan = age_aware_plan(s, prof, rb_cap=2)
    trace = expected_trace(plan, prof)
    assert trace.peak_age <= s.aoi_bound_tau
    # one delivery per leg under the expected rule
    assert all(trace.cum_payload[leg.end - 2] >= plan.delivery_threshold * (1 - 1e-9)
               for leg in plan.legs)


def test_realized_load_within_cap(feasible_setup):
    s, prof = feasible_setup
    for cap in (1, 2, 3):
        plan = age_aware_plan(s, prof, rb_cap=cap)
        report = simulate(plan, prof, replicas=3, seed=3)
        assert report.worst_rb_load <= cap


def test_simulation_deterministic(feasible_setup):
    s, prof = feasible_setup
    plan = age_aware_plan(s, prof, rb_cap=2)
    r1 = simulate(plan, prof, replicas=10, seed=11)
    r2 = simulate(plan, prof, replicas=10, seed=11)
    assert r1.success_rate == r2.success_rate
    assert r1.mean_peak_age == r2.mean_peak_age
    r3 = simulate(plan, prof, replicas=10, seed=12)
    # different seed is allowed to differ (not asserted equal)
    assert r3.replicas == 10


def test_margin_raises_realized_success():
    # strong-LOS scenario: expected-rate targeting puts each delivery near
    # its median, so the realized success rate hovers above one half; a
    # 1.2 rate margin pushes it up decisively
    s = desk_scenario(101, T=8, N=2, K=3, tau=4, vbar=8.0, pbar_dbm=20.0,
                      kappa_range=(25.0, 30.0))
    prof = build_profile(s, 101)
    plain = age_aware_plan(s, prof, rb_cap=3)
    wide = age_aware_plan(s, prof, rb_cap=3, rate_margin=1.2)
    r_plain = simulate(plain, prof, replicas=1000, seed=5)
    r_wide = simulate(wide, prof, replicas=1000, seed=5)
    assert r_plain.success_rate >= 0.5
    assert r_wide.success_rate >= 0.9
    assert r_wide.success_rate >= r_plain.success_rate
    # recorded values for this exact seed pair
    assert r_plain.success_rate == pytest.approx(0.568, abs=1e-12)
    assert r_wide.success_rate == pytest.approx(1.0, abs=1e-12)


def test_zero_target_baselines_are_empty_plans(feasible_setup):
    s, prof = feasible_setup
    for builder in (baseline_instantaneous, baseline_average):
        plan = builder(s, prof, rb_cap=2, rate_margin=0.0)
        assert plan.feasible
        assert plan.planned_energy == 0.0
        assert plan.full_power().sum() == 0.0


def test_average_baseline_can_violate_freshness():
    # the averaged constraint concentrates payload in good slots; at least
    # one desk seed shows a realized/expected freshness violation
    violated = False
    for seed in range(40):
        s = desk_scenario(seed, T=8, tau=2, vbar=3.0, pbar_dbm=23.0)
        prof = build_profile(s, seed)
        avg = baseline_average(s, prof, rb_cap=s.num_rb_K)
        if not avg.feasible:
            continue
        trace = expected_trace(avg, prof)
        if trace.peak_age > s.aoi_bound_tau:
            violated = True
            break
    assert violated


def test_replica_count_validation(feasible_setup):
    s, prof = feasible_setup
    plan = age_aware_plan(s, prof, rb_cap=2)
    with pytest.raises(ValueError):
        simulate(plan, prof, replicas=0, seed=1)


def test_simulate_traces_follow_the_documented_stream(feasible_setup):
    s, prof = feasible_setup
    for builder in (baseline_periodic, baseline_instantaneous):
        plan = builder(s, prof, rb_cap=2)
        report = simulate(plan, prof, replicas=6, seed=9, keep_traces=True)
        assert len(report.traces) == 6
        for rep, trace in enumerate(report.traces):
            rng = np.random.default_rng([9, rep])
            xi = rng.gamma(shape=prof.shape, scale=1.0 / prof.shape)
            ref = _success_trace(plan, _realized_payload(
                plan.full_assignment().astype(bool), plan.full_power() * prof.gain, xi,
                prof.noise_power))
            assert np.array_equal(trace.age, ref.age)
            assert np.array_equal(trace.success, ref.success)
            assert np.array_equal(trace.cum_payload, ref.cum_payload)
            assert trace.peak_age == ref.peak_age


def test_simulate_draws_fading_through_sample_fading(feasible_setup, monkeypatch):
    s, prof = feasible_setup
    plan = baseline_periodic(s, prof, rb_cap=2)
    drawn = []

    def spy(profile, seed):
        xi = sample_fading(profile, seed)
        drawn.append((list(seed), xi))
        return xi

    monkeypatch.setattr(aoiplan.sim, "sample_fading", spy)
    report = simulate(plan, prof, replicas=4, seed=11, keep_traces=True)
    assert [seed for seed, _ in drawn] == [[11, r] for r in range(4)]
    for r, (trace, (_, xi)) in enumerate(zip(report.traces, drawn)):
        assert np.array_equal(xi, sample_fading(prof, [11, r]))
        ref = _success_trace(plan, _realized_payload(
            plan.full_assignment().astype(bool), plan.full_power() * prof.gain, xi,
            prof.noise_power))
        assert np.array_equal(trace.cum_payload, ref.cum_payload)


def test_infeasible_baseline_legs_have_full_shapes(feasible_setup):
    s, prof = feasible_setup
    N, K = s.num_bs_N, s.num_rb_K
    plan = baseline_periodic(s, prof, rb_cap=1, rate_margin=1e6)
    assert plan.legs and not any(leg.feasible for leg in plan.legs)
    for leg in plan.legs:
        shape = (N, K, leg.end - leg.start)
        assert leg.assignment.shape == shape and leg.assignment.dtype == np.int8
        assert leg.power.shape == shape and leg.power.dtype == float
        assert not leg.assignment.any() and not leg.power.any()
    assert plan.full_assignment().shape == (N, K, s.horizon_T)
