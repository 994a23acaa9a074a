import numpy as np
import pytest

import aoiplan.channel
import aoiplan.sim
from aoiplan import build_profile
from aoiplan.channel import sample_fading
from aoiplan.sim import (
    _payload_per_slot,
    _success_traces,
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


def _reference_payload(plan, prof, xi):
    """Per-slot realized payload as documented: the assigned entries' rates
    summed over the full (N, K, T) tensor."""
    rate = np.log2(1.0 + plan.full_power() * prof.gain * xi / prof.noise_power)
    return np.where(plan.full_assignment().astype(bool), rate, 0.0).sum(axis=(0, 1))


def _reference_trace(plan, payload):
    """Scalar delivery rule and age recursion for one replica: the payload
    accumulates per leg ('interval', at most one delivery per leg) or until
    each delivery ('streaming'); the age resets on delivery."""
    T = plan.horizon
    fire_at = plan.delivery_threshold - 1e-12
    success, cum, acc = [False] * T, [0.0] * T, 0.0
    for leg in plan.legs:
        if plan.success_mode == "interval":
            acc = 0.0
        fired = False
        for t in range(leg.start - 1, leg.end - 1):
            acc += float(payload[t])
            cum[t] = acc
            if not fired and acc >= fire_at:
                success[t] = True
                if plan.success_mode == "interval":
                    fired = True
                else:
                    acc = 0.0
    age = [0]
    for hit in success:
        age.append(0 if hit else age[-1] + 1)
    return age, success, cum


def _assert_trace_is(trace, ref):
    age, success, cum = ref
    assert trace.age.tolist() == age
    assert trace.success.tolist() == success
    assert trace.cum_payload.tolist() == cum
    assert trace.peak_age == max(age)


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
            _assert_trace_is(trace, _reference_trace(plan, _reference_payload(plan, prof, xi)))


def test_simulate_draws_fading_through_sample_fading(feasible_setup, monkeypatch):
    s, prof = feasible_setup
    plan = baseline_periodic(s, prof, rb_cap=2)
    drawn = []

    def spy(profile, rng):
        # replica r's generator, before its draw, is default_rng([11, r])'s
        state = rng.bit_generator.state
        xi = sample_fading(profile, rng)
        drawn.append((state, xi))
        return xi

    monkeypatch.setattr(aoiplan.sim, "sample_fading", spy)
    report = simulate(plan, prof, replicas=4, seed=11, keep_traces=True)
    assert [state for state, _ in drawn] == [np.random.default_rng([11, r]).bit_generator.state
                                             for r in range(4)]
    for r, (trace, (_, xi)) in enumerate(zip(report.traces, drawn)):
        assert np.array_equal(xi, sample_fading(prof, [11, r]))
        _, _, cum = _reference_trace(plan, _reference_payload(plan, prof, xi))
        assert trace.cum_payload.tolist() == cum


def test_simulate_refuses_replica_streams_that_differ_from_numpy(feasible_setup, monkeypatch):
    s, prof = feasible_setup
    plan = baseline_periodic(s, prof, rb_cap=2)
    monkeypatch.setattr(aoiplan.channel, "_MULT_B", aoiplan.channel._MULT_B ^ 1)
    with pytest.raises(RuntimeError, match="default_rng"):
        simulate(plan, prof, replicas=3, seed=11)


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


def test_replica_traces_do_not_depend_on_the_batch(feasible_setup):
    s, prof = feasible_setup
    periodic = baseline_periodic(s, prof, rb_cap=2)
    average = baseline_average(s, prof, rb_cap=2)
    assert periodic.success_mode == "interval" and average.success_mode == "streaming"
    assert len(average.legs) == 1
    assert aoiplan.sim.BATCH < 513   # the full run spans two delivery-loop batches
    for plan in (periodic, average):
        full = simulate(plan, prof, replicas=513, seed=4, keep_traces=True)
        for replicas in (1, 7):
            part = simulate(plan, prof, replicas=replicas, seed=4, keep_traces=True)
            for trace, ref in zip(part.traces, full.traces):
                _assert_trace_is(trace, (ref.age.tolist(), ref.success.tolist(),
                                         ref.cum_payload.tolist()))
    # the streaming plan's single leg delivers more than once in some replicas
    assert any(trace.success.sum() >= 2 for trace in full.traces)
    for rep in (0, 6, 512):
        xi = sample_fading(prof, [4, rep])
        _assert_trace_is(full.traces[rep],
                         _reference_trace(average, _reference_payload(average, prof, xi)))


def test_expected_trace_is_one_row_of_the_delivery_loop(feasible_setup):
    s, prof = feasible_setup
    rng = np.random.default_rng(0)
    for builder in (age_aware_plan, baseline_instantaneous, baseline_average):
        plan = builder(s, prof, rb_cap=2)
        expected = _payload_per_slot(plan, prof)
        trace = expected_trace(plan, prof)
        _assert_trace_is(trace, _reference_trace(plan, expected))
        # the same payload as the middle row of a batch gives the same row
        batch = rng.uniform(0.0, 2.0 * s.payload_threshold_vbar, size=(3, s.horizon_T))
        batch[1] = expected
        age, success, cum = _success_traces(plan, batch)
        assert np.array_equal(success[1], trace.success)
        assert np.array_equal(cum[1], trace.cum_payload)
        assert np.array_equal(age[1], trace.age)


def test_roll_age_runs_along_the_last_axis():
    rng = np.random.default_rng(1)
    success = rng.random((5, 9)) < 0.3
    rows = roll_age(success)
    assert rows.shape == (5, 10)
    for row, hits in zip(rows, success):
        age = [0]
        for hit in hits:
            age.append(0 if hit else age[-1] + 1)
        assert row.tolist() == age


def test_simulate_rejects_a_profile_of_other_dimensions(feasible_setup):
    s, prof = feasible_setup
    plan = baseline_periodic(s, prof, rb_cap=2)
    longer = desk_scenario(3, T=s.horizon_T + 1, vbar=3.0, pbar_dbm=23.0)
    other = build_profile(longer, 3)
    with pytest.raises(ValueError, match="differ"):
        simulate(plan, other, replicas=2, seed=1)
    with pytest.raises(ValueError, match="differ"):
        expected_trace(plan, other)
