"""Degenerate inputs through the whole pipeline: ``tau == T`` (also with a
single slot), a single base station, a single resource block and
all-equal floors.  Each runs ``build_graph`` -> ``shortest_path`` ->
``age_aware_plan`` -> ``simulate`` and is checked against the brute-force
oracles at desk sizes; a target no plan can meet fails with a typed
:class:`AoiPlanError`."""

import dataclasses
import math

import numpy as np
import pytest

from aoiplan import ChannelProfile, build_profile
from aoiplan.errors import AoiPlanError, NoFeasiblePlanError
from aoiplan.inner import Infeasible, IntervalSpec, solve_interval
from aoiplan.oracle import oracle_inner, oracle_plan_from_profile
from aoiplan.sim import age_aware_plan, simulate
from aoiplan.timing import build_full_graph, build_graph, shortest_path

from conftest import desk_scenario


def _slot_max(scenario, profile, cap, pick=min):
    """``pick`` over the slots of the rate one slot carries at its power cap."""
    return pick(
        solve_interval(IntervalSpec(start=t, end=t + 1, rb_cap=cap, rate_target=1e18,
                                    power_cap=scenario.power_budget_pbar), profile).max_rate
        for t in range(1, scenario.horizon_T + 1))


def _sized(scenario, profile, cap, share=0.5):
    """The scenario with a target a unit-gap plan can always meet."""
    vbar = share * _slot_max(scenario, profile, cap)
    return dataclasses.replace(scenario, payload_threshold_vbar=vbar)


def _equal_floor_profile(N, K, T, floor=0.5):
    """Every (n, k, t) with the same gain and shape, hence the same floor."""
    gain = np.full((N, K, T), 1.0 / floor)
    prof = ChannelProfile.from_arrays(gain, np.full((N, K, T), 1e9), 1.0)
    assert np.all(prof.iota == prof.iota[0, 0, 0])
    return prof


def _cases():
    yield "tau == T", desk_scenario(5, T=4, N=2, K=3, tau=4), None, 2
    yield "T == tau == 1", desk_scenario(6, T=1, N=2, K=3, tau=1), None, 1
    yield "N == 1", desk_scenario(7, T=6, N=1, K=3, tau=3), None, 2
    s = desk_scenario(8, T=6, N=2, K=3, tau=3)
    yield "equal floors", s, _equal_floor_profile(2, 3, 6), 2
    s = desk_scenario(9, T=4, N=3, K=4, tau=4)
    yield "equal floors, tau == T", s, _equal_floor_profile(3, 4, 4), 3
    yield "K == 1", desk_scenario(10, T=4, N=2, K=1, tau=2), None, 1
    yield "K == N == 1, tau == T", desk_scenario(11, T=3, N=1, K=1, tau=3), None, 1


@pytest.mark.parametrize("name,scenario,profile,cap", list(_cases()),
                         ids=[c[0] for c in _cases()])
def test_degenerate_inputs_plan_and_simulate_like_the_oracles(name, scenario, profile, cap):
    if profile is None:
        profile = build_profile(scenario, scenario.master_seed)
    s = _sized(scenario, profile, cap)
    T, tau = s.horizon_T, s.aoi_bound_tau

    for (i, j), edge in build_full_graph(s, profile, cap).edges.items():
        spec = IntervalSpec(start=i, end=j, rb_cap=cap, rate_target=s.payload_threshold_vbar,
                            power_cap=s.power_budget_pbar)
        ref = oracle_inner(spec, profile)
        if isinstance(edge.solution, Infeasible):
            assert isinstance(ref, Infeasible), (name, i, j)
        else:
            assert not isinstance(ref, Infeasible), (name, i, j)
            assert math.isclose(edge.weight, ref, rel_tol=1e-3), (name, i, j, edge.weight, ref)
            power, active = edge.solution.power, edge.solution.assignment.astype(bool)
            iota = profile.iota[:, :, i - 1 : j - 1]
            rate = float(np.log2(1.0 + power[active] / iota[active]).sum())
            assert rate >= s.payload_threshold_vbar * (1.0 - 1e-9), (name, i, j)

    plan = shortest_path(build_graph(s, profile, cap))
    _, oracle_energy = oracle_plan_from_profile(s, profile, cap)
    assert math.isclose(plan.total_energy, oracle_energy, rel_tol=1e-3), (name, plan, oracle_energy)
    assert plan.instants[0] == 1
    gaps = np.diff(list(plan.instants) + [T + 1])
    assert gaps.min() >= 1 and gaps.max() <= tau

    policy = age_aware_plan(s, profile, cap)
    assert policy.instants == plan.instants
    assert policy.feasible
    report = simulate(policy, profile, replicas=40, seed=3, keep_traces=True)
    assert report.replicas == 40 == len(report.traces)
    assert 0.0 <= report.success_rate <= 1.0
    assert 0 <= report.worst_rb_load <= cap
    assert report.expected_satisfied and report.expected_peak_age <= tau
    assert 0.0 <= report.mean_peak_age <= T
    if T == 1:
        assert plan.instants == (1,) and report.expected_peak_age == 0
    again = simulate(age_aware_plan(s, profile, cap), profile, replicas=40, seed=3)
    assert (again.success_rate, again.mean_peak_age) == (report.success_rate,
                                                          report.mean_peak_age)


@pytest.mark.parametrize("name,scenario,profile,cap", list(_cases()),
                         ids=[c[0] for c in _cases()])
def test_degenerate_inputs_out_of_reach_fail_typed(name, scenario, profile, cap):
    """A target above what every interval can carry fails with the typed
    error of an infeasible plan, in the solver and in the oracle alike."""
    if profile is None:
        profile = build_profile(scenario, scenario.master_seed)
    reach = _slot_max(scenario, profile, cap, max) * scenario.aoi_bound_tau
    s = dataclasses.replace(scenario, payload_threshold_vbar=2.0 * reach)
    with pytest.raises(NoFeasiblePlanError) as solver_err:
        age_aware_plan(s, profile, cap)
    assert isinstance(solver_err.value, AoiPlanError)
    with pytest.raises(NoFeasiblePlanError):
        oracle_plan_from_profile(s, profile, cap)
