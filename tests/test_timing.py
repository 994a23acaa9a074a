import math
from types import SimpleNamespace

import numpy as np
import pytest

import aoiplan.inner
from aoiplan import build_profile
from aoiplan.errors import NoFeasiblePlanError
from aoiplan.inner import Infeasible, IntervalSpec, solve_interval
from aoiplan.oracle import oracle_plan
from aoiplan.pareto import compute_frontier
from aoiplan.sim import expected_trace, policy_plan_from_sampling
from aoiplan.timing import (Edge, TimingGraph, build_full_graph, build_graph, export_graph_csv,
                            shortest_path)

from conftest import desk_scenario


def graph_from_weights(horizon, aoi_bound, weights):
    """A graph of the given weights; each edge's stand-in solution spends
    its weight as binary energy."""
    g = TimingGraph(horizon=horizon, aoi_bound=aoi_bound, rb_cap=1)
    for (i, j), w in weights.items():
        g.edges[(i, j)] = Edge(weight=w, solution=SimpleNamespace(binary_energy=w))
    return g


def test_edge_count_formula(small_scenario, small_profile):
    g = build_full_graph(small_scenario, small_profile, rb_cap=2)
    T, tau = small_scenario.horizon_T, small_scenario.aoi_bound_tau
    assert len(g.edges) == sum(T + 1 - c for c in range(1, tau + 1))
    for (i, j) in g.edges:
        assert 1 <= j - i <= tau
        e = g.edges[(i, j)]
        if e.feasible:
            assert e.weight >= 0.0 and math.isfinite(e.weight)


def test_full_bound_edge_count_is_triangular():
    s = desk_scenario(12, T=5, tau=5, vbar=1.0)
    prof = build_profile(s, 12)
    g = build_full_graph(s, prof, rb_cap=2)
    assert len(g.edges) == 5 * 6 // 2


def test_unit_bound_graph_has_single_path():
    s = desk_scenario(13, T=5, tau=1, vbar=1.0)
    prof = build_profile(s, 13)
    g = build_full_graph(s, prof, rb_cap=2)
    assert len(g.edges) == s.horizon_T
    plan = shortest_path(g)
    assert plan.instants == tuple(range(1, s.horizon_T + 1))


def test_deep_fade_marks_all_edges_infeasible():
    s = desk_scenario(14, T=4, tau=2, vbar=1e6)
    prof = build_profile(s, 14)
    g = build_full_graph(s, prof, rb_cap=s.num_rb_K)
    assert len(g.edges) == 4 + 3
    assert all(not e.feasible for e in g.edges.values())
    with pytest.raises(NoFeasiblePlanError):
        shortest_path(g)


def test_hand_built_dp_example():
    weights = {(1, 2): 5.0, (2, 3): 5.0, (3, 4): 5.0, (4, 5): 5.0,
               (1, 3): 7.0, (3, 5): 7.0, (2, 4): 7.0}
    g = graph_from_weights(horizon=4, aoi_bound=2, weights=weights)
    plan = shortest_path(g)
    assert plan.path == (1, 3, 5)
    assert plan.total_energy == pytest.approx(14.0)


def test_binary_energy_sums_like_total_energy():
    # builtin sum compensates rounding on Python >= 3.12, where ten 0.1
    # legs would sum to 1.0 against the DP's 0.9999999999999999
    g = graph_from_weights(horizon=10, aoi_bound=1, weights={(i, i + 1): 0.1 for i in range(1, 11)})
    plan = shortest_path(g)
    assert plan.binary_energy == plan.total_energy == 0.9999999999999999


def test_lowering_an_edge_never_raises_total():
    weights = {(1, 2): 5.0, (2, 3): 5.0, (3, 4): 5.0, (4, 5): 5.0,
               (1, 3): 7.0, (3, 5): 7.0, (2, 4): 7.0}
    base = shortest_path(graph_from_weights(4, 2, weights)).total_energy
    for key in weights:
        lowered = dict(weights)
        lowered[key] -= 1.0
        total = shortest_path(graph_from_weights(4, 2, lowered)).total_energy
        assert total <= base + 1e-12


def test_tie_breaks_toward_earlier_predecessor():
    weights = {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 2.0}
    plan = shortest_path(graph_from_weights(2, 2, weights))
    # both routes cost 2; the earlier predecessor of node 3 wins
    assert plan.path == (1, 3)


def test_matches_enumeration_on_random_graphs():
    rng = np.random.default_rng(41)
    for trial in range(40):
        T = int(rng.integers(3, 13))
        tau = int(rng.integers(1, 5))
        weights = {}
        for gap in range(1, tau + 1):
            for i in range(1, T + 2 - gap):
                w = float(rng.uniform(0.0, 10.0))
                if rng.random() < 0.1:
                    w = math.inf
                weights[(i, i + gap)] = w
        g = graph_from_weights(T, tau, weights)
        try:
            plan = shortest_path(g)
        except NoFeasiblePlanError:
            with pytest.raises(NoFeasiblePlanError):
                oracle_plan(T, tau, lambda i, j: weights[(i, j)])
            continue
        instants, energy, _count = oracle_plan(T, tau, lambda i, j: weights[(i, j)])
        assert plan.total_energy == pytest.approx(energy, rel=1e-12)
        # gaps respect the freshness bound
        path = plan.path
        assert all(1 <= b - a <= tau for a, b in zip(path, path[1:]))


def test_plan_total_matches_leg_sum(small_scenario, small_profile):
    g = build_graph(small_scenario, small_profile, rb_cap=2)
    plan = shortest_path(g)
    assert plan.total_energy == pytest.approx(
        sum(s.energy for s in plan.solutions), abs=1e-9
    )
    assert plan.binary_energy == pytest.approx(
        sum(s.binary_energy for s in plan.solutions), abs=1e-9
    )


def test_expected_rate_success_never_exceeds_bound(small_scenario, small_profile):
    g = build_graph(small_scenario, small_profile, rb_cap=2)
    plan = shortest_path(g)
    policy = policy_plan_from_sampling(plan, small_scenario)
    trace = expected_trace(policy, small_profile)
    assert trace.peak_age <= small_scenario.aoi_bound_tau


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_shared_slot_curves_match_standalone_solves(small_scenario, small_profile, cap):
    s = small_scenario
    assert cap <= s.num_rb_K
    g = build_full_graph(s, small_profile, rb_cap=cap)
    for (i, j), edge in g.edges.items():
        spec = IntervalSpec(start=i, end=j, rb_cap=cap, rate_target=s.payload_threshold_vbar,
                            power_cap=s.power_budget_pbar)
        ref = solve_interval(spec, small_profile)
        got = edge.solution
        assert type(got) is type(ref)
        if isinstance(ref, Infeasible):
            assert got.max_rate == ref.max_rate
            continue
        assert got.energy == ref.energy
        assert got.binary_energy == ref.binary_energy
        assert np.array_equal(got.assignment, ref.assignment)
        assert np.array_equal(got.power, ref.power)


def test_slot_cap_solved_once_per_slot(small_scenario, small_profile, monkeypatch):
    """Each slot's cap is solved once, and the curve it is solved on is the
    one every interval through the slot asks, so it keeps the bisection's
    levels."""
    calls, cap_levels, asked = [], {}, {}
    real, solve = aoiplan.inner.solve_slot_cap, aoiplan.timing.solve_interval

    def counting(iota2d, cap, power_cap):
        calls.append(cap)
        curve = real(iota2d, cap, power_cap)
        cap_levels[id(curve)] = list(curve._levels)
        return curve

    def recording(spec, profile, slots):
        asked.update((id(c), c) for c in slots)
        return solve(spec, profile, slots)

    monkeypatch.setattr(aoiplan.inner, "solve_slot_cap", counting)
    monkeypatch.setattr(aoiplan.timing, "solve_interval", recording)
    for cap in (1, 2):
        calls.clear()
        cap_levels.clear()
        asked.clear()
        build_graph(small_scenario, small_profile, rb_cap=cap)
        assert calls == [cap] * small_scenario.horizon_T
        assert asked.keys() == cap_levels.keys()
        for key, curve in asked.items():
            assert curve.cap_level in cap_levels[key]
            assert set(cap_levels[key]) <= set(curve._levels)


def test_piece_counts_repeat_exactly(small_scenario, small_profile, monkeypatch):
    counts = {"matchings": 0, "checks": 0, "priced": 0}
    kernel, check, state = (aoiplan.inner.min_cost_b_matching,
                            aoiplan.inner.SlotCurve._piece_certified, aoiplan.inner._slot_state)

    def counting_kernel(*args, **kwargs):
        counts["matchings"] += 1
        return kernel(*args, **kwargs)

    def counting_check(*args):
        counts["checks"] += 1
        return check(*args)

    def counting_state(*args):
        counts["priced"] += len(args) > 4 and args[4]
        return state(*args)

    monkeypatch.setattr(aoiplan.inner, "min_cost_b_matching", counting_kernel)
    monkeypatch.setattr(aoiplan.inner.SlotCurve, "_piece_certified", counting_check)
    monkeypatch.setattr(aoiplan.inner, "_slot_state", counting_state)
    seen = []
    for _ in range(2):
        counts.update(matchings=0, checks=0, priced=0)
        build_graph(small_scenario, small_profile, rb_cap=1)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["checks"] > 0 and seen[0]["priced"] > seen[0]["matchings"]


def test_only_serial_jobs_accepted(small_scenario, small_profile):
    with pytest.raises(ValueError):
        build_graph(small_scenario, small_profile, rb_cap=2, jobs=2)
    with pytest.raises(ValueError):
        compute_frontier(small_scenario, small_profile, jobs=2)
    one = build_graph(small_scenario, small_profile, rb_cap=2, jobs=1)
    default = build_graph(small_scenario, small_profile, rb_cap=2)
    assert {k: e.weight for k, e in one.edges.items()} == {
        k: e.weight for k, e in default.edges.items()}


def test_graph_csv_export(tmp_path, small_scenario, small_profile):
    g = build_graph(small_scenario, small_profile, rb_cap=2)
    path = tmp_path / "graph.csv"
    export_graph_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "start,end,weight"
    assert len(lines) == 1 + len(g.edges)
