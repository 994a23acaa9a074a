"""Pruned timing graphs against all-edges graphs, and the dual bound that
makes the pruning safe.

The all-edges graph is ``build_full_graph``'s: one solve per admissible
edge over shared slot curves.  scipy's ``linear_sum_assignment``
recomputes the slot matching costs of the dual bound as an independent
referee; the package itself never imports scipy.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from aoiplan import ChannelProfile, build_profile
from aoiplan.errors import NoFeasiblePlanError
from aoiplan.inner import (LN2, Infeasible, IntervalSpec, assignment_weights, dual_bound,
                           interval_floor, slot_curves, solve_interval)
from aoiplan.oracle import oracle_inner
from aoiplan.scenario import default_patrol_scenario
from aoiplan.timing import (Edge, TimingGraph, _edge_targets, _EdgeSolver, _solve_lazily,
                            build_full_graph, build_graph, shortest_path)

from conftest import desk_scenario, synthetic_profile


def _assert_plans_equal(scenario, profile, cap):
    """The pruned graph plans bit for bit as the all-edges graph, or both
    raise; returns the pruned graph."""
    pruned = build_graph(scenario, profile, cap)
    eager = build_full_graph(scenario, profile, cap)
    for key, edge in pruned.edges.items():
        assert edge.weight == eager.edges[key].weight, key
    try:
        want = shortest_path(eager)
    except NoFeasiblePlanError:
        with pytest.raises(NoFeasiblePlanError):
            shortest_path(pruned)
        return pruned
    got = shortest_path(pruned)
    assert got.path == want.path
    assert got.instants == want.instants
    assert got.total_energy == want.total_energy
    assert got.binary_energy == want.binary_energy
    return pruned


def _table1(seed, T, tau):
    s = dataclasses.replace(default_patrol_scenario(seed, horizon=T), aoi_bound_tau=tau)
    return s, build_profile(s, seed)


# every scenario seed, horizon, freshness bound and cap at least once
@pytest.mark.parametrize("seed,T,tau,cap", [
    (1, 60, 4, 4), (2, 61, 4, 1), (3, 62, 4, 16),
    (1, 62, 8, 1), (2, 60, 8, 16), (3, 61, 8, 4),
])
def test_pruned_plans_equal_all_edges_plans_at_table1_scale(seed, T, tau, cap):
    scenario, profile = _table1(seed, T, tau)
    graph = _assert_plans_equal(scenario, profile, cap)
    assert graph.pruned_edges > 0


def _equal_floor_profile(N, K, T, floor=0.5):
    gain = np.full((N, K, T), 1.0 / floor)
    return ChannelProfile.from_arrays(gain, np.full((N, K, T), 1e9), 1.0)


def _desk_cases():
    # energies here are not monotone in the cap
    s = desk_scenario(14, T=6, N=2, K=4, tau=3, vbar=1.0, pbar_dbm=30.0)
    for cap in range(1, 5):
        yield f"non-monotone-cap{cap}", s, None, cap
    yield "tau == T", desk_scenario(5, T=5, tau=5, vbar=2.0), None, 2
    yield "tau == T == 1", desk_scenario(6, T=1, tau=1, vbar=2.0), None, 1
    yield "K == 1", desk_scenario(10, T=7, N=2, K=1, tau=3, vbar=1.0), None, 1
    s = desk_scenario(8, T=7, N=2, K=3, tau=3, vbar=1.0)
    yield "tied floors", s, _equal_floor_profile(2, 3, 7), 2
    yield "all infeasible", desk_scenario(14, T=4, tau=2, vbar=1e6), None, 3


@pytest.mark.parametrize("name,scenario,profile,cap", list(_desk_cases()),
                         ids=[c[0] for c in _desk_cases()])
def test_pruned_plans_equal_all_edges_plans_on_edge_cases(name, scenario, profile, cap):
    if profile is None:
        profile = build_profile(scenario, scenario.master_seed)
    _assert_plans_equal(scenario, profile, cap)


def test_pruned_plans_equal_all_edges_plans_near_infeasibility():
    """Targets between what the weakest and the strongest maximal edges
    carry: some maximal edges are infeasible while a plan of maximal legs
    still exists (T = 3 * tau), and some targets have no plan."""
    base = desk_scenario(20, T=9, N=2, K=3, tau=3)
    outcomes = set()
    for seed in range(12):
        profile = synthetic_profile(seed, N=2, K=3, L=9, gain_exp_range=(-2.5, 1.5))
        carried = [solve_interval(IntervalSpec(start=a, end=a + 3, rb_cap=1, rate_target=1e18,
                                               power_cap=base.power_budget_pbar), profile).max_rate
                   for a in range(1, 8)]
        for share in (0.1, 0.3, 0.5):
            vbar = min(carried) + share * (max(carried) - min(carried))
            s = dataclasses.replace(base, payload_threshold_vbar=vbar)
            graph = _assert_plans_equal(s, profile, 1)
            try:
                shortest_path(graph)
                outcomes.add("plan")
            except NoFeasiblePlanError:
                outcomes.add("none")
    assert outcomes == {"plan", "none"}


def test_table1_counts_are_pinned_and_repeat():
    scenario = default_patrol_scenario(1)
    profile = build_profile(scenario, 1)
    counts = []
    for _ in range(2):
        graph = build_graph(scenario, profile, 4)
        counts.append((graph.solved_edges, graph.pruned_edges))
    # the 57 maximal edges (i, i + 4) and none of the 177 shorter ones
    assert counts == [(57, 177)] * 2


def test_graphs_hold_only_their_solved_edges():
    """The pruned graph holds the edges it solved, each weighing what the
    full graph's does; the full graph holds every admissible edge."""
    scenario = default_patrol_scenario(1)
    profile = build_profile(scenario, 1)
    graph = build_graph(scenario, profile, 4)
    full = build_full_graph(scenario, profile, 4)
    admissible = {(i, i + gap) for gap in range(1, 5) for i in range(1, 62 - gap)}  # T=60, tau=4
    assert graph.edges.keys() <= admissible
    assert len(graph.edges) == graph.solved_edges
    assert (graph.solved_edges, graph.pruned_edges) == (57, 177)
    assert full.edges.keys() == admissible
    assert (full.solved_edges, full.pruned_edges) == (234, 0)
    for key, edge in graph.edges.items():
        assert edge.weight == full.edges[key].weight, key


# weights whose float sums tie often (0.1 + 0.2 == 0.3 fails, 0.3 + 0.4 == 0.7
# holds), and infeasible edges
_WEIGHTS = (0.1, 0.2, 0.3, 1 / 3, 0.4, 0.6, 2 / 3, 0.7, 1.0, math.inf)


def _plan_or_none(graph):
    try:
        plan = shortest_path(graph)
    except NoFeasiblePlanError:
        return None
    return plan.instants, plan.total_energy.hex(), plan.binary_energy.hex()


def test_lazy_search_plans_like_all_weights_on_random_graphs():
    """The lazy loop with a stand-in edge solver, on graphs with float ties
    and infinite edges and floors at most the weights: the plan over the
    edges it solved equals the plan over every weight, bit for bit."""
    rng = np.random.default_rng(2401)
    outcomes, pruned = set(), 0
    for _ in range(2000):
        T, tau = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        weights = {key: float(rng.choice(_WEIGHTS)) for key in _edge_targets(T, tau)}
        floors = {key: min(w, float(rng.choice((0.0,) + _WEIGHTS[:-1])))
                  for key, w in weights.items()}
        edges = {}

        def solve(i, j):
            w = weights[(i, j)]
            edges[(i, j)] = Edge(weight=w, solution=SimpleNamespace(binary_energy=2.0 * w))

        L = min(tau, T)
        for a in range(1, T + 2 - L):  # the maximal edges first, as build_graph does
            solve(a, a + L)
        _solve_lazily(edges, solve, floors, T, tau)
        lazy = TimingGraph(horizon=T, aoi_bound=tau, rb_cap=1, edges=dict(edges))
        for key in weights:
            solve(*key)
        eager = TimingGraph(horizon=T, aoi_bound=tau, rb_cap=1, edges=edges)
        want = _plan_or_none(eager)
        assert _plan_or_none(lazy) == want, (T, tau, weights, floors)
        outcomes.add(want is None)
        pruned += lazy.pruned_edges > 0
    assert outcomes == {True, False}
    assert pruned > 500


@pytest.mark.parametrize("seed,T,tau,cap", [(1, 60, 4, 4), (2, 62, 8, 4)])
def test_interval_floor_is_below_every_contained_weight(seed, T, tau, cap):
    """Every maximal edge's floor lies under the computed weight of every
    edge inside it, on all-edges graphs."""
    scenario, profile = _table1(seed, T, tau)
    solve = _EdgeSolver(scenario, profile, cap, 1.0)
    for key in _edge_targets(T, tau):
        solve(*key)
    L, checked, violations = min(tau, T), 0, []
    for a in range(1, T + 2 - L):
        sol = solve.edges[(a, a + L)].solution
        if isinstance(sol, Infeasible):
            continue
        floor = interval_floor(solve.curves[a - 1 : a - 1 + L], sol.level, solve.target,
                               solve.power_cap)
        assert floor > 0.0
        for i in range(a, a + L):
            for j in range(i + 1, a + L + 1):
                checked += 1
                if not floor <= solve.edges[(i, j)].weight:
                    violations.append((a, i, j))
    assert violations == []
    assert checked > 0


# ------------------------------------------------------------------ dual bound

def _dual(spec, profile, level):
    curves = slot_curves(profile.iota[:, :, spec.start - 1 : spec.end - 1],
                         spec.rb_cap, spec.power_cap)
    return dual_bound(curves, level, spec.rate_target, spec.power_cap), curves


def test_dual_bound_never_exceeds_the_oracle():
    rng = np.random.default_rng(2101)
    checked = 0
    for _ in range(60):
        N, K, L = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        prof = synthetic_profile(int(rng.integers(1 << 30)), N=N, K=K, L=L)
        cap = int(rng.integers(1, min(K, 2) + 1))
        pbar = float(rng.uniform(1.0, 20.0))
        probe = IntervalSpec(start=1, end=L + 1, rb_cap=cap, rate_target=1e18, power_cap=pbar)
        phimax = solve_interval(probe, prof).max_rate
        vbar = float(rng.uniform(0.2, 0.95)) * phimax
        spec = IntervalSpec(start=1, end=L + 1, rb_cap=cap, rate_target=vbar, power_cap=pbar)
        sol = solve_interval(spec, prof)
        ref = oracle_inner(spec, prof)
        # the solver's own level, and levels on either side of it
        for level in (sol.level, 0.7 * sol.level, 1.3 * sol.level):
            assert _dual(spec, prof, level)[0] <= ref
        checked += 1
    assert checked == 60


def _scipy_cost(level, iota2d, cap):
    """Minimum b-matching cost: each BS row repeated ``cap`` times, and
    non-negative weights clipped to 0 so that a forced pair costs nothing."""
    w = np.minimum(assignment_weights(level, iota2d), 0.0)
    rows = np.repeat(w, cap, axis=0)
    r, c = linear_sum_assignment(rows)
    return float(rows[r, c].sum())


@pytest.mark.parametrize("cap", [1, 4, 16])
def test_dual_bound_is_tight_on_every_feasible_k16_edge(cap):
    scenario = default_patrol_scenario(2, horizon=9)
    profile = build_profile(scenario, 2)
    V, P = scenario.payload_threshold_vbar, scenario.power_budget_pbar
    graph = build_full_graph(scenario, profile, cap)
    curves = slot_curves(profile.iota[:, :, :scenario.horizon_T], cap, P)
    feasible = 0
    for (i, j), edge in graph.edges.items():
        if not edge.feasible:
            continue
        feasible += 1
        E, mu = edge.weight, edge.solution.level
        slots = curves[i - 1 : j - 1]
        ours = dual_bound(slots, mu, V, P)
        ref = LN2 * mu * V
        for t, slot in enumerate(slots, start=i):
            level = min(mu, slot.cap_level)
            cost = _scipy_cost(level, profile.iota[:, :, t - 1], cap)
            floor = slot.cost_floor(level)
            assert floor <= cost <= floor + 1e-9 * (1.0 + abs(cost))
            ref += (mu / level) * cost - (mu / level - 1.0) * P
        assert ours <= ref
        assert 0.0 <= (E - ours) / E <= 1e-9, (i, j)
        assert (E - ref) / E <= 1e-9, (i, j)
    assert feasible > 0


def test_level_prices_the_marginal_payload():
    """``ln2 * level`` is the derivative of the optimal energy in the target."""
    scenario = default_patrol_scenario(1, horizon=8)
    profile = build_profile(scenario, 1)
    V = scenario.payload_threshold_vbar

    def solve(target):
        return solve_interval(IntervalSpec(start=2, end=6, rb_cap=4, rate_target=target,
                                           power_cap=scenario.power_budget_pbar), profile)

    here, step = solve(V), 1e-3 * V
    slope = (solve(V + step).energy - solve(V - step).energy) / (2.0 * step)
    assert slope == pytest.approx(LN2 * here.level, rel=1e-3)
