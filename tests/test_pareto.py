import math

import pytest

from aoiplan import build_profile
from aoiplan.errors import BudgetInfeasibleError, MonotonicityError, NoFeasiblePlanError
from aoiplan.pareto import (
    _EQUALITY_REL_TOL,
    FrontierPoint,
    ParetoFrontier,
    budget_select,
    compute_frontier,
    export_frontier_csv,
    scalarize_select,
    transform_frontier,
    weighted_lp_utility,
)
from aoiplan.timing import build_graph, shortest_path

from conftest import desk_scenario


def synthetic_frontier(points):
    pts = tuple(FrontierPoint(load_cap=c, energy=e, plan=None) for c, e in points)
    return ParetoFrontier(points=pts)


@pytest.fixture(scope="module")
def frontier_and_inputs():
    s = desk_scenario(3)
    prof = build_profile(s, 3)
    return compute_frontier(s, prof), s, prof


def test_single_rb_frontier_single_point():
    s = desk_scenario(17, K=1, vbar=2.0)
    prof = build_profile(s, 17)
    fr = compute_frontier(s, prof)
    assert len(fr) == 1
    assert fr.theta_lo == fr.theta_hi == 1


def test_frontier_strictly_decreasing(frontier_and_inputs):
    fr, _, _ = frontier_and_inputs
    energies = [p.energy for p in fr]
    assert all(b < a * (1.0 - 1e-9) for a, b in zip(energies, energies[1:]))
    caps = [p.load_cap for p in fr]
    assert caps == sorted(set(caps))
    assert fr.theta_lo == caps[0] and fr.theta_hi == caps[-1]


def test_frontier_deterministic(frontier_and_inputs):
    fr, s, prof = frontier_and_inputs
    again = compute_frontier(s, prof)
    assert [(p.load_cap, p.energy) for p in fr] == [(p.load_cap, p.energy) for p in again]


def test_frontier_plans_respect_their_caps(frontier_and_inputs):
    fr, s, _ = frontier_and_inputs
    for point in fr:
        for sol in point.plan.solutions:
            assert sol.assignment.sum(axis=1).max(initial=0) <= point.load_cap


def test_frontier_stops_at_the_first_cap_that_saturates():
    """Cap 4's optimum is no strict improvement on cap 3's (it lies 2.6e-14
    relative above it), so the sweep stops before the last cap."""
    s = desk_scenario(14, T=6, N=2, K=4, tau=3, vbar=1.0, pbar_dbm=30.0)
    prof = build_profile(s, 14)
    fr = compute_frontier(s, prof)
    assert fr.theta_lo == 1 and fr.theta_hi == 3 < s.num_rb_K
    assert [round(p.energy, 5) for p in fr] == [0.10302, 0.09196, 0.09019]
    beyond = shortest_path(build_graph(s, prof, 4)).total_energy
    assert abs(beyond - fr.points[-1].energy) <= _EQUALITY_REL_TOL * fr.points[-1].energy


def test_frontier_infeasible_raises():
    s = desk_scenario(18, vbar=1e6, T=4, tau=2)
    prof = build_profile(s, 18)
    with pytest.raises(NoFeasiblePlanError):
        compute_frontier(s, prof)


def test_frontier_rejects_dominated_or_nonmonotone_points():
    with pytest.raises(ValueError):
        synthetic_frontier([(1, 10.0), (2, 10.0)])
    with pytest.raises(ValueError):
        synthetic_frontier([(2, 10.0), (1, 4.0)])


# ---------------------------------------------------------------- transforms

def test_transform_identity():
    fr = synthetic_frontier([(1, 10.0), (2, 4.0), (3, 3.5)])
    out = transform_frontier(fr, lambda x: x, lambda x: x)
    assert out == [(1.0, 10.0), (2.0, 4.0), (3.0, 3.5)]


def test_transform_square_log():
    fr = synthetic_frontier([(1, 10.0), (2, 4.0), (3, 3.5)])
    out = transform_frontier(fr, lambda x: x * x, lambda e: math.log1p(e))
    expected = [(1.0, math.log1p(10.0)), (4.0, math.log1p(4.0)), (9.0, math.log1p(3.5))]
    for (a, b), (c, d) in zip(out, expected):
        assert a == pytest.approx(c) and b == pytest.approx(d)


def test_transform_rejects_non_monotone():
    fr = synthetic_frontier([(1, 10.0), (2, 4.0), (3, 3.5)])
    with pytest.raises(MonotonicityError):
        transform_frontier(fr, lambda x: -x, lambda x: x)
    with pytest.raises(MonotonicityError):
        transform_frontier(fr, lambda x: x, lambda e: (e - 6.0) ** 2)


def test_maps_that_fail_to_evaluate_are_rejected():
    # 0 ** -1 divides by zero; 5 ** 1000 overflows a float
    with pytest.raises(MonotonicityError, match="g2"):
        transform_frontier(synthetic_frontier([(1, 0.8), (2, 0.0)]),
                           lambda x: x, lambda e: e ** -1.0)
    with pytest.raises(MonotonicityError, match="g2"):
        transform_frontier(synthetic_frontier([(1, 5.2), (2, 4.9)]),
                           lambda x: x, lambda e: e ** 1000.0)
    with pytest.raises(MonotonicityError, match="g1"):
        budget_select(synthetic_frontier([(1, 10.0), (2, 4.0), (3, 3.5)]),
                      lambda x: x ** 2000.0, 1e9)


# ---------------------------------------------------------------- selection

def test_scalarize_weight_extremes():
    fr = synthetic_frontier([(1, 10.0), (2, 4.0), (3, 3.5)])
    lo = scalarize_select(fr, weighted_lp_utility(alpha=1.0, p=1.0))
    assert lo.load_cap == 1
    hi = scalarize_select(fr, weighted_lp_utility(alpha=0.0, p=1.0))
    assert hi.load_cap == 3


def test_scalarize_l2_example():
    fr = synthetic_frontier([(1, 10.0), (2, 4.0), (3, 3.5)])
    # sqrt(0.5 theta^2 + 0.5 E^2): 7.106, 3.162, 3.260 -> middle point
    pick = scalarize_select(fr, weighted_lp_utility(alpha=0.5, p=2.0))
    assert pick.load_cap == 2


def test_budget_select_cases():
    fr = synthetic_frontier([(1, 10.0), (2, 4.0), (3, 3.5)])
    assert budget_select(fr, lambda x: x, 99.0).load_cap == 3
    assert budget_select(fr, lambda x: x, 2.0).load_cap == 2
    with pytest.raises(BudgetInfeasibleError):
        budget_select(fr, lambda x: x, 0.5)


def test_utility_factory_validation():
    with pytest.raises(ValueError):
        weighted_lp_utility(alpha=1.5, p=1.0)
    with pytest.raises(ValueError):
        weighted_lp_utility(alpha=0.5, p=0.5)


# ---------------------------------------------------------------- export

def test_frontier_csv_deterministic(tmp_path, frontier_and_inputs):
    fr, s, _ = frontier_and_inputs
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_frontier_csv(fr, p1, s)
    export_frontier_csv(fr, p2, s)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "epsilon_theta,energy_linear,energy_dbm,num_samples,instants"
    assert len(lines) == 1 + len(fr)
