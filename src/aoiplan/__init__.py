"""Freshness-aware UAV-to-ground communication planner.

Given a predicted channel profile along a patrol trajectory, computes the
Pareto frontier trading terrestrial spectrum occupation against UAV
transmit energy under a hard peak age-of-information bound, and evaluates
plans by Monte Carlo simulation against baseline sampling policies.
"""

from .channel import (
    ChannelProfile,
    build_profile,
    capacity_lower_bound,
    fading_severity,
    load_profile,
    los_probability,
    pathloss_db,
    sample_fading,
    save_profile,
)
from .inner import Infeasible, InnerSolution, IntervalSpec, solve_interval, water_fill
from .matching import AssignmentProblem, BinaryAssignment, min_cost_b_matching
from .pareto import (
    ParetoFrontier,
    budget_select,
    compute_frontier,
    scalarize_select,
    transform_frontier,
    weighted_lp_utility,
)
from .scenario import Scenario, default_patrol_scenario, load_scenario, save_scenario
from .sim import (
    PolicyPlan,
    SimReport,
    age_aware_plan,
    baseline_average,
    baseline_instantaneous,
    baseline_periodic,
    simulate,
)
from .timing import SamplingPlan, TimingGraph, build_graph, shortest_path

__version__ = "0.1.0"

__all__ = [
    "AssignmentProblem",
    "BinaryAssignment",
    "ChannelProfile",
    "Infeasible",
    "InnerSolution",
    "IntervalSpec",
    "ParetoFrontier",
    "PolicyPlan",
    "SamplingPlan",
    "Scenario",
    "SimReport",
    "TimingGraph",
    "age_aware_plan",
    "baseline_average",
    "baseline_instantaneous",
    "baseline_periodic",
    "budget_select",
    "build_graph",
    "build_profile",
    "capacity_lower_bound",
    "compute_frontier",
    "default_patrol_scenario",
    "fading_severity",
    "load_profile",
    "load_scenario",
    "los_probability",
    "min_cost_b_matching",
    "pathloss_db",
    "sample_fading",
    "save_profile",
    "save_scenario",
    "scalarize_select",
    "shortest_path",
    "simulate",
    "solve_interval",
    "transform_frontier",
    "water_fill",
    "weighted_lp_utility",
]
