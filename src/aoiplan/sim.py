"""Monte Carlo evaluation of transmission plans and the baseline policies.

For each replica the simulator draws a fading realization, accumulates the
realized payload sum rate slot by slot, fires the delivery-success rule,
and rolls the age recursion: the age resets when a delivery completes and
grows by one otherwise.  A plan satisfies the freshness requirement when
the peak age never exceeds the bound, which for an interval plan is
equivalent to every interval fitting inside the bound and delivering on
time.

One delivery loop serves both accounting modes: an 'interval' plan resets
its payload accumulator at every leg boundary and delivers at most once
per leg, while a 'streaming' plan resets it only after each delivery.  The
baselines fix their leg boundaries in advance and share one leg loop;
:data:`POLICIES` names every policy builder.

Two success notions are reported side by side: the planner's own
expected-payload rule (deterministic, uses the capacity surrogate) and the
realized rule (payload from the sampled fading), since plans target the
expected rate and realized delivery fluctuates around it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelProfile, capacity_lower_bound, sample_fading
from .inner import Infeasible, IntervalSpec, solve_interval
from .numeric import seq_sum
from .scenario import Scenario
from .timing import SamplingPlan, build_graph, shortest_path

__all__ = [
    "Leg", "PolicyPlan", "AoiTrace", "SimReport", "SUCCESS_MODES", "POLICIES",
    "policy_plan_from_sampling", "age_aware_plan",
    "baseline_periodic", "baseline_instantaneous", "baseline_average",
    "simulate", "export_trace_csv",
]

SUCCESS_MODES = ("interval", "streaming")


@dataclass
class Leg:
    """One transmission stretch [start, end) with its frozen allocation."""

    start: int
    end: int
    target: float
    assignment: np.ndarray   # (N, K, end-start)
    power: np.ndarray
    planned_energy: float    # relaxed optimum for this leg; inf if infeasible
    spent_energy: float      # what the binary allocation transmits
    feasible: bool


@dataclass
class PolicyPlan:
    """A complete transmission policy over the horizon.

    ``success_mode`` selects the delivery accounting: 'interval' plans
    abort and resample at leg boundaries (age-aware, periodic), while
    'streaming' plans deliver a fresh update every time the threshold
    accumulates (per-slot and whole-horizon baselines).
    """

    kind: str
    horizon: int
    aoi_bound: int
    rb_cap: int
    delivery_threshold: float
    legs: list = field(default_factory=list)
    success_mode: str = "interval"

    @property
    def feasible(self) -> bool:
        return all(leg.feasible for leg in self.legs)

    @property
    def planned_energy(self) -> float:
        return seq_sum(leg.planned_energy for leg in self.legs)

    @property
    def spent_energy(self) -> float:
        return seq_sum(leg.spent_energy for leg in self.legs)

    @property
    def instants(self) -> tuple:
        return tuple(leg.start for leg in self.legs)

    def full_assignment(self) -> np.ndarray:
        """(N, K, T) assignment tensor over the whole horizon."""
        n, k, _ = self.legs[0].assignment.shape
        out = np.zeros((n, k, self.horizon), dtype=np.int8)
        for leg in self.legs:
            out[:, :, leg.start - 1 : leg.end - 1] = leg.assignment
        return out

    def full_power(self) -> np.ndarray:
        n, k, _ = self.legs[0].power.shape
        out = np.zeros((n, k, self.horizon))
        for leg in self.legs:
            out[:, :, leg.start - 1 : leg.end - 1] = leg.power
        return out

    def worst_rb_load(self) -> int:
        """Realized load cap: max over (BS, slot) of occupied RBs."""
        return int(self.full_assignment().sum(axis=1).max())


def _leg_from_solution(scenario: Scenario, start, end, target, sol) -> Leg:
    """Leg carrying ``sol``; an infeasible one carries an empty allocation."""
    if isinstance(sol, Infeasible):
        shape = (scenario.num_bs_N, scenario.num_rb_K, end - start)
        return Leg(
            start=start, end=end, target=target,
            assignment=np.zeros(shape, dtype=np.int8), power=np.zeros(shape),
            planned_energy=math.inf, spent_energy=0.0, feasible=False,
        )
    return Leg(
        start=start, end=end, target=target,
        assignment=sol.assignment, power=sol.power,
        planned_energy=sol.energy, spent_energy=sol.binary_energy, feasible=True,
    )


def policy_plan_from_sampling(plan: SamplingPlan, scenario: Scenario,
                              kind: str = "age-aware") -> PolicyPlan:
    """Wrap an optimal sampling plan in the simulator's policy structure."""
    out = PolicyPlan(
        kind=kind,
        horizon=plan.horizon,
        aoi_bound=plan.aoi_bound,
        rb_cap=plan.rb_cap,
        delivery_threshold=scenario.payload_threshold_vbar,
        success_mode="interval",
    )
    for (i, j), sol in zip(plan.legs, plan.solutions):
        out.legs.append(_leg_from_solution(scenario, i, j, scenario.payload_threshold_vbar, sol))
    return out


def age_aware_plan(scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                   rate_margin: float = 1.0) -> PolicyPlan:
    """Optimal age-aware plan: timing graph plus shortest path."""
    graph = build_graph(scenario, profile, rb_cap, rate_margin=rate_margin)
    plan = shortest_path(graph)
    return policy_plan_from_sampling(plan, scenario)


def _fixed_plan(kind: str, mode: str, scenario: Scenario, profile: ChannelProfile,
                rb_cap: int, starts, target: float) -> PolicyPlan:
    """Legs from each of ``starts`` to the next (the last to T + 1), each solved for ``target``."""
    T = scenario.horizon_T
    plan = PolicyPlan(
        kind=kind, horizon=T, aoi_bound=scenario.aoi_bound_tau, rb_cap=rb_cap,
        delivery_threshold=scenario.payload_threshold_vbar, success_mode=mode,
    )
    bounds = [*starts, T + 1]
    for i, j in zip(bounds[:-1], bounds[1:]):
        spec = IntervalSpec(start=i, end=j, rb_cap=rb_cap, rate_target=target,
                            power_cap=scenario.power_budget_pbar)
        plan.legs.append(_leg_from_solution(scenario, i, j, target, solve_interval(spec, profile)))
    return plan


def baseline_periodic(scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                      rate_margin: float = 1.0) -> PolicyPlan:
    """Sample every aoi_bound slots regardless of predicted channel quality."""
    return _fixed_plan("periodic", "interval", scenario, profile, rb_cap,
                       range(1, scenario.horizon_T + 1, scenario.aoi_bound_tau),
                       scenario.payload_threshold_vbar * rate_margin)


def baseline_instantaneous(scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                           rate_margin: float = 1.0) -> PolicyPlan:
    """Deliver threshold/aoi_bound expected rate in every single slot."""
    return _fixed_plan("instantaneous", "streaming", scenario, profile, rb_cap,
                       range(1, scenario.horizon_T + 1),
                       scenario.payload_threshold_vbar * rate_margin / scenario.aoi_bound_tau)


def baseline_average(scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                     rate_margin: float = 1.0) -> PolicyPlan:
    """Single whole-horizon solve with the averaged target; no per-interval
    guarantee, so the freshness bound may be violated in simulation."""
    T, tau = scenario.horizon_T, scenario.aoi_bound_tau
    return _fixed_plan("average", "streaming", scenario, profile, rb_cap, [1],
                       scenario.payload_threshold_vbar * rate_margin * T / tau)


# name -> builder(scenario, profile, rb_cap, rate_margin=1.0) of every named policy
POLICIES = {
    "age-aware": age_aware_plan,
    "periodic": baseline_periodic,
    "instantaneous": baseline_instantaneous,
    "average": baseline_average,
}


# ----------------------------------------------------------------------
# Age recursion
# ----------------------------------------------------------------------

@dataclass
class AoiTrace:
    """Per-slot realized ages and delivery bookkeeping for one replica."""

    age: np.ndarray          # (T+1,) integer ages, age[0] anchors slot 1 at 0
    success: np.ndarray      # (T,) booleans, success fired at end of slot t
    cum_payload: np.ndarray  # (T,) running payload within the accounting window
    peak_age: int


def roll_age(success: np.ndarray) -> np.ndarray:
    """Age recursion: reset on success, otherwise grow by one slot.

    age[t+1] = 0 if the delivery completed during slot t+1 (1-based),
    else age[t] + 1; the horizon starts fresh (age[0] = 0).
    """
    T = len(success)
    age = np.zeros(T + 1, dtype=np.int64)
    for t in range(T):
        age[t + 1] = 0 if success[t] else age[t] + 1
    return age


def _success_trace(plan: PolicyPlan, payload: np.ndarray) -> AoiTrace:
    """Apply the delivery rule to a per-slot payload vector.

    'interval' mode resets the accumulator at leg boundaries (a new sample
    aborts any unfinished delivery) and fires at most once per leg;
    'streaming' mode resets it only after a success.
    """
    if plan.success_mode not in SUCCESS_MODES:
        raise ValueError(f"unknown success mode {plan.success_mode!r}")
    interval = plan.success_mode == "interval"
    fire_at = plan.delivery_threshold - 1e-12
    success = np.zeros(plan.horizon, dtype=bool)
    cum = np.zeros(plan.horizon)
    acc = 0.0
    for leg in plan.legs:
        if interval:
            acc = 0.0
        fired = False
        for t in range(leg.start, leg.end):
            acc += payload[t - 1]
            cum[t - 1] = acc
            if not fired and acc >= fire_at:
                success[t - 1] = True
                if interval:
                    fired = True
                else:
                    acc = 0.0
    age = roll_age(success)
    return AoiTrace(age=age, success=success, cum_payload=cum, peak_age=int(age.max()))


def _payload_per_slot(plan: PolicyPlan, profile: ChannelProfile) -> np.ndarray:
    """Slot-wise assigned expected (surrogate) sum rate."""
    rate = capacity_lower_bound(plan.full_power(), profile.gain, profile.shape,
                                profile.noise_power)
    return np.where(plan.full_assignment().astype(bool), rate, 0.0).sum(axis=(0, 1))


def _realized_payload(assigned: np.ndarray, power_gain: np.ndarray, fading: np.ndarray,
                      noise_power: float) -> np.ndarray:
    """Slot-wise assigned sum rate under one fading draw."""
    rate = np.log2(1.0 + power_gain * fading / noise_power)
    return np.where(assigned, rate, 0.0).sum(axis=(0, 1))


@dataclass
class SimReport:
    replicas: int
    success_rate: float          # fraction of replicas with peak age within bound
    mean_energy: float           # transmitted power-sum of the executed plan
    worst_rb_load: int
    mean_peak_age: float
    expected_peak_age: int       # peak age under the expected-payload rule
    expected_satisfied: bool
    plan_kind: str
    traces: list = field(default_factory=list)


def expected_trace(plan: PolicyPlan, profile: ChannelProfile) -> AoiTrace:
    """Deterministic trace under the planner's expected-payload success rule."""
    return _success_trace(plan, _payload_per_slot(plan, profile))


def simulate(plan: PolicyPlan, profile: ChannelProfile, replicas: int, seed: int,
             keep_traces: bool = False) -> SimReport:
    """Monte Carlo the realized delivery process of a plan.

    Replica r draws its fading with ``sample_fading(profile, [seed, r])``,
    so replicas are reproducible and independent of execution order.  The
    plan's assignment mask and power times gain are computed once per
    call.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")

    exp_trace = expected_trace(plan, profile)
    assigned = plan.full_assignment().astype(bool)
    power_gain = plan.full_power() * profile.gain
    ok = 0
    peaks = []
    traces = []
    for rep in range(replicas):
        xi = sample_fading(profile, [seed, rep])
        payload = _realized_payload(assigned, power_gain, xi, profile.noise_power)
        trace = _success_trace(plan, payload)
        peaks.append(trace.peak_age)
        if trace.peak_age <= plan.aoi_bound:
            ok += 1
        if keep_traces:
            traces.append(trace)
    return SimReport(
        replicas=replicas,
        success_rate=ok / replicas,
        mean_energy=plan.spent_energy,
        worst_rb_load=plan.worst_rb_load(),
        mean_peak_age=float(np.mean(peaks)),
        expected_peak_age=exp_trace.peak_age,
        expected_satisfied=exp_trace.peak_age <= plan.aoi_bound,
        plan_kind=plan.kind,
        traces=traces,
    )


def export_trace_csv(traces: list, path) -> None:
    """Write per-replica traces as (replica, t, age, success, cum_payload)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replica", "t", "age", "success", "cum_payload"])
        for rep, trace in enumerate(traces):
            for t in range(len(trace.success)):
                writer.writerow([
                    rep, t + 1, int(trace.age[t + 1]),
                    int(trace.success[t]), f"{trace.cum_payload[t]:.9g}",
                ])
