"""Monte Carlo evaluation of transmission plans and the baseline policies.

For each replica the simulator draws a fading realization, sums the
realized payload rate of the assigned entries slot by slot, fires the
delivery-success rule, and rolls the age recursion: the age resets when a
delivery completes and grows by one otherwise.  A plan satisfies the
freshness requirement when the peak age never exceeds the bound, which for
an interval plan is equivalent to every interval fitting inside the bound
and delivering on time.

A call runs its replicas in batches of :data:`BATCH`.  Python loops over
replicas only to draw each one's fading over the full (N, K, T) tensor
(the documented stream, one draw held at a time).  Replica r's generator
has the stream of ``numpy.random.default_rng([seed, r])``, but
``channel.replica_generators`` seeds a whole batch of them with one
vectorised pass of numpy's SeedSequence hash.  The payload is summed
over the plan's support only, into a (replicas, T) matrix, and the
delivery rule and the age recursion run over a whole batch at once.
Every bit equals the per-replica full-tensor computation: the support
lists entries in C order, so each slot adds its rates in the same
(bs, rb) order, and the dropped entries would only add ``+0.0``.

One delivery loop, over the slots with a vector of replicas as its state,
serves both accounting modes and the expected trace (one replica): an
'interval' plan resets its payload accumulator at every leg boundary and
delivers at most once per leg, while a 'streaming' plan resets it only
after each delivery.  The baselines fix their leg boundaries in advance
and share one leg loop; :data:`POLICIES` names every policy builder.

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

from .channel import ChannelProfile, capacity_lower_bound, replica_generators, sample_fading
from .errors import PlanFormatError
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
# replicas per batch of the delivery loop; without kept traces a call holds
# O(BATCH * T) memory whatever its replica count
BATCH = 256


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

    @property
    def shape(self) -> tuple:
        """(N, K, T): base stations, resource blocks and horizon."""
        return (*self.legs[0].assignment.shape[:2], self.horizon)

    def full_assignment(self) -> np.ndarray:
        """(N, K, T) assignment tensor over the whole horizon."""
        out = np.zeros(self.shape, dtype=np.int8)
        for leg in self.legs:
            out[:, :, leg.start - 1 : leg.end - 1] = leg.assignment
        return out

    def full_power(self) -> np.ndarray:
        out = np.zeros(self.shape)
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


def policy_plan_from_sampling(plan: SamplingPlan, scenario: Scenario) -> PolicyPlan:
    """Wrap an optimal sampling plan in the simulator's policy structure."""
    out = PolicyPlan(
        kind="age-aware",
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
    """Age recursion along the last axis: reset on success, otherwise grow
    by one slot.

    age[t+1] = 0 if the delivery completed during slot t+1 (1-based),
    else age[t] + 1; the horizon starts fresh (age[0] = 0).  So age[t] is
    t minus the last slot <= t that delivered (0 if none).
    """
    success = np.asarray(success, dtype=bool)
    slots = np.arange(success.shape[-1] + 1)
    last = np.where(success, slots[1:], 0)
    np.maximum.accumulate(last, axis=-1, out=last)
    age = np.zeros(success.shape[:-1] + slots.shape, dtype=np.int64)
    np.subtract(slots[1:], last, out=age[..., 1:])
    return age


def _success_traces(plan: PolicyPlan, payload: np.ndarray) -> tuple:
    """Apply the delivery rule and the age recursion to each row of an
    (R, T) payload matrix.

    'interval' mode resets the accumulator at leg boundaries (a new sample
    aborts any unfinished delivery) and fires at most once per leg;
    'streaming' mode resets it only after a success.  The loop runs over
    the slots; its state is one accumulator per replica.  Returns the
    (R, T+1) ages and the (R, T) success and running-payload matrices.
    """
    if plan.success_mode not in SUCCESS_MODES:
        raise ValueError(f"unknown success mode {plan.success_mode!r}")
    interval = plan.success_mode == "interval"
    fire_at = plan.delivery_threshold - 1e-12
    success = np.zeros(payload.shape, dtype=bool)
    cum = np.zeros(payload.shape)
    acc = np.zeros(payload.shape[0])
    for leg in plan.legs:
        if interval:
            acc = np.zeros_like(acc)
            fired = np.zeros(acc.shape, dtype=bool)
        for t in range(leg.start - 1, leg.end - 1):
            acc += payload[:, t]
            cum[:, t] = acc
            fire = acc >= fire_at
            if interval:
                fire &= ~fired
                fired |= fire
            else:
                acc[fire] = 0.0
            success[:, t] = fire
    return roll_age(success), success, cum


def _payload_per_slot(plan: PolicyPlan, profile: ChannelProfile) -> np.ndarray:
    """Slot-wise assigned expected (surrogate) sum rate; a profile of other
    (N, K, T) than the plan's raises :class:`PlanFormatError`."""
    if plan.shape != profile.gain.shape:
        raise PlanFormatError(f"plan dimensions (N, K, T) = {plan.shape} differ from the "
                              f"profile's {profile.gain.shape}")
    rate = capacity_lower_bound(plan.full_power(), profile.gain, profile.shape,
                                profile.noise_power)
    return np.where(plan.full_assignment().astype(bool), rate, 0.0).sum(axis=(0, 1))


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
    """Deterministic trace under the planner's expected-payload success rule.

    The plan must have the profile's (N, K, T).
    """
    age, success, cum = _success_traces(plan, _payload_per_slot(plan, profile)[None, :])
    return AoiTrace(age=age[0], success=success[0], cum_payload=cum[0],
                    peak_age=int(age[0].max()))


def simulate(plan: PolicyPlan, profile: ChannelProfile, replicas: int, seed: int,
             keep_traces: bool = False) -> SimReport:
    """Monte Carlo the realized delivery process of a plan.

    Replica r draws its fading with ``sample_fading`` over the full
    (N, K, T) tensor from the generator :func:`channel.replica_generators`
    builds for it, whose stream is ``default_rng([seed, r])``'s, so
    replicas are reproducible and do not depend on how many run in one
    call.  The replicas run in batches of up to :data:`BATCH`, whose
    generators are built in one call: each draw is reduced at once to its
    row of the batch's (batch, T) payload matrix, summed over the plan's
    assigned entries, and one delivery loop and one age recursion then
    cover every row.  The plan must have the profile's (N, K, T).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    exp_trace = expected_trace(plan, profile)

    # the support in C order: flat index (n * K + k) * T + t
    T = plan.horizon
    support = np.flatnonzero(plan.full_assignment())
    slot = support % T
    power_gain = (plan.full_power() * profile.gain).take(support)
    peaks = np.empty(replicas, dtype=np.int64)
    traces = []
    for first in range(0, replicas, BATCH):
        rngs = replica_generators(seed, first, min(first + BATCH, replicas))
        payload = np.empty((len(rngs), T))
        for row, rng in enumerate(rngs):
            xi = sample_fading(profile, rng)
            rate = np.log2(1.0 + power_gain * xi.take(support) / profile.noise_power)
            payload[row] = np.bincount(slot, weights=rate, minlength=T)
        age, success, cum = _success_traces(plan, payload)
        peaks[first:first + len(rngs)] = age.max(axis=1)
        if keep_traces:
            traces += [AoiTrace(age=a, success=s, cum_payload=c, peak_age=int(a.max()))
                       for a, s, c in zip(age, success, cum)]
    return SimReport(
        replicas=replicas,
        success_rate=int((peaks <= plan.aoi_bound).sum()) / replicas,
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
