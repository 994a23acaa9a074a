"""Per-layer instrumentation of aoiplan, installed from outside the package.

:func:`instrument` wraps each layer's public functions at the module
attribute their callers look up; its hooks keep the call arguments, from
which the input properties are derived once the job has ended: whether a
matching's per-column winners exceed the load cap, whether a slot-cap
input was seen before, whether an interval came back infeasible.
:func:`layer_metrics` turns the spans and hook state of one traced job
into the per-layer metrics.
"""

from __future__ import annotations

import os
from statistics import median

import numpy as np
from scipy.optimize import linear_sum_assignment

import aoiplan.channel
import aoiplan.inner
import aoiplan.pareto
import aoiplan.planfile
import aoiplan.sim
import aoiplan.timing
from aoiplan.inner import Infeasible

from spans import Tracer, tail
from workloads import POLICIES

# every MATCH_STRIDE-th matching call (from a seeded offset) is re-solved
MATCH_STRIDE = 97

# counts that two traced jobs on the same inputs must reproduce exactly
EXACT_COUNTS = ("matching.calls", "inner.slot_cap.calls", "inner.interval.calls",
                "inner.interval.infeasible", "timing.edges", "pareto.caps_swept",
                "sim.replicas", "matching.checked")

# name -> (unit, better); the order is the order of the printed report
LAYER_METRICS = {
    "channel.build_profile_s": ("s", "lower"),
    "matching.calls": ("count", "lower"),
    "matching.busy_s": ("s", "lower"),
    "matching.p50_us": ("us", "lower"),
    "matching.tail_us": ("us", "lower"),
    "matching.tail_pct": ("%", "higher"),
    "matching.conflict_share": ("share", "lower"),
    "matching.checked": ("count", "higher"),
    "matching.cost_mismatch": ("count", "lower"),
    "inner.slot_cap.calls": ("count", "lower"),
    "inner.slot_cap.busy_s": ("s", "lower"),
    "inner.slot_cap.self_s": ("s", "lower"),
    "inner.slot_cap.repeat_share": ("share", "lower"),
    "inner.interval.calls": ("count", "lower"),
    "inner.interval.busy_s": ("s", "lower"),
    "inner.interval.self_s": ("s", "lower"),
    "inner.interval.p50_ms": ("ms", "lower"),
    "inner.interval.tail_ms": ("ms", "lower"),
    "inner.interval.tail_pct": ("%", "higher"),
    "inner.interval.infeasible": ("count", "lower"),
    "inner.interval.matchings_per_call": ("count", "lower"),
    "timing.build_graph.busy_s": ("s", "lower"),
    "timing.build_graph.self_s": ("s", "lower"),
    "timing.edges": ("count", "lower"),
    "timing.shortest_path.busy_s": ("s", "lower"),
    "pareto.compute_frontier.busy_s": ("s", "lower"),
    "pareto.compute_frontier.self_s": ("s", "lower"),
    "pareto.caps_swept": ("count", "lower"),
    "sim.policy_build_s": ("s", "lower"),
    "sim.simulate.busy_s": ("s", "lower"),
    "sim.us_per_replica": ("us", "lower"),
    "sim.replicas": ("count", "higher"),
    "planfile.save_s": ("s", "lower"),
    "planfile.load_s": ("s", "lower"),
    "planfile.bytes": ("bytes", "lower"),
    "trace.job_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Probe:
    """Call arguments and results kept by the hooks of one traced job.

    Hooks only append references, so tracing adds little inside the spans;
    the input properties are derived after the job has ended.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.matchings = []      # (AssignmentProblem, BinaryAssignment)
        self.slot_caps = []      # (iota2d, cap, power_cap)
        self.infeasible = 0
        self.replicas = 0
        self.plan_bytes = 0

    def on_matching(self, args, kwargs, result):
        self.matchings.append((args[0], result))

    def on_slot_cap(self, args, kwargs, result):
        self.slot_caps.append(args)

    def on_interval(self, args, kwargs, result):
        if isinstance(result, Infeasible):
            self.infeasible += 1

    def on_simulate(self, args, kwargs, result):
        self.replicas += result.replicas

    def on_save_plan(self, args, kwargs, result):
        self.plan_bytes = os.path.getsize(args[1])

    def conflict_share(self) -> float:
        """Share of matchings whose per-column winners exceed the load cap."""
        conflicts = 0
        for problem, _ in self.matchings:
            w = problem.weights
            active = w.min(axis=0) < 0.0
            if active.any():
                winners = np.bincount(np.argmin(w, axis=0)[active], minlength=w.shape[0])
                conflicts += int(winners.max() > problem.bs_capacity)
        return conflicts / len(self.matchings) if self.matchings else 0.0

    def repeat_share(self) -> float:
        """Share of slot-cap solves whose input was already seen in the job."""
        seen = set()
        for iota2d, cap, power_cap in self.slot_caps:
            seen.add((iota2d.tobytes(), iota2d.shape, int(cap), float(power_cap)))
        return 1.0 - len(seen) / len(self.slot_caps) if self.slot_caps else 0.0

    def matching_sample(self) -> list:
        """Every MATCH_STRIDE-th matching, from an offset drawn from the seed."""
        offset = int(np.random.default_rng(self.seed).integers(MATCH_STRIDE))
        return self.matchings[offset::MATCH_STRIDE]

    def cost_mismatches(self) -> int:
        """Re-solve the sampled matchings as rectangular assignments.

        Each base-station row is repeated ``cap`` times and the cost is
        ``min(w, 0)``, so the negative picks of a min-cost assignment are an
        optimal capped b-matching.  A sample disagrees when the reported
        selection breaks a capacity, does not sum to its reported weight, or
        costs more than the assignment optimum.
        """
        bad = 0
        for problem, result in self.matching_sample():
            w, cap, select = problem.weights, int(problem.bs_capacity), result.select
            cost = np.repeat(np.minimum(w, 0.0), cap, axis=0)
            rows, cols = linear_sum_assignment(cost)
            optimum = float(cost[rows, cols].sum())
            tol = 1e-9 * (1.0 + float(np.abs(w).sum()))
            valid = (select.sum(axis=0).max() <= 1 and select.sum(axis=1).max() <= cap
                     and abs(float(w[select.astype(bool)].sum()) - result.total_weight) <= tol)
            if not valid or abs(result.total_weight - optimum) > tol:
                bad += 1
        return bad


def instrument(tracer: Tracer, probe: Probe) -> None:
    """Wrap every traced layer function; ``tracer.restore()`` undoes it."""
    inner, timing, pareto, sim = aoiplan.inner, aoiplan.timing, aoiplan.pareto, aoiplan.sim
    tracer.wrap(inner, "min_cost_b_matching", "matching", probe.on_matching)
    tracer.wrap(inner, "solve_slot_cap", "inner.slot_cap", probe.on_slot_cap)
    for module in (timing, sim):
        tracer.wrap(module, "solve_interval", "inner.interval", probe.on_interval)
    for module in (timing, pareto, sim):
        tracer.wrap(module, "build_graph", "timing.build_graph")
        tracer.wrap(module, "shortest_path", "timing.shortest_path")
    tracer.wrap(pareto, "compute_frontier", "pareto.compute_frontier")
    for _, builder in POLICIES:
        tracer.wrap(sim, builder, "sim.policy_build")
    tracer.wrap(sim, "simulate", "sim.simulate", probe.on_simulate)
    tracer.wrap(aoiplan.planfile, "save_plan", "planfile.save", probe.on_save_plan)
    tracer.wrap(aoiplan.planfile, "load_plan", "planfile.load")


def instrument_setup(tracer: Tracer) -> None:
    tracer.wrap(aoiplan.channel, "build_profile", "channel.build_profile")


def _latency(tracer: Tracer, span: str, scale: float) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) of one span's durations, scaled."""
    samples = tracer.durations(span)
    if not samples:
        return 0.0, 0.0, 0.0
    q, value = tail(samples)
    return median(samples) * scale, value * scale, q


def layer_metrics(tracer: Tracer, probe: Probe) -> dict:
    """Per-layer metrics of one traced job (setup and overhead excluded)."""
    m = {}
    calls = len(probe.matchings)
    m["matching.calls"] = calls
    m["matching.busy_s"] = tracer.busy("matching")
    m["matching.p50_us"], m["matching.tail_us"], m["matching.tail_pct"] = _latency(
        tracer, "matching", 1e6)
    m["matching.conflict_share"] = probe.conflict_share()
    m["matching.checked"] = len(probe.matching_sample())
    m["matching.cost_mismatch"] = probe.cost_mismatches()

    slot_calls = tracer.count("inner.slot_cap")
    m["inner.slot_cap.calls"] = slot_calls
    m["inner.slot_cap.busy_s"] = tracer.busy("inner.slot_cap")
    m["inner.slot_cap.self_s"] = tracer.self_time("inner.slot_cap")
    m["inner.slot_cap.repeat_share"] = probe.repeat_share()

    intervals = tracer.count("inner.interval")
    m["inner.interval.calls"] = intervals
    m["inner.interval.busy_s"] = tracer.busy("inner.interval")
    m["inner.interval.self_s"] = tracer.self_time("inner.interval")
    m["inner.interval.p50_ms"], m["inner.interval.tail_ms"], m["inner.interval.tail_pct"] = (
        _latency(tracer, "inner.interval", 1e3))
    m["inner.interval.infeasible"] = probe.infeasible
    m["inner.interval.matchings_per_call"] = calls / intervals if intervals else 0.0

    m["timing.build_graph.busy_s"] = tracer.busy("timing.build_graph")
    m["timing.build_graph.self_s"] = tracer.self_time("timing.build_graph")
    m["timing.edges"] = tracer.count("inner.interval", parent="timing.build_graph")
    m["timing.shortest_path.busy_s"] = tracer.busy("timing.shortest_path")

    m["pareto.compute_frontier.busy_s"] = tracer.busy("pareto.compute_frontier")
    m["pareto.compute_frontier.self_s"] = tracer.self_time("pareto.compute_frontier")
    m["pareto.caps_swept"] = tracer.count("timing.build_graph", parent="pareto.compute_frontier")

    m["sim.policy_build_s"] = tracer.busy("sim.policy_build")
    m["sim.simulate.busy_s"] = tracer.busy("sim.simulate")
    m["sim.us_per_replica"] = (m["sim.simulate.busy_s"] / probe.replicas * 1e6
                               if probe.replicas else 0.0)
    m["sim.replicas"] = probe.replicas

    m["planfile.save_s"] = tracer.busy("planfile.save")
    m["planfile.load_s"] = tracer.busy("planfile.load")
    m["planfile.bytes"] = probe.plan_bytes
    return m


def count_mismatches(first: dict, other: dict) -> list[str]:
    """Names of the exact counts on which two traced jobs disagree."""
    return [name for name in EXACT_COUNTS if first[name] != other[name]]


def combine(jobs: list[dict]) -> dict:
    """Median over traced jobs of every metric; equal values stay as they are."""
    out = {}
    for name in jobs[0]:
        values = [job[name] for job in jobs]
        out[name] = values[0] if len(set(values)) == 1 else median(values)
    return out
