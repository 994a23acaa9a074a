"""Sampling-timing control on the interval graph.

Nodes 1..T+1 are candidate sampling instants (T+1 closes the horizon);
a directed edge (i, j) exists for every interval length 1 <= j - i <=
tau and carries the minimum interval energy from the inner solver, or an
infeasibility marker.  Feasible sampling sequences map bijectively to
1 -> T+1 paths, so the optimal sequence is the shortest path, found by a
forward dynamic program in node order (the graph is a DAG by
construction).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .channel import ChannelProfile
from .errors import NoFeasiblePlanError
from .inner import Infeasible, IntervalSpec, slot_curves, solve_interval
from .numeric import seq_sum
from .scenario import Scenario

__all__ = ["TimingGraph", "SamplingPlan", "build_graph", "shortest_path", "export_graph_csv"]


@dataclass(frozen=True)
class Edge:
    weight: float                      # inf when infeasible
    solution: object                   # InnerSolution | Infeasible

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.weight)


@dataclass
class TimingGraph:
    horizon: int
    aoi_bound: int
    rb_cap: int
    edges: dict = field(default_factory=dict)  # (i, j) -> Edge

    @property
    def num_nodes(self) -> int:
        return self.horizon + 1


@dataclass
class SamplingPlan:
    """Optimal sampling instants with their per-interval solutions.

    ``instants`` lists the generation times including the anchor slot 1;
    the horizon-closing node T+1 is implicit.  ``total_energy`` sums the
    edge weights (relaxed optima); ``binary_energy`` sums what the exported
    binary plans spend.
    """

    instants: tuple
    total_energy: float
    binary_energy: float
    solutions: tuple        # InnerSolution per interval
    horizon: int
    aoi_bound: int
    rb_cap: int

    @property
    def path(self) -> tuple:
        return self.instants + (self.horizon + 1,)

    @property
    def legs(self) -> tuple:
        p = self.path
        return tuple(zip(p[:-1], p[1:]))


def _edge_targets(horizon: int, aoi_bound: int):
    for gap in range(1, aoi_bound + 1):
        for i in range(1, horizon + 2 - gap):
            yield (i, i + gap)


def build_graph(scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                jobs: int = 1, rate_margin: float = 1.0) -> TimingGraph:
    """Solve every admissible interval and assemble the timing graph.

    Each slot's cap level is solved once and its kernel rates are shared
    by every interval through it (:class:`~aoiplan.inner.SlotCurve`).
    Infeasible intervals become infinite-weight edges, never failures.
    Edges are solved one after another; ``jobs`` stays only for callers
    that pass ``jobs=1``, and any other value raises :class:`ValueError`.
    """
    if jobs != 1:
        raise ValueError(f"edges are solved serially; jobs must be 1, got {jobs!r}")
    T, tau = scenario.horizon_T, scenario.aoi_bound_tau
    power_cap = scenario.power_budget_pbar
    curves = slot_curves(profile.iota[:, :, :T], rb_cap, power_cap)
    graph = TimingGraph(horizon=T, aoi_bound=tau, rb_cap=rb_cap)
    for i, j in _edge_targets(T, tau):
        spec = IntervalSpec(
            start=i, end=j, rb_cap=rb_cap,
            rate_target=scenario.payload_threshold_vbar * rate_margin,
            power_cap=power_cap,
        )
        sol = solve_interval(spec, profile, curves[i - 1 : j - 1])
        weight = math.inf if isinstance(sol, Infeasible) else sol.energy
        graph.edges[(i, j)] = Edge(weight=weight, solution=sol)
    return graph


def shortest_path(graph: TimingGraph) -> SamplingPlan:
    """Minimum-total-energy path 1 -> T+1 by forward DP over node order.

    Ties break toward the earlier predecessor, which makes repeated runs
    bit-stable and yields the lexicographically smallest optimal instant
    sequence.
    """
    n = graph.num_nodes
    dist = [math.inf] * (n + 1)
    pred = [0] * (n + 1)
    dist[1] = 0.0
    for j in range(2, n + 1):
        best = math.inf
        best_i = 0
        for i in range(max(1, j - graph.aoi_bound), j):
            edge = graph.edges.get((i, j))
            if edge is None or not edge.feasible or not math.isfinite(dist[i]):
                continue
            cand = dist[i] + edge.weight
            if cand < best:
                best = cand
                best_i = i
        dist[j] = best
        pred[j] = best_i
    if not math.isfinite(dist[n]):
        raise NoFeasiblePlanError(
            f"no feasible sampling sequence reaches slot {graph.horizon} "
            f"within freshness bound {graph.aoi_bound}"
        )
    nodes = [n]
    while nodes[-1] != 1:
        nodes.append(pred[nodes[-1]])
    nodes.reverse()
    solutions = tuple(graph.edges[(i, j)].solution for i, j in zip(nodes[:-1], nodes[1:]))
    total = 0.0
    for i, j in zip(nodes[:-1], nodes[1:]):
        total += graph.edges[(i, j)].weight
    # weight-only graphs (no attached solutions) fall back to the edge weights
    binary = seq_sum(
        s.binary_energy if s is not None else graph.edges[leg].weight
        for leg, s in zip(zip(nodes[:-1], nodes[1:]), solutions)
    )
    return SamplingPlan(
        instants=tuple(nodes[:-1]),
        total_energy=total,
        binary_energy=float(binary),
        solutions=solutions,
        horizon=graph.horizon,
        aoi_bound=graph.aoi_bound,
        rb_cap=graph.rb_cap,
    )


def export_graph_csv(graph: TimingGraph, path) -> None:
    """Dump edges as (i, j, weight|INF) rows for inspection and plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["start", "end", "weight"])
        for (i, j) in sorted(graph.edges):
            e = graph.edges[(i, j)]
            writer.writerow([i, j, "INF" if not e.feasible else f"{e.weight:.9g}"])
