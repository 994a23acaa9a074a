"""Sampling-timing control on the interval graph.

Nodes 1..T+1 are candidate sampling instants (T+1 closes the horizon);
a directed edge (i, j) exists for every interval length 1 <= j - i <=
tau and carries the minimum interval energy from the inner solver, or an
infeasibility marker.  Feasible sampling sequences map bijectively to
1 -> T+1 paths, so the optimal sequence is the shortest path, found by a
forward dynamic program in node order (the graph is a DAG by
construction).

Pruned edges.  :func:`build_graph` is lazy shortest-path search (Dellin
and Srinivasa, ICAPS 2016).  It first solves the maximal edges ``(a, a +
L)``, ``L = min(tau, T)``, which no admissible edge contains.  A feasible
one gives every edge inside it the floor
:func:`~aoiplan.inner.interval_floor` under its computed weight; an edge
takes the largest floor around it, or 0 (weights are non-negative).

The lazy loop prices solved edges by their weights and the others by
their floors, and solves the unsolved legs of the floor-priced shortest
path until that path P is fully solved.  P is then the eager graph's
path.  Compare three forward DPs: priced by floors, by every weight, and
over the solved edges only; an edge costs them at most, exactly and at
least its weight.  Float addition is monotone, so their distances are
ordered the same way at every node, and along the solved path P they are
equal.  So at each node of P the minimizing predecessors nest, solved-only
within eager within floor-priced, and P's own is in all three.  Each DP
takes the earliest, hence P's, so :func:`shortest_path`, which skips
absent edges, returns the eager plan bit for bit.  Without a floor-priced
path there is no eager one either.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .channel import ChannelProfile
from .errors import NoFeasiblePlanError
from .inner import Infeasible, IntervalSpec, interval_floor, slot_curves, solve_interval
from .numeric import seq_sum
from .scenario import Scenario

__all__ = ["TimingGraph", "SamplingPlan", "build_graph", "build_full_graph", "shortest_path",
           "export_graph_csv"]

@dataclass(frozen=True)
class Edge:
    weight: float                      # inf when infeasible
    solution: object                   # InnerSolution | Infeasible

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.weight)


@dataclass
class TimingGraph:
    """Interval graph over nodes 1..T+1.

    ``edges`` holds the solved edges only: every admissible one after
    :func:`build_full_graph`, and those the lazy search needed after
    :func:`build_graph`.
    """

    horizon: int
    aoi_bound: int
    rb_cap: int
    edges: dict = field(default_factory=dict)  # (i, j) -> Edge

    @property
    def solved_edges(self) -> int:
        return len(self.edges)

    @property
    def pruned_edges(self) -> int:
        return sum(1 for _ in _edge_targets(self.horizon, self.aoi_bound)) - len(self.edges)


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


class _EdgeSolver:
    """Called with ``(i, j)``, solves that edge into the dict ``edges``.
    The horizon's slot curves are built once, so each slot's cap level is
    solved once and its kernel rates are shared by every interval through
    it (:class:`~aoiplan.inner.SlotCurve`).  An infeasible interval is an
    infinite-weight edge, never a failure."""

    def __init__(self, scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                 rate_margin: float):
        self.profile, self.rb_cap = profile, rb_cap
        self.power_cap = scenario.power_budget_pbar
        self.target = scenario.payload_threshold_vbar * rate_margin
        self.curves = slot_curves(profile.iota[:, :, :scenario.horizon_T], rb_cap,
                                  self.power_cap)
        self.edges = {}

    def __call__(self, i: int, j: int) -> Edge:
        spec = IntervalSpec(start=i, end=j, rb_cap=self.rb_cap, rate_target=self.target,
                            power_cap=self.power_cap)
        sol = solve_interval(spec, self.profile, self.curves[i - 1 : j - 1])
        edge = self.edges[(i, j)] = Edge(
            weight=math.inf if isinstance(sol, Infeasible) else sol.energy, solution=sol)
        return edge


def _distances(n: int, tau: int, cost) -> list | None:
    """Nodes of the path 1 -> n of a forward DP over ``cost(i, j)``, or
    None without one; ties break toward the earlier predecessor, and an
    infinite cost is no edge."""
    dist = [math.inf] * (n + 1)
    pred = [0] * (n + 1)
    dist[1] = 0.0
    for j in range(2, n + 1):
        for i in range(max(1, j - tau), j):
            c = dist[i] + cost(i, j)
            if c < dist[j]:
                dist[j], pred[j] = c, i
    if not math.isfinite(dist[n]):
        return None
    path = [n]
    while path[-1] != 1:
        path.append(pred[path[-1]])
    return path[::-1]


def _solve_lazily(edges: dict, solve, floors: dict, horizon: int, tau: int) -> None:
    """Solve into ``edges`` the legs of the floor-priced shortest path
    until it is fully solved (see the module docstring); the other edges
    keep their floors and stay unsolved."""
    def cost(i, j):
        edge = edges.get((i, j))
        return floors.get((i, j), 0.0) if edge is None else edge.weight

    while True:
        path = _distances(horizon + 1, tau, cost)
        if path is None:
            return  # no path: the eager graph has none either
        todo = [leg for leg in zip(path, path[1:]) if leg not in edges]
        if not todo:
            return
        for key in reversed(todo):  # last leg first: the order decides each curve's hints
            solve(*key)


def build_graph(scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                jobs: int = 1, rate_margin: float = 1.0) -> TimingGraph:
    """Assemble the timing graph, solving only the edges the lazy search
    needs (see the module docstring); its plan is the one of
    :func:`build_full_graph`, bit for bit.

    Edges are solved one after another; ``jobs`` stays only for callers
    that pass ``jobs=1``, and any other value raises :class:`ValueError`.
    """
    if jobs != 1:
        raise ValueError(f"edges are solved serially; jobs must be 1, got {jobs!r}")
    T, tau = scenario.horizon_T, scenario.aoi_bound_tau
    solve = _EdgeSolver(scenario, profile, rb_cap, rate_margin)
    L = min(tau, T)
    floors = {}
    for a in range(1, T + 2 - L):
        sol = solve(a, a + L).solution
        if isinstance(sol, Infeasible) or not sol.level > 0.0:
            continue  # no floor beyond the weights' own 0
        floor = interval_floor(solve.curves[a - 1 : a - 1 + L], sol.level, solve.target,
                               solve.power_cap)
        for i in range(a, a + L):
            for j in range(i + 1, a + L + 1):
                floors[(i, j)] = max(floor, floors.get((i, j), 0.0))
    _solve_lazily(solve.edges, solve, floors, T, tau)
    return TimingGraph(horizon=T, aoi_bound=tau, rb_cap=rb_cap, edges=solve.edges)


def build_full_graph(scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                     rate_margin: float = 1.0) -> TimingGraph:
    """The timing graph with every admissible edge solved, for readers
    that need them all, such as :func:`export_graph_csv`."""
    T, tau = scenario.horizon_T, scenario.aoi_bound_tau
    solve = _EdgeSolver(scenario, profile, rb_cap, rate_margin)
    for key in _edge_targets(T, tau):
        solve(*key)
    return TimingGraph(horizon=T, aoi_bound=tau, rb_cap=rb_cap, edges=solve.edges)


def shortest_path(graph: TimingGraph) -> SamplingPlan:
    """Minimum-total-energy path 1 -> T+1 by forward DP over node order.

    Ties break toward the earlier predecessor, which makes repeated runs
    bit-stable and yields the lexicographically smallest optimal instant
    sequence.
    """
    def weight(i, j):
        edge = graph.edges.get((i, j))  # absent edges are skipped
        return math.inf if edge is None else edge.weight

    nodes = _distances(graph.horizon + 1, graph.aoi_bound, weight)
    if nodes is None:
        raise NoFeasiblePlanError(
            f"no feasible sampling sequence reaches slot {graph.horizon} "
            f"within freshness bound {graph.aoi_bound}"
        )
    legs = [graph.edges[leg] for leg in zip(nodes, nodes[1:])]
    return SamplingPlan(
        instants=tuple(nodes[:-1]),
        total_energy=seq_sum(e.weight for e in legs),
        binary_energy=seq_sum(e.solution.binary_energy for e in legs),
        solutions=tuple(e.solution for e in legs),
        horizon=graph.horizon,
        aoi_bound=graph.aoi_bound,
        rb_cap=graph.rb_cap,
    )


def export_graph_csv(graph: TimingGraph, path) -> None:
    """Dump edges as (i, j, weight|INF) rows for inspection and plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["start", "end", "weight"])
        for (i, j), e in sorted(graph.edges.items()):
            writer.writerow([i, j, "INF" if not e.feasible else f"{e.weight:.9g}"])
