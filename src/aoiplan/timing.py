"""Sampling-timing control on the interval graph.

Nodes 1..T+1 are candidate sampling instants (T+1 closes the horizon);
a directed edge (i, j) exists for every interval length 1 <= j - i <=
tau and carries the minimum interval energy from the inner solver, or an
infeasibility marker.  Feasible sampling sequences map bijectively to
1 -> T+1 paths, so the optimal sequence is the shortest path, found by a
forward dynamic program in node order (the graph is a DAG by
construction).

Pruned edges.  :func:`build_graph` solves an edge only when some path
through it can still tie or beat the optimum, which is lazy shortest-path
search (Dellin and Srinivasa, ICAPS 2016).  It first solves the maximal
edges, those no admissible edge contains: ``(a, a + L)`` with ``L =
min(tau, T)``.  A feasible maximal edge M, solved at water level mu,
gives a floor ``B_M`` under the computed weight of every edge inside it:

  * The Lagrangian of the inner problem at mu and slot levels ``l_t =
    min(mu, cap level of slot t)`` prices an allocation of slot t by
    ``(mu/l_t)*power - ln2*mu*rate``.  Its minimum over the slot's
    time-shared matchings is ``(mu/l_t)*C_t(l_t)``, where ``C_t`` is the
    exact minimum matching cost under the weights at ``l_t`` (each
    entry's best power is water-filling at ``l_t``).  Summing over M's
    slots, any allocation x with rate R and per-slot powers
    ``P_t(x) <= P + d_t`` spends

        E(x) >= D(mu) - ln2*mu*(V - R) - sum_t (mu/l_t - 1)*d_t,

    with D the dual of :func:`~aoiplan.inner.dual_bound` (weak duality;
    time-sharing closes the gap, Yu and Lui, IEEE Trans. Commun. 2006).
    D is certified: ``C_t`` is the kernel's cost lowered by its
    ``K*stop_tol`` and rounding, and D is lowered by its own rounding.
  * An edge e inside M is such an allocation with M's other slots
    silent: they spend nothing and carry nothing, and ``C_t <= 0``.  The
    solver's relaxed allocation for e mixes per slot two selections
    water-filled at one level.  Its float rate is at least
    ``V*(1 - RATE_REL_TOL)``, since :func:`~aoiplan.inner.solve_interval`
    raises rather than return less.  Where its real rate falls short of
    V, it is within ``RATE_ROUNDING*n*(1 + V)`` of the float one, for its
    ``n <= 2*L*K`` mixed entries: each log2 errs by the few ulps of the
    closed-form brackets in :mod:`aoiplan.inner`, and each sum of
    non-negative terms by ``n*u`` relative, where ``u = 2**-53``.
  * A slot at or above its cap level spends the cap's mix, which the cap
    bisection leaves a rounding above P.  A slot below it spends at most
    the cap's plus side plus ``2*K*eps``, with eps the one-sided limits'
    offset at the cap level.  Three facts give this.  The exact optimum's
    power is non-decreasing in the level: at levels ``a < b`` with optima
    x and y, optimality at each level gives ``(b - a)*(R(y) - R(x)) >=
    0``, and then ``P(y) - P(x) >= ln2*a*(R(y) - R(x)) >= 0``.  Each
    selection in the slot's mix is optimal at a level within eps of the
    slot's level and at most the cap level plus eps.  Moving a
    selection's level by eps moves its power by at most ``K*eps``.  This
    step takes the kernel's selections as the exact optima; the dual
    tests check the bound it gives.  So ``d_t`` is the larger of the two
    powers less P.  Only slots with ``mu > l_t`` count.
  * The computed energy passes each real power through at most
    ``K + L + 3`` roundings of non-negative numbers, so it is at least
    ``1 - 2*(K + L + 4)*u`` times the real one.

Hence every edge inside M weighs at least ``B_M = D - ln2*mu*(V*RATE_REL_TOL
+ RATE_ROUNDING*2*L*K*(1 + V)) - sum_t (mu/l_t - 1)*d_t -
2*(K + L + 4)*u*|D|``.  Weights are non-negative, so the floor of an edge
is the largest ``B_M`` of the maximal edges around it, and 0 without one.
An infeasible maximal edge gives no floor.

The lazy loop then prices solved edges by their weights and the others by
their floors.  It repeatedly solves the unsolved legs of the floor-priced
shortest path until that path is fully solved.  Its cost c is then the
eager graph's optimum, bit for bit: floors are at most the weights, and
float addition and min are monotone.  Last, it solves every edge whose
floor-priced path cost, ``forward + floor + backward``, is at most
``c*(1 + 4*(T + 2)*u)``.  An edge on the eager DP's path meets this test.
Its forward part is at most the DP's distance at its start, and its
backward part at most the float suffix sum.  Regrouping at most T
non-negative terms moves a sum by under ``2*(T + 1)*u`` relative.  So
every edge the eager DP's earlier-predecessor tie-break could pick is
solved.  :func:`shortest_path` skips the absent edges.  Along the eager
path its distances equal the eager ones, and every earlier predecessor
still loses strictly, so its plan is bit-identical to the eager graph's.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .channel import ChannelProfile
from .errors import NoFeasiblePlanError
from .inner import (LIMIT_ABS_FLOOR, LIMIT_REL_EPS, LN2, RATE_REL_TOL, UNIT_ROUNDOFF,
                    Infeasible, IntervalSpec, dual_bound, slot_curves, solve_interval)
from .numeric import seq_sum
from .scenario import Scenario

__all__ = ["TimingGraph", "SamplingPlan", "build_graph", "build_full_graph", "shortest_path",
           "export_graph_csv"]

RATE_ROUNDING = 2.0 ** -40  # real-vs-float rate of a relaxed allocation, per entry, relative to 1 + V


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
    :func:`build_full_graph`, and those a shortest path can use after
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


def _edge_floor(slots, mu: float, target: float, power_cap: float) -> float:
    """``B_M`` of the module docstring for a maximal edge over ``slots``
    solved at level ``mu``: a floor under the computed weight of every
    edge inside it."""
    K, L = slots[0].iota2d.shape[1], len(slots)
    dual = dual_bound(slots, mu, target, power_cap)
    short = RATE_REL_TOL * target + RATE_ROUNDING * 2 * L * K * (1.0 + target)
    over = 0.0
    for slot in slots:
        cap = slot.slot_cap
        if mu > cap.level:
            lim = cap.limits
            eps = max(cap.level * LIMIT_REL_EPS, LIMIT_ABS_FLOOR)
            spent = max((1.0 - cap.xi) * lim.p_minus + cap.xi * lim.p_plus,
                        lim.p_plus + 2 * K * eps)
            excess = spent * (1.0 + 2 * (K + 4) * UNIT_ROUNDOFF) - power_cap
            over += (mu / cap.level - 1.0) * max(excess, 0.0)
    floor = dual - LN2 * mu * short - over - 2 * (K + L + 4) * UNIT_ROUNDOFF * abs(dual)
    return max(floor, 0.0)


def _distances(n: int, tau: int, cost) -> tuple:
    """Forward DP from node 1 over ``cost(i, j)``: (distances, nodes of the
    path 1 -> n, or None without one), ties broken toward the earlier
    predecessor; an infinite cost is no edge."""
    dist = [math.inf] * (n + 1)
    pred = [0] * (n + 1)
    dist[1] = 0.0
    for j in range(2, n + 1):
        for i in range(max(1, j - tau), j):
            c = dist[i] + cost(i, j)
            if c < dist[j]:
                dist[j], pred[j] = c, i
    if not math.isfinite(dist[n]):
        return dist, None
    path = [n]
    while path[-1] != 1:
        path.append(pred[path[-1]])
    return dist, path[::-1]


def _solve_lazily(edges: dict, solve, floors: dict, horizon: int, tau: int) -> None:
    """Solve into ``edges`` the edges a shortest path can use (see the
    module docstring); the others keep their floors and stay unsolved."""
    def cost(i, j):
        edge = edges.get((i, j))
        return floors.get((i, j), 0.0) if edge is None else edge.weight

    n = horizon + 1
    while True:
        dist, path = _distances(n, tau, cost)
        if path is None:
            return  # no path: the eager graph has none either
        todo = [leg for leg in zip(path, path[1:]) if leg not in edges]
        if not todo:
            break
        for key in reversed(todo):  # last leg first: the order decides each curve's hints
            solve(*key)
    # distances to n, as a forward DP over the mirrored graph
    back = _distances(n, tau, lambda i, j: cost(n + 1 - j, n + 1 - i))[0]
    limit = dist[n] + dist[n] * (4 * (n + 1) * UNIT_ROUNDOFF)
    for i, j in _edge_targets(horizon, tau):
        if (i, j) not in edges and dist[i] + cost(i, j) + back[n + 1 - j] <= limit:
            solve(i, j)


def build_graph(scenario: Scenario, profile: ChannelProfile, rb_cap: int,
                jobs: int = 1, rate_margin: float = 1.0) -> TimingGraph:
    """Assemble the timing graph, solving only the edges a shortest path
    can use (see the module docstring); its plan is the one of
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
        floor = _edge_floor(solve.curves[a - 1 : a - 1 + L], sol.level, solve.target,
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

    _, nodes = _distances(graph.horizon + 1, graph.aoi_bound, weight)
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
