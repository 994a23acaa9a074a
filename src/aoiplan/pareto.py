"""Pareto frontier of the load-cap / energy trade-off, plus transfer rules.

Sweeping the integer load cap through the bound-constrained planner traces
the full frontier: energy is strictly decreasing on [theta_lo, theta_hi]
and saturates beyond, so the sweep starts at the first feasible cap and
stops at the first cap that no longer strictly improves.  The variant
rules let downstream formulations reuse the frontier without re-solving:
strictly-increasing coordinate maps transform it pointwise, strongly
increasing utilities select from it, and budget constraints filter it.
The rules take a :class:`ParetoFrontier` or any sequence of its points,
such as the plan-less points :func:`read_frontier_csv` reads back.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelProfile
from .errors import (
    BudgetInfeasibleError,
    MonotonicityError,
    NoFeasiblePlanError,
    PlanFormatError,
)
from .scenario import Scenario, energy_to_dbm
from .timing import SamplingPlan, build_graph, shortest_path

__all__ = [
    "FrontierPoint", "ParetoFrontier", "compute_frontier",
    "transform_frontier", "scalarize_select", "budget_select",
    "weighted_lp_utility", "export_frontier_csv", "read_frontier_csv",
]

_EQUALITY_REL_TOL = 1e-9  # saturation detection on real-valued energies


@dataclass(frozen=True)
class FrontierPoint:
    load_cap: int
    energy: float
    plan: SamplingPlan     # None on points read back from a frontier CSV


@dataclass
class ParetoFrontier:
    points: tuple          # FrontierPoint, load_cap strictly increasing

    def __post_init__(self):
        caps = [p.load_cap for p in self.points]
        energies = [p.energy for p in self.points]
        if caps != sorted(set(caps)):
            raise ValueError("frontier load caps must be strictly increasing")
        for a, b in zip(energies, energies[1:]):
            if not b < a * (1.0 - _EQUALITY_REL_TOL):
                raise ValueError("frontier energies must be strictly decreasing")
        if not self.points:
            raise ValueError("frontier cannot be empty")

    @property
    def theta_lo(self) -> int:
        return self.points[0].load_cap

    @property
    def theta_hi(self) -> int:
        return self.points[-1].load_cap

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def compute_frontier(scenario: Scenario, profile: ChannelProfile,
                     jobs: int = 1) -> ParetoFrontier:
    """Sweep the integer load cap and keep the strictly-improving prefix.

    Feasibility is monotone in the cap, so a linear scan from 1 finds
    theta_lo; the sweep stops at the first cap whose optimum fails to
    strictly decrease (saturation).  Raises :class:`NoFeasiblePlanError`
    when even the full spectrum (cap = K) is infeasible.  ``jobs`` goes to
    :func:`~aoiplan.timing.build_graph`, which accepts only 1.
    """
    points = []
    for cap in range(1, scenario.num_rb_K + 1):
        graph = build_graph(scenario, profile, cap, jobs=jobs)
        try:
            plan = shortest_path(graph)
        except NoFeasiblePlanError:
            if points:
                raise RuntimeError(
                    "feasible set shrank as the load cap grew; this should be impossible"
                )
            continue
        if points and plan.total_energy >= points[-1].energy * (1.0 - _EQUALITY_REL_TOL):
            break
        points.append(FrontierPoint(load_cap=cap, energy=plan.total_energy, plan=plan))
    if not points:
        raise NoFeasiblePlanError(
            "freshness bound unreachable even with every resource block admitted"
        )
    return ParetoFrontier(points=tuple(points))


def _check_strictly_increasing(fn, lo: float, hi: float, name: str):
    """Reject maps that are not strictly increasing on [lo, hi] (sampled),
    or that fail to evaluate there (say 0 ** -1 or an overflow)."""
    if lo == hi:
        grid = np.array([lo, lo + max(abs(lo), 1.0) * 1e-6])
    else:
        grid = np.linspace(lo, hi, 257)
    try:
        vals = [fn(float(x)) for x in grid]
    except ArithmeticError as exc:
        raise MonotonicityError(f"{name} cannot be evaluated on [{lo}, {hi}]: {exc}") from exc
    for (x0, v0), (x1, v1) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if not v1 > v0:
            raise MonotonicityError(
                f"{name} is not strictly increasing: f({x0}) = {v0} but f({x1}) = {v1}"
            )


def transform_frontier(frontier: ParetoFrontier, g1, g2) -> list:
    """Pointwise image of the frontier under strictly increasing maps.

    Order-preserving maps leave the Pareto-optimal policies unchanged, so
    no re-solving happens; monotonicity is validated by dense sampling over
    the frontier's value ranges.
    """
    caps = [p.load_cap for p in frontier]
    energies = [p.energy for p in frontier]
    _check_strictly_increasing(g1, min(caps), max(caps), "g1")
    _check_strictly_increasing(g2, min(energies), max(energies), "g2")
    return [(g1(float(p.load_cap)), g2(p.energy)) for p in frontier]


def weighted_lp_utility(alpha: float, p: float, theta_target: float = 0.0,
                        energy_target: float = 0.0):
    """Weighted L_p preference (alpha |theta - t'|^p + (1-alpha)|E - E'|^p)^(1/p)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")

    def utility(theta, energy):
        return (
            alpha * abs(theta - theta_target) ** p
            + (1.0 - alpha) * abs(energy - energy_target) ** p
        ) ** (1.0 / p)

    return utility


def scalarize_select(frontier: ParetoFrontier, utility) -> FrontierPoint:
    """Minimize a strongly increasing preference over the frontier points.

    For such utilities the global optimum over all feasible policies lies
    on the frontier, so searching the finite point set is exact.
    """
    if len(frontier) == 0:
        raise ValueError("frontier is empty")
    best = None
    best_val = math.inf
    for point in frontier:
        val = float(utility(point.load_cap, point.energy))
        if val < best_val:
            best_val = val
            best = point
    return best


def budget_select(frontier: ParetoFrontier, g1, budget: float) -> FrontierPoint:
    """Min-energy frontier point whose transformed load fits the budget.

    With g1 strictly increasing this is the largest admissible cap; raises
    :class:`BudgetInfeasibleError` when no point qualifies.
    """
    caps = [p.load_cap for p in frontier]
    _check_strictly_increasing(g1, min(caps), max(caps), "g1")
    admissible = [p for p in frontier if g1(float(p.load_cap)) <= budget]
    if not admissible:
        raise BudgetInfeasibleError(
            f"no frontier point satisfies g1(load) <= {budget}"
        )
    return min(admissible, key=lambda p: p.energy)


def export_frontier_csv(frontier: ParetoFrontier, path, scenario: Scenario) -> None:
    """Plot-ready CSV; sampling instants are semicolon-joined in one column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["epsilon_theta", "energy_linear", "energy_dbm", "num_samples", "instants"]
        )
        for p in frontier:
            writer.writerow([
                p.load_cap,
                f"{p.energy:.9g}",
                f"{energy_to_dbm(p.energy, scenario.horizon_T):.9g}",
                len(p.plan.instants),
                ";".join(str(t) for t in p.plan.instants),
            ])


def read_frontier_csv(path) -> list:
    """Frontier points of an exported frontier CSV, without their plans.

    Each row needs a load cap >= 1 and a finite energy >= 0; raises
    :class:`PlanFormatError` otherwise, and for a file that is not UTF-8
    or that the csv module refuses (a field over its size limit).
    """
    points = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = sorted({"epsilon_theta", "energy_linear"} - set(reader.fieldnames or ()))
            if missing:
                raise PlanFormatError(f"frontier file {path} has no column {', '.join(missing)}")
            for row in reader:
                try:
                    cap, energy = int(row["epsilon_theta"]), float(row["energy_linear"])
                    ok = cap >= 1 and 0.0 <= energy < math.inf
                except (TypeError, ValueError):  # TypeError: a short row's missing cell
                    ok = False
                if not ok:
                    raise PlanFormatError(
                        f"frontier file {path} line {reader.line_num}: epsilon_theta "
                        f"{row['epsilon_theta']!r} or energy_linear {row['energy_linear']!r} "
                        f"is not a load cap >= 1 and a finite energy >= 0")
                points.append(FrontierPoint(load_cap=cap, energy=energy, plan=None))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise PlanFormatError(f"frontier file {path} cannot be read: {exc}") from exc
    if not points:
        raise PlanFormatError(f"frontier file {path} has no rows")
    return points
