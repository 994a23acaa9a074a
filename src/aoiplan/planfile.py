"""Plan file format: self-validating JSON serialization of a policy plan.

Header carries the scenario digest and the solve parameters; the body
stores sampling instants plus sparse (bs, rb, slot, power) records per
interval (all indices 1-based).  Loading re-checks the structural
invariants; rate-target validation against a channel profile is a
separate step because it needs the profile tensors.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .channel import ChannelProfile, capacity_lower_bound
from .errors import PlanFormatError
from .sim import SUCCESS_MODES, Leg, PolicyPlan

FORMAT_TAG = "aoiplan-plan-v1"
_POWER_SLACK = 1.0 + 1e-9
_RATE_SLACK = 1.0 - 1e-9


def save_plan(plan: PolicyPlan, path, scenario_digest: str, power_budget: float,
              seed: int | None = None) -> None:
    doc = {
        "format": FORMAT_TAG,
        "scenario_hash": scenario_digest,
        "seed": seed,
        "kind": plan.kind,
        "horizon": plan.horizon,
        "aoi_bound": plan.aoi_bound,
        "epsilon_theta": plan.rb_cap,
        "delivery_threshold": plan.delivery_threshold,
        "power_budget": power_budget,
        "success_mode": plan.success_mode,
        "planned_energy": plan.planned_energy if plan.feasible else None,
        "spent_energy": plan.spent_energy,
        "dims": list(plan.shape[:2]),
        "instants": list(plan.instants),
        "legs": [
            {
                "start": leg.start,
                "end": leg.end,
                "target": leg.target,
                "feasible": leg.feasible,
                "entries": [
                    [int(n) + 1, int(k) + 1, int(t) + leg.start, float(leg.power[n, k, t])]
                    for n, k, t in zip(*np.nonzero(leg.assignment))
                ],
            }
            for leg in plan.legs
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _field(doc, key, convert, where: str):
    """``convert(doc[key])``, or a :class:`PlanFormatError` naming the key
    (JSON reads ``1e400`` as inf, and ``int(inf)`` overflows)."""
    try:
        return convert(doc[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PlanFormatError(f"{where} field {key!r} is missing or malformed: {exc!r}") from exc


def _int_pair(values) -> tuple:
    a, b = values
    return int(a), int(b)


def _entry(rec) -> tuple:
    """``(rec, bs, rb, slot, power)`` of a 1-based ``[bs, rb, slot, power]``
    record ``rec``, with bs and rb made 0-based."""
    n, k, t, p = rec
    return rec, int(n) - 1, int(k) - 1, int(t), float(p)


def load_plan(path) -> tuple[PolicyPlan, dict]:
    """Load a plan file; returns (plan, header dict).

    Re-validates the structural invariants: finite numbers, instant
    ordering, freshness gaps for interval plans, capacity families per
    slot, and per-slot power against the recorded budget.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PlanFormatError(f"plan file is not valid JSON: {exc}") from exc
    tag = doc.get("format") if isinstance(doc, dict) else None
    if tag != FORMAT_TAG:
        raise PlanFormatError(f"unrecognized plan format {tag!r}")

    header = "plan header"
    horizon = _field(doc, "horizon", int, header)
    aoi_bound = _field(doc, "aoi_bound", int, header)
    rb_cap = _field(doc, "epsilon_theta", int, header)
    N, K = _field(doc, "dims", _int_pair, header)
    power_budget = _field(doc, "power_budget", float, header)
    legs_doc = _field(doc, "legs", list, header)
    kind = _field(doc, "kind", lambda v: v, header)
    mode = _field(doc, "success_mode", lambda v: v, header)
    threshold = _field(doc, "delivery_threshold", float, header)
    if mode not in SUCCESS_MODES:
        raise PlanFormatError(f"unknown success_mode {mode!r}; expected one of {SUCCESS_MODES}")
    if horizon < 1:
        raise PlanFormatError(f"plan horizon must be >= 1, got {horizon}")
    if not 0.0 < power_budget < math.inf:
        raise PlanFormatError(f"power_budget must be a finite number > 0, got {power_budget}")
    if not math.isfinite(threshold):
        raise PlanFormatError(f"delivery_threshold must be a finite number, got {threshold}")

    plan = PolicyPlan(
        kind=kind, horizon=horizon, aoi_bound=aoi_bound, rb_cap=rb_cap,
        delivery_threshold=threshold, success_mode=mode,
    )
    prev_end = 1
    for index, leg_doc in enumerate(legs_doc, start=1):
        where = f"plan leg {index}"
        start, end = _field(leg_doc, "start", int, where), _field(leg_doc, "end", int, where)
        target = _field(leg_doc, "target", float, where)
        feasible = _field(leg_doc, "feasible", bool, where)
        records = _field(leg_doc, "entries", lambda recs: [_entry(r) for r in recs], where)
        if not math.isfinite(target):
            raise PlanFormatError(f"plan leg {index} target must be a finite number, got {target}")
        if start != prev_end:
            raise PlanFormatError(f"legs are not contiguous at slot {start}")
        if not 1 <= start < end <= horizon + 1:
            raise PlanFormatError(f"leg [{start}, {end}) outside horizon {horizon}")
        if mode == "interval" and end - start > aoi_bound:
            raise PlanFormatError(
                f"interval plan leg [{start}, {end}) exceeds freshness bound {aoi_bound}"
            )
        prev_end = end
        L = end - start
        assignment = np.zeros((N, K, L), dtype=np.int8)
        power = np.zeros((N, K, L))
        for rec, n, k, t, p in records:
            if not (0 <= n < N and 0 <= k < K and start <= t < end):
                raise PlanFormatError(f"entry {rec} outside leg [{start}, {end})")
            if not 0.0 < p < math.inf:
                raise PlanFormatError(f"entry {rec} carries power outside (0, inf)")
            if assignment[n, k, t - start]:
                raise PlanFormatError(f"duplicate entry at (bs={n+1}, rb={k+1}, t={t})")
            assignment[n, k, t - start] = 1
            power[n, k, t - start] = p
        if int(assignment.sum(axis=0).max(initial=0)) > 1:
            raise PlanFormatError("an RB is assigned to two base stations in one slot")
        if int(assignment.sum(axis=1).max(initial=0)) > rb_cap:
            raise PlanFormatError("a BS exceeds the load cap in some slot")
        slot_power = power.sum(axis=(0, 1))
        if np.any(slot_power > power_budget * _POWER_SLACK):
            raise PlanFormatError("per-slot power exceeds the recorded budget")
        plan.legs.append(Leg(
            start=start, end=end, target=target,
            assignment=assignment, power=power,
            planned_energy=float(power.sum()) if feasible else math.inf,
            spent_energy=float(power.sum()),
            feasible=feasible,
        ))
    if prev_end != horizon + 1:
        raise PlanFormatError(f"legs end at {prev_end}, expected {horizon + 1}")
    return plan, doc


def validate_plan_rates(plan: PolicyPlan, profile: ChannelProfile) -> None:
    """Check that the plan has the profile's (N, K, T) and that each
    feasible leg's expected rate meets its target."""
    if plan.shape != profile.gain.shape:
        raise PlanFormatError(
            f"plan dimensions (N, K, T) = {plan.shape} differ from the scenario's "
            f"{profile.gain.shape}"
        )
    for leg in plan.legs:
        if not leg.feasible:
            continue
        sl = slice(leg.start - 1, leg.end - 1)
        rate = capacity_lower_bound(
            leg.power, profile.gain[:, :, sl], profile.shape[:, :, sl], profile.noise_power
        )
        total = float(np.where(leg.assignment.astype(bool), rate, 0.0).sum())
        if total < leg.target * _RATE_SLACK:
            raise PlanFormatError(
                f"leg [{leg.start}, {leg.end}) delivers expected rate {total:.6g} "
                f"below its target {leg.target:.6g}"
            )
