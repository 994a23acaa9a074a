"""Scenario configuration: ingestion, validation, and canonical defaults.

A :class:`Scenario` is the single immutable description of a planning
problem: horizon, fleet geometry, radio constants, freshness bound, and
seeds.  Every other module consumes it read-only, so one instance can be
shared by every solve and simulation.

Unit conventions
----------------
Power quantities are stored internally in linear milliwatts; the config
file accepts either linear values (canonical keys, exact round trip) or
dBm convenience keys (``power_budget_dbm`` / ``noise_power_dbm``) that are
converted at the boundary.  The rate threshold ``payload_threshold_vbar``
is an aggregated spectral efficiency (bit/s/Hz summed over resource blocks
and slots); multiplying by the system bandwidth is an export-time concern.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ScenarioParseError, ScenarioValidationError

KAPPA_FLOOR = 1e-3  # Gamma shape must stay strictly positive


def dbm_to_linear_mw(x_dbm: float) -> float:
    """Convert dBm to linear milliwatts."""
    return 10.0 ** (x_dbm / 10.0)


def linear_mw_to_dbm(x_mw: float) -> float:
    """Convert linear milliwatts to dBm."""
    if x_mw <= 0.0:
        raise ValueError(f"non-positive power {x_mw} has no dBm representation")
    return 10.0 * math.log10(x_mw)


def energy_to_dbm(energy_mw_slots: float, num_slots: int) -> float:
    """Express a power-sum in dBm of average per-slot power."""
    return linear_mw_to_dbm(energy_mw_slots / num_slots)


@dataclass(frozen=True)
class Scenario:
    """Validated, immutable planning scenario.

    Positions are (x, y, z) metre triples; ``uav_trajectory`` has exactly
    ``horizon_T`` entries.  ``kappa_range`` bounds the Gamma shape drawn
    per base-station/resource-block pair.
    """

    horizon_T: int
    num_bs_N: int
    num_rb_K: int
    aoi_bound_tau: int
    payload_threshold_vbar: float
    power_budget_pbar: float      # linear mW per slot
    noise_power_delta2: float     # linear mW
    uav_trajectory: tuple         # tuple of (x, y, z) tuples, length T
    bs_positions: tuple           # tuple of (x, y, z) tuples, length N
    carrier_freq_ghz: float
    shadowing_sigma_db: float
    shadowing_corr_dist_m: float
    kappa_range: tuple            # (low, high)
    master_seed: int
    slot_duration: float = 1.0
    kappa_per_slot: bool = False  # redraw the Gamma shape every slot

    def __post_init__(self):
        violations = _collect_violations(self)
        if violations:
            raise ScenarioValidationError(violations)

    def trajectory_array(self) -> np.ndarray:
        return np.asarray(self.uav_trajectory, dtype=float)

    def bs_array(self) -> np.ndarray:
        return np.asarray(self.bs_positions, dtype=float)


# numeric field -> (integer?, least value, least value excluded?); every
# numeric field must be an int or float within float range, never a bool
_NUMERIC_FIELDS = {
    "horizon_T": (True, 1, False), "num_bs_N": (True, 1, False),
    "num_rb_K": (True, 1, False), "aoi_bound_tau": (True, 1, False),
    "master_seed": (True, 0, False),
    "payload_threshold_vbar": (False, 0, True), "power_budget_pbar": (False, 0, True),
    "noise_power_delta2": (False, 0, True), "slot_duration": (False, 0, True),
    "carrier_freq_ghz": (False, 0, True),
    "shadowing_sigma_db": (False, 0, False), "shadowing_corr_dist_m": (False, 0, False),
}


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _collect_violations(s: Scenario) -> list:
    v, bad = [], set()
    for name, (integer, least, excluded) in _NUMERIC_FIELDS.items():
        x = getattr(s, name)
        typed = isinstance(x, int if integer else (int, float)) and not isinstance(x, bool)
        if not (typed and (least < x if excluded else least <= x)
                and (integer or x <= sys.float_info.max)):
            bad.add(name)
            v.append(f"{name} must be {'an integer' if integer else 'a finite number'} "
                     f"{'>' if excluded else '>='} {least}, got {x!r}")
    if not {"horizon_T", "aoi_bound_tau"} & bad and s.aoi_bound_tau > s.horizon_T:
        v.append(
            f"aoi_bound_tau must not exceed horizon_T "
            f"({s.aoi_bound_tau} > {s.horizon_T})"
        )
    if not isinstance(s.kappa_per_slot, bool):
        v.append(f"kappa_per_slot must be true or false, got {s.kappa_per_slot!r}")

    if "horizon_T" not in bad and len(s.uav_trajectory) != s.horizon_T:
        v.append(
            f"uav_trajectory length {len(s.uav_trajectory)} does not match "
            f"horizon_T {s.horizon_T}"
        )
    if "num_bs_N" not in bad and len(s.bs_positions) != s.num_bs_N:
        v.append(
            f"bs_positions length {len(s.bs_positions)} does not match "
            f"num_bs_N {s.num_bs_N}"
        )
    for name, pts in (("uav_trajectory", s.uav_trajectory), ("bs_positions", s.bs_positions)):
        for i, p in enumerate(pts):
            if len(p) != 3:
                v.append(f"{name}[{i}] must be an (x, y, z) triple, got {p!r}")
            elif not all(_is_finite_number(c) for c in p):
                v.append(f"{name}[{i}] coordinates must be finite numbers, got {p!r}")
            elif p[2] < 0.0:
                v.append(f"{name}[{i}] altitude must be >= 0, got {p[2]!r}")

    if len(s.kappa_range) != 2:
        v.append(f"kappa_range must be a (low, high) pair, got {s.kappa_range!r}")
    else:
        lo, hi = s.kappa_range
        if not lo >= KAPPA_FLOOR:
            v.append(f"kappa_range low must be >= {KAPPA_FLOOR}, got {lo!r}")
        if not lo <= hi < math.inf:
            v.append(f"kappa_range high must be finite and >= low, got {s.kappa_range!r}")
    return v


# Canonical config keys are the Scenario fields.  Power keys come in
# exclusive linear/dBm pairs; fields with a default are optional.
_POWER_KEYS = {
    "power_budget_pbar": "power_budget_dbm",
    "noise_power_delta2": "noise_power_dbm",
}
_REQUIRED_KEYS = tuple(f.name for f in fields(Scenario)
                       if f.default is MISSING and f.name not in _POWER_KEYS)
_OPTIONAL_KEYS = tuple(f.name for f in fields(Scenario) if f.default is not MISSING)


def parse_scenario(text: str) -> Scenario:
    """Parse a JSON scenario document into a validated :class:`Scenario`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")

    known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    known |= set(_POWER_KEYS) | set(_POWER_KEYS.values())
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ScenarioParseError(f"unknown scenario keys: {', '.join(unknown)}")

    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    for linear_key, dbm_key in _POWER_KEYS.items():
        if linear_key in doc and dbm_key in doc:
            raise ScenarioParseError(
                f"keys {linear_key} and {dbm_key} are mutually exclusive"
            )
        if linear_key not in doc and dbm_key not in doc:
            missing.append(f"{linear_key} (or {dbm_key})")
    if missing:
        raise ScenarioParseError(f"missing scenario keys: {', '.join(missing)}")

    kwargs = {}
    for key in _REQUIRED_KEYS + _OPTIONAL_KEYS:
        if key in doc:
            kwargs[key] = doc[key]
    for linear_key, dbm_key in _POWER_KEYS.items():
        if linear_key in doc:
            kwargs[linear_key] = doc[linear_key]
        else:
            try:
                kwargs[linear_key] = dbm_to_linear_mw(float(doc[dbm_key]))
            except (TypeError, ValueError, OverflowError) as exc:  # 4000 dBm is 1e400 mW
                raise ScenarioParseError(f"key {dbm_key} must be a number of dBm whose "
                                         f"power fits a float, got {doc[dbm_key]!r}") from exc

    for key in ("uav_trajectory", "bs_positions"):
        try:
            kwargs[key] = tuple(tuple(float(c) for c in p) for p in kwargs[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioParseError(f"key {key} must be a list of [x, y, z] triples") from exc
    try:
        kwargs["kappa_range"] = tuple(float(c) for c in kwargs["kappa_range"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioParseError("key kappa_range must be a [low, high] pair") from exc

    return Scenario(**kwargs)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario from a JSON file."""
    return parse_scenario(Path(path).read_text())


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize a scenario with canonical (linear-power) keys."""
    out = {}
    for f in fields(Scenario):
        val = getattr(scenario, f.name)
        if f.name in ("uav_trajectory", "bs_positions"):
            val = [list(p) for p in val]
        elif f.name == "kappa_range":
            val = list(val)
        out[f.name] = val
    return out


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as JSON; ``load_scenario`` round-trips field-for-field."""
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def scenario_digest(scenario: Scenario) -> str:
    """Stable hash of the canonical serialization, used in plan-file headers."""
    import hashlib

    blob = json.dumps(scenario_to_dict(scenario), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def default_patrol_scenario(seed: int, *, horizon: int = 60) -> Scenario:
    """Build the ``table1`` circular-patrol scenario over ``horizon`` slots.

    Five base stations share 16 resource blocks under a 4-slot AoI bound,
    a 24 bit/s/Hz payload threshold, a 23 dBm per-slot budget and -90 dBm
    noise.  The UAV flies a circle of radius 100 m centred on the 200 m
    monitored square at 50 m altitude and 6 m/s; base stations are placed
    uniformly at random on the ground inside the square.  Reproducible
    from ``seed``.
    """
    rng = np.random.default_rng(seed)
    half = 100.0          # half the square's side, and the patrol radius
    omega = 6.0 / half    # rad per slot at 1 s slots
    traj = tuple(
        (half * math.cos(omega * ti), half * math.sin(omega * ti), 50.0)
        for ti in np.arange(horizon)
    )
    bs_xy = rng.uniform(-half, half, size=(5, 2))
    bs = tuple((float(x), float(y), 0.0) for x, y in bs_xy)
    return Scenario(
        horizon_T=horizon,
        num_bs_N=5,
        num_rb_K=16,
        aoi_bound_tau=4,
        payload_threshold_vbar=24.0,
        power_budget_pbar=dbm_to_linear_mw(23.0),
        noise_power_delta2=dbm_to_linear_mw(-90.0),
        uav_trajectory=traj,
        bs_positions=bs,
        carrier_freq_ghz=3.0,
        shadowing_sigma_db=math.sqrt(8.0),
        shadowing_corr_dist_m=5.0,
        kappa_range=(1.0, 30.0),
        master_seed=seed,
    )
