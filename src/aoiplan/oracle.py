"""Brute-force reference solvers for tests and cross-checks.

Everything here is deliberately exhaustive: assignments are enumerated,
the interval optimum is recovered from a dense water-level grid, and
sampling sequences are enumerated depth-first.  Hard size caps make the
exponential cost explicit; exceeding them raises instead of truncating.

These oracles share no solver code with the modules they check (only the
elementary water-filling arithmetic is re-derived inline).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channel import ChannelProfile
from .errors import NoFeasiblePlanError, OracleBudgetError
from .inner import Infeasible, IntervalSpec
from .matching import AssignmentProblem, BinaryAssignment
from .numeric import seq_sum

LN2 = math.log(2.0)

__all__ = ["check_matching", "check_inner", "check_plan", "oracle_matching",
           "oracle_inner", "oracle_plan", "oracle_plan_from_profile",
           "mc_expected_capacity"]

# Size caps of the exhaustive searches, and the inner oracle's grid size.
MAX_N = 3
MAX_K = 4
MAX_T = 12
MAX_TAU = 4
GRID_POINTS = 10_000
MC_SAMPLES = 1_000_000


def check_matching(N: int, K: int):
    if N > MAX_N or K > MAX_K:
        raise OracleBudgetError(f"matching oracle capped at {MAX_N}x{MAX_K}, got {N}x{K}")


def check_inner(N: int, K: int, L: int):
    check_matching(N, K)
    if L > MAX_TAU:
        raise OracleBudgetError(f"inner oracle capped at {MAX_TAU} slots, got {L}")


def check_plan(T: int, tau: int):
    if T > MAX_T or tau > MAX_TAU:
        raise OracleBudgetError(f"plan oracle capped at T={MAX_T}, tau={MAX_TAU}, "
                                f"got T={T}, tau={tau}")


def _enumerate_masks(N: int, K: int, cap: int) -> np.ndarray:
    """All feasible binary assignments as an (M, N, K) tensor.

    Column k is either unassigned or owned by one BS; rows are filtered by
    the load cap.  Deterministic lexicographic order.
    """
    masks = []
    for combo in itertools.product(range(N + 1), repeat=K):
        counts = [0] * N
        ok = True
        for owner in combo:
            if owner > 0:
                counts[owner - 1] += 1
                if counts[owner - 1] > cap:
                    ok = False
                    break
        if not ok:
            continue
        m = np.zeros((N, K), dtype=bool)
        for k, owner in enumerate(combo):
            if owner > 0:
                m[owner - 1, k] = True
        masks.append(m)
    return np.array(masks)


def oracle_matching(problem: AssignmentProblem) -> BinaryAssignment:
    """Exact assignment optimum by full enumeration."""
    w = problem.weights
    N, K = w.shape
    check_matching(N, K)
    masks = _enumerate_masks(N, K, int(problem.bs_capacity))
    scores = masks.reshape(len(masks), -1) @ w.reshape(-1)
    best = int(np.argmin(scores))
    return BinaryAssignment(masks[best].astype(np.int8), float(scores[best]))


def _grid_water_fill(levels: np.ndarray, iota_flat: np.ndarray):
    """Power/rate/weight matrices for a vector of water levels."""
    lv = levels[:, None]
    p = np.maximum(0.0, lv - iota_flat[None, :])
    active = lv > iota_flat[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(active, np.log2(np.maximum(lv, 1e-300) / iota_flat[None, :]), 0.0)
    w = p - LN2 * lv * r
    return p, r, w


def _oracle_slot_state(level: float, iota_flat: np.ndarray, masks_flat: np.ndarray):
    p, r, w = _grid_water_fill(np.array([level]), iota_flat)
    scores = masks_flat @ w[0]
    best = int(np.argmin(scores))
    sel = masks_flat[best]
    return float((p[0] * sel).sum()), float((r[0] * sel).sum())


def _oracle_slot_cap(iota_flat: np.ndarray, masks_flat: np.ndarray, power_cap: float):
    """Cap level and the mixed rate/power point where the budget binds."""
    lo = float(iota_flat.min())
    hi = float(iota_flat.max()) + power_cap
    for _ in range(200):
        if hi - lo <= max(1e-13 * hi, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        p_mid, _ = _oracle_slot_state(mid, iota_flat, masks_flat)
        if p_mid >= power_cap:
            hi = mid
        else:
            lo = mid
    eps = max(hi * 1e-7, 1e-12)
    # one-sided limit supports, valued at the cap level itself
    p_at, r_at, _ = _grid_water_fill(np.array([hi]), iota_flat)
    _, _, w_lo = _grid_water_fill(np.array([hi - eps]), iota_flat)
    _, _, w_hi = _grid_water_fill(np.array([hi + eps]), iota_flat)
    sel_m = masks_flat[int(np.argmin(masks_flat @ w_lo[0]))]
    sel_p = masks_flat[int(np.argmin(masks_flat @ w_hi[0]))]
    pm, rm = float((p_at[0] * sel_m).sum()), float((r_at[0] * sel_m).sum())
    pp, rp = float((p_at[0] * sel_p).sum()), float((r_at[0] * sel_p).sum())
    if pp - pm > 1e-9 * power_cap and pm <= power_cap <= pp:
        xi = (power_cap - pm) / (pp - pm)
    else:
        xi = 1.0
    return hi, (1.0 - xi) * rm + xi * rp


def oracle_inner(spec: IntervalSpec, profile: ChannelProfile):
    """Interval optimum from a dense water-level grid with exhaustive matching.

    Grid points carry the exact (rate, energy) of the enumerated optimum at
    that level; the target is met by linear interpolation between the
    bracketing grid points, which is exact across assignment switches and
    second-order accurate elsewhere.  Returns the energy, or
    :class:`Infeasible` with the attainable rate.
    """
    N, K, _ = profile.dims
    L = spec.num_slots
    check_inner(N, K, L)
    vbar = float(spec.rate_target)
    if vbar <= 0.0:
        return 0.0
    iota3d = profile.iota[:, :, spec.start - 1 : spec.end - 1]
    masks_flat = _enumerate_masks(N, K, int(spec.rb_cap)).reshape(-1, N * K).astype(float)

    caps = []
    for t in range(L):
        caps.append(_oracle_slot_cap(iota3d[:, :, t].reshape(-1), masks_flat, spec.power_cap))
    phi_max = seq_sum(c[1] for c in caps)
    if phi_max < vbar * (1.0 - 1e-12):
        return Infeasible(max_rate=phi_max)

    grid = np.linspace(float(iota3d.min()), max(c[0] for c in caps), GRID_POINTS)
    total_rate = np.zeros(len(grid))
    total_energy = np.zeros(len(grid))
    for t in range(L):
        cap_level, cap_rate = caps[t]
        iota_flat = iota3d[:, :, t].reshape(-1)
        levels = np.minimum(grid, cap_level)
        p, r, w = _grid_water_fill(levels, iota_flat)
        scores = w @ masks_flat.T                    # (G, M)
        best = np.argmin(scores, axis=1)
        chosen = masks_flat[best]                    # (G, NK)
        rate_g = (r * chosen).sum(axis=1)
        power_g = (p * chosen).sum(axis=1)
        capped = grid >= cap_level
        rate_g[capped] = cap_rate
        power_g[capped] = spec.power_cap
        total_rate += rate_g
        total_energy += power_g

    total_rate = np.maximum.accumulate(total_rate)   # guard FP dips at ties
    idx = int(np.searchsorted(total_rate, vbar, side="left"))
    if idx >= len(grid):
        return float(total_energy[-1])
    if idx == 0:
        return float(total_energy[0])
    r0, r1 = total_rate[idx - 1], total_rate[idx]
    e0, e1 = total_energy[idx - 1], total_energy[idx]
    if r1 - r0 <= 0.0:
        return float(e0)
    frac = (vbar - r0) / (r1 - r0)
    return float(e0 + frac * (e1 - e0))


def oracle_plan(horizon: int, aoi_bound: int, edge_weight):
    """Enumerate every gap-feasible sampling sequence and take the minimum.

    ``edge_weight(i, j)`` supplies interval costs (inf marks infeasible
    intervals).  Returns (instants including the anchor slot 1, energy,
    number of sequences enumerated).
    """
    check_plan(horizon, aoi_bound)
    goal = horizon + 1
    best = math.inf
    best_path = None
    count = 0
    stack = [(1, (1,), 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if node == goal:
            count += 1
            if cost < best:
                best = cost
                best_path = path[:-1]
            continue
        # push larger gaps first so smaller gaps are explored first
        for gap in range(min(aoi_bound, goal - node), 0, -1):
            nxt = node + gap
            stack.append((nxt, path + (nxt,), cost + edge_weight(node, nxt)))
    if best_path is None or not math.isfinite(best):
        raise NoFeasiblePlanError("exhaustive enumeration found no finite-cost sequence")
    return best_path, best, count


def oracle_plan_from_profile(scenario, profile: ChannelProfile, rb_cap: int):
    """Self-contained plan oracle: enumeration over oracle_inner energies."""
    T, tau = scenario.horizon_T, scenario.aoi_bound_tau
    check_plan(T, tau)
    cache = {}

    def weight(i, j):
        if (i, j) not in cache:
            spec = IntervalSpec(start=i, end=j, rb_cap=rb_cap,
                                rate_target=scenario.payload_threshold_vbar,
                                power_cap=scenario.power_budget_pbar)
            val = oracle_inner(spec, profile)
            cache[(i, j)] = math.inf if isinstance(val, Infeasible) else val
        return cache[(i, j)]

    instants, energy, _ = oracle_plan(T, tau, weight)
    return instants, energy


def mc_expected_capacity(kappa: float, snr_bar: float, samples: int, seed: int):
    """Monte Carlo estimate of E[log2(1 + snr * xi)], xi ~ Gamma(kappa, 1/kappa).

    Returns (mean, standard error).
    """
    if samples > MC_SAMPLES:
        raise OracleBudgetError(f"capacity oracle capped at {MC_SAMPLES} samples, got {samples}")
    rng = np.random.default_rng(seed)
    xi = rng.gamma(shape=kappa, scale=1.0 / kappa, size=samples)
    vals = np.log2(1.0 + snr_bar * xi)
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(vals.mean()), stderr
