import dataclasses
import math
from bisect import bisect_left

import numpy as np
import pytest

from aoiplan import ChannelProfile
import aoiplan.inner as inner
from aoiplan.errors import BinaryRoundingError
from aoiplan.matching import _certificate, _stop_tol
from aoiplan.inner import (
    Infeasible,
    IntervalSpec,
    SlotCurve,
    slot_curves,
    solve_interval,
    solve_slot_cap,
    water_fill,
)
from aoiplan.oracle import oracle_inner

from conftest import synthetic_profile


def single_entry_profile(iota_value, L=1):
    # gain chosen so that the floor equals iota_value with noise 1 and
    # shape pinned huge (severity ~ 1)
    kappa = 1e6
    from aoiplan.channel import fading_severity

    gain = np.full((1, 1, L), 1.0 / (fading_severity(kappa) * iota_value))
    return ChannelProfile.from_arrays(gain, np.full((1, 1, L), kappa), 1.0)


# ---------------------------------------------------------------- water_fill

def test_water_fill_below_floor():
    p, r = water_fill(0.5, np.array([1.0]))
    assert p[0] == 0.0 and r[0] == 0.0


def test_water_fill_one_bit_point():
    p, r = water_fill(2.0, np.array([1.0]))
    assert p[0] == pytest.approx(1.0) and r[0] == pytest.approx(1.0)


def test_water_fill_reference_point():
    p, r = water_fill(10.0, np.array([3.0]))
    assert p[0] == pytest.approx(7.0)
    assert r[0] == pytest.approx(math.log2(10.0 / 3.0), rel=1e-12)
    assert r[0] == pytest.approx(1.7370, abs=5e-5)


# ---------------------------------------------------------------- extended functions

def extended_power(level, xi, iota2d, cap):
    """Mixed-limit slot power (1-xi) * P(level-) + xi * P(level+)."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    lim = inner.SlotCurve(iota2d, cap).limits(level)
    return (1.0 - xi) * lim.p_minus + xi * lim.p_plus


def extended_rate(level, xi, iota2d, cap):
    """Mixed-limit slot rate (1-xi) * R(level-) + xi * R(level+)."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    lim = inner.SlotCurve(iota2d, cap).limits(level)
    return (1.0 - xi) * lim.r_minus + xi * lim.r_plus


def test_extended_boundaries_match_limits():
    iota = np.array([[1.0, 1.25], [1.21, 50.0]])
    level = 2.0
    p0 = extended_power(level, 0.0, iota, 1)
    p1 = extended_power(level, 1.0, iota, 1)
    r0 = extended_rate(level, 0.0, iota, 1)
    r1 = extended_rate(level, 1.0, iota, 1)
    # away from a critical point the limits coincide
    assert p0 == pytest.approx(p1) and r0 == pytest.approx(r1)
    # linear in the mixing coefficient
    assert extended_power(level, 0.5, iota, 1) == pytest.approx(0.5 * (p0 + p1))


def test_extended_zero_below_floors():
    iota = np.array([[2.0, 3.0]])
    for xi in (0.0, 0.3, 1.0):
        assert extended_power(1.0, xi, iota, 1) == 0.0
        assert extended_rate(1.0, xi, iota, 1) == 0.0


def test_extended_monotone_in_level_and_mix():
    rng = np.random.default_rng(31)
    iota = 10.0 ** rng.uniform(-0.5, 0.5, size=(2, 3))
    levels = np.linspace(0.5 * iota.min(), 4.0 * iota.max(), 60)
    powers = [extended_power(lv, 0.0, iota, 1) for lv in levels]
    rates = [extended_rate(lv, 0.0, iota, 1) for lv in levels]
    assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    lv = float(levels[30])
    xs = np.linspace(0.0, 1.0, 11)
    px = [extended_power(lv, x, iota, 1) for x in xs]
    rx = [extended_rate(lv, x, iota, 1) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(px, px[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(rx, rx[1:]))


def test_extended_rejects_bad_mix():
    with pytest.raises(ValueError):
        extended_power(1.0, 1.5, np.array([[1.0]]), 1)


# ---------------------------------------------------------------- slot cap

def test_slot_cap_single_entry():
    cap = solve_slot_cap(np.array([[1.0]]), 1, 4.0)
    assert cap.slot_cap.level == pytest.approx(5.0, rel=1e-9)


def test_slot_cap_two_identical_rbs():
    cap = solve_slot_cap(np.array([[1.0, 1.0]]), 2, 6.0)
    assert cap.slot_cap.level == pytest.approx(4.0, rel=1e-9)


def test_slot_cap_vanishing_budget():
    cap = solve_slot_cap(np.array([[1.0, 2.0]]), 2, 1e-9)
    assert cap.slot_cap.level == pytest.approx(1.0, rel=1e-6)
    assert cap.slot_cap.level > 1.0


# ---------------------------------------------------------------- solve_interval

def test_zero_target_returns_zero_plan():
    prof = synthetic_profile(1)
    spec = IntervalSpec(start=1, end=3, rb_cap=1, rate_target=0.0, power_cap=5.0)
    sol = solve_interval(spec, prof)
    assert sol.energy == 0.0 and sol.binary_energy == 0.0
    assert sol.assignment.sum() == 0


def test_single_rb_closed_form():
    prof = single_entry_profile(1.0)
    spec = IntervalSpec(start=1, end=2, rb_cap=1, rate_target=2.0, power_cap=10.0)
    sol = solve_interval(spec, prof)
    # log2(level) = 2 -> level 4, power 3
    assert sol.slot_levels[0] == pytest.approx(4.0, rel=1e-9)
    assert sol.energy == pytest.approx(3.0, rel=1e-9)
    assert sol.binary_energy == pytest.approx(3.0, rel=1e-9)
    assert sol.power[0, 0, 0] == pytest.approx(3.0, rel=1e-9)


def test_infeasible_when_target_exceeds_caps():
    prof = single_entry_profile(1.0)
    spec = IntervalSpec(start=1, end=2, rb_cap=1, rate_target=50.0, power_cap=2.0)
    out = solve_interval(spec, prof)
    assert isinstance(out, Infeasible)
    assert out.max_rate == pytest.approx(math.log2(3.0), rel=1e-6)


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(32)
    for trial in range(30):
        N, K, L = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
        prof = synthetic_profile(int(rng.integers(1 << 30)), N=N, K=K, L=L)
        cap = int(rng.integers(1, K + 1))
        pbar = float(rng.uniform(1.0, 20.0))
        probe = IntervalSpec(start=1, end=L + 1, rb_cap=cap, rate_target=1e18, power_cap=pbar)
        phimax = solve_interval(probe, prof).max_rate
        vbar = float(rng.uniform(0.25, 0.9)) * phimax
        spec = IntervalSpec(start=1, end=L + 1, rb_cap=cap, rate_target=vbar, power_cap=pbar)
        sol = solve_interval(spec, prof)
        ref = oracle_inner(spec, prof)
        assert not isinstance(sol, Infeasible) and not isinstance(ref, Infeasible)
        assert sol.energy == pytest.approx(ref, rel=1e-3), trial


def test_solution_invariants():
    rng = np.random.default_rng(33)
    for trial in range(25):
        N, K, L = rng.integers(1, 4), rng.integers(2, 5), rng.integers(1, 4)
        prof = synthetic_profile(int(rng.integers(1 << 30)), N=N, K=K, L=L)
        cap = int(rng.integers(1, 3))
        pbar = float(rng.uniform(1.0, 10.0))
        probe = IntervalSpec(start=1, end=L + 1, rb_cap=cap, rate_target=1e18, power_cap=pbar)
        phimax = solve_interval(probe, prof).max_rate
        spec = IntervalSpec(start=1, end=L + 1, rb_cap=cap,
                            rate_target=0.7 * phimax, power_cap=pbar)
        sol = solve_interval(spec, prof)
        iota = prof.iota[:, :, :L]
        active = sol.assignment.astype(bool)
        # power matches the water-filling form on active entries, zero elsewhere
        assert np.all(sol.power[~active] == 0.0)
        expected_p = np.maximum(0.0, sol.slot_levels[None, None, :] - iota)
        assert np.all(np.abs(sol.power[active] - expected_p[active]) <= 1e-9)
        # per-slot budget and rate target
        assert np.all(sol.power.sum(axis=(0, 1)) <= pbar * (1.0 + 1e-9))
        assert sol.expected_rate >= spec.rate_target * (1.0 - 1e-9)
        # both capacity families hold slotwise
        assert sol.assignment.sum(axis=0).max(initial=0) <= 1
        assert sol.assignment.sum(axis=1).max(initial=0) <= cap
        # binary never beats the relaxed optimum
        assert sol.binary_energy >= sol.energy - 1e-9 * max(1.0, sol.energy)
        # mixing stays inside the unit interval
        assert np.all((sol.mix >= 0.0) & (sol.mix <= 1.0))


def test_energy_monotone_in_load_cap():
    rng = np.random.default_rng(34)
    for trial in range(10):
        prof = synthetic_profile(int(rng.integers(1 << 30)), N=2, K=4, L=2)
        pbar = 8.0
        probe = IntervalSpec(start=1, end=3, rb_cap=1, rate_target=1e18, power_cap=pbar)
        phimax = solve_interval(probe, prof).max_rate
        vbar = 0.8 * phimax  # feasible for every cap (feasible sets nest)
        energies = []
        for cap in (1, 2, 3, 4):
            spec = IntervalSpec(start=1, end=3, rb_cap=cap, rate_target=vbar, power_cap=pbar)
            sol = solve_interval(spec, prof)
            assert not isinstance(sol, Infeasible)
            energies.append(sol.energy)
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(energies, energies[1:]))


def test_energy_monotone_in_interval_length():
    rng = np.random.default_rng(35)
    for trial in range(10):
        prof = synthetic_profile(int(rng.integers(1 << 30)), N=2, K=3, L=4)
        pbar = 6.0
        probe = IntervalSpec(start=1, end=2, rb_cap=2, rate_target=1e18, power_cap=pbar)
        phimax1 = solve_interval(probe, prof).max_rate
        vbar = 0.7 * phimax1
        energies = []
        for end in (2, 3, 4, 5):
            spec = IntervalSpec(start=1, end=end, rb_cap=2, rate_target=vbar, power_cap=pbar)
            sol = solve_interval(spec, prof)
            assert not isinstance(sol, Infeasible)
            energies.append(sol.energy)
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(energies, energies[1:]))


def test_interval_spec_validation():
    with pytest.raises(ValueError):
        IntervalSpec(start=3, end=3, rb_cap=1, rate_target=1.0, power_cap=1.0)
    with pytest.raises(ValueError):
        IntervalSpec(start=1, end=2, rb_cap=0, rate_target=1.0, power_cap=1.0)
    with pytest.raises(ValueError):
        IntervalSpec(start=1, end=2, rb_cap=1, rate_target=-1.0, power_cap=1.0)
    with pytest.raises(ValueError):
        IntervalSpec(start=1, end=2, rb_cap=1, rate_target=1.0, power_cap=0.0)
    # a NaN target would never settle the rate bisection
    with pytest.raises(ValueError):
        IntervalSpec(start=1, end=2, rb_cap=1, rate_target=math.nan, power_cap=1.0)
    for power_cap in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            IntervalSpec(start=1, end=2, rb_cap=1, rate_target=1.0, power_cap=power_cap)
    # an unreachable target stays a value, answered Infeasible
    spec = IntervalSpec(start=1, end=3, rb_cap=2, rate_target=math.inf, power_cap=1.0)
    assert isinstance(solve_interval(spec, synthetic_profile(0)), Infeasible)


# ---------------------------------------------------------------- shared slot curves

def _switch_levels(iota2d, cap, lo, hi, grid=120):
    """Adjacent-float level pairs across which the kernel's matching changes."""
    levels = np.linspace(lo, hi, grid)
    sels = [inner._slot_state(x, iota2d, cap)[0] for x in levels]
    out = []
    for a, b, sa, sb in zip(levels, levels[1:], sels, sels[1:]):
        if np.array_equal(sa, sb):
            continue
        a, b = float(a), float(b)
        while np.nextafter(a, math.inf) < b:
            mid = 0.5 * (a + b)
            if np.array_equal(inner._slot_state(mid, iota2d, cap)[0], sa):
                a = mid
            else:
                b = mid
        out.append((a, b))
    return out


def _direct_total(slots, mu):
    total = 0.0
    for c in slots:
        if mu >= c.slot_cap.level:
            total += c.slot_cap.rate_at_cap
        else:
            total += inner._slot_state(mu, c.iota2d, c.cap)[2]
    return total


def test_slot_curve_bounds_settle_like_direct_sums():
    """Bounds from curves seeded a few ulps around every matching switch
    decide ``total >= target`` exactly as summing the kernel rates does,
    including targets one ulp either side of the total."""
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(5):
        prof = synthetic_profile(100 + seed, N=3, K=4, L=3)
        cap, power_cap = 1 + seed % 2, 6.0
        slots = slot_curves(prof.iota, cap, power_cap)
        lo, hi = float(prof.iota.min()), max(c.slot_cap.level for c in slots)
        switches = []
        for c in slots:
            for a, b in _switch_levels(c.iota2d, cap, lo, c.slot_cap.level):
                switches.append(a)
                for k in range(-3, 4):  # seed a few ulps on both sides
                    x = a
                    for _ in range(abs(k)):
                        x = float(np.nextafter(x, math.inf if k > 0 else -math.inf))
                    c.state(x)
        assert switches
        for n in range(200):
            if n % 2:
                mu = float(rng.uniform(lo, hi))
            else:  # near a switch: within a few ulps up to well past the guard
                a = switches[int(rng.integers(len(switches)))]
                mu = a * (1.0 + float(rng.choice([-1, 1])) * 10.0 ** rng.uniform(-16.5, -12))
            total = _direct_total(slots, mu)
            for vbar in (total, float(np.nextafter(total, math.inf)),
                         float(np.nextafter(total, -math.inf)),
                         total * (1.0 + float(rng.uniform(-1e-3, 1e-3)))):
                if vbar <= 0.0:
                    continue
                got = inner._reaches(slots, mu, vbar)
                assert got == (total >= vbar), (seed, mu, vbar, total)
            checked += 1
    assert checked == 1000


# ---------------------------------------------------------------- certified pieces

def _ulps(x, n):
    for _ in range(abs(n)):
        x = float(np.nextafter(x, math.inf if n > 0 else -math.inf))
    return x


def _piece_at(store, level):
    """Selection of the certified piece strictly holding ``level``, or None."""
    return store._piece(bisect_left(store._levels, level))


def _pieces_of(curve):
    """(s, q, selection) of every certified piece, after checking every gap."""
    levels = list(curve._levels)
    for s, q in zip(levels, levels[1:]):
        _piece_at(curve, 0.5 * (s + q))
    return [(s, q, curve._selects[j]) for j, (s, q) in enumerate(zip(levels, levels[1:]), 1)
            if curve._pieces[j]]


def test_certified_pieces_hold_the_cold_selection_inside():
    """Inside every accepted piece, including a few ulps from either end,
    the cold kernel returns the piece's selection, and pricing gives the
    solve's bits; curves are seeded close to every matching switch."""
    rng = np.random.default_rng(41)
    accepted = 0
    for trial in range(30):
        N, K, cap = int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(1, 3))
        iota = synthetic_profile(int(rng.integers(1 << 30)), N=N, K=K, L=1).iota[:, :, 0]
        curve = solve_slot_cap(iota, cap, 8.0)
        lo, hi = float(iota.min()), curve.slot_cap.level
        cap_levels = list(curve._levels)
        seeds = [float(x) for x in np.linspace(lo, hi, 25)[1:]]
        for a, _ in _switch_levels(iota, cap, lo, hi, grid=40):
            seeds += [a * (1.0 + sign * 10.0 ** -e) for sign in (-1, 1) for e in (3, 6, 9, 12)]
        for x in seeds:
            curve.state(x)
        # stored levels (the cap solve's and the seeds), rates and selections
        # are those of cold solves, whatever order the levels were solved in
        assert curve._levels == sorted(set(seeds) | set(cap_levels))
        for x, rate, select in zip(curve._levels, curve._rates, curve._selects):
            cold = inner._slot_state(x, iota, cap)
            assert rate == cold[2] and np.array_equal(select, cold[0])
        for s, q, select in _pieces_of(curve):
            accepted += 1
            inside = [_ulps(s, k) for k in (1, 2, 3)] + [_ulps(q, -k) for k in (1, 2, 3)]
            inside += [float(x) for x in np.linspace(s, q, 16)[1:-1]]
            for x in inside:
                assert s < x < q
                cold = inner._slot_state(x, iota, cap)
                assert np.array_equal(cold[0], select), (trial, s, q, x)
                assert inner._slot_state(x, iota, cap, select, True)[1:] == cold[1:]
    assert accepted >= 100


def _gap_certified(iota, cap, s, q):
    """Piece check of the gap [s, q] on a fresh curve that recorded only s and q."""
    curve = SlotCurve(iota, cap)
    curve.state(s)
    curve.state(q)
    return curve._piece_certified(1)


def test_piece_refused_with_a_floor_inside_or_just_below():
    iota = np.array([[1.0], [1.5]])
    first = np.array([[1], [0]], dtype=np.int8)  # station 0 keeps the RB throughout
    for x in (1.2, 1.5 * (1.0 + 5e-7), 1.5 * (1.0 + 2e-6), 1.6, 2.0):
        assert np.array_equal(inner._slot_state(x, iota, 1)[0], first)
    assert _gap_certified(iota, 1, 1.6, 2.0)
    assert not _gap_certified(iota, 1, 1.2, 2.0)  # floor 1.5 inside
    assert not _gap_certified(iota, 1, 1.5 * (1.0 + 5e-7), 2.0)
    assert _gap_certified(iota, 1, 1.5 * (1.0 + 2e-6), 2.0)
    curve = SlotCurve(iota, 1)
    for x in (1.2, 2.0):
        curve.state(x)
    assert _piece_at(curve, 1.7) is None and curve._pieces[1] is False
    curve.state(1.6)
    assert np.array_equal(_piece_at(curve, 1.8), first)
    assert _piece_at(curve, 1.4) is None


def _fresh_piece_check(iota, cap, s, q, select):
    """The piece check made afresh: no floor in the guarded gap, and the
    certificate re-run at both ends clears its margin plus the extra."""
    if ((iota > s * (1.0 - inner.PIECE_FLOOR_GUARD)) & (iota < q)).any():
        return False
    K = iota.shape[1]
    w_s, w_q = inner.assignment_weights(s, iota), inner.assignment_weights(q, iota)

    def margin(w):
        return 4.0 * K * _stop_tol(float(np.abs(w).max()))

    extra = ((q - s) ** 2 / (8.0 * s) + margin(w_q)
             + inner.PIECE_ROUNDING * K * (1.0 + q + float(np.abs(w_q).max())))
    return all(_certificate(w, cap, select)[0] > margin(w) + extra for w in (w_s, w_q))


def test_stored_slack_piece_decisions_equal_fresh_certificates():
    """Each gap between equal selections is decided from the (slack,
    max|w|) the curve stored at its ends, mostly handed over by the kernel;
    the stored pairs equal the certificate re-run, and every decision equals
    the check made afresh, on curves seeded around every matching switch."""
    rng = np.random.default_rng(47)
    checked = accepted = 0
    for trial in range(25):
        N, K, cap = int(rng.integers(2, 6)), int(rng.integers(3, 9)), int(rng.integers(1, 4))
        iota = synthetic_profile(int(rng.integers(1 << 30)), N=N, K=K, L=1).iota[:, :, 0]
        curve = solve_slot_cap(iota, cap, 8.0)
        lo, hi = float(iota.min()), curve.slot_cap.level
        for x in [float(x) for x in np.linspace(lo, hi, 25)[1:]]:
            curve.state(x)
        for a, _ in _switch_levels(iota, cap, lo, hi, grid=40):
            for x in (a * (1.0 + sign * 10.0 ** -e) for sign in (-1, 1) for e in (3, 6, 9, 12)):
                curve.state(x)
        levels, selects = curve._levels, curve._selects
        for j, cert in enumerate(curve._certs):
            if cert is not None:
                w = inner.assignment_weights(levels[j], iota)
                assert cert == (_certificate(w, cap, selects[j])[0], float(np.abs(w).max()))
        for j in range(1, len(levels)):
            if not np.array_equal(selects[j - 1], selects[j]):
                continue
            fresh = _fresh_piece_check(iota, cap, levels[j - 1], levels[j], selects[j])
            assert curve._piece_certified(j) == fresh, (trial, j)
            checked += 1
            accepted += fresh
    assert checked >= 1000 and 500 <= accepted < checked


def test_no_certified_piece_spans_the_near_tie_band():
    """The slot whose kernel flips between two matchings over a 4e-10
    relative band of levels: no piece may be certified across it."""
    iota = synthetic_profile(100, N=3, K=4, L=3).iota[:, :, 1]
    c = 0.1306607475
    curve = solve_slot_cap(iota, 1, 6.0)
    band = [float(x) for x in np.linspace(c * (1.0 - 2e-10), c * (1.0 + 2e-10), 1001)]
    grid = [float(x) for x in np.linspace(iota.min(), curve.slot_cap.level, 60)[1:]]
    for x in grid + band + [c * (1.0 + e) for e in (-1e-3, -1e-6, -1e-8, 1e-8, 1e-6, 1e-3)]:
        curve.state(x)
    colds = [inner._slot_state(x, iota, 1)[0] for x in band]
    flips = [i for i in range(1000) if not np.array_equal(colds[i], colds[i + 1])]
    assert len(flips) >= 20
    first, last = band[flips[0]], band[flips[-1] + 1]
    pieces = _pieces_of(curve)
    assert len(pieces) >= 20  # away from the band, pieces are certified
    for s, q, _ in pieces:
        assert q <= first or s >= last, (s, q)


def test_limits_from_a_curve_with_pieces_equal_a_fresh_stores(monkeypatch):
    """One-sided limits read from a curve that already holds certified
    pieces equal those of a fresh store bit for bit, at every matching
    switch, a few limit offsets around it and inside every piece."""
    priced = {"sides": 0}
    state = inner._slot_state

    def counting_state(*args):
        priced["sides"] += len(args) > 4 and args[4]
        return state(*args)

    monkeypatch.setattr(inner, "_slot_state", counting_state)
    rng = np.random.default_rng(43)
    split = checked = from_pieces = 0
    for trial in range(20):
        N, K, cap = int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(1, 3))
        iota = synthetic_profile(int(rng.integers(1 << 30)), N=N, K=K, L=1).iota[:, :, 0]
        curve = solve_slot_cap(iota, cap, 8.0)
        lo, hi = float(iota.min()), curve.slot_cap.level
        switches = [a for a, _ in _switch_levels(iota, cap, lo, hi, grid=40)]
        for x in [float(x) for x in np.linspace(lo, hi, 25)[1:]]:
            curve.state(x)
        for a in switches:
            for x in (a * (1.0 + sign * 10.0 ** -e) for sign in (-1, 1) for e in (3, 6, 9, 12)):
                curve.state(x)
        levels = [0.5 * (s + q) for s, q, _ in _pieces_of(curve)]
        levels += [a * (1.0 + sign * 10.0 ** -e) for a in switches
                   for sign in (-1, 1) for e in (5, 7, 8, 10)] + switches
        for mu in levels:
            before = priced["sides"]
            got = curve.limits(mu)
            from_pieces += priced["sides"] - before
            want = inner.SlotCurve(iota, cap).limits(mu)
            assert np.array_equal(got.a_minus, want.a_minus), (trial, mu)
            assert np.array_equal(got.a_plus, want.a_plus), (trial, mu)
            assert (got.p_minus, got.p_plus, got.r_minus, got.r_plus) == (
                want.p_minus, want.p_plus, want.r_minus, want.r_plus), (trial, mu)
            split += not np.array_equal(want.a_minus, want.a_plus)
            checked += 1
    assert checked >= 800 and split >= 200
    assert from_pieces >= 1000  # the curve priced sides inside its pieces


def test_solve_interval_rejects_mismatched_curves():
    prof = synthetic_profile(3)
    spec = IntervalSpec(start=1, end=3, rb_cap=1, rate_target=1.0, power_cap=5.0)
    curves = slot_curves(prof.iota, 1, 5.0)
    with pytest.raises(ValueError):
        solve_interval(spec, prof, curves)
    with pytest.raises(ValueError):
        solve_interval(spec, prof, slot_curves(prof.iota[:, :, :2], 2, 5.0))
    assert solve_interval(spec, prof, curves[:2]).energy == solve_interval(spec, prof).energy


def test_relaxed_rate_short_of_the_target_raises(monkeypatch):
    """The relaxed energy never prices a rate below ``(1 - RATE_REL_TOL) *
    V``, which the timing graph's pruning bound relies on: one-sided limits
    that both fall short raise instead."""
    prof = synthetic_profile(3)
    spec = IntervalSpec(start=1, end=4, rb_cap=1, rate_target=1.0, power_cap=5.0)
    curves = slot_curves(prof.iota, 1, 5.0)
    sol = solve_interval(spec, prof, curves)
    assert all(sol.level < c.slot_cap.level for c in curves)  # every slot asks limits(mu)
    real = inner.SlotCurve.limits

    def short(self, level):
        lim = real(self, level)
        return dataclasses.replace(lim, r_minus=0.5 * lim.r_minus, r_plus=0.5 * lim.r_plus)

    monkeypatch.setattr(inner.SlotCurve, "limits", short)
    with pytest.raises(BinaryRoundingError):
        solve_interval(spec, prof, curves)


# ---------------------------------------------------------------- closed-form rate brackets

def _spread_floors(rng, size):
    """Floors spread up to 1e-9..1e9 around 1; some slots nearly flat."""
    spread = float(rng.choice([1e-3, 1.0, 3.0, 9.0]))
    return 10.0 ** rng.uniform(-spread, spread, size=size)


def _levels_around(floors, rng):
    """Levels at every floor, a few ulps either side of it, inside every
    gap between adjacent floors, and past the largest."""
    floors = sorted(set(floors))
    out = [f for f in floors] + [_ulps(f, k) for f in floors for k in (-3, -1, 1, 3)]
    out += [float(rng.uniform(a, b)) for a, b in zip(floors, floors[1:])]
    out += [floors[-1] * 10.0 ** rng.uniform(0.0, 3.0), floors[0] * 0.5]
    return out


def test_log2_stays_within_the_assumed_ulps():
    """numpy's log2, on arrays and on single entries, and math.log2 are
    within ``LOG2_ULPS`` ulps of the true value on floors and level
    ratios from 1e-12 to 1e12 and within 1e-15 of 1."""
    from decimal import Decimal, localcontext

    rng = np.random.default_rng(5)
    xs = np.concatenate([10.0 ** rng.uniform(-12, 12, 1500),
                         1.0 + 10.0 ** rng.uniform(-15, -1, 400),
                         1.0 - 10.0 ** rng.uniform(-15, -1, 400)])
    got = {"array": np.log2(xs).tolist(),
           "single": [float(np.log2(xs[i : i + 1])[0]) for i in range(len(xs))],
           "math": [math.log2(x) for x in xs.tolist()]}
    worst = dict.fromkeys(got, 0.0)
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()
        for i, x in enumerate(xs.tolist()):
            exact = Decimal(x).ln() / ln2
            ulp = math.ulp(float(exact))
            for name, values in got.items():
                worst[name] = max(worst[name], abs(float(Decimal(values[i]) - exact)) / ulp)
    assert max(worst.values()) <= inner.LOG2_ULPS, worst


def test_support_logs_bracket_the_priced_rate_of_any_selection():
    """For random slots and selections of up to 80 entries, with floors
    spread up to 1e+-9, the closed-form bracket holds the rate
    ``_slot_state`` prices at every floor, a few ulps around each and
    inside every gap between them."""
    rng = np.random.default_rng(11)
    checked = big = 0
    for trial in range(60):
        N, K = int(rng.integers(1, 9)), int(rng.integers(1, 81))
        iota = _spread_floors(rng, (N, K))
        select = (rng.uniform(size=(N, K)) < rng.uniform(0.1, 1.0)).astype(np.int8)
        if not select.any():
            select[0, 0] = 1
        logs = inner._SupportLogs(iota[select.astype(bool)])
        big += select.sum() >= 64
        for x in _levels_around(iota[select.astype(bool)].tolist(), rng):
            rate = inner._slot_state(x, iota, 1, select, True)[2]
            lo, hi = logs.rate_bounds(x)
            assert lo <= rate <= hi, (trial, x, lo, rate, hi)
            checked += 1
    assert checked >= 5000 and big >= 5


def test_curve_bounds_use_the_piece_bracket_inside_certified_pieces():
    """Inside every certified piece, a few ulps from either end and in
    between, ``SlotCurve.bounds`` is the closed-form bracket of the
    piece's selection and holds the priced rate."""
    rng = np.random.default_rng(17)
    pieces = 0
    for trial in range(12):
        N, K, cap = int(rng.integers(2, 6)), int(rng.integers(4, 40)), int(rng.integers(1, 9))
        iota = _spread_floors(rng, (N, K))
        curve = solve_slot_cap(iota, cap, float(iota.max()) * 4.0)
        lo, hi = float(iota.min()), curve.slot_cap.level
        for x in np.linspace(lo, hi, 30)[1:]:
            curve.state(float(x))
        for s, q, select in _pieces_of(curve):
            want = inner._SupportLogs(iota[select.astype(bool)])
            inside = [_ulps(s, k) for k in (1, 3)] + [_ulps(q, -k) for k in (1, 3)]
            for x in inside + [float(rng.uniform(s, q))]:
                if not s < x < q:
                    continue
                rate = inner._slot_state(x, iota, cap, select, True)[2]
                bounds = curve.bounds(x)
                assert bounds == want.rate_bounds(x), (trial, s, q, x)
                assert bounds[0] <= rate <= bounds[1], (trial, x, bounds, rate)
            pieces += 1
    assert pieces >= 100


def _frozen(rng, N, K, L):
    """Frozen supports (empty ones too) of random iota (N, K, L) per slot."""
    iota = _spread_floors(rng, (N, K, L))
    supports = [rng.uniform(size=(N, K)) < rng.uniform(0.0, 1.0) for _ in range(L)]
    power_cap = float(iota.max()) * 10.0 ** rng.uniform(-3, 1)
    return [inner._FrozenSupport(iota[:, :, t][sup], power_cap) for t, sup in enumerate(supports)]


def _slot_rate(slot, mu):
    vals = slot.floors
    lvl = min(mu, slot.cap_level)
    act = vals[vals < lvl]
    return float(np.log2(lvl / act).sum()) if act.size else 0.0


def test_frozen_support_brackets_hold_each_slots_float_rate():
    """Each slot's closed-form bracket holds the float sum the frozen
    rate adds for it, at floors, a few ulps around them, at the cap
    levels and between; supports reach 80 entries."""
    rng = np.random.default_rng(23)
    checked = big = 0
    for trial in range(40):
        N, K, L = int(rng.integers(1, 9)), int(rng.integers(1, 81)), int(rng.integers(1, 5))
        slots = _frozen(rng, N, K, L)
        big += max(slot.floors.size for slot in slots) >= 64
        floors = [x for slot in slots for x in slot.floors.tolist()]
        if not floors:
            continue
        for mu in _levels_around(floors + [slot.cap_level for slot in slots], rng):
            for t, slot in enumerate(slots):
                lo, hi = slot.bracket(mu)
                rate = _slot_rate(slot, mu)
                assert slot.rate(mu) == rate
                assert lo <= rate <= hi, (trial, t, mu, lo, rate, hi)
                checked += 1
    assert checked >= 5000 and big >= 5


def test_frozen_supports_settle_like_the_float_rate(monkeypatch):
    """``_reaches`` over frozen supports decides ``rate >= target`` as
    the float rate added slot after slot does, for targets at the exact
    rate, one ulp either side and 1e-3 away, at floors, cap levels and
    random levels; only the targets the brackets cannot settle ask a
    slot for its rate."""
    rng = np.random.default_rng(29)
    asked = decided = 0
    for trial in range(40):
        N, K, L = int(rng.integers(1, 6)), int(rng.integers(1, 40)), int(rng.integers(1, 5))
        slots = _frozen(rng, N, K, L)
        floors = [x for slot in slots for x in slot.floors.tolist()]
        if not floors:
            continue
        calls = []
        for slot in slots:
            monkeypatch.setattr(slot, "rate",
                                lambda mu, rate=slot.rate: calls.append(mu) or rate(mu))
        levels = _levels_around(floors + [slot.cap_level for slot in slots], rng)
        for mu in levels[:: max(1, len(levels) // 60)]:
            total = 0.0
            for slot in slots:
                total += _slot_rate(slot, mu)
            near = (total, float(np.nextafter(total, math.inf)),
                    float(np.nextafter(total, -math.inf)))
            for vbar in near + (total * (1.0 + 1e-3), total * (1.0 - 1e-3)):
                if vbar <= 0.0:
                    continue
                before = len(calls)
                assert inner._reaches(slots, mu, vbar) == (total >= vbar), (trial, mu, vbar, total)
                if vbar in near and total > 0.0:
                    assert len(calls) > before  # within the band: asked
                asked += len(calls) > before
                decided += 1
    assert decided >= 1000 and asked < 0.7 * decided
