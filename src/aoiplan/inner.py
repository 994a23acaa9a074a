"""Per-interval minimum-energy power and access control.

Solves: minimize total transmit power over one communication interval,
subject to a deterministic sum-rate target, a per-slot sum-power cap, the
per-RB exclusivity constraint, and the per-BS load cap.

Structure of the optimum (from KKT analysis of the convex relaxation):
power follows capped water-filling, p = [level - floor]+, while the active
set per slot is a min-cost b-matching with weights
w = p - ln2 * level * rate.  The map level -> (assigned power, assigned
rate) is monotone but jumps where the optimal matching switches; the jumps
are repaired by mixing the two one-sided limit assignments, which keeps
the mixed power/rate curves continuous so nested bisection searches find
the exact relaxed optimum:

  1. per-slot cap level where assigned power hits the budget,
  2. global water level where the (lower-limit) rate curve brackets the
     target,
  3. mixing coefficient closing the residual rate gap.

The exported plan is binary: the limit supports are frozen and the water
level re-solved within them, which meets the rate target and power caps
exactly at a small measured energy premium over the mixed optimum.

Slot curves.  Every question the solver asks a slot has one form: the
kernel's selection, assigned power and assigned rate at a level mu.  One
:class:`SlotCurve` per slot and load cap answers all of them and records
every answer.  :func:`solve_slot_cap` bisects for the cap level on a new
curve and returns it; a timing graph then shares that curve with every
interval through the slot, whose water-level probes and one-sided limits
(the curve's answers just below and just above a level) ask it again.

A slot's matching is piecewise constant in the level, so the selection
recorded at the nearest level is almost always the answer at the next
one; it is handed to the kernel as a hint, which the kernel returns,
possibly repaired, only under its optimality certificate (see
:mod:`aoiplan.matching`), so hints change speed, never results.  When
the hint is returned it is the same array object, so a run of equal
selections is stored once.

Most queries need no matching at all.  When two adjacent recorded levels
s < q hold the same selection, the gap between them is checked once: no
floor may lie inside it, and the selection's certificate slack at both
ends must clear the kernel's margin there plus an extra margin covering
the curvature of the matching cost in the level (see
:mod:`aoiplan.matching`).  The curve stores each recorded level's slack
and ``max|w|`` as two floats.  The kernel hands them over whenever it
certified its selection there, as an accepted or a repaired hint; only a
level solved by the fast path or the flow solver has its certificate run
by the curve, once, when a check first needs it.  A check thus compares
stored floats and re-runs neither water-fills nor certificates, and it
decides exactly as running the certificate at both ends would.  A margin
that overflows (a huge power budget) refuses the piece, which is always
sound.  A gap that passes is a certified piece: the kernel returns that
selection at every level strictly inside it, so a query there is priced
from the selection with the very float operations that follow the kernel
in :func:`_slot_state`, and its bits are those of a solve.  An exact hit is
priced from its recorded selection, since the kernel is deterministic.
A new level splits a certified piece into two certified halves, while
any other gap splits into two unchecked ones.  Inside the cap bisection
the bracket ends are always adjacent recorded levels, so the bracket is
certified once both ends hold the same selection.

The curve also bounds the kernel rate at levels it was not asked.  Both
water-level bisections decide ``sum_t rate_t(mu) >= target`` with
:func:`_reaches`, over slots that answer ``bracket(mu)`` and
``rate(mu)`` and apply their own cap level: a :class:`SlotCurve` in the
global-level bisection, and in the binary re-solve a
:class:`_FrozenSupport`, whose float rate is numpy's sum of
``log2(level / iota)`` over the floors below its capped level and whose
bracket is the closed form below.  Sequential float addition is monotone
in every term, so when the summed lower ends reach the target, or the
summed upper ends miss it, the exact sum decides the same way; otherwise
the slot with the widest bracket is asked for its rate and the sums
retried.  Every decision, and hence every output bit, equals that of
computing every slot's rate at every probe.  :meth:`SlotCurve.bounds`
has three cases: an exact hit gives the recorded rate; a level inside a
certified piece gives the closed-form bracket below, which is tight to
rounding; any other level gives the secant bounds further below.

Closed-form brackets.  For a fixed selection the float rate at a level
lam is ``s = sum_S fl(log2(fl(lam / iota_i)))`` over the m selected
entries with ``iota_i < lam``, added by numpy in some order (pairwise,
with exact zeros for the selected entries below their floor).  Its real
counterpart is the closed form ``R = m*log2(lam) - sum_S log2(iota_i)``.
:class:`_SupportLogs` keeps the selection's floors sorted with prefix
sums of ``log2(iota)`` and of ``|log2(iota)|``, evaluates
``c = fl(fl(m * g) - P_m)`` with ``g = math.log2(lam)`` and the prefix
sum ``P_m``, and returns ``c -/+ band``.  With the unit roundoff
``u = 2**-53``, ``gamma_k = k*u / (1 - k*u)``, ``B = m*|log2(lam)| +
sum_S |log2(iota_i)|`` (so ``R <= B``), and every log2, numpy's on both
of its dispatch paths (AVX-512 and not) and libm's, assumed within
``LOG2_ULPS`` = 4 ulps, that is a relative error of at most
``2 * LOG2_ULPS * u`` (numpy 2.4 on an AVX-512 x86-64 machine stayed
under one ulp on both paths; ``tests/test_inner.py`` checks the
assumption wherever it runs):

  * the division rounds ``lam / iota_i`` by a factor ``1 + d``,
    ``|d| <= u``, which moves its log2 by at most ``1.5u``; the log2
    then errs by ``2 * LOG2_ULPS * u`` relative, so each term is within
    ``1.5u + 2 * LOG2_ULPS * u * (a_i + 1.5u)`` of its real value
    ``a_i = log2(lam / iota_i) > 0``;
  * summing m nonzero terms in any order (an addition of an exact zero
    is exact) errs by at most ``gamma_{m-1} * sum|terms|``, and
    ``sum|terms| <= (1 + 2 * LOG2_ULPS * u) * (R + 1.5mu)``;
  * the closed form errs by ``(2 * LOG2_ULPS + 1) * u * m*|log2(lam)|``
    in ``fl(m * g)``, by ``(2 * LOG2_ULPS * u + gamma_{m-1}) *
    sum|log2(iota_i)|`` in the sequential prefix sum, and by
    ``u * |c|`` in the subtraction;
  * adding the bracket's ends rounds by ``u * (|c| + band)``.

To first order in u these total ``((4 * LOG2_ULPS + 3) * u +
2 * gamma_{m-1}) * B + 1.5mu``, so the band
``u * ((3m + 4 * LOG2_ULPS + 8) * B + 2m)`` covers them with room for the
band's own rounding for any m below 2**40.  The summation term grows
with m, so no constant relative band would do for large selections.  A
certified piece keeps its selection, so its bracket vouches for the rate
a query there would price; its floors, sorted, and their prefix sums are
kept once per stored selection object.

Secant bounds.  Outside certified pieces the curve still bounds the rate
from its nearest recorded levels.  These bounds stay because they still
pay: without them a cap-4 ``table1`` timing graph runs 4,131 matchings
instead of 2,670, since every unsettled comparison records a new level.
They rest on monotonicity: the optimal rate is non-decreasing in the
level, being -1/ln2 times the derivative of the concave optimal
matching cost (the cost of a fixed matching M falls at rate
ln2 * R_M(level), and R_M grows with the level).  The kernel, though, is
only near-optimal: its successive-shortest-path stop tolerance and
rounding let it pick either side of a near-tie, and two matchings whose
rates differ by 6e-6 have been seen to alternate over a 1e-10 relative
band of levels, so "rate solved below <= rate here" fails well beyond a
few ulps.  What does hold for any two eps-optimal matchings
at levels s < q is

    R(s) <= R(q) + (eps_s + eps_q) / (ln2 * (q - s)),

because each matching's cost changes by ln2 times the integral of its
rate.  A flip may thus lose much rate only across a narrow band and
little across a wide one.  :class:`SlotCurve` widens every bound by this
slack, with eps = ``CURVE_EPS`` * K * (1 + level + max|w|): a hundred
times the kernel's worst case of K skipped augmentations at its stop
tolerance 1e-12 * (1 + max|w|), plus room for rounding at the level's
scale.  An exact hit is reused as is, since the kernel is deterministic;
mixed values and the limits' values at mu never serve as bounds (a
limit's two sides are recorded at their own levels), and a side with no
recorded level is unbounded, so the slot gets asked.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .channel import ChannelProfile
from .errors import BinaryRoundingError
from .matching import AssignmentProblem, _certificate, _stop_tol, min_cost_b_matching
from .numeric import seq_sum

LN2 = math.log(2.0)

RATE_REL_TOL = 1e-6    # rate-target tolerance, relative
POWER_REL_TOL = 1e-9   # power-cap tolerance, relative
BRACKET_REL_TOL = 1e-13
MAX_BISECT = 200
CURVE_EPS = 1e-10      # assumed kernel suboptimality per RB and rate rounding, relative
PIECE_FLOOR_GUARD = 1e-6   # relative band below a piece that must hold no floor
PIECE_ROUNDING = 2.0 ** -40  # piece margin for rounding, per RB, relative to level and max|w|
LIMIT_REL_EPS = 1e-7    # one-sided limit offset, relative to the level
LIMIT_ABS_FLOOR = 1e-12  # one-sided limit offset near level 0
UNIT_ROUNDOFF = 2.0 ** -53
LOG2_ULPS = 4  # assumed worst error of numpy's and libm's log2, in ulps

__all__ = [
    "IntervalSpec",
    "InnerSolution",
    "Infeasible",
    "water_fill",
    "assignment_weights",
    "solve_slot_cap",
    "SlotCurve",
    "slot_curves",
    "solve_interval",
    "dual_bound",
]


@dataclass(frozen=True)
class IntervalSpec:
    """One communication interval [start, end) in 1-based slot indices.

    The freshness bound (end - start <= aoi bound) is the caller's duty;
    the whole-horizon baseline deliberately exceeds it.
    """

    start: int
    end: int
    rb_cap: int
    rate_target: float
    power_cap: float

    def __post_init__(self):
        if not (1 <= self.start < self.end):
            raise ValueError(f"need 1 <= start < end, got [{self.start}, {self.end})")
        if self.rb_cap < 1:
            raise ValueError("rb_cap must be >= 1")
        if not self.rate_target >= 0.0:  # NaN would never settle the rate bisection
            raise ValueError(f"rate_target must be >= 0, got {self.rate_target}")
        if not 0.0 < self.power_cap < math.inf:
            raise ValueError(f"power_cap must be a finite number > 0, got {self.power_cap}")

    @property
    def num_slots(self) -> int:
        return self.end - self.start


@dataclass
class InnerSolution:
    """Binary transmission plan for one interval plus optimality diagnostics.

    ``energy`` is the relaxed (mixed) optimum used as the timing-graph edge
    weight; ``binary_energy`` is what the exported plan actually spends.
    ``slot_levels`` are the binary plan's per-slot water levels, so active
    powers equal [slot_level - floor]+ entrywise.  ``level`` is the relaxed
    solve's global water level mu; ``ln2 * level`` is the marginal energy
    per unit of payload, and :func:`dual_bound` evaluates at it.
    """

    assignment: np.ndarray   # (N, K, L) of {0, 1}
    power: np.ndarray        # (N, K, L), zero off the assignment
    energy: float
    binary_energy: float
    expected_rate: float     # binary plan rate, >= target
    slot_levels: np.ndarray  # (L,)
    mix: np.ndarray          # (L,) mixing coefficients of the relaxed solve
    level: float             # global water level of the relaxed solve


@dataclass(frozen=True)
class Infeasible:
    """Returned when even all-slots-at-cap cannot reach the rate target."""

    max_rate: float


def water_fill(level, iota):
    """Power/rate pair at a water level: ([level-iota]+, [log2(level/iota)]+)."""
    i = np.asarray(iota, dtype=float)
    lvl = float(level)
    power = np.maximum(0.0, lvl - i)
    if lvl > 0.0:
        rate = np.where(lvl > i, np.log2(max(lvl, 1e-300) / i), 0.0)
    else:
        rate = np.zeros_like(i, dtype=float)
    return power, rate


def assignment_weights(level, iota):
    """Matching weights w = p - ln2 * level * rate; 0 on inactive entries."""
    power, rate = water_fill(level, iota)
    return power - LN2 * float(level) * rate


def _slot_state(level, iota2d, cap, hint=None, priced=False):
    """Kernel selection at ``level`` with its assigned power and rate, and
    the certificate's ``(slack, max|w|)`` when the kernel certified the
    selection (else None).

    With ``priced`` the hint is a selection the kernel is known to return
    at ``level``, a certified piece's or the one recorded there, and no
    matching runs.
    """
    power, rate = water_fill(level, iota2d)
    if priced:
        select, cert = hint, None
    else:
        w = power - LN2 * float(level) * rate
        out = min_cost_b_matching(AssignmentProblem.trusted(w, cap), hint=hint)
        select, cert = out.select, out.cert
    sel = select.astype(bool)
    return select, float(power[sel].sum()), float(rate[sel].sum()), cert


def _same(a, b) -> bool:
    return a is b or a.tobytes() == b.tobytes()


def _bisect(lo: float, hi: float, reaches, rel: float = BRACKET_REL_TOL,
            floor: float = 1e-300) -> float:
    """Halve [lo, hi], moving ``hi`` to each midpoint where ``reaches``
    holds and ``lo`` to the others, until ``hi - lo <= max(rel * hi,
    floor)`` or ``MAX_BISECT`` halvings; return ``hi``."""
    for _ in range(MAX_BISECT):
        if hi - lo <= max(rel * hi, floor):
            break
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


class _SupportLogs:
    """Floors of a fixed selection, sorted, with prefix sums of their log2
    and of its magnitude, bracketing the selection's float rate at any
    level by the closed form of the module docstring."""

    def __init__(self, iotas: np.ndarray):
        self.floors = np.sort(iotas)
        logs = np.log2(self.floors)
        self._keys = self.floors.tolist()
        self.log_sums = [0.0] + np.cumsum(logs).tolist()
        self.abs_sums = [0.0] + np.cumsum(np.abs(logs)).tolist()

    def rate_bounds(self, level: float) -> tuple:
        """(lower, upper) bounds on the float sum of ``log2(level / iota)``
        over the floors below ``level``, summed in any order."""
        m = bisect_left(self._keys, level)
        if not m:
            return 0.0, 0.0
        g = math.log2(level)
        closed = m * g - self.log_sums[m]
        band = UNIT_ROUNDOFF * ((3 * m + 4 * LOG2_ULPS + 8)
                                * (m * abs(g) + self.abs_sums[m]) + 2 * m)
        return closed - band, closed + band


@dataclass
class _SlotLimits:
    a_minus: np.ndarray
    a_plus: np.ndarray
    p_minus: float
    p_plus: float
    r_minus: float
    r_plus: float


class SlotCurve:
    """The kernel's selection, power, rate and certificate slack at every
    level asked so far for one slot and load cap, and bounds on the rate
    in between: the closed-form bracket inside certified pieces, the
    secant bounds with the slack of the module docstring elsewhere.
    :func:`solve_slot_cap` returns one with ``power_cap`` and ``slot_cap``
    set."""

    def __init__(self, iota2d: np.ndarray, cap: int):
        self.iota2d = iota2d
        self.cap = cap
        self.power_cap = self.slot_cap = None
        self._levels = []   # sorted recorded levels
        self._rates = []    # kernel rate at each recorded level
        self._selects = []  # kernel selection at each recorded level
        self._pieces = []   # gap below each recorded level: True certified piece,
        #                     False not a piece, None unchecked
        self._certs = []    # (certificate slack, max|w|) at each recorded level, or None
        self._logs = {}     # id of a stored selection -> _SupportLogs of its floors
        self._floors = sorted(iota2d.ravel().tolist())
        self._iota_min = self._floors[0]
        self._slack_scale = CURVE_EPS * iota2d.shape[1] / LN2

    def _piece(self, j: int):
        """Selection of the certified piece between recorded levels j-1
        and j, or None; the gap is checked the first time it is asked."""
        levels, selects, pieces = self._levels, self._selects, self._pieces
        if not 0 < j < len(levels):
            return None
        if pieces[j] is None:
            pieces[j] = _same(selects[j - 1], selects[j]) and self._piece_certified(j)
        return selects[j - 1] if pieces[j] else None

    def _cert(self, j: int) -> tuple:
        """(certificate slack, max|w|) of the selection recorded at level j:
        the kernel's when it certified that selection, else certified now."""
        cert = self._certs[j]
        if cert is None:
            w = assignment_weights(self._levels[j], self.iota2d)
            cert = self._certs[j] = (_certificate(w, self.cap, self._selects[j])[0],
                                     float(np.abs(w).max()))
        return cert

    def _piece_certified(self, j: int) -> bool:
        """Whether the kernel returns the selection it returned at recorded
        levels ``s < q`` (j-1 and j) at every level strictly between.

        No floor may lie in ``(s * (1 - PIECE_FLOOR_GUARD), q)``, so every
        entry keeps its sign across the gap (the band below ``s`` keeps the
        weights of entries just turned active clear of rounding to zero),
        and the selection's stored certificate slack at both ends must
        exceed the certificate's margin there plus the extra the matching
        module derives: the curvature term ``(q - s)**2 / (8 s)``, the
        certificate's own margin at ``q`` and room for rounding.  A margin
        that overflows refuses the piece.
        """
        s, q = self._levels[j - 1], self._levels[j]
        floors = self._floors
        i = bisect_right(floors, s * (1.0 - PIECE_FLOOR_GUARD))
        if i < len(floors) and floors[i] < q:
            return False
        K = self.iota2d.shape[1]
        slack_q, w_max_q = self._cert(j)
        margin_q = 4.0 * K * _stop_tol(w_max_q)
        extra = ((q - s) * (q - s) / (8.0 * s) + margin_q
                 + PIECE_ROUNDING * K * (1.0 + q + w_max_q))
        slack_s, w_max_s = self._cert(j - 1)
        return (slack_s > 4.0 * K * _stop_tol(w_max_s) + extra
                and slack_q > margin_q + extra)

    def state(self, level: float) -> tuple:
        """Kernel (selection, power, rate) at ``level``, recorded.

        An exact hit and a level inside a certified piece are priced from
        the recorded selection; any other level is solved with the nearest
        recorded selection as the hint.
        """
        levels, selects, pieces = self._levels, self._selects, self._pieces
        j = bisect_left(levels, level)
        if j < len(levels) and levels[j] == level:
            return _slot_state(level, self.iota2d, self.cap, selects[j], True)[:3]
        hint = known = self._piece(j)
        if known is None and levels:
            lower = j == len(levels) or (j and level - levels[j - 1] < levels[j] - level)
            hint = selects[j - 1 if lower else j]
        select, power, rate, cert = _slot_state(level, self.iota2d, self.cap, hint,
                                                known is not None)
        if hint is not None and _same(select, hint):
            select = hint  # equal selections are stored once
        # a certified piece splits into certified halves, any other gap
        # into unchecked ones
        status = True if known is not None else None
        if j < len(levels):
            pieces[j] = status
        levels.insert(j, level)
        self._rates.insert(j, rate)
        selects.insert(j, select)
        pieces.insert(j, status)
        self._certs.insert(j, cert)
        return select, power, rate

    def limits(self, level: float) -> _SlotLimits:
        """One-sided limit assignments at ``level``, valued at ``level`` itself.

        The selections are the curve's at level*(1 -/+ eps), a relative
        perturbation (absolute floor guards level ~ 0) approximating the
        one-sided limits at a critical point; away from criticals both
        sides coincide.
        """
        power, rate = water_fill(level, self.iota2d)
        eps = max(abs(level) * LIMIT_REL_EPS, LIMIT_ABS_FLOOR)
        sides = []
        for side in (level - eps, level + eps):
            sel = self.state(side)[0].astype(bool)
            sides.append((sel, float(power[sel].sum()), float(rate[sel].sum())))
        (am, pm, rm), (ap, pp, rp) = sides
        return _SlotLimits(am, ap, pm, pp, rm, rp)

    def _w_max(self, level: float) -> float:
        """max|w| of the matching weights at ``level``: the entry with the
        smallest floor has the most negative weight."""
        i = self._iota_min
        return level * math.log(level / i) - (level - i) if level > i else 0.0

    def _slack(self, level: float) -> float:
        """Kernel suboptimality bound at ``level``, divided by ln 2."""
        return self._slack_scale * (1.0 + level + self._w_max(level))

    def cost_floor(self, level: float) -> float:
        """Lower bound on the exact minimum matching cost at ``level``: the
        kernel selection's cost ``power - ln2 * level * rate``, less the
        kernel's ``K * stop_tol`` and ``PIECE_ROUNDING`` per RB for the
        rounding of the weights and sums."""
        _, power, rate = self.state(level)
        K = self.iota2d.shape[1]
        w_max = self._w_max(level)
        return (power - LN2 * level * rate
                - K * (_stop_tol(w_max) + PIECE_ROUNDING * (1.0 + level + w_max)))

    def bounds(self, level: float) -> tuple:
        """(lower, upper) bounds on the kernel rate at ``level``: the
        recorded rate at an exact hit, the closed-form bracket of the
        piece's selection inside a certified piece, and otherwise the
        nearest recorded level on each side widened by the slack; -inf or
        inf where there is none.
        """
        levels, rates = self._levels, self._rates
        j = bisect_left(levels, level)
        if j < len(levels) and levels[j] == level:
            return rates[j], rates[j]
        select = self._piece(j)
        if select is not None:
            logs = self._logs.get(id(select))
            if logs is None:
                logs = self._logs[id(select)] = _SupportLogs(self.iota2d[select.astype(bool)])
            return logs.rate_bounds(level)
        own = self._slack(level)
        lo, hi = -math.inf, math.inf
        if j:
            s, r = levels[j - 1], rates[j - 1]
            lo = r - (own + self._slack(s)) / (level - s) - CURVE_EPS * (1.0 + r)
        if j < len(levels):
            s, r = levels[j], rates[j]
            hi = r + (own + self._slack(s)) / (s - level) + CURVE_EPS * (1.0 + r)
        return lo, hi

    def bracket(self, mu: float) -> tuple:
        """Bounds on :meth:`rate` at global level ``mu``."""
        cap = self.slot_cap
        if mu >= cap.level:
            return cap.rate_at_cap, cap.rate_at_cap
        return self.bounds(mu)

    def rate(self, mu: float) -> float:
        """Kernel rate at global level ``mu`` below the cap level, else the cap rate."""
        cap = self.slot_cap
        if mu >= cap.level:
            return cap.rate_at_cap
        return self.state(mu)[2]


@dataclass
class _SlotCap:
    level: float          # cap water level
    xi: float             # mixing that pins assigned power to the budget
    limits: _SlotLimits   # one-sided limits at the cap level
    rate_at_cap: float    # mixed rate with the slot pinned at its power cap


def solve_slot_cap(iota2d: np.ndarray, cap: int, power_cap: float) -> SlotCurve:
    """Find the slot's cap level: smallest level whose assigned power
    reaches the per-slot budget, with the mixing coefficient that lands on
    the budget exactly when the crossing happens at a matching switch.

    The bisection and the limits ask a new :class:`SlotCurve`, which is
    returned with ``power_cap`` and ``slot_cap`` set.
    """
    curve = SlotCurve(iota2d, cap)
    hi = float(iota2d.max()) + float(power_cap)  # assigned power >= hi - max(iota) there
    level = _bisect(float(iota2d.min()), hi, lambda mid: curve.state(mid)[1] >= power_cap)
    lim = curve.limits(level)
    gap = lim.p_plus - lim.p_minus
    if gap > POWER_REL_TOL * power_cap and lim.p_minus <= power_cap <= lim.p_plus:
        xi = (power_cap - lim.p_minus) / gap
    else:
        xi = 1.0
    rate_at_cap = (1.0 - xi) * lim.r_minus + xi * lim.r_plus
    curve.power_cap = power_cap
    curve.slot_cap = _SlotCap(level=level, xi=xi, limits=lim, rate_at_cap=rate_at_cap)
    return curve


def slot_curves(iota3d: np.ndarray, cap: int, power_cap: float) -> list:
    """One :func:`solve_slot_cap` curve per slot of ``iota3d`` (N, K, L)."""
    return [solve_slot_cap(iota3d[:, :, t], cap, power_cap) for t in range(iota3d.shape[2])]


def dual_bound(slots, mu: float, rate_target: float, power_cap: float) -> float:
    """Certified lower bound on the exact relaxed optimum of the interval
    whose slot curves are ``slots``: the Lagrangian dual at global level
    ``mu > 0``,

        D(mu) = ln2*mu*V + sum_t [(mu/l_t)*C_t(l_t) - (mu/l_t - 1)*P],

    with ``l_t = min(mu, cap level of slot t)`` and ``C_t`` the slot's
    :meth:`SlotCurve.cost_floor`, lowered by the rounding of the sum (see
    :mod:`aoiplan.timing`, whose pruning rests on it).
    """
    terms = [LN2 * mu * rate_target]
    size = terms[0]
    for slot in slots:
        level = min(mu, slot.slot_cap.level)
        ratio = mu / level
        cost = slot.cost_floor(level)
        terms.append(ratio * cost - (ratio - 1.0) * power_cap)
        size += ratio * (abs(cost) + power_cap)
    return seq_sum(terms) - 2.0 * (len(terms) + 8) * UNIT_ROUNDOFF * size


def _reaches(slots, mu: float, target: float) -> bool:
    """Whether the slots' summed float rate at ``mu`` reaches ``target``.

    Each slot is a :class:`SlotCurve` or a :class:`_FrozenSupport`.  Their
    ``bracket(mu)`` ends are added left to right until the sums settle the
    comparison; otherwise the slot with the widest bracket is asked for
    its ``rate(mu)`` and the sums retried.
    """
    brackets = [slot.bracket(mu) for slot in slots]
    while True:
        lo = hi = 0.0
        for low, high in brackets:
            lo += low
            hi += high
        if lo >= target:
            return True
        if hi < target:
            return False
        t = max(range(len(slots)), key=lambda s: brackets[s][1] - brackets[s][0])
        rate = slots[t].rate(mu)
        brackets[t] = (rate, rate)


# ----------------------------------------------------------------------
# Binary plan extraction: re-solve the water level on frozen supports
# ----------------------------------------------------------------------

def _support_cap_level(iotas: np.ndarray, power_cap: float) -> float:
    """Exact level where water-filling over a fixed support spends the budget."""
    s = np.sort(iotas)
    prefix = np.cumsum(s)
    for m in range(1, len(s) + 1):
        lvl = (power_cap + prefix[m - 1]) / m
        upper = s[m] if m < len(s) else math.inf
        if s[m - 1] <= lvl <= upper:
            return float(lvl)
    return float((power_cap + prefix[-1]) / len(s))


class _FrozenSupport:
    """Capped water-filling over one slot's frozen support: its floors'
    :class:`_SupportLogs` and the level where it spends the budget."""

    def __init__(self, iotas: np.ndarray, power_cap: float):
        self.logs = _SupportLogs(iotas)
        self.floors = self.logs.floors
        self.cap_level = _support_cap_level(self.floors, power_cap) if iotas.size else 0.0

    def bracket(self, mu: float) -> tuple:
        """Closed-form bounds on :meth:`rate` at global level ``mu``."""
        return self.logs.rate_bounds(min(mu, self.cap_level))

    def rate(self, mu: float) -> float:
        """Float rate at global level ``mu``: ``log2(level / iota)`` over
        the floors below the capped level, summed by numpy."""
        lvl = min(mu, self.cap_level)
        act = self.floors[self.floors < lvl]
        return float(np.log2(lvl / act).sum()) if act.size else 0.0


def _fixed_support_solve(supports, iota3d, rate_target, power_cap):
    """Min-energy capped water-filling with frozen per-slot supports.

    Returns (slot_levels, energy, rate) or None when the supports cannot
    carry the target under the per-slot power caps.  The bisection
    decides each step with :func:`_reaches`; the rate is the slots' float
    rates added slot after slot.
    """
    slots = [_FrozenSupport(iota3d[:, :, t][sup], power_cap) for t, sup in enumerate(supports)]
    cap_levels = np.array([slot.cap_level for slot in slots])
    hi = float(cap_levels.max(initial=0.0))
    if hi <= 0.0:
        return None
    if seq_sum(slot.rate(hi) for slot in slots) < rate_target * (1.0 - 1e-9):
        return None
    lo = float(min(slot.floors[0] for slot in slots if slot.floors.size))
    # upper bracket end guarantees rate >= target
    mu = _bisect(lo, hi, lambda mid: _reaches(slots, mid, rate_target))
    levels = np.minimum(mu, cap_levels)
    energy = seq_sum(float(np.maximum(0.0, level - slot.floors).sum())
                     for level, slot in zip(levels, slots))
    return levels, energy, seq_sum(slot.rate(mu) for slot in slots)


def _zero_solution(N, K, L):
    return InnerSolution(
        assignment=np.zeros((N, K, L), dtype=np.int8),
        power=np.zeros((N, K, L)),
        energy=0.0,
        binary_energy=0.0,
        expected_rate=0.0,
        slot_levels=np.zeros(L),
        mix=np.zeros(L),
        level=0.0,
    )


def solve_interval(spec: IntervalSpec, profile: ChannelProfile, slots=None):
    """Minimum-energy plan for one interval, or :class:`Infeasible`.

    The relaxed optimum (``energy``) is exact up to the bisection
    tolerances; the attached binary plan satisfies the rate target and the
    per-slot power caps by construction.  ``slots`` optionally supplies
    the interval's :class:`SlotCurve` per slot, built for ``spec``'s caps
    and shared with other intervals; fresh curves are built otherwise.
    """
    N, K, T = profile.dims
    if not spec.end <= T + 1:
        raise ValueError(f"interval [{spec.start}, {spec.end}) exceeds horizon {T}")
    L = spec.num_slots
    iota3d = profile.iota[:, :, spec.start - 1 : spec.end - 1]
    vbar = float(spec.rate_target)
    if vbar <= 0.0:
        return _zero_solution(N, K, L)

    if slots is None:
        slots = slot_curves(iota3d, spec.rb_cap, spec.power_cap)
    elif len(slots) != L or any(
            c.cap != spec.rb_cap or c.power_cap != spec.power_cap for c in slots):
        raise ValueError(f"slot curves do not match interval [{spec.start}, {spec.end})")
    caps = [c.slot_cap for c in slots]
    cap_levels = np.array([c.level for c in caps])
    max_rate = float(seq_sum(c.rate_at_cap for c in caps))
    if max_rate < vbar * (1.0 - 1e-12):
        return Infeasible(max_rate=max_rate)

    mu = _bisect(float(iota3d.min()), float(cap_levels.max()),
                 lambda mid: _reaches(slots, mid, vbar))

    # one-sided limits per slot at the final levels
    limits, xi_max = [], np.ones(L)
    for t in range(L):
        if mu >= cap_levels[t]:
            limits.append(caps[t].limits)
            xi_max[t] = caps[t].xi
        else:
            limits.append(slots[t].limits(mu))

    def mixed_rate(xi):
        total = 0.0
        for t in range(L):
            x = min(xi, xi_max[t])
            total += (1.0 - x) * limits[t].r_minus + x * limits[t].r_plus
        return total

    tol_r = RATE_REL_TOL * vbar
    if mixed_rate(0.0) >= vbar - tol_r:
        xi_star = 0.0
    elif (top := mixed_rate(1.0)) <= vbar:
        xi_star = 1.0
        if top < vbar - tol_r:
            # the relaxed energy would price a rate short of the target,
            # which the timing graph's pruning bound rules out
            raise BinaryRoundingError(
                f"both one-sided limits miss rate {vbar} at level {mu} on "
                f"interval [{spec.start}, {spec.end})")
    else:
        xi_star = _bisect(0.0, 1.0, lambda xi: mixed_rate(xi) >= vbar, rel=0.0, floor=1e-15)

    mix = np.minimum(xi_star, xi_max)
    energy_mixed = float(seq_sum(
        (1.0 - mix[t]) * limits[t].p_minus + mix[t] * limits[t].p_plus for t in range(L)))

    # binary plan: freeze a limit support per slot and re-solve the level
    plus = [lim.a_plus for lim in limits]
    minus = [lim.a_minus for lim in limits]
    # equal supports solve the same, and only a strictly lower energy
    # replaces the first, so the usual case of equal sides solves once
    candidates = [plus] if all(map(_same, plus, minus)) else [plus, minus]
    best = best_supports = None
    for supports in candidates:
        sol = _fixed_support_solve(supports, iota3d, vbar, spec.power_cap)
        if sol is not None and (best is None or sol[1] < best[1]):
            best = sol
            best_supports = supports
    if best is None:
        raise BinaryRoundingError(
            f"no limit support meets rate {vbar} within the power cap on "
            f"interval [{spec.start}, {spec.end})"
        )
    levels, binary_energy, binary_rate = best

    assignment = np.zeros((N, K, L), dtype=np.int8)
    power = np.zeros((N, K, L))
    for t in range(L):
        # drop support entries left dry by the re-leveling; an RB with zero
        # power is not occupied
        sup = best_supports[t] & (iota3d[:, :, t] < levels[t])
        assignment[:, :, t] = sup.astype(np.int8)
        power[:, :, t] = np.where(sup, levels[t] - iota3d[:, :, t], 0.0)

    return InnerSolution(
        assignment=assignment,
        power=power,
        energy=energy_mixed,
        binary_energy=float(binary_energy),
        expected_rate=float(binary_rate),
        slot_levels=levels,
        mix=mix,
        level=mu,
    )
