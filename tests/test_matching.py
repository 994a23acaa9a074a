import numpy as np
import pytest

import aoiplan.inner as inner
import aoiplan.matching as matching
from aoiplan.inner import SlotCurve, assignment_weights
from aoiplan.matching import (AssignmentProblem, _certificate, _repaired, _ssp, _stop_tol,
                              min_cost_b_matching)
from aoiplan.oracle import oracle_matching
from aoiplan.timing import build_graph

from conftest import synthetic_profile


def _certified(w, cap, hint, extra=0.0):
    """Whether ``hint``'s slack clears the certificate's margin plus ``extra``."""
    margin = 4.0 * w.shape[1] * _stop_tol(float(np.abs(w).max()))
    return _certificate(w, cap, hint)[0] > margin + extra


def _assert_feasible(assignment, cap):
    sel = assignment.select
    assert set(np.unique(sel)) <= {0, 1}
    assert sel.sum(axis=0).max(initial=0) <= 1          # one BS per RB
    assert sel.sum(axis=1).max(initial=0) <= cap        # load cap per BS


def test_all_positive_weights_empty():
    prob = AssignmentProblem(np.array([[1.0, 2.0], [3.0, 0.5]]), 1)
    out = min_cost_b_matching(prob)
    assert out.select.sum() == 0
    assert out.total_weight == 0.0


def test_single_negative_entry():
    w = np.zeros((2, 2))
    w[0, 0] = -2.0
    out = min_cost_b_matching(AssignmentProblem(w, 1))
    assert out.select[0, 0] == 1
    assert out.select.sum() == 1
    assert out.total_weight == -2.0


def test_zero_weight_edges_never_selected():
    out = min_cost_b_matching(AssignmentProblem(np.zeros((3, 3)), 2))
    assert out.select.sum() == 0


def test_capacity_forces_column_split():
    # both columns prefer row 0, but the cap pushes one to row 1
    w = np.array([[-5.0, -4.0], [-1.0, -3.0]])
    out = min_cost_b_matching(AssignmentProblem(w, 1))
    _assert_feasible(out, 1)
    assert out.total_weight == pytest.approx(-8.0)  # (0,0) + (1,1)
    assert out.select[0, 0] == 1 and out.select[1, 1] == 1


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(20)
    for trial in range(200):
        w = rng.normal(0.0, 1.0, size=(3, 4))
        cap = int(rng.integers(1, 3))
        prob = AssignmentProblem(w, cap)
        ours = min_cost_b_matching(prob)
        ref = oracle_matching(prob)
        _assert_feasible(ours, cap)
        assert ours.total_weight == pytest.approx(ref.total_weight, abs=1e-9), trial
        # reported total equals the dot product of the selection
        recomputed = float(np.sum(w[ours.select.astype(bool)]))
        assert abs(ours.total_weight - recomputed) <= 1e-12 * max(1.0, abs(recomputed))


def test_matches_enumeration_under_heavy_conflicts():
    rng = np.random.default_rng(21)
    for trial in range(200):
        w = rng.normal(-2.0, 0.08, size=(3, 4))
        prob = AssignmentProblem(w, 1)
        ours = min_cost_b_matching(prob)
        ref = oracle_matching(prob)
        assert ours.total_weight == pytest.approx(ref.total_weight, abs=1e-9), trial


def test_integral_optimum_equals_lp_relaxation():
    # the constraint matrix is totally unimodular, so the binary optimum
    # must attain the relaxed LP value; scipy's LP solver is the
    # independent reference here
    from scipy.optimize import linprog

    rng = np.random.default_rng(29)
    for trial in range(60):
        N, K = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        cap = int(rng.integers(1, 4))
        w = rng.normal(-0.5, 1.0, size=(N, K))
        ours = min_cost_b_matching(AssignmentProblem(w, cap))
        a_ub, b_ub = [], []
        for n in range(N):  # row load caps
            row = np.zeros(N * K)
            row[n * K:(n + 1) * K] = 1.0
            a_ub.append(row)
            b_ub.append(cap)
        for k in range(K):  # one BS per RB
            row = np.zeros(N * K)
            row[k::K] = 1.0
            a_ub.append(row)
            b_ub.append(1.0)
        res = linprog(w.reshape(-1), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                      bounds=(0.0, 1.0), method="highs")
        assert res.success
        assert ours.total_weight == pytest.approx(res.fun, abs=1e-8), trial


def test_objective_monotone_in_capacity():
    rng = np.random.default_rng(22)
    for _ in range(50):
        w = rng.normal(-0.5, 1.0, size=(3, 4))
        vals = [
            min_cost_b_matching(AssignmentProblem(w, cap)).total_weight
            for cap in (1, 2, 3, 4)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_deterministic_output():
    rng = np.random.default_rng(23)
    w = rng.normal(-1.0, 1.0, size=(3, 4))
    a = min_cost_b_matching(AssignmentProblem(w, 1))
    b = min_cost_b_matching(AssignmentProblem(w, 1))
    assert np.array_equal(a.select, b.select)
    assert a.total_weight == b.total_weight


def test_rejects_bad_problems():
    with pytest.raises(ValueError):
        AssignmentProblem(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        AssignmentProblem(np.array([[np.inf, 0.0]]), 1)
    with pytest.raises(ValueError):
        AssignmentProblem(np.zeros(3), 1)
    with pytest.raises(ValueError):
        AssignmentProblem(np.array([[np.nan, -1.0]]), 1)


def test_trusted_problems_skip_only_the_checks():
    """The solver's own matrices skip validation; outside callers keep it,
    and both carry the fields the kernel and tracing read."""
    w = assignment_weights(2.0, np.array([[0.5, 1.0, 3.0], [0.7, 0.2, 1.5]]))
    trusted = AssignmentProblem.trusted(w, 1)
    checked = AssignmentProblem(w, 1)
    assert trusted.weights is w and trusted.bs_capacity == 1
    a, b = min_cost_b_matching(trusted), min_cost_b_matching(checked)
    assert np.array_equal(a.select, b.select) and a.total_weight == b.total_weight
    with pytest.raises(ValueError):
        AssignmentProblem(w.ravel(), 1)


# ---------------------------------------------------------------- limit assignments

def test_limits_below_activation_are_empty():
    iota = np.array([[2.0, 3.0], [4.0, 5.0]])
    lim = SlotCurve(iota, 1).limits(1.0)
    assert lim.a_minus.sum() == 0 and lim.a_plus.sum() == 0


def test_limits_coincide_away_from_critical():
    iota = np.array([[1.0, 3.0], [2.5, 9.0]])
    lim = SlotCurve(iota, 1).limits(2.0)
    assert np.array_equal(lim.a_minus, lim.a_plus)
    assert lim.a_minus[0, 0] == 1


def test_limits_split_at_constructed_tie():
    # single cheap RB vs. a pair of slightly worse RBs; the optimal pick
    # switches as the level grows, and at the switch both attain the same
    # objective
    iota = np.array([[1.0, 1.25], [1.21, 50.0]])
    cap = 1

    def weights(level):
        return assignment_weights(level, iota)

    def gap(level):
        single = weights(level)[0, 0]
        pair = weights(level)[0, 1] + weights(level)[1, 0]
        return pair - single

    lo, hi = 1.3, 3.0
    assert gap(lo) > 0 and gap(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    critical = 0.5 * (lo + hi)

    lim = SlotCurve(iota, cap).limits(critical)
    assert not np.array_equal(lim.a_minus, lim.a_plus)
    assert lim.a_minus.sum() == 1 and lim.a_plus.sum() == 2
    w_at = weights(critical)
    obj_minus = float(np.sum(w_at[lim.a_minus]))
    obj_plus = float(np.sum(w_at[lim.a_plus]))
    assert obj_minus == pytest.approx(obj_plus, abs=1e-9)


# ---------------------------------------------------------------- warm-start hints

def _assert_same_as_cold(prob, hint):
    cold = min_cost_b_matching(prob)
    warm = min_cost_b_matching(prob, hint=hint)
    assert warm.select.dtype == cold.select.dtype
    assert np.array_equal(warm.select, cold.select)
    assert warm.total_weight == cold.total_weight


def _candidate_hints(rng, answer, neighbour, cap):
    N, K = answer.shape
    over = np.zeros((N, K), dtype=np.int8)
    over[0, : min(K, cap + 1)] = 1
    shared = answer.copy()
    shared[:, int(rng.integers(K))] = 1            # duplicated column
    positive = answer.copy()
    positive[N - 1, K - 1] = 1                     # usually a non-negative or shared entry
    return [answer, neighbour, np.zeros((N, K), dtype=np.int8),
            (rng.random((N, K)) < 0.3).astype(np.int8), over, shared, positive]


def _random_level_slot(rng):
    """Random floors, some with duplicated rows or columns (exact ties)."""
    N, K = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    iota = rng.uniform(0.2, 2.0, size=(N, K))
    if N > 1 and rng.random() < 0.3:
        iota[1] = iota[0]
    if K > 1 and rng.random() < 0.3:
        iota[:, 1] = iota[:, 0]
    return iota, int(rng.integers(1, 4))


def test_hint_never_changes_the_result():
    rng = np.random.default_rng(31)
    accepted = 0
    for trial in range(300):
        iota, cap = _random_level_slot(rng)
        level = float(rng.uniform(0.5, 3.0))
        w = assignment_weights(level, iota)
        if rng.random() < 0.3:  # entries within +-1e-13 of zero
            mask = rng.random(w.shape) < 0.3
            w = np.where(mask, rng.uniform(-1e-13, 1e-13, size=w.shape), w)
        prob = AssignmentProblem(w, cap)
        answer = min_cost_b_matching(prob).select
        near = assignment_weights(level * (1.0 + float(rng.uniform(-1e-3, 1e-3))), iota)
        neighbour = min_cost_b_matching(AssignmentProblem(near, cap)).select
        for hint in _candidate_hints(rng, answer, neighbour, cap):
            _assert_same_as_cold(prob, hint)
        accepted += _certified(w, cap, answer)
    assert accepted >= 150  # 227 of 300 at this seed: the certificate does not refuse wholesale


def test_hint_refused_unless_feasible_and_strictly_negative():
    w = np.array([[-3.0, -1.0, 0.0], [-2.0, -2.5, -1.0]])
    best = min_cost_b_matching(AssignmentProblem(w, 1)).select
    assert _certified(w, 1, best)
    over = best.copy()
    over[1] = [0, 1, 1]                            # row 1 above its cap
    shared = best.copy()
    shared[:, 0] = 1                               # column 0 given twice
    zero = best.copy()
    zero[0] = [0, 0, 1]                            # a zero-weight entry
    for bad in (over, shared, zero, best[:, :2], 2 * best):
        assert not _certified(w, 1, bad)
    assert not _certified(w, 1, np.zeros_like(best))  # not optimal


def test_hint_refused_on_exact_ties():
    w = np.array([[-2.0, -2.0], [-2.0, -2.0], [-1.0, -3.0]])
    answer = min_cost_b_matching(AssignmentProblem(w, 1)).select
    assert not _certified(w, 1, answer)            # row 0 and row 1 swap for free
    _assert_same_as_cold(AssignmentProblem(w, 1), answer[[1, 0, 2]])


def test_near_tie_slot_hints_yield_cold_answers():
    """A slot whose kernel flips between two matchings over a 4e-10
    relative band of levels: every hint must give the cold answer."""
    iota = synthetic_profile(100, N=3, K=4, L=3).iota[:, :, 1]
    c = 0.1306607475
    levels = np.linspace(c * (1.0 - 2e-10), c * (1.0 + 2e-10), 1001)
    probs = [AssignmentProblem(assignment_weights(x, iota), 1) for x in levels]
    colds = [min_cost_b_matching(p).select for p in probs]
    distinct = {s.tobytes(): s for s in colds}
    flips = sum(not np.array_equal(a, b) for a, b in zip(colds, colds[1:]))
    assert len(distinct) == 2 and flips >= 20
    for prob in probs:
        for hint in distinct.values():
            _assert_same_as_cold(prob, hint)


def test_warm_starts_skip_most_flow_solves(small_scenario, small_profile, monkeypatch):
    # probes priced inside certified pieces skip the flow solve too
    counts = {"matchings": 0, "ssp": 0, "priced": 0}
    kernel, ssp, state = inner.min_cost_b_matching, matching._ssp, inner._slot_state

    def counting_kernel(*args, **kwargs):
        counts["matchings"] += 1
        return kernel(*args, **kwargs)

    def counting_ssp(*args):
        counts["ssp"] += 1
        return ssp(*args)

    def counting_state(*args):
        counts["priced"] += len(args) > 4 and args[4]
        return state(*args)

    monkeypatch.setattr(inner, "min_cost_b_matching", counting_kernel)
    monkeypatch.setattr(matching, "_ssp", counting_ssp)
    monkeypatch.setattr(inner, "_slot_state", counting_state)
    seen = []
    for _ in range(2):
        counts.update(matchings=0, ssp=0, priced=0)
        build_graph(small_scenario, small_profile, rb_cap=1)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert 0 < seen[0]["ssp"] * 10 < seen[0]["matchings"] + seen[0]["priced"]


# ---------------------------------------------------------------- hint repair

def _wide_random_slot(rng):
    """N 1-6, K 1-16, cap 1-4; some slots repeat a row or a column."""
    N, K = int(rng.integers(1, 7)), int(rng.integers(1, 17))
    iota = rng.uniform(0.2, 2.0, size=(N, K))
    if N > 1 and rng.random() < 0.3:
        iota[1] = iota[0]
    if K > 1 and rng.random() < 0.3:
        iota[:, 1] = iota[:, 0]
    return iota, int(rng.integers(1, 5))


def _random_feasible(rng, w, cap):
    """A random selection of negative entries, one station per RB and at
    most ``cap`` RBs per station."""
    N, K = w.shape
    select = np.zeros((N, K), dtype=np.int8)
    load = [0] * N
    for k in rng.permutation(K).tolist():
        n = int(rng.integers(N))
        if w[n, k] < 0.0 and load[n] < cap and rng.random() < 0.7:
            select[n, k] = 1
            load[n] += 1
    return select


def test_trimmed_and_repaired_hints_equal_cold_ssp(monkeypatch):
    """Whatever hint the repair starts from (a neighbour level's answer,
    answers holding entries inactive at this level, random feasible
    selections), a selection it returns is the flow solver's, with the
    certificate's slack and max|w|, and the kernel's result is the cold one."""
    cancels = {"cycles": 0}
    cancel = matching._cancel

    def counting_cancel(*args):
        cancels["cycles"] += 1
        return cancel(*args)

    monkeypatch.setattr(matching, "_cancel", counting_cancel)
    rng = np.random.default_rng(53)
    trimmed = cycled = 0
    for trial in range(300):
        iota, cap = _wide_random_slot(rng)
        level = float(rng.uniform(0.5, 3.0))
        w = assignment_weights(level, iota)
        if rng.random() < 0.3:  # entries within +-1e-13 of zero
            mask = rng.random(w.shape) < 0.3
            w = np.where(mask, rng.uniform(-1e-13, 1e-13, size=w.shape), w)
        cold = _ssp(w, cap)
        neighbour = _ssp(assignment_weights(level * float(rng.uniform(0.97, 1.03)), iota), cap)
        higher = _ssp(assignment_weights(level * 1.5, iota), cap)  # floors above level
        padded = np.where(w >= 0.0, 1, cold).astype(np.int8)     # plus every inactive entry
        hints = [neighbour, higher, padded] + [_random_feasible(rng, w, cap) for _ in range(3)]
        for hint in hints:
            before = cancels["cycles"]
            select, cert = _repaired(w, cap, hint)
            if select is not None:
                assert np.array_equal(select, cold), trial
                assert cert == (_certificate(w, cap, select)[0], float(np.abs(w).max()))
                trimmed += bool(((hint != 0) & (w >= 0.0)).any())
                cycled += cancels["cycles"] > before
            _assert_same_as_cold(AssignmentProblem(w, cap), hint)
    assert trimmed >= 150 and cycled >= 150


def test_repairs_leave_few_flow_solves_on_the_table1_graph(monkeypatch):
    """The cap-4 ``table1`` graph: refused hints are repaired, so the flow
    solver runs little more than once per slot (its unhinted first probe),
    and the counts repeat exactly.  The build solves its 57 maximal edges
    and their dual bounds, 1,639 matchings (2,670 when every edge was
    solved)."""
    from aoiplan import build_profile
    from aoiplan.scenario import default_patrol_scenario

    counts = {"matchings": 0, "ssp": 0}
    kernel, ssp = inner.min_cost_b_matching, matching._ssp

    def counting_kernel(*args, **kwargs):
        counts["matchings"] += 1
        return kernel(*args, **kwargs)

    def counting_ssp(*args):
        counts["ssp"] += 1
        return ssp(*args)

    monkeypatch.setattr(inner, "min_cost_b_matching", counting_kernel)
    monkeypatch.setattr(matching, "_ssp", counting_ssp)
    scenario = default_patrol_scenario(1)
    profile = build_profile(scenario, 1)
    seen = []
    for _ in range(2):
        counts.update(matchings=0, ssp=0)
        build_graph(scenario, profile, rb_cap=4)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["matchings"] == 1639
    assert 0 < seen[0]["ssp"] <= 100
