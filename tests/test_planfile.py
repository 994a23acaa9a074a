import json

import numpy as np
import pytest

from aoiplan import build_profile
from aoiplan.errors import PlanFormatError
from aoiplan.planfile import load_plan, save_plan, validate_plan_rates
from aoiplan.scenario import scenario_digest
from aoiplan.sim import age_aware_plan

from conftest import desk_scenario


@pytest.fixture()
def saved_plan(tmp_path):
    s = desk_scenario(3)
    prof = build_profile(s, 3)
    plan = age_aware_plan(s, prof, rb_cap=2)
    path = tmp_path / "plan.json"
    save_plan(plan, path, scenario_digest(s), s.power_budget_pbar, seed=3)
    return s, prof, plan, path


def test_roundtrip_preserves_plan(saved_plan):
    s, prof, plan, path = saved_plan
    back, header = load_plan(path)
    assert back.instants == plan.instants
    assert back.spent_energy == pytest.approx(plan.spent_energy, rel=1e-12)
    assert header["scenario_hash"] == scenario_digest(s)
    validate_plan_rates(back, prof)
    for leg, orig in zip(back.legs, plan.legs):
        assert np.array_equal(leg.assignment, orig.assignment)
        assert np.allclose(leg.power, orig.power, rtol=0, atol=0)


def _mutate(path, tmp_path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    out = tmp_path / "bad.json"
    out.write_text(json.dumps(doc))
    return out


def test_rejects_wrong_format_tag(saved_plan, tmp_path):
    *_, path = saved_plan
    bad = _mutate(path, tmp_path, lambda d: d.update(format="other"))
    with pytest.raises(PlanFormatError):
        load_plan(bad)
    bad.write_text("[1]")  # valid JSON, but not an object
    with pytest.raises(PlanFormatError, match="unrecognized plan format None"):
        load_plan(bad)


def test_rejects_gap_beyond_bound(saved_plan, tmp_path):
    *_, path = saved_plan

    def widen(doc):
        doc["legs"] = [{
            "start": 1, "end": doc["horizon"] + 1,
            "target": 1.0, "feasible": True, "entries": [],
        }]
        doc["instants"] = [1]

    bad = _mutate(path, tmp_path, widen)
    with pytest.raises(PlanFormatError) as err:
        load_plan(bad)
    assert "freshness" in str(err.value)


def test_rejects_duplicate_entry(saved_plan, tmp_path):
    *_, path = saved_plan

    def dup(doc):
        entries = doc["legs"][0]["entries"]
        entries.append(list(entries[0]))

    bad = _mutate(path, tmp_path, dup)
    with pytest.raises(PlanFormatError):
        load_plan(bad)


def test_rejects_power_above_budget(saved_plan, tmp_path):
    *_, path = saved_plan

    def pump(doc):
        doc["legs"][0]["entries"][0][3] = doc["power_budget"] * 10.0

    bad = _mutate(path, tmp_path, pump)
    with pytest.raises(PlanFormatError):
        load_plan(bad)


def test_rejects_rb_conflict(saved_plan, tmp_path):
    s, *_ , path = saved_plan

    def conflict(doc):
        leg = doc["legs"][0]
        n1, k1, t1, p1 = leg["entries"][0]
        other_n = 1 if n1 == 2 else 2
        leg["entries"].append([other_n, k1, t1, p1 * 1e-6])

    bad = _mutate(path, tmp_path, conflict)
    with pytest.raises(PlanFormatError):
        load_plan(bad)


@pytest.mark.parametrize("breakage", ["short entry", "missing end", "legs not a list"])
def test_rejects_missing_or_short_leg_fields(saved_plan, tmp_path, breakage):
    *_, path = saved_plan

    def damage(doc):
        if breakage == "short entry":
            doc["legs"][0]["entries"] = [[1, 1]]
        elif breakage == "missing end":
            del doc["legs"][0]["end"]
        else:
            doc["legs"] = 5

    bad = _mutate(path, tmp_path, damage)
    with pytest.raises(PlanFormatError):
        load_plan(bad)


@pytest.mark.parametrize("field", ["horizon", "aoi_bound", "dims", "start", "entries"])
def test_rejects_integers_that_overflow(saved_plan, tmp_path, field):
    """JSON reads 1e400 as inf, which no integer field can take."""
    *_, path = saved_plan

    def overflow(doc):
        if field in ("horizon", "aoi_bound"):
            doc[field] = "INF"
        elif field == "dims":
            doc["dims"][0] = "INF"
        elif field == "start":
            doc["legs"][0]["start"] = "INF"
        else:
            doc["legs"][0]["entries"][0][0] = "INF"

    bad = _mutate(path, tmp_path, overflow)
    bad.write_text(bad.read_text().replace('"INF"', "1e400"))
    with pytest.raises(PlanFormatError, match=f"field '{field}' .*OverflowError"):
        load_plan(bad)


@pytest.mark.parametrize("budget", [float("nan"), float("inf")])
def test_rejects_a_power_budget_that_is_not_finite(saved_plan, tmp_path, budget):
    """A NaN budget would switch off the per-slot power check."""
    *_, path = saved_plan

    def unbound(doc):
        doc["power_budget"] = budget
        for leg in doc["legs"]:
            for rec in leg["entries"]:
                rec[3] *= 1000.0

    with pytest.raises(PlanFormatError, match="power_budget"):
        load_plan(_mutate(path, tmp_path, unbound))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_rejects_a_delivery_threshold_that_is_not_finite(saved_plan, tmp_path, value):
    *_, path = saved_plan
    bad = _mutate(path, tmp_path, lambda d: d.update(delivery_threshold=value))
    with pytest.raises(PlanFormatError, match="delivery_threshold"):
        load_plan(bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_rejects_a_leg_target_that_is_not_finite(saved_plan, tmp_path, value):
    *_, path = saved_plan
    bad = _mutate(path, tmp_path, lambda d: d["legs"][0].update(target=value))
    with pytest.raises(PlanFormatError, match="plan leg 1 target"):
        load_plan(bad)


def test_rejects_a_nan_entry_power(saved_plan, tmp_path):
    """NaN passes both ``p <= 0`` and the budget comparison."""
    *_, path = saved_plan

    def poison(doc):
        doc["legs"][0]["entries"][0][3] = float("nan")

    with pytest.raises(PlanFormatError, match="power outside"):
        load_plan(_mutate(path, tmp_path, poison))


def test_rejects_an_empty_horizon(saved_plan, tmp_path):
    *_, path = saved_plan
    bad = _mutate(path, tmp_path, lambda d: d.update(horizon=0, legs=[], instants=[]))
    with pytest.raises(PlanFormatError, match="horizon must be >= 1"):
        load_plan(bad)


def test_rejects_unknown_success_mode(saved_plan, tmp_path):
    *_, path = saved_plan
    bad = _mutate(path, tmp_path, lambda d: d.update(success_mode="foo"))
    with pytest.raises(PlanFormatError, match="success_mode 'foo'"):
        load_plan(bad)


def test_rate_validation_catches_power_cut(saved_plan, tmp_path):
    s, prof, _, path = saved_plan

    def halve(doc):
        for leg in doc["legs"]:
            for rec in leg["entries"]:
                rec[3] *= 0.01

    bad = _mutate(path, tmp_path, halve)
    plan, _ = load_plan(bad)
    with pytest.raises(PlanFormatError):
        validate_plan_rates(plan, prof)


def test_rate_validation_rejects_a_profile_of_another_horizon(saved_plan):
    s, _, _, path = saved_plan
    plan, _ = load_plan(path)
    longer = desk_scenario(3, T=s.horizon_T + 2)
    with pytest.raises(PlanFormatError, match=r"\(2, 3, 8\) differ .* \(2, 3, 10\)"):
        validate_plan_rates(plan, build_profile(longer, 3))
