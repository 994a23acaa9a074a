import json
import math

import numpy as np
import pytest

from aoiplan.cli import main
from aoiplan.errors import ScenarioParseError, ScenarioValidationError
from aoiplan.scenario import (
    Scenario,
    dbm_to_linear_mw,
    default_patrol_scenario,
    linear_mw_to_dbm,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_digest,
    scenario_to_dict,
)

from conftest import desk_scenario


def test_default_patrol_altitude_and_speed():
    s = default_patrol_scenario(1)
    traj = s.trajectory_array()
    assert np.all(traj[:, 2] == 50.0)
    steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    # 6 m/s at 1 s slots; chord vs arc shortens the step by < 1 cm
    assert np.all(np.abs(steps - 6.0) < 0.01)


def test_default_patrol_deterministic():
    assert default_patrol_scenario(1) == default_patrol_scenario(1)
    assert default_patrol_scenario(1) != default_patrol_scenario(2)


def test_table1_constants():
    s = default_patrol_scenario(0)
    assert s.carrier_freq_ghz == 3.0
    # -90 dBm noise converts to 1e-12 W = 1e-9 mW
    assert s.noise_power_delta2 == pytest.approx(1e-9, rel=1e-12)
    assert s.shadowing_corr_dist_m == 5.0
    assert s.shadowing_sigma_db == pytest.approx(math.sqrt(8.0))
    assert s.kappa_range == (1.0, 30.0)
    assert (s.num_bs_N, s.num_rb_K, s.aoi_bound_tau, s.horizon_T) == (5, 16, 4, 60)
    assert s.payload_threshold_vbar == 24.0
    assert s.power_budget_pbar == dbm_to_linear_mw(23.0)
    # digests of the preset as recorded; any drift changes every plan header
    assert scenario_digest(default_patrol_scenario(1)) == "a5a2a31d1d191441"
    assert scenario_digest(default_patrol_scenario(1, horizon=5)) == "acd8b2d6a956f276"


def test_dbm_roundtrip_exact():
    for x in (-90.0, 0.0, 23.0, 17.3):
        lin = dbm_to_linear_mw(x)
        assert abs(linear_mw_to_dbm(lin) - x) <= 1e-12 * max(1.0, abs(x))
    for mw in (1e-9, 1.0, 199.5262315):
        back = dbm_to_linear_mw(linear_mw_to_dbm(mw))
        assert abs(back - mw) <= 1e-12 * mw


def test_save_load_roundtrip(tmp_path):
    s = desk_scenario(11)
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert load_scenario(path) == s


def test_load_accepts_dbm_keys(tmp_path):
    s = desk_scenario(5)
    doc = scenario_to_dict(s)
    doc["power_budget_dbm"] = linear_mw_to_dbm(doc.pop("power_budget_pbar"))
    doc["noise_power_dbm"] = linear_mw_to_dbm(doc.pop("noise_power_delta2"))
    loaded = parse_scenario(json.dumps(doc))
    assert loaded.power_budget_pbar == pytest.approx(s.power_budget_pbar, rel=1e-12)
    assert loaded.noise_power_delta2 == pytest.approx(s.noise_power_delta2, rel=1e-12)


def test_validation_rejects_zero_aoi_bound():
    with pytest.raises(ScenarioValidationError) as err:
        desk_scenario(1, tau=0)
    assert "aoi_bound_tau" in str(err.value)


def test_validation_rejects_trajectory_length_mismatch():
    s = desk_scenario(1)
    doc = scenario_to_dict(s)
    doc["uav_trajectory"] = doc["uav_trajectory"][:-1]
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert "uav_trajectory" in str(err.value)


def test_validation_collects_all_violations():
    with pytest.raises(ScenarioValidationError) as err:
        Scenario(
            horizon_T=4, num_bs_N=1, num_rb_K=1, aoi_bound_tau=9,
            payload_threshold_vbar=-1.0, power_budget_pbar=0.0,
            noise_power_delta2=1e-9,
            uav_trajectory=tuple((0.0, 0.0, 50.0) for _ in range(4)),
            bs_positions=((0.0, 0.0, 0.0),),
            carrier_freq_ghz=3.0, shadowing_sigma_db=0.0,
            shadowing_corr_dist_m=5.0, kappa_range=(1.0, 30.0), master_seed=0,
        )
    msg = str(err.value)
    assert "aoi_bound_tau" in msg and "payload_threshold_vbar" in msg
    assert "power_budget_pbar" in msg
    assert len(err.value.violations) >= 3


def _drop_a_bs(doc):
    doc["bs_positions"] = doc["bs_positions"][:-1]


@pytest.mark.parametrize("name,damage,error,words", [
    ("bs_positions length", _drop_a_bs, ScenarioValidationError,
     "bs_positions length 1 does not match num_bs_N 2"),
    ("pair for a point", lambda d: d["uav_trajectory"].__setitem__(0, [0.0, 0.0]),
     ScenarioValidationError, "uav_trajectory[0] must be an (x, y, z) triple"),
    ("kappa_range not a pair", lambda d: d.update(kappa_range=[1.0]),
     ScenarioValidationError, "kappa_range must be a (low, high) pair"),
    ("not an object", None, ScenarioParseError, "must be a JSON object"),
])
def test_malformed_documents_are_typed_errors(tmp_path, capsys, name, damage, error, words):
    doc = scenario_to_dict(desk_scenario(2))
    if damage is None:
        doc = [doc]
    else:
        damage(doc)
    text = json.dumps(doc)
    with pytest.raises(error) as err:
        parse_scenario(text)
    assert words in str(err.value)
    scen = tmp_path / "s.json"
    scen.write_text(text)
    capsys.readouterr()
    assert main(["generate", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert words in capsys.readouterr().err


def test_parse_errors_name_offending_keys():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps({"horizon_T": 4}))
    assert "num_bs_N" in str(err.value)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps({"bogus_key": 1}))
    assert "bogus_key" in str(err.value)
    with pytest.raises(ScenarioParseError):
        parse_scenario("{not json")


def test_undecodable_scenario_files_are_parse_errors(tmp_path, capsys):
    """A file that is not UTF-8, and a JSON integer too long for ``int``
    (over 4,300 digits), raise :class:`ScenarioParseError` naming the file,
    and ``generate`` exits 2 on either."""
    text = json.dumps(scenario_to_dict(desk_scenario(2)))
    binary, huge = tmp_path / "binary.json", tmp_path / "huge.json"
    binary.write_bytes(b"\xff" + text.encode())
    huge.write_text(text.replace("{", '{"master_seed": 1' + "0" * 5000 + ", ", 1))
    for path, words in ((binary, "utf-8"), (huge, "4300")):
        with pytest.raises(ScenarioParseError, match=words) as err:
            load_scenario(path)
        assert str(path) in str(err.value)
        capsys.readouterr()
        assert main(["generate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_power_keys_mutually_exclusive():
    s = desk_scenario(2)
    doc = scenario_to_dict(s)
    doc["power_budget_dbm"] = 20.0
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    assert "power_budget" in str(err.value)


def test_negative_altitude_rejected():
    s = desk_scenario(2)
    doc = scenario_to_dict(s)
    doc["bs_positions"][0][2] = -1.0
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert "altitude" in str(err.value)


def test_coordinates_must_be_finite_numbers(tmp_path, capsys):
    # before this check a NaN x passed validation and build_profile blamed kappa_range
    s = desk_scenario(2)
    scen = tmp_path / "s.json"
    for key, i, axis, value in (("bs_positions", 1, 0, math.nan),
                                ("uav_trajectory", 3, 1, math.inf),
                                ("uav_trajectory", 0, 2, -math.inf)):
        doc = scenario_to_dict(s)
        doc[key][i][axis] = value  # written as the JSON tokens NaN / Infinity
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert [f"{key}[{i}] coordinates" in m for m in err.value.violations] == [True]
        scen.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["generate", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert f"{key}[{i}] coordinates must be finite numbers" in capsys.readouterr().err
    with pytest.raises(ScenarioValidationError) as err:
        Scenario(**{**vars(s), "bs_positions": ((0.0, "1", 0.0), (1.0, 2.0, 0.0))})
    assert "bs_positions[0] coordinates must be finite numbers" in str(err.value)


def test_numbers_beyond_float_range_exit_2(tmp_path, capsys):
    """A dBm power whose linear value overflows, or a float field written
    as an integer beyond float range, is a typed error naming the key."""
    scen = tmp_path / "s.json"
    for key, value in (("power_budget_dbm", "4000"), ("noise_power_dbm", "4000"),
                       ("carrier_freq_ghz", "1" + "0" * 400),
                       ("payload_threshold_vbar", "1" + "0" * 400)):
        doc = scenario_to_dict(desk_scenario(2))
        doc.pop({"power_budget_dbm": "power_budget_pbar",
                 "noise_power_dbm": "noise_power_delta2"}.get(key, key))
        doc[key] = "VALUE"
        scen.write_text(json.dumps(doc).replace('"VALUE"', value))
        capsys.readouterr()
        assert main(["generate", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kappa_floor_enforced():
    with pytest.raises(ScenarioValidationError) as err:
        desk_scenario(1, kappa_range=(0.0, 30.0))
    assert "kappa_range" in str(err.value)


def test_scenario_is_immutable():
    s = desk_scenario(1)
    with pytest.raises(AttributeError):
        s.horizon_T = 99
