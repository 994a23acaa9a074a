import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from aoiplan import build_profile, pareto
from aoiplan.channel import save_profile
from aoiplan.cli import _build_parser, main
from aoiplan.scenario import load_scenario, save_scenario, scenario_digest
from aoiplan.timing import build_full_graph, build_graph, export_graph_csv, shortest_path

from conftest import desk_scenario

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


@pytest.fixture()
def desk_files(tmp_path):
    s = desk_scenario(3)
    prof = build_profile(s, 3)
    scen = tmp_path / "scenario.json"
    profp = tmp_path / "profile.npz"
    save_scenario(s, scen)
    save_profile(prof, profp)
    return s, prof, str(scen), str(profp)


# ---------------------------------------------------------------- generate

def test_generate_deterministic(tmp_path, desk_files):
    _, _, scen, _ = desk_files
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--scenario", scen, "--seed", "4", "--out", str(out1)]) == 0
    assert main(["generate", "--scenario", scen, "--seed", "4", "--out", str(out2)]) == 0
    assert (out1 / "scenario.json").read_bytes() == (out2 / "scenario.json").read_bytes()
    with np.load(out1 / "profile.npz") as a, np.load(out2 / "profile.npz") as b:
        assert np.array_equal(a["gain"], b["gain"])


def test_generate_table1_preset(tmp_path):
    out = tmp_path / "t1"
    assert main(["generate", "--preset", "table1", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "scenario.json").read_text())
    assert doc["carrier_freq_ghz"] == 3.0
    assert doc["noise_power_delta2"] == pytest.approx(1e-9)
    assert doc["shadowing_corr_dist_m"] == 5.0
    assert doc["kappa_range"] == [1.0, 30.0]


def test_generate_shapes_too_low_is_validation_error(tmp_path, capsys):
    scen = tmp_path / "s.json"
    save_scenario(desk_scenario(3, kappa_range=(1e-3, 1e-3)), scen)
    assert main(["generate", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert "kappa_range" in capsys.readouterr().err


def test_generate_validation_error_writes_nothing(tmp_path, capsys):
    scen = tmp_path / "s.json"
    save_scenario(desk_scenario(3, kappa_range=(1e-3, 1e-3)), scen)
    out = tmp_path / "out"
    assert main(["generate", "--scenario", str(scen), "--out", str(out)]) == 2
    assert not out.exists()
    save_scenario(desk_scenario(3), scen)
    capsys.readouterr()
    assert main(["generate", "--preset", "table1", "--scenario", str(scen),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--preset" in err and "--scenario" in err
    assert not out.exists()


def test_generate_missing_dir_is_io_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["generate", "--seed", "1", "--out", str(missing)]) == 4


def test_infinite_power_budget_is_validation_error(tmp_path, capsys):
    scen = tmp_path / "s.json"
    save_scenario(desk_scenario(3), scen)
    doc = json.loads(scen.read_text())
    doc["power_budget_pbar"] = float("inf")  # written as the JSON token Infinity
    scen.write_text(json.dumps(doc))
    assert main(["generate", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert "power_budget_pbar" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["plan", "--scenario", str(scen), "--seed", "1", "--epsilon-theta", "2"]) == 2
    assert "power_budget_pbar" in capsys.readouterr().err


def test_mistyped_scenario_fields_are_validation_errors(tmp_path, capsys):
    scen = tmp_path / "s.json"
    save_scenario(desk_scenario(3), scen)
    good = json.loads(scen.read_text())
    for field, value in (("power_budget_pbar", "abc"), ("slot_duration", "1"),
                         ("shadowing_sigma_db", None), ("num_rb_K", True),
                         ("master_seed", -1), ("kappa_per_slot", "yes"),
                         ("payload_threshold_vbar", float("nan")),
                         ("kappa_range", [1.0, float("inf")])):
        scen.write_text(json.dumps({**good, field: value}))
        capsys.readouterr()
        assert main(["generate", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2, field
        assert field in capsys.readouterr().err, field
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- plan

def test_plan_matches_library(tmp_path, desk_files, capsys):
    s, prof, scen, profp = desk_files
    out = tmp_path / "plan.json"
    rc = main(["plan", "--scenario", scen, "--profile", profp,
               "--epsilon-theta", "2", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    graph = build_graph(s, prof, 2)
    plan = shortest_path(graph)
    assert f"{plan.total_energy:.9g}" in printed
    assert out.exists()


def test_plan_graph_csv_is_the_library_export(tmp_path, desk_files):
    s, prof, scen, profp = desk_files
    out = tmp_path / "graph.csv"
    assert main(["plan", "--scenario", scen, "--profile", profp,
                 "--epsilon-theta", "2", "--graph-csv", str(out)]) == 0
    want = tmp_path / "want.csv"
    export_graph_csv(build_full_graph(s, prof, 2), want)
    assert out.read_bytes() == want.read_bytes()


def test_plan_with_a_huge_power_budget_succeeds_or_fails_typed(tmp_path):
    """A budget of 1e170 mW makes the piece check's margin overflow; the
    piece is then refused, and the plan completes."""
    out = tmp_path / "t1"
    assert main(["generate", "--preset", "table1", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "scenario.json").read_text())
    doc.update(horizon_T=5, uav_trajectory=doc["uav_trajectory"][:5], power_budget_pbar=1e170)
    doc.pop("power_budget_dbm", None)
    scen = tmp_path / "huge.json"
    scen.write_text(json.dumps(doc))
    rc = main(["plan", "--scenario", str(scen), "--seed", "1", "--epsilon-theta", "4",
               "--out", str(tmp_path / "plan.json")])
    assert rc in (0, 2, 3)


def test_plan_rejects_zero_cap(desk_files):
    _, _, scen, profp = desk_files
    rc = main(["plan", "--scenario", scen, "--profile", profp, "--epsilon-theta", "0"])
    assert rc == 2


def test_plan_infeasible_exit_code(tmp_path):
    s = desk_scenario(18, vbar=1e6, T=4, tau=2)
    scen = tmp_path / "s.json"
    save_scenario(s, scen)
    rc = main(["plan", "--scenario", str(scen), "--epsilon-theta", "3"])
    assert rc == 3


def _break_profile(path, breakage):
    if breakage == "text file":
        path.write_text("not a profile\n")
    elif breakage == "truncated":
        path.write_bytes(path.read_bytes()[:200])
    else:
        with np.load(path) as data:
            arrays = dict(data)
        if breakage == "no iota":
            del arrays["iota"]
        elif breakage == "mismatched shapes":
            arrays["shape"] = arrays["shape"][:, :, :-1]
        elif breakage == "nan noise":
            arrays["noise_power"] = np.array(np.nan)
        else:  # NaN entry
            arrays["gain"][0, 0, 0] = np.nan
        np.savez(path, **arrays)


@pytest.mark.parametrize("breakage", ["text file", "truncated", "no iota",
                                      "mismatched shapes", "nan entry", "nan noise"])
def test_malformed_profile_is_validation_error(tmp_path, desk_files, capsys, breakage):
    _, _, scen, profp = desk_files
    _break_profile(Path(profp), breakage)
    capsys.readouterr()
    assert main(["plan", "--scenario", scen, "--profile", profp,
                 "--epsilon-theta", "2"]) == 2
    assert f"profile file {profp} is malformed" in capsys.readouterr().err


def test_simulate_malformed_plan_file_is_validation_error(tmp_path, desk_files, capsys):
    _, _, scen, profp = desk_files
    plan = tmp_path / "plan.json"
    assert main(["plan", "--scenario", scen, "--profile", profp,
                 "--epsilon-theta", "2", "--out", str(plan)]) == 0
    doc = json.loads(plan.read_text())
    doc["legs"][0]["entries"] = [[1, 1]]
    plan.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", "--scenario", scen, "--profile", profp,
                 "--plan", str(plan), "--replicas", "2"]) == 2
    assert "plan leg 1" in capsys.readouterr().err


def test_simulate_plan_of_other_dimensions_is_plan_format_error(tmp_path, desk_files, capsys):
    _, _, scen, profp = desk_files
    plan = tmp_path / "plan.json"
    assert main(["plan", "--scenario", scen, "--profile", profp,
                 "--epsilon-theta", "2", "--out", str(plan)]) == 0
    other = tmp_path / "other.json"
    save_scenario(desk_scenario(3, N=3, K=2), other)
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(other), "--plan", str(plan),
                 "--replicas", "2"]) == 2
    err = capsys.readouterr().err
    assert "(2, 3, 8)" in err and "(3, 2, 8)" in err


def test_simulate_plan_of_another_scenario_warns_and_reports(tmp_path, desk_files, capsys):
    """A plan whose scenario digest differs from the scenario's warns once
    on stderr, naming both digests; the report and exit code are those of
    the same plan carrying the matching digest.  On channels where the
    plan misses its rates, the warning precedes the error (exit 2)."""
    s, _, scen, profp = desk_files
    plan = tmp_path / "plan.json"
    assert main(["plan", "--scenario", scen, "--profile", profp,
                 "--epsilon-theta", "2", "--out", str(plan)]) == 0
    doc = json.loads(plan.read_text())
    ours = doc["scenario_hash"]
    other = tmp_path / "other.json"
    save_scenario(dataclasses.replace(s, payload_threshold_vbar=3.0), other)
    theirs = scenario_digest(load_scenario(other))
    assert ours != theirs
    matched = tmp_path / "matched.json"
    matched.write_text(json.dumps({**doc, "scenario_hash": theirs}, indent=1) + "\n")
    runs = []
    for path in (plan, matched):
        capsys.readouterr()
        code = main(["simulate", "--scenario", str(other), "--profile", profp,
                     "--plan", str(path), "--replicas", "20", "--seed", "3"])
        runs.append((code, *capsys.readouterr()))
    (code, out, err), (code_m, out_m, err_m) = runs
    assert (code, out) == (code_m, out_m) and code == 0 and out
    assert err_m == ""
    assert err.count("\n") == 1 and err.startswith("warning:")
    assert ours in err and theirs in err

    far = tmp_path / "far.json"  # same dimensions, other channels
    save_scenario(desk_scenario(4), far)
    assert main(["simulate", "--scenario", str(far), "--plan", str(plan),
                 "--replicas", "2"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("warning:") and ours in lines[0]
    assert lines[1].startswith("error:") and len(lines) == 2


def test_plan_file_roundtrip_validates(tmp_path, desk_files):
    from aoiplan.planfile import load_plan, validate_plan_rates

    s, prof, scen, profp = desk_files
    out = tmp_path / "plan.json"
    assert main(["plan", "--scenario", scen, "--profile", profp,
                 "--epsilon-theta", "2", "--out", str(out)]) == 0
    plan, header = load_plan(out)
    validate_plan_rates(plan, prof)
    assert header["epsilon_theta"] == 2
    assert plan.instants[0] == 1


# ---------------------------------------------------------------- frontier

def test_frontier_csv_strictly_decreasing_and_stable(tmp_path, desk_files):
    _, _, scen, profp = desk_files
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert main(["frontier", "--scenario", scen, "--profile", profp,
                 "--out", str(out1)]) == 0
    assert main(["frontier", "--scenario", scen, "--profile", profp,
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().splitlines()[1:]
    energies = [float(r.split(",")[1]) for r in rows]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_frontier_single_rb_single_row(tmp_path):
    s = desk_scenario(17, K=1, vbar=2.0)
    scen = tmp_path / "s.json"
    save_scenario(s, scen)
    out = tmp_path / "f.csv"
    assert main(["frontier", "--scenario", str(scen), "--seed", "17",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_frontier_golden_file(tmp_path):
    """Byte-exact output format freeze for the canonical desk scenario."""
    s = desk_scenario(3)
    scen = tmp_path / "s.json"
    save_scenario(s, scen)
    out = tmp_path / "frontier.csv"
    assert main(["frontier", "--scenario", str(scen), "--seed", "3",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "frontier_golden.csv").read_bytes()


# ---------------------------------------------------------------- simulate

def test_simulate_energy_ordering(desk_files, tmp_path, capsys):
    _, _, scen, profp = desk_files
    energies = {}
    for policy in ("age-aware", "periodic"):
        out = tmp_path / f"{policy}.json"
        rc = main(["simulate", "--scenario", scen, "--profile", profp,
                   "--policy", policy, "--epsilon-theta", "2",
                   "--replicas", "5", "--seed", "1", "--out", str(out)])
        assert rc == 0
        energies[policy] = json.loads(out.read_text())["mean_energy"]
    assert energies["age-aware"] <= energies["periodic"] * (1 + 1e-9)


def test_simulate_overwhelming_margin_always_fresh(tmp_path):
    # the success threshold stays at the scenario value while the solve
    # target carries the margin, so a huge margin makes delivery certain
    s = desk_scenario(7, vbar=0.05)
    scen = tmp_path / "s.json"
    save_scenario(s, scen)
    out = tmp_path / "r.json"
    rc = main(["simulate", "--scenario", str(scen), "--seed", "7",
               "--policy", "age-aware", "--epsilon-theta", "2", "--margin", "50",
               "--replicas", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["success_rate"] == 1.0
    assert doc["expected_satisfied"] is True


def test_simulate_zero_replicas_rejected(desk_files):
    _, _, scen, profp = desk_files
    rc = main(["simulate", "--scenario", scen, "--profile", profp,
               "--policy", "age-aware", "--replicas", "0"])
    assert rc == 2


def test_plan_and_simulate_reject_unusable_margins(desk_files, capsys):
    _, _, scen, profp = desk_files
    for margin in ("0.5", "-1", "nan", "inf"):
        for cmd in (["plan", "--epsilon-theta", "2"],
                    ["simulate", "--policy", "periodic", "--replicas", "1"]):
            capsys.readouterr()
            argv = cmd + ["--scenario", scen, "--profile", profp, "--margin", margin]
            assert main(argv) == 2, argv
            assert "--margin" in capsys.readouterr().err, argv


def test_simulate_needs_exactly_one_of_plan_and_policy(desk_files, tmp_path, capsys):
    _, _, scen, profp = desk_files
    plan = str(tmp_path / "plan.json")
    assert main(["plan", "--scenario", scen, "--profile", profp,
                 "--epsilon-theta", "2", "--out", plan]) == 0
    for choice in ([], ["--plan", plan, "--policy", "periodic"]):
        capsys.readouterr()
        assert main(["simulate", "--scenario", scen, "--profile", profp,
                     "--replicas", "1"] + choice) == 2, choice
        err = capsys.readouterr().err
        assert "--plan" in err and "--policy" in err, choice


def test_simulate_and_oracle_reject_caps_below_one(desk_files, capsys):
    _, _, scen, profp = desk_files
    for cap in ("0", "-2"):
        for cmd in (["simulate", "--policy", "periodic", "--replicas", "1"],
                    ["oracle", "--op", "inner"], ["oracle", "--op", "plan"]):
            capsys.readouterr()
            argv = cmd + ["--scenario", scen, "--profile", profp, "--epsilon-theta", cap]
            assert main(argv) == 2, argv
            assert "--epsilon-theta" in capsys.readouterr().err, argv


def test_simulate_trace_export(desk_files, tmp_path):
    _, _, scen, profp = desk_files
    trace = tmp_path / "trace.csv"
    rc = main(["simulate", "--scenario", scen, "--profile", profp,
               "--policy", "periodic", "--epsilon-theta", "2",
               "--replicas", "3", "--seed", "2", "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "replica,t,age,success,cum_payload"
    s = desk_scenario(3)
    assert len(lines) == 1 + 3 * s.horizon_T


# ---------------------------------------------------------------- transform / select

def test_transform_and_select_pipeline(desk_files, tmp_path):
    _, _, scen, profp = desk_files
    fcsv = tmp_path / "f.csv"
    assert main(["frontier", "--scenario", scen, "--profile", profp,
                 "--out", str(fcsv)]) == 0
    tcsv = tmp_path / "t.csv"
    assert main(["transform", "--frontier", str(fcsv), "--g1", "square",
                 "--g2", "log1p", "--out", str(tcsv)]) == 0
    rows = tcsv.read_text().splitlines()
    assert rows[0] == "g1_load,g2_energy"
    # non-monotone map rejected
    assert main(["transform", "--frontier", str(fcsv), "--g1", "scale:-1",
                 "--g2", "identity", "--out", str(tmp_path / "x.csv")]) == 2
    # selection: slack budget picks the largest cap
    assert main(["select", "--frontier", str(fcsv), "--budget", "1e9"]) == 0
    assert main(["select", "--frontier", str(fcsv), "--budget", "0.5"]) == 3
    assert main(["select", "--frontier", str(fcsv), "--alpha", "0.5", "--p", "2"]) == 0


def test_select_budget_rejects_a_decreasing_load_map(desk_files, tmp_path, capsys):
    # the same monotonicity rule as ``transform`` and ``pareto.budget_select``
    _, _, scen, profp = desk_files
    fcsv = tmp_path / "f.csv"
    assert main(["frontier", "--scenario", scen, "--profile", profp,
                 "--out", str(fcsv)]) == 0
    assert len(fcsv.read_text().splitlines()) >= 3  # at least two points
    capsys.readouterr()
    assert main(["select", "--frontier", str(fcsv), "--budget", "-2.5",
                 "--g1", "scale:-1"]) == 2
    assert "g1 is not strictly increasing" in capsys.readouterr().err


def _frontier_csv(path, rows, header="epsilon_theta,energy_linear,energy_dbm,num_samples,instants"):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def test_select_rejects_unusable_preferences(tmp_path, capsys):
    fcsv = _frontier_csv(tmp_path / "f.csv", ["2,0.8,0,1,1", "3,0.6,0,1,1"])
    for flags, flag in ((["--alpha", "1.5"], "--alpha"), (["--alpha", "nan"], "--alpha"),
                        (["--p", "nan"], "--p"), (["--p", "0.5"], "--p"), (["--p", "inf"], "--p"),
                        (["--p", "1000"], "--p"), (["--energy-target", "inf"], "--energy-target")):
        capsys.readouterr()
        assert main(["select", "--frontier", fcsv] + flags) == 2, flags
        assert flag in capsys.readouterr().err, flags
    # every utility is nan: (1 - alpha) * |1e308 + 1e308| is 0 * inf
    huge = _frontier_csv(tmp_path / "h.csv", ["2,1.5e308,0,1,1", "3,1e308,0,1,1"])
    capsys.readouterr()
    assert main(["select", "--frontier", huge, "--alpha", "1",
                 "--energy-target=-1e308"]) == 2
    assert "--energy-target" in capsys.readouterr().err
    # a large exponent that does not overflow still selects as the library does
    points = [pareto.FrontierPoint(2, 0.8, None), pareto.FrontierPoint(3, 0.6, None)]
    want = pareto.scalarize_select(points, pareto.weighted_lp_utility(0.5, 1000.0, 2.5, 0.75))
    capsys.readouterr()
    assert main(["select", "--frontier", fcsv, "--p", "1000", "--theta-target", "2.5",
                 "--energy-target", "0.75"]) == 0
    assert f"epsilon_theta {want.load_cap}," in capsys.readouterr().out


def test_select_budget_rejects_nan_and_takes_infinity(tmp_path, capsys):
    fcsv = _frontier_csv(tmp_path / "f.csv", ["2,0.8,0,1,1", "3,0.6,0,1,1"])
    for frontier in (fcsv, str(tmp_path / "missing.csv")):  # rejected before the file opens
        capsys.readouterr()
        assert main(["select", "--frontier", frontier, "--budget", "nan"]) == 2
        assert "--budget" in capsys.readouterr().err
    # an unbounded budget still selects the last point
    assert main(["select", "--frontier", fcsv, "--budget", "inf"]) == 0
    assert "epsilon_theta 3," in capsys.readouterr().out


def test_transform_and_select_reject_malformed_inputs(tmp_path, capsys):
    good = _frontier_csv(tmp_path / "f.csv", ["2,0.8,0,1,1", "3,0.6,0,1,1"])
    out = str(tmp_path / "t.csv")
    capsys.readouterr()
    assert main(["transform", "--frontier", good, "--g1", "scale:abc",
                 "--g2", "identity", "--out", out]) == 2
    assert "--g1" in capsys.readouterr().err
    assert main(["transform", "--frontier", good, "--g1", "identity",
                 "--g2", "pow:", "--out", out]) == 2
    assert "--g2" in capsys.readouterr().err
    no_cap = _frontier_csv(tmp_path / "n.csv", ["0.8,0,1,1"],
                           header="energy_linear,energy_dbm,num_samples,instants")
    bad_cell = _frontier_csv(tmp_path / "b.csv", ["2,0.8,0,1,1", "3.5,0.6,0,1,1"])
    short = _frontier_csv(tmp_path / "s.csv", ["2,0.8,0,1,1", "3"])
    for path, words in ((no_cap, "epsilon_theta"), (bad_cell, "line 3"), (short, "line 3")):
        for cmd in (["transform", "--frontier", path, "--g1", "identity", "--g2", "identity",
                     "--out", out], ["select", "--frontier", path]):
            assert main(cmd) == 2, (path, cmd)
            err = capsys.readouterr().err
            assert path in err and words in err, err


def test_transform_rejects_maps_that_fail_to_evaluate(tmp_path, capsys):
    zero = _frontier_csv(tmp_path / "z.csv", ["1,0.8,0,1,1", "2,0,0,1,1"])
    five = _frontier_csv(tmp_path / "f.csv", ["1,5.2,0,1,1", "2,4.9,0,1,1"])
    # 0 ** -1 divides by zero; 5 ** 1000 overflows a float
    for path, g2 in ((zero, "pow:-1"), (five, "pow:1000")):
        capsys.readouterr()
        assert main(["transform", "--frontier", path, "--g1", "identity", "--g2", g2,
                     "--out", str(tmp_path / "t.csv")]) == 2, g2
        assert "g2 cannot be evaluated" in capsys.readouterr().err, g2


# ---------------------------------------------------------------- bench / oracle

def test_bench_prints_slope(capsys):
    rc = main(["bench", "--k-list", "4,8", "--n", "2", "--slots", "1",
               "--repeats", "1", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "log-log slope:" in out
    assert out.startswith("K,seconds")


def test_bench_rejects_k_lists_it_cannot_fit(capsys):
    for k_list in ("10", "10,abc", "10,10", "0,10", ""):
        capsys.readouterr()
        assert main(["bench", "--k-list", k_list, "--repeats", "1"]) == 2, k_list
        captured = capsys.readouterr()
        assert "--k-list" in captured.err and "slope" not in captured.out, k_list


def test_bench_rejects_zero_sizes(capsys):
    for flag in ("--slots", "--cap", "--n"):
        capsys.readouterr()
        assert main(["bench", "--k-list", "4,8", "--repeats", "1", flag, "0"]) == 2, flag
        captured = capsys.readouterr()
        assert flag in captured.err and "slope" not in captured.out, flag


def test_bench_slope_repeatable(capsys):
    # measurement-noise band derived from repeated timing runs
    slopes = []
    for _ in range(2):
        assert main(["bench", "--k-list", "10,20,40,80", "--n", "5", "--slots", "2",
                     "--cap", "4", "--repeats", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        slopes.append(float(out.strip().splitlines()[-1].split(":")[1]))
    assert abs(slopes[0] - slopes[1]) <= 0.3


def test_oracle_inner_subcommand(desk_files, capsys):
    _, _, scen, profp = desk_files
    rc = main(["oracle", "--scenario", scen, "--profile", profp, "--op", "inner",
               "--start", "1", "--end", "3", "--epsilon-theta", "2"])
    assert rc == 0
    assert "oracle energy" in capsys.readouterr().out


def test_oracle_plan_subcommand_agrees_with_the_solver(desk_files, capsys):
    _, _, scen, profp = desk_files
    rc = main(["oracle", "--scenario", scen, "--profile", profp, "--op", "plan",
               "--epsilon-theta", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    oracle = out.split("oracle energy ")[1].split()[0]
    solver = out.split("solver energy ")[1].split(";")[0]
    assert oracle == solver, out


def test_oracle_inner_rejects_intervals_off_the_horizon(desk_files, capsys):
    s, _, scen, profp = desk_files
    for start, end in ((3, 2), (2, 2), (0, 2), (1, s.horizon_T + 2)):
        capsys.readouterr()
        assert main(["oracle", "--scenario", scen, "--profile", profp, "--op", "inner",
                     "--start", str(start), "--end", str(end)]) == 2, (start, end)
        err = capsys.readouterr().err
        assert "--start" in err and "--end" in err, (start, end)


def test_oracle_budget_gate(tmp_path):
    s = desk_scenario(2, T=20, tau=3)
    scen = tmp_path / "s.json"
    save_scenario(s, scen)
    rc = main(["oracle", "--scenario", str(scen), "--seed", "2", "--op", "plan"])
    assert rc == 2


# ---------------------------------------------------------------- env seed

def test_negative_seeds_are_rejected(tmp_path, desk_files, monkeypatch, capsys):
    _, _, scen, profp = desk_files
    inputs = ["--scenario", scen, "--profile", profp]
    for argv in (["generate", "--scenario", scen, "--out", str(tmp_path / "g")],
                 ["plan", *inputs, "--epsilon-theta", "2"],
                 ["simulate", *inputs, "--policy", "periodic", "--replicas", "1"],
                 ["bench", "--k-list", "4,8", "--repeats", "1"]):
        capsys.readouterr()
        assert main(argv + ["--seed", "-1"]) == 2, argv
        assert "--seed" in capsys.readouterr().err, argv
    monkeypatch.setenv("MPCOMM_SEED", "-1")
    for argv in (["generate", "--scenario", scen, "--out", str(tmp_path / "g")],
                 ["plan", "--scenario", scen, "--epsilon-theta", "2"]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "MPCOMM_SEED" in capsys.readouterr().err, argv
    assert not (tmp_path / "g").exists()


def test_main_returns_argparse_exit_codes(capsys):
    assert main(["simulate", "--help"]) == 0
    assert "--replicas" in capsys.readouterr().out
    assert main(["simulate", "--replicas", "x"]) == 2


def test_env_seed_fallback(tmp_path, desk_files, monkeypatch):
    _, _, scen, _ = desk_files
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    monkeypatch.setenv("MPCOMM_SEED", "77")
    assert main(["generate", "--scenario", scen, "--out", str(out1)]) == 0
    monkeypatch.delenv("MPCOMM_SEED")
    assert main(["generate", "--scenario", scen, "--seed", "77", "--out", str(out2)]) == 0
    with np.load(out1 / "profile.npz") as a, np.load(out2 / "profile.npz") as b:
        assert np.array_equal(a["gain"], b["gain"])


# ---------------------------------------------------------------- README

def test_readme_cli_examples_parse():
    """Every ``aoiplan ...`` line of the README's CLI block parses."""
    block = README.read_text().split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("aoiplan ")]
    assert len(commands) >= 8
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: aoiplan {shlex.join(argv)}")
