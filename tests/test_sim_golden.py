"""Golden Monte Carlo outputs: every policy's report and kept traces.

The benchmark checks only the ranges of simulation reports, so this file
pins their bits.  Regenerate (only when a change of realized numbers is
intended) with

    PYTHONPATH=src:tests python tests/test_sim_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from aoiplan import build_profile
from aoiplan.scenario import default_patrol_scenario
from aoiplan.sim import POLICIES, export_trace_csv, simulate

from conftest import desk_scenario

GOLDEN = Path(__file__).parent / "data" / "simulate_golden.json"
REPLICAS = 200
SEED = 7


def _scenarios():
    yield "desk", desk_scenario(3, vbar=3.0, pbar_dbm=23.0), 3
    yield "patrol-1-T5", default_patrol_scenario(1, horizon=5), 1


def golden_records(workdir: Path) -> dict:
    """Report fields and kept-trace CSV digest of every policy at full cap."""
    records = {}
    for name, scenario, profile_seed in _scenarios():
        profile = build_profile(scenario, profile_seed)
        for kind, builder in POLICIES.items():
            plan = builder(scenario, profile, scenario.num_rb_K)
            report = simulate(plan, profile, REPLICAS, SEED, keep_traces=True)
            path = workdir / f"{name}-{kind}.csv"
            export_trace_csv(report.traces, path)
            records[f"{name}/{kind}"] = {
                "success_rate": report.success_rate,
                "mean_peak_age": report.mean_peak_age,
                "expected_peak_age": report.expected_peak_age,
                "expected_satisfied": report.expected_satisfied,
                "worst_rb_load": report.worst_rb_load,
                "mean_energy": repr(report.mean_energy),
                "traces_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            }
    return records


def test_simulate_matches_golden(tmp_path):
    assert golden_records(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden_records(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
