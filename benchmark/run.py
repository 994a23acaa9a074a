"""aoiplan benchmark: time the paper's workflow end to end and per layer.

    python3 benchmark/run.py --workload plan-table1 --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--workload`` is ``frontier-sweep``, ``plan-table1``, ``simulate-policies``
or ``all``.  With ``--trace 0`` the run repeats the ``generate`` step, then
runs the workload's job over its scenarios, round after round, until
``--seconds`` is used up, and reports end-to-end figures.  With
``--trace 1`` it runs the job traced, untraced and traced again on one
scenario, with every layer wrapped from outside the package, checks that
the traced jobs' counts agree exactly, and reports the per-layer metrics.
Every job's outputs are checked against the recorded references.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation and check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 20        # generate steps timed before each job

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_s": ("s", "lower"),
    "replicas_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cores:
            os.environ[var] = str(cores)


def import_program():
    """Import aoiplan from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "aoiplan" / "__init__.py").is_file():
        raise SystemExit(f"error: no aoiplan sources under {src}")
    sys.path.insert(0, str(src))
    import aoiplan

    if Path(aoiplan.__file__).resolve().parent != (src / "aoiplan").resolve():
        raise SystemExit(f"error: aoiplan imported from {aoiplan.__file__}, not {src}")


def _scenario_mean(samples: dict) -> float:
    """Mean over scenarios of each scenario's fastest job."""
    return sum(min(v) for v in samples.values()) / len(samples)


def _jobs_median(samples: dict) -> float:
    return median(t for v in samples.values() for t in v)


def run_workload(workload, seed: int, seconds: float, trace: bool, references: dict,
                 workdir: Path):
    """One workload's run; returns (ops, end-to-end metrics, layer metrics).

    Untraced, jobs cycle through the workload's scenarios, each at least
    once, until the time is used up.  On a shared machine co-scheduled load
    can halve the speed for seconds to minutes, so every timing reports its
    fast side: ``job_s`` is the mean over scenarios of each one's fastest
    job (as ``timeit`` advises), ``setup_s`` the lower quartile of every
    ``generate`` and ``replicas_per_s`` the upper quartile of the rates of
    every ``simulate`` call.  Traced, every job runs on the first scenario
    so the traced counts can be compared exactly, and the end-to-end
    figures are only printed.
    """
    from workloads import JOBS, CheckFailed, Ops, check_outputs, generate, make_inputs

    if trace:  # scipy loads only here, so untraced runs report the program's memory
        from layers import (Probe, combine, count_mismatches, instrument, instrument_setup,
                            layer_metrics)
        from spans import Tracer

    ops = Ops()
    job = JOBS[workload.name]
    e2e, layers = {}, {}
    setup, rates, traced = [], [], []   # rates: replicas per second of each simulate call
    plain = {}                          # scenario index -> job seconds

    def timed_generate(inp):
        t0 = perf_counter()
        generate(inp, ops)
        setup.append(perf_counter() - t0)

    def run_plain(inp, index):
        t0 = perf_counter()
        result = job(inp, ops)
        plain.setdefault(index, []).append(perf_counter() - t0)
        rates.extend(result.mc_rates)
        check_outputs(ops, inp, result.outputs, references)

    def run_traced(inp):
        probe = Probe(seed)
        with Tracer() as tracer:
            instrument(tracer, probe)
            t0 = perf_counter()
            result = job(inp, ops)
            elapsed = perf_counter() - t0
        check_outputs(ops, inp, result.outputs, references)
        metrics = layer_metrics(tracer, probe)
        ops.check("matching costs agree with linear_sum_assignment",
                  metrics["matching.cost_mismatch"] == 0,
                  f"{metrics['matching.cost_mismatch']} of {metrics['matching.checked']}")
        metrics["trace.job_s"] = elapsed
        if traced:
            differing = count_mismatches(traced[0], metrics)
            ops.check("traced counts repeat exactly", not differing, ", ".join(differing))
        traced.append(metrics)

    start = perf_counter()
    try:
        if trace:
            first = make_inputs(workload, seed, workload.scenarios[0], workdir)
            for _ in range(SETUP_REPEATS):
                timed_generate(first)
            profile_builds = []
            for _ in range(SETUP_REPEATS):
                with Tracer() as tracer:
                    instrument_setup(tracer)
                    generate(first, ops)
                profile_builds += tracer.durations("channel.build_profile")
            layers["channel.build_profile_s"] = median(profile_builds)
            # traced, untraced, traced: slow drifts of machine speed cancel
            run_traced(first)
            run_plain(first, 0)
            run_traced(first)
            pair = median(plain[0]) + median(m["trace.job_s"] for m in traced)
            while perf_counter() - start + pair <= seconds:
                run_plain(first, 0)
                run_traced(first)
        else:
            scenarios = workload.scenarios
            jobs = 0   # every scenario runs once, then rounds go on while time remains
            while (jobs < len(scenarios)
                   or perf_counter() - start + _jobs_median(plain) <= seconds):
                index = jobs % len(scenarios)
                # a fresh Inputs per job: generate repeats sit between the jobs,
                # so the setup samples spread over the whole run
                inp = make_inputs(workload, seed, scenarios[index], workdir)
                for _ in range(SETUP_REPEATS):
                    timed_generate(inp)
                run_plain(inp, index)
                jobs += 1
            print(f"[{workload.name}] job_s by scenario seed: " + ", ".join(
                f"{scenarios[i]}: " + "/".join(f"{t:.4g}" for t in v) for i, v in sorted(plain.items())))
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e["setup_s"] = quantiles(setup, n=4)[0]
        e2e["job_s"] = _scenario_mean(plain)
        e2e["replicas_per_s"] = quantiles(rates, n=4)[2]
        if trace:
            layers.update(combine(traced))
            layers["trace.overhead_s"] = layers["trace.job_s"] - e2e["job_s"]
    except CheckFailed as exc:
        print(f"{workload.name}: {exc}", file=sys.stderr)
    return ops, e2e, layers


def _report(name: str, e2e: dict, layers: dict, ops, layer_specs: dict) -> None:
    """Print every metric of one workload, with its unit."""
    frac = ops.failed / ops.attempted if ops.attempted else 1.0
    print(f"[{name}] attempted {ops.attempted} operations, failed {ops.failed} "
          f"(failed_frac {frac:.6g})")
    for msg in ops.messages:
        print(f"[{name}] {msg}")
    for metrics, table in ((e2e, END_TO_END), (layers, layer_specs)):
        for key, (unit, _better) in table.items():
            if key in metrics:
                print(f"[{name}] {key:36s} {metrics[key]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cap_threads()
    import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    references = json.loads((HERE / "references.json").read_text())
    if args.trace:
        from layers import LAYER_METRICS
        specs = LAYER_METRICS
    else:
        specs = END_TO_END

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    results = {}
    try:
        for name in names:
            ops, e2e, layers = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                            bool(args.trace), references, workdir)
            _report(name, e2e, layers, ops, specs)
            wanted = layers if args.trace else e2e
            metrics = {k: {"value": wanted[k], "unit": unit}
                       for k, (unit, _b) in specs.items() if k in wanted}
            results[name] = (ops, metrics, len(metrics) == len(specs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    attempted = sum(ops.attempted for ops, _, _ in results.values())
    failed = sum(ops.failed for ops, _, _ in results.values())
    correct = failed == 0 and attempted > 0 and all(c for _, _, c in results.values())
    metrics = (results[names[0]][1] if len(names) == 1
               else {n: m for n, (_, m, _) in results.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
