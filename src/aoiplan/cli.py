"""Command-line front end.

Subcommands: generate, plan, frontier, simulate, transform, select, bench,
oracle.  Exit codes: 0 success, 2 validation error, 3 infeasible problem,
4 I/O error.  Each flag's value is checked by its argparse ``type=``
converter, so a bad one exits 2 with argparse's message naming the flag.
When no ``--seed`` is given, the ``MPCOMM_SEED`` environment variable is
consulted before falling back to the scenario's master seed.

All floats print with 9 significant digits; CSV output is comma-separated
with a header row and LF line endings so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import channel, pareto, planfile, sim
from .errors import (
    AoiPlanError,
    BudgetInfeasibleError,
    NoFeasiblePlanError,
    ScenarioValidationError,
)
from .inner import Infeasible, IntervalSpec, solve_interval
from .oracle import check_plan, oracle_inner, oracle_plan
from .scenario import (
    Scenario,
    default_patrol_scenario,
    energy_to_dbm,
    load_scenario,
    save_scenario,
    scenario_digest,
)
from .timing import build_full_graph, build_graph, export_graph_csv, shortest_path

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

BENCH_POINT_S = 0.2  # least solving time behind each ``bench`` point, in seconds

_G_MAPS = {
    "identity": lambda x: x,
    "square": lambda x: x * x,
    "log1p": lambda x: math.log1p(x),
    "sqrt": lambda x: math.sqrt(x),
}


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _checked(convert, ok, rule: str):
    """An argparse ``type=`` converter: ``convert`` the text, then reject a
    value that is not ``ok``.  argparse prefixes the message with the flag."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


_count = _checked(int, lambda n: n >= 1, "an integer >= 1")
_seed = _checked(int, lambda n: n >= 0, "an integer >= 0")
_margin = _checked(float, lambda x: 1.0 <= x < math.inf, "a finite number >= 1")
_finite = _checked(float, math.isfinite, "a finite number")
_number = _checked(float, lambda x: not math.isnan(x), "a number other than NaN")
_k_list = _checked(lambda text: [int(k) for k in text.split(",")],
                   lambda ks: len(set(ks)) >= 2 and min(ks) >= 1,
                   "at least two distinct positive integers")


def _resolve_seed(args, scenario: Scenario | None) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MPCOMM_SEED")
    if env is not None:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise ScenarioValidationError([f"MPCOMM_SEED {exc}"]) from None
    if scenario is not None:
        return scenario.master_seed
    return 0


def _load_inputs(args):
    """Resolve (scenario, profile, seed) from --scenario/--profile/--seed flags."""
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = default_patrol_scenario(_resolve_seed(args, None))
    seed = _resolve_seed(args, scenario)
    if getattr(args, "profile", None):
        profile = channel.load_profile(args.profile)
        if profile.dims != (scenario.num_bs_N, scenario.num_rb_K, scenario.horizon_T):
            raise ScenarioValidationError(
                [f"profile dims {profile.dims} do not match the scenario"]
            )
    else:
        profile = channel.build_profile(scenario, seed)
    return scenario, profile, seed


def _parse_g(spec: str):
    """Parse a monotone-map spec: a named map, `scale:a`, or `pow:p`."""
    if spec in _G_MAPS:
        return _G_MAPS[spec]
    kind, _, arg = spec.partition(":")
    if kind in ("scale", "pow"):
        try:
            a = float(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{spec!r} needs a number after '{kind}:'") from None
        return (lambda x: a * x) if kind == "scale" else (lambda x: x**a)
    raise argparse.ArgumentTypeError(
        f"unknown map {spec!r}; choose from {sorted(_G_MAPS)} or scale:a / pow:p")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_generate(args) -> int:
    # --preset table1 leaves --scenario unset, which selects the same default
    scenario, profile, seed = _load_inputs(args)  # validates before anything is written
    out = Path(args.out)
    out.mkdir(exist_ok=True)  # a missing parent raises OSError: exit 4
    scen_path = out / "scenario.json"
    prof_path = out / "profile.npz"
    save_scenario(scenario, scen_path)
    channel.save_profile(profile, prof_path)
    print(f"scenario: {scen_path}")
    print(f"profile:  {prof_path} (seed {seed})")
    return EXIT_OK


def cmd_plan(args) -> int:
    scenario, profile, seed = _load_inputs(args)
    build = build_full_graph if args.graph_csv else build_graph  # same plan, bit for bit
    graph = build(scenario, profile, args.epsilon_theta, rate_margin=args.margin)
    if args.graph_csv:
        export_graph_csv(graph, args.graph_csv)
    plan = shortest_path(graph)
    policy = sim.policy_plan_from_sampling(plan, scenario)
    if args.out:
        planfile.save_plan(policy, args.out, scenario_digest(scenario),
                           scenario.power_budget_pbar, seed=seed)
    print(
        f"plan energy {_fmt(plan.total_energy)} mW-slots "
        f"({_fmt(energy_to_dbm(plan.total_energy, scenario.horizon_T))} dBm avg), "
        f"binary {_fmt(plan.binary_energy)} mW-slots, "
        f"samples {len(plan.instants)}, "
        f"instants {';'.join(str(t) for t in plan.instants)}, "
        f"rb-load {policy.worst_rb_load()}"
    )
    return EXIT_OK


def cmd_frontier(args) -> int:
    scenario, profile, _ = _load_inputs(args)
    frontier = pareto.compute_frontier(scenario, profile)
    pareto.export_frontier_csv(frontier, args.out, scenario)
    print(
        f"frontier: {len(frontier)} points over load caps "
        f"[{frontier.theta_lo}, {frontier.theta_hi}] -> {args.out}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario, profile, seed = _load_inputs(args)
    if args.plan is not None:
        policy, header = planfile.load_plan(args.plan)
        digest = scenario_digest(scenario)
        if header.get("scenario_hash") != digest:
            # replaying a plan on another scenario is allowed; the warning
            # comes first so that it also explains a failed rate check
            print(f"warning: plan was made for scenario {header.get('scenario_hash')}, "
                  f"simulated on scenario {digest}", file=sys.stderr)
        planfile.validate_plan_rates(policy, profile)
    else:
        cap = args.epsilon_theta or scenario.num_rb_K
        policy = sim.POLICIES[args.policy](scenario, profile, cap, rate_margin=args.margin)
    report = sim.simulate(policy, profile, args.replicas, seed,
                          keep_traces=bool(args.trace))
    if args.trace:
        sim.export_trace_csv(report.traces, args.trace)
    doc = {
        "policy": report.plan_kind,
        "replicas": report.replicas,
        "success_rate": report.success_rate,
        "mean_energy": report.mean_energy,
        "worst_rb_load": report.worst_rb_load,
        "mean_peak_age": report.mean_peak_age,
        "expected_peak_age": report.expected_peak_age,
        "expected_satisfied": report.expected_satisfied,
        "aoi_bound": policy.aoi_bound,
        "seed": seed,
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_INFEASIBLE if not policy.feasible else EXIT_OK


def cmd_transform(args) -> int:
    points = pareto.read_frontier_csv(args.frontier)
    image = pareto.transform_frontier(points, args.g1, args.g2)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["g1_load", "g2_energy"])
        for load, energy in image:
            writer.writerow([_fmt(load), _fmt(energy)])
    print(f"transformed {len(points)} frontier points -> {args.out}")
    return EXIT_OK


def cmd_select(args) -> int:
    points = pareto.read_frontier_csv(args.frontier)
    if args.budget is not None:
        point = pareto.budget_select(points, args.g1, args.budget)
        mode = f"budget {args.budget}"
    else:
        try:
            util = pareto.weighted_lp_utility(args.alpha, args.p,
                                              args.theta_target, args.energy_target)
        except ValueError as exc:  # the message names the parameter: "alpha ..." or "p ..."
            raise ScenarioValidationError([f"--{exc}"]) from None
        try:
            point = pareto.scalarize_select(points, util)
        except OverflowError:
            raise ScenarioValidationError(
                [f"the weighted-Lp utility with --p {args.p} overflows on this frontier"]) from None
        if point is None:
            raise ScenarioValidationError(
                ["no frontier point has a finite weighted-Lp utility with these "
                 "--alpha, --p, --theta-target and --energy-target"])
        mode = f"weighted-Lp alpha={args.alpha} p={args.p}"
    print(f"selected ({mode}): epsilon_theta {point.load_cap}, energy {_fmt(point.energy)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    """Time the interval solver across RB counts and fit the log-log slope.

    Each K's instance is built once and solved at least ``repeats`` times
    and for at least ``BENCH_POINT_S`` in all.  The solves of all K are
    interleaved, each K's spread evenly over the run, so a slow spell on a
    shared machine hits every K alike.  A point is the fastest solve's
    seconds, as ``timeit`` advises.
    """
    seed = args.seed if args.seed is not None else 0
    cases = []
    for K in args.k_list:
        rng = np.random.default_rng([seed, K])
        gain = 10.0 ** rng.uniform(-9.5, -7.5, size=(args.n, K, args.slots))
        shape = rng.uniform(1.0, 30.0, size=(args.n, K, args.slots))
        profile = channel.ChannelProfile.from_arrays(gain, shape, noise_power=1e-9)
        target = 0.6 * K * args.slots * 0.5
        spec = IntervalSpec(start=1, end=args.slots + 1, rb_cap=args.cap,
                            rate_target=target, power_cap=200.0)
        t0 = time.perf_counter()
        solve_interval(spec, profile)
        first = time.perf_counter() - t0
        cases.append((spec, profile, max(args.repeats, math.ceil(BENCH_POINT_S / first))))
    rounds = max(n for _, _, n in cases)
    best = [math.inf] * len(args.k_list)
    for r in range(rounds):
        for i, (spec, profile, n) in enumerate(cases):
            if (r + 1) * n // rounds > r * n // rounds:  # n of the rounds, evenly spaced
                t0 = time.perf_counter()
                solve_interval(spec, profile)
                best[i] = min(best[i], time.perf_counter() - t0)
    rows = list(zip(args.k_list, best))
    logs = np.log([r[0] for r in rows])
    logt = np.log([r[1] for r in rows])
    slope = float(np.polyfit(logs, logt, 1)[0])
    print("K,seconds")
    for K, sec in rows:
        print(f"{K},{_fmt(sec)}")
    print(f"log-log slope: {slope:.3f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    scenario, profile, _ = _load_inputs(args)
    if args.op == "inner":
        if not 1 <= args.start < args.end <= scenario.horizon_T + 1:
            raise ScenarioValidationError(
                [f"--start {args.start} and --end {args.end} must satisfy "
                 f"1 <= start < end <= {scenario.horizon_T + 1}"])
        spec = IntervalSpec(start=args.start, end=args.end,
                            rb_cap=args.epsilon_theta or 1,
                            rate_target=scenario.payload_threshold_vbar,
                            power_cap=scenario.power_budget_pbar)
        ours = solve_interval(spec, profile)
        ref = oracle_inner(spec, profile)
        if isinstance(ref, Infeasible) or isinstance(ours, Infeasible):
            print(f"oracle: infeasible={isinstance(ref, Infeasible)} "
                  f"solver: infeasible={isinstance(ours, Infeasible)}")
            return EXIT_INFEASIBLE
        print(f"oracle energy {_fmt(ref)}, solver energy {_fmt(ours.energy)}")
    else:  # plan
        cap = args.epsilon_theta or scenario.num_rb_K
        check_plan(scenario.horizon_T, scenario.aoi_bound_tau)
        graph = build_full_graph(scenario, profile, cap)

        def weight(i, j):
            return graph.edges[(i, j)].weight

        instants, energy, count = oracle_plan(scenario.horizon_T,
                                              scenario.aoi_bound_tau, weight)
        plan = shortest_path(graph)
        print(f"oracle energy {_fmt(energy)} over {count} sequences, "
              f"solver energy {_fmt(plan.total_energy)}; "
              f"instants {';'.join(str(t) for t in instants)}")
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoiplan",
        description="Freshness-aware UAV communication planner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--profile", help="channel profile .npz file")
        p.add_argument("--seed", type=_seed, help="seed override (else MPCOMM_SEED)")

    p = sub.add_parser("generate", help="write scenario + channel profile files")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--scenario", help="scenario JSON file")
    source.add_argument("--preset", choices=["table1"], help="named default scenario")
    p.add_argument("--seed", type=_seed, help="seed override (else MPCOMM_SEED)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("plan", help="solve the full planning problem for one load cap")
    common(p)
    p.add_argument("--epsilon-theta", type=_count, required=True, help="per-BS RB load cap")
    p.add_argument("--margin", type=_margin, default=1.0, help="rate-target margin >= 1")
    p.add_argument("--out", help="plan file destination")
    p.add_argument("--graph-csv", help="also dump the timing graph edges")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("frontier", help="sweep the load cap and export the frontier")
    common(p)
    p.add_argument("--out", required=True, help="frontier CSV destination")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("simulate", help="Monte Carlo a plan file or a named policy")
    common(p)
    policy = p.add_mutually_exclusive_group(required=True)
    policy.add_argument("--plan", help="plan file to evaluate")
    policy.add_argument("--policy", choices=list(sim.POLICIES),
                        help="build and evaluate a named policy")
    p.add_argument("--epsilon-theta", type=_count, help="load cap for named policies")
    p.add_argument("--margin", type=_margin, default=1.0, help="rate-target margin >= 1")
    p.add_argument("--replicas", type=_count, required=True)
    p.add_argument("--out", help="report JSON destination")
    p.add_argument("--trace", help="trace CSV destination")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transform", help="map a frontier through monotone objectives")
    p.add_argument("--frontier", required=True, help="frontier CSV from `frontier`")
    p.add_argument("--g1", type=_parse_g, required=True,
                   help="load map (identity|square|log1p|sqrt|scale:a|pow:p)")
    p.add_argument("--g2", type=_parse_g, required=True, help="energy map (same forms)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("select", help="pick one frontier point by preference or budget")
    p.add_argument("--frontier", required=True)
    p.add_argument("--alpha", type=float, default=0.5, help="load weight in [0, 1]")
    p.add_argument("--p", type=float, default=1.0, help="Lp exponent >= 1")
    p.add_argument("--theta-target", type=_finite, default=0.0)
    p.add_argument("--energy-target", type=_finite, default=0.0)
    p.add_argument("--budget", type=_number, help="switch to budget mode: max g1(load)")
    p.add_argument("--g1", type=_parse_g, default="identity", help="load map for budget mode")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("bench", help="runtime scaling of the interval solver vs K")
    p.add_argument("--k-list", type=_k_list, default="10,20,40,80,160")
    p.add_argument("--n", type=_count, default=5, help="number of base stations")
    p.add_argument("--slots", type=_count, default=2, help="interval length")
    p.add_argument("--cap", type=_count, default=4, help="load cap")
    p.add_argument("--repeats", type=int, default=3, help="least solves per K")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force cross-checks (hard size caps)")
    common(p)
    p.add_argument("--op", choices=["inner", "plan"], required=True)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--end", type=int, default=2)
    p.add_argument("--epsilon-theta", type=_count)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; raises no ``SystemExit``."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a rejected flag, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except (NoFeasiblePlanError, BudgetInfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AoiPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
