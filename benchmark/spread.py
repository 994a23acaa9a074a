"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmark/spread.py --workload plan-table1 --seeds 1-10 --seconds 40 \
        --out spread.json

Each seed is one untraced ``run.py`` process, run one after another.  For
every end-to-end metric the summary gives the median over seeds and the spread: the
distance between the first and third quartiles (``statistics.quantiles``
with ``n=4``) as a share of the median.  Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4)
    return {"median": mid, "spread": (q3 - q1) / mid if mid else None,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return 1
        runs[seed] = json.loads(lines[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[seed]["metrics"].items()), flush=True)

    names = next(iter(runs.values()))["metrics"]
    summary = {name: summarise([r["metrics"][name]["value"] for r in runs.values()])
               for name in names}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:36s} median {s['median']:.6g}  spread {spread}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
