"""Record the reference outputs the benchmark checks every job against.

    python3 benchmark/record_references.py --out benchmark/references.json

Runs each workload's job once on each of its scenario seeds and stores
its outputs (frontier energies and instants, the plan's energies
and instants, every policy's planned and spent energies and instants).
Run it only on a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, cap_threads, import_program


def write_references(refs: dict, path: Path) -> None:
    """One line per (workload, seed), seeds in numeric order."""
    blocks = []
    for name, table in refs.items():
        rows = [f'  "{seed}": {json.dumps(table[seed])}'
                for seed in sorted(table, key=int)]
        blocks.append(f' "{name}": {{\n' + ",\n".join(rows) + "\n }")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    cap_threads()
    import_program()
    from workloads import JOBS, WORKLOADS, Ops, generate, make_inputs

    refs = {}
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for name, workload in WORKLOADS.items():
            quick = dataclasses.replace(workload, replicas=0)  # outputs only, no Monte Carlo
            for seed in workload.scenarios:
                inp = make_inputs(quick, 0, seed, workdir)
                ops = Ops()
                generate(inp, ops)
                refs.setdefault(name, {})[str(seed)] = JOBS[name](inp, ops).outputs
                print(f"{name} seed {seed}: {ops.attempted} operations", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    write_references(refs, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
