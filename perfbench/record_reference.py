"""Record the reference sweep columns that ``check.check_sweep`` compares.

Usage, from the root of a source checkout::

    python3 perfbench/record_reference.py

For every prioritize workload and every input seed of the pool, runs
the workload's commands once and stores the ``grid_value``, ``ap_at_K``
and ``p_at_K`` columns in ``perfbench/reference/WORKLOAD.json``.
Run it only on a commit whose outputs are trusted; the committed files
were recorded on the commit that added the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import check
import run


def record(workload: str) -> dict:
    seeds = {}
    for input_seed in range(run.POOL):
        shutil.rmtree(run.WORK, ignore_errors=True)
        spec = run.build_workload(workload, input_seed, reference=None)
        runner = run.Runner(time.monotonic() + 600)
        seeds[str(input_seed)] = {}
        for command in spec.commands:
            runner.run(command)
            seeds[str(input_seed)][command.name] = check.read_sweep(command.out / "sweep.csv")
        if runner.tally.failed:
            raise SystemExit(f"{workload} seed {input_seed}: {runner.tally.problems}")
        print(f"{workload} seed {input_seed}: recorded", file=sys.stderr)
    shutil.rmtree(run.WORK, ignore_errors=True)
    return {"pool": run.POOL, "columns": ["grid_value", *check.SWEEP_COLUMNS], "seeds": seeds}


def main() -> int:
    problem = run.prepare_source()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    out = run.HERE / "reference"
    out.mkdir(exist_ok=True)
    for workload in run.PRIORITIZE:
        data = record(workload)
        (out / f"{workload}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
