"""Benchmark runner: runs netqwalk CLI workloads on seeded generated inputs.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs come from ``gen.py`` with input seed ``N % 16``; the 16 input sets
are the ones ``reference/*.json`` holds recorded results for.  Every
command runs as ``python -m netqwalk.cli`` in a fresh child process with
``PYTHONPATH=src``, one at a time, while this process only waits.  BLAS
keeps its default thread count, which is recorded.

``--trace 0`` times ``graph-stats`` on the workload graph three times
(``setup_s``), then repeats passes over the workload's commands until the
next pass would end well past ``--seconds``; per-pass figures are
reported as medians.  ``--trace 1`` alternates one untraced pass with one
pass whose commands run under ``spans.py``, and reports per-layer
figures and the tracing overhead.  Every command's reports are checked
(``check.py``); a nonzero exit, a missing report or a failed check counts
as a failed command.

The last stdout line is the result object; the line before it records
the environment, the input sizes and the sample counts.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import check
import gen

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
SOURCE = Path("src")
POOL = 16
SETUP_REPEATS = 3
TIME_LIMIT_S = 165.0

# workload -> (interactome nodes, ((command name, walker flags, grid points), ...))
PRIORITIZE = {
    "continuous-dense": (1500, (
        ("ctqrw", ("--walker", "ctqrw"), 101),
        ("ctrw", ("--walker", "ctrw", "--t-max", "5"), 51),
    )),
    "krylov-collapse": (4000, (
        ("ctqrw-chiral", ("--walker", "ctqrw", "--hamiltonian", "chiral",
                          "--t-max", "5", "--collapse", "1,2,3,4"), 51),
    )),
    "discrete-large": (32000, (
        ("rwr", ("--walker", "rwr"), 1),
        ("dtrw", ("--walker", "dtrw"), 20),
        ("dtqrw", ("--walker", "dtqrw"), 20),
    )),
}
CCI_PER_LAYER = 150
CCI_STEPS = 5
CCI_EPSILON = 0.01        # 0.05 leaves the support subgraph empty at this size
WORKLOADS = (*PRIORITIZE, "cci")

# spans each workload must record calls to; a traced pass that misses one fails
COMMON_SPANS = ("cli.import", "cli.main", "graphs.ingest", "graphs.component", "pipeline.emit")
MUST_HIT = {
    "continuous-dense": ("pipeline.seeds", "ctqrw.build", "ctqrw.evolve", "expm.spectral",
                         "expm.action", "metrics.rank", "metrics.score"),
    "krylov-collapse": ("pipeline.seeds", "ctqrw.build", "ctqrw.evolve", "expm.action",
                        "expm.krylov_iters", "metrics.rank", "metrics.score"),
    "discrete-large": ("pipeline.seeds", "classical.evolve", "dtqrw.evolve",
                       "dtqrw.arc_basis", "metrics.rank", "metrics.score"),
    "cci": ("classical.evolve", "dtqrw.evolve", "dtqrw.arc_basis",
            "metrics.distance", "metrics.support"),
}

LAYERS = ("cli", "graphs", "pipeline", "ctqrw", "expm", "classical", "dtqrw", "metrics")
# per-layer metric -> (span, aggregate field)
SPAN_METRICS = {
    "cli.import_s": ("cli.import", "self_s"),
    "cli.self_s": ("cli.main", "self_s"),
    "graphs.ingest_s": ("graphs.ingest", "self_s"),
    "graphs.component_s": ("graphs.component", "self_s"),
    "pipeline.seeds_s": ("pipeline.seeds", "self_s"),
    "pipeline.emit_s": ("pipeline.emit", "self_s"),
    "ctqrw.build_s": ("ctqrw.build", "self_s"),
    "ctqrw.evolve_s": ("ctqrw.evolve", "self_s"),
    "expm.spectral_s": ("expm.spectral", "self_s"),
    "expm.spectral_calls": ("expm.spectral", "calls"),
    "expm.action_s": ("expm.action", "self_s"),
    "expm.action_calls": ("expm.action", "calls"),
    "classical.evolve_s": ("classical.evolve", "self_s"),
    "classical.steps": ("classical.evolve", "steps"),
    "dtqrw.evolve_s": ("dtqrw.evolve", "self_s"),
    "dtqrw.steps": ("dtqrw.evolve", "steps"),
    "dtqrw.arc_basis_s": ("dtqrw.arc_basis", "self_s"),
    "dtqrw.arc_basis_calls": ("dtqrw.arc_basis", "calls"),
    "metrics.rank_s": ("metrics.rank", "self_s"),
    "metrics.rank_calls": ("metrics.rank", "calls"),
    "metrics.score_s": ("metrics.score", "self_s"),
    "metrics.distance_s": ("metrics.distance", "self_s"),
    "metrics.support_s": ("metrics.support", "self_s"),
}
UNITS = {"_s": "s", "_mb": "MB", "_pct": "%"}


@dataclass
class Command:
    name: str
    args: list[str]           # netqwalk arguments
    points: int               # walk evaluations the command performs
    out: Path | None          # report directory, cleared before each run
    check: Callable[[str], list[str]]   # stdout text -> problems


@dataclass
class Workload:
    setup: Command
    commands: list[Command]
    sizes: dict


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]


def load_reference(workload: str, input_seed: int) -> dict:
    data = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    return data["seeds"][str(input_seed)]


def _setup(graph: Path) -> tuple[Command, dict]:
    truth = check.edge_list_stats(graph)
    command = Command("graph-stats", ["graph-stats", "--graph", str(graph)], 0, None,
                      lambda stdout: check.check_graph_stats(stdout, truth))
    return command, truth


def build_workload(name: str, input_seed: int, reference: dict | None) -> Workload:
    """Generate the inputs and the command list.  ``reference`` maps each
    prioritize command to its recorded sweep rows; None skips the sweep
    comparison (used when recording references)."""
    inputs = WORK / "inputs"
    if name == "cci":
        files = gen.write_cci(inputs, CCI_PER_LAYER, input_seed)
        setup, truth = _setup(files.edges_path)
        expected = check.cci_oracle(files.nodes_path, files.edges_path, CCI_STEPS,
                                    files.targets, CCI_EPSILON)
        out = WORK / "out" / "cci"
        command = Command(
            "cci",
            ["cci", "--nodes", str(files.nodes_path), "--edges", str(files.edges_path),
             "--steps", str(CCI_STEPS), "--targets", ",".join(files.targets),
             "--epsilon", str(CCI_EPSILON), "--out", str(out)],
            2 * len(expected.labels), out, lambda _, out=out: check.check_cci(out, expected),
        )
        return Workload(setup, [command], {"nodes": len(expected.labels), "edges": truth["edges"]})

    n, specs = PRIORITIZE[name]
    files = gen.write_interactome(inputs, n, input_seed)
    setup, truth = _setup(files.graph)
    commands = []
    for cmd, flags, points in specs:
        out = WORK / "out" / cmd
        ref = None if reference is None else reference[cmd]

        def verify(_stdout, out=out, ref=ref):
            return [] if ref is None else check.check_sweep(out, ref, truth)

        commands.append(Command(
            cmd,
            ["prioritize", "--graph", str(files.graph), "--scores", str(files.scores),
             "--targets", str(files.targets), *flags, "--rng-seed", str(input_seed),
             "--out", str(out)],
            points, out, verify,
        ))
    return Workload(setup, commands, {"nodes": truth["nodes"], "edges": truth["edges"]})


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NETQWALK_")}
    env["PYTHONPATH"] = str(SOURCE.resolve())
    return env


class Runner:
    """Spawns one child at a time and checks what it wrote."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.tally = Tally()
        self.env = child_env()
        self.logs = WORK / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)

    def spawn(self, argv: list[str]) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit code) of one child process,
        started through ``launch.py``."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        done = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), str(timeout),
             str(self.logs / "stdout"), str(self.logs / "stderr"), "--", *argv],
            stdout=subprocess.PIPE, env=self.env, text=True, timeout=timeout + 10,
        )
        if done.returncode != 0:
            return 0.0, 0.0, -1
        result = json.loads(done.stdout)
        return result["seconds"], result["rss_mb"], result["exit"]

    def run(self, command: Command, traced: Path | None = None) -> tuple[float, float]:
        """Run and check one command, under ``spans.py`` when ``traced``."""
        if command.out is not None:
            shutil.rmtree(command.out, ignore_errors=True)
        argv = [sys.executable]
        if traced is None:
            argv += ["-m", "netqwalk.cli", *command.args]
        else:
            argv += [str(HERE / "spans.py"), str(traced), "--", *command.args]
        seconds, rss, code = self.spawn(argv)
        if code != 0:
            err = (self.logs / "stderr").read_text().strip().splitlines()
            problems = [f"exit code {code}" + (f": {err[-1]}" if err else "")]
        else:
            problems = command.check((self.logs / "stdout").read_text())
        self.tally.record(command.name, problems)
        return seconds, rss

    def out_of_time(self, next_s: float) -> bool:
        return time.monotonic() + next_s > self.deadline


def keep_going(started: float, passes: int, seconds: float, runner: Runner) -> bool:
    """Another pass fits when it ends less than half a pass past ``seconds``."""
    elapsed = time.monotonic() - started
    per_pass = elapsed / passes
    return elapsed + 0.5 * per_pass < seconds and not runner.out_of_time(1.5 * per_pass)


def measure(workload: Workload, seconds: float, runner: Runner) -> tuple[dict, dict]:
    setup = [runner.run(workload.setup)[0] for _ in range(SETUP_REPEATS)]
    points = sum(c.points for c in workload.commands)
    run_s, rate, rss = [], [], []
    started = time.monotonic()
    while True:
        results = [runner.run(c) for c in workload.commands]
        total = sum(s for s, _ in results)
        run_s.append(total)
        rate.append(points / total if total > 0 else 0.0)
        rss.append(max(r for _, r in results))
        if not keep_going(started, len(run_s), seconds, runner):
            break
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "points_per_s": (statistics.median(rate), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"setup_s": len(setup), "passes": len(run_s), "points_per_pass": points,
               "setup_times_s": setup, "pass_times_s": run_s}
    return metrics, samples


def layer_metrics(runs: list[dict]) -> tuple[dict, set]:
    """Per-layer figures of one traced pass, from its commands' span files,
    and the names of the spans and counters that recorded calls."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    report_bytes = 0
    for run in runs:
        report_bytes += run["report_bytes"]
        for name, count in run["counters"].items():
            counters[name] = counters.get(name, 0) + count
        for name, agg in run["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "steps": 0, "rss_mb": 0.0})
            for key in ("calls", "self_s", "steps"):
                into[key] += agg[key]
            into["rss_mb"] = max(into["rss_mb"], agg["rss_mb"])
    out = {}
    for metric, (span, key) in SPAN_METRICS.items():
        out[metric] = spans.get(span, {}).get(key, 0)
    out["expm.krylov_iters"] = counters.get("expm.krylov_iters", 0)
    out["pipeline.report_bytes"] = report_bytes
    for layer in LAYERS:
        out[f"{layer}.rss_mb"] = max(
            (agg["rss_mb"] for name, agg in spans.items() if name.startswith(layer + ".")),
            default=0.0,
        )
    hit = {name for name, agg in spans.items() if agg["calls"]}
    hit |= {name for name, count in counters.items() if count}
    return out, hit


def measure_traced(name: str, workload: Workload, seconds: float,
                   runner: Runner) -> tuple[dict, dict]:
    commands = [workload.setup, *workload.commands]
    span_file = WORK / "logs" / "spans.json"
    untraced, traced, layers = [], [], []
    started = time.monotonic()
    while True:
        untraced.append(sum(runner.run(c)[0] for c in commands))
        total, runs = 0.0, []
        for command in commands:
            span_file.unlink(missing_ok=True)
            total += runner.run(command, traced=span_file)[0]
            if span_file.is_file():
                runs.append(json.loads(span_file.read_text()))
        traced.append(total)
        figures, hit = layer_metrics(runs)
        missing = [s for s in (*COMMON_SPANS, *MUST_HIT[name]) if s not in hit]
        runner.tally.record("traced pass", [f"span {s} recorded no calls" for s in missing])
        layers.append(figures)
        if not keep_going(started, len(traced), seconds, runner):
            break
    metrics = {}
    for key in layers[0]:
        unit = next((u for suffix, u in UNITS.items() if key.endswith(suffix)), "count")
        metrics[key] = (statistics.median(f[key] for f in layers), unit)
    metrics["trace.untraced_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_s"] = (statistics.median(traced), "s")
    overhead = [100.0 * (t - u) / u for t, u in zip(traced, untraced)]
    metrics["trace.overhead_pct"] = (statistics.median(overhead), "%")
    return metrics, {"passes": len(traced), "untraced_times_s": untraced,
                     "traced_times_s": traced}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def prepare_source() -> str | None:
    """Byte-compile the package; an error message if it cannot be used."""
    if not (SOURCE / "netqwalk" / "cli.py").is_file():
        return f"no netqwalk sources under {SOURCE}/ in {Path.cwd()}"
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SOURCE / "netqwalk")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        return f"cannot compile netqwalk: {done.stderr.strip()}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = prepare_source()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    input_seed = args.seed % POOL
    reference = None if args.workload == "cci" else load_reference(args.workload, input_seed)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        workload = build_workload(args.workload, input_seed, reference)
        runner = Runner(deadline)
        if args.trace:
            metrics, samples = measure_traced(args.workload, workload, args.seconds, runner)
        else:
            metrics, samples = measure(workload, args.seconds, runner)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    tally = runner.tally
    for line in tally.problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "input_seed": input_seed,
        "trace": args.trace, "inputs": workload.sizes, "samples": samples,
        "error_rate": tally.failed / tally.attempted, "environment": environment(),
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
