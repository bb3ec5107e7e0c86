"""Run one ``netqwalk`` command in this process with per-layer spans.

Usage: ``python3 perfbench/spans.py SPANS.json -- <netqwalk arguments>``

The public functions of each layer are wrapped where their callers look
them up: every ``netqwalk`` module attribute that refers to the original
function object is replaced, so ``ctqrw.expm_action`` and
``pipeline.read_edge_list`` are both traced, and a function that moves to
another module is still found by name.  ``scipy.linalg.eigh`` and
``scipy.linalg.eigh_tridiagonal`` are patched on ``scipy.linalg`` as well.

Each span records its name, start, end, parent and the process's RSS
high-water mark at its end.  Spans stay in memory; when the command ends
their aggregates go to ``SPANS.json``: per span name the call count, the
self time (duration minus the time covered by child spans), the summed
step arguments and the largest RSS mark.  The process exit code is the
command's; 3 means a layer function could not be found.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from pathlib import Path

# (span, function name, module that defines it, argument summed into the
#  span's step count).  If dtqrw.evolve left dtqrw, the name would resolve to
#  ctqrw.evolve, which no workload calls, and the missing-span check fails.
TARGETS = (
    ("graphs.ingest", "read_edge_list", "netqwalk.graphs", None),
    ("graphs.ingest", "parse_node_layers", "netqwalk.graphs", None),
    ("graphs.ingest", "parse_label_pairs", "netqwalk.graphs", None),
    ("graphs.ingest", "build_cci_graph", "netqwalk.graphs", None),
    ("graphs.component", "greatest_component", "netqwalk.graphs", None),
    ("graphs.component", "graph_stats", "netqwalk.graphs", None),
    ("pipeline.seeds", "read_score_table", "netqwalk.pipeline", None),
    ("pipeline.seeds", "build_seed_target_sets", "netqwalk.pipeline", None),
    ("pipeline.emit", "emit_reports", "netqwalk.pipeline", None),
    ("pipeline.emit", "emit_cci_reports", "netqwalk.pipeline", None),
    ("ctqrw.build", "build_hamiltonian", "netqwalk.ctqrw", None),
    ("ctqrw.evolve", "evolve_with_collapses", "netqwalk.ctqrw", None),
    ("expm.action", "expm_action", "netqwalk.expm", None),
    ("expm.action", "real_expm_action", "netqwalk.expm", None),
    ("classical.evolve", "rwr_steady_state", "netqwalk.classical", None),
    ("classical.evolve", "rwr_iterate", "netqwalk.classical", "n_iter"),
    ("classical.evolve", "dtrw_evolve", "netqwalk.classical", "steps"),
    ("dtqrw.evolve", "evolve", "netqwalk.dtqrw", "steps"),
    ("dtqrw.arc_basis", "arc_basis", "netqwalk.dtqrw", None),
    ("metrics.rank", "rank_by_probability", "netqwalk.ctqrw", None),
    ("metrics.score", "average_precision_at_k", "netqwalk.metrics", None),
    ("metrics.score", "precision_at_k", "netqwalk.metrics", None),
    ("metrics.distance", "pairwise_distance_matrix", "netqwalk.metrics", None),
    ("metrics.support", "walk_support_subgraph", "netqwalk.metrics", None),
)
SCIPY_SPANS = (("expm.spectral", "eigh"),)
SCIPY_COUNTERS = (("expm.krylov_iters", "eigh_tridiagonal"),)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, steps, rss_mb]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def open(self, name: str, steps: int = 0) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, steps, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()
        span[5] = _rss_mb()

    def wrap(self, fn, name: str, step_arg: str | None):
        signature = inspect.signature(fn) if step_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = 0
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                steps = int(bound.arguments[step_arg])
            span = self.open(name, steps)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def count(self, fn, name: str):
        self.counters[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def aggregate(self) -> dict:
        """Per span name: calls, self_s, steps and rss_mb."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, steps, rss) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "steps": 0, "rss_mb": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - covered[i]
            agg["steps"] += steps
            agg["rss_mb"] = max(agg["rss_mb"], rss)
        return out


def _replace(modules, old, new) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _resolve(modules, name: str, home: str):
    """The function ``home.name``, or else the one function of that name
    in any loaded ``netqwalk`` module, so a moved function is still found."""
    fn = getattr(sys.modules.get(home), name, None)
    if inspect.isfunction(fn):
        return fn
    found = {}
    for module in modules:
        value = getattr(module, name, None)
        if inspect.isfunction(value):
            found[id(value)] = value
    if len(found) == 1:
        return next(iter(found.values()))
    raise LookupError(f"cannot find the netqwalk function {name!r} to trace")


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its callers look it up."""
    import scipy.linalg

    modules = [m for key, m in sorted(sys.modules.items())
               if key == "netqwalk" or key.startswith("netqwalk.")]
    for span, name, home, step_arg in TARGETS:
        fn = _resolve(modules, name, home)
        _replace(modules, fn, tracer.wrap(fn, span, step_arg))
    for span, name in SCIPY_SPANS:
        fn = getattr(scipy.linalg, name)
        _replace(modules + [scipy.linalg], fn, tracer.wrap(fn, span, None))
    for counter, name in SCIPY_COUNTERS:
        fn = getattr(scipy.linalg, name)
        _replace(modules + [scipy.linalg], fn, tracer.count(fn, counter))


def _report_bytes(argv: list[str]) -> int:
    if "--out" not in argv:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, argv = Path(sys.argv[1]), sys.argv[3:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    from netqwalk import cli
    tracer.close(span)
    try:
        install(tracer)
    except LookupError as exc:
        print(f"spans: {exc}", file=sys.stderr)
        return 3
    span = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(span)
    spans_path.write_text(json.dumps({
        "spans": tracer.aggregate(),
        "counters": tracer.counters,
        "report_bytes": _report_bytes(argv),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
