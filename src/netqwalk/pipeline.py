"""Experiment drivers: prioritization sweeps and CCI walk analysis.

The prioritization driver loads an interactome, restricts it to the
greatest connected component, seeds a walker from significance-filtered
genes, sweeps the walk parameter (time or steps; rwr has one point),
and scores the resulting rankings against a held-out target set with
precision@K and average precision@K.  The cell-cell-interaction driver
runs the ``PROFILES`` walkers over a symmetrized multipartite graph, compares
per-node transition profiles through their pairwise distances, and
extracts the communication subgraph supported by the walk.  Both
drivers emit deterministic CSV/JSON reports.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import logging
import os
import pickle
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import classical, ctqrw, dtqrw
from .graphs import (
    LabeledGraph,
    PartitionedCciGraph,
    as_int,
    build_cci_graph,
    graph_stats,
    greatest_component,
    parse_label_pairs,
    parse_node_layers,
    read_edge_list,
    read_table,
    read_text,
    symmetrized_view,
)
from .metrics import (
    _rank,
    average_precision_at_k,
    pairwise_distance_matrix,
    precision_at_k,
    rank_by_probability,
    walk_support_subgraph,
)

logger = logging.getLogger(__name__)

#: walker -> (grid kind, sweep).  ``sweep(gc, p0, grid, config)`` yields one
#: node distribution per grid value, in grid order.
SWEEPS = {
    "rwr": ("steady", classical.rwr_sweep),
    "ctrw": ("time", classical.ctrw_sweep),
    "dtrw": ("steps", classical.dtrw_sweep),
    "ctqrw": ("time", ctqrw.sweep),
    "dtqrw": ("steps", dtqrw.sweep),
}
WALKERS = tuple(SWEEPS)

#: Largest sweep grid a configuration may ask for.
MAX_GRID_POINTS = 100_000

SWEEP_CSV = "sweep.csv"
SUMMARY_JSON = "summary.json"
MANIFEST_JSON = "manifest.json"
CCI_MANIFEST_JSON = "cci_manifest.json"

#: How many leading labels of each ranking land in the sweep CSV.
_DIGEST_TOP = 10

# Known fault: these walkers tie only equal values, so probabilities that
# are exactly equal but stored a few ulp apart are ranked in rounding order,
# not by node index as ``metrics.rank_by_probability`` promises.  Their sparse
# products round in a fixed order, so the reports are still reproducible.
# The ``discrete-large`` references in ``perfbench/reference/`` hold this
# order; drop the exception when they are recorded again (ROADMAP item 1).
_EXACT_TIE_WALKERS = ("dtrw", "dtqrw")


def _as_tuple(values, name: str) -> tuple:
    """``values`` as a tuple; a ValueError names the field ``name`` given one string."""
    if isinstance(values, str):
        raise ValueError(f"{name} must be a sequence, not the string {values!r}")
    return tuple(values)


def _reject_repeats(values, what: str) -> None:
    """Raise a ``ValueError`` naming the first value that ``values`` repeats."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"duplicate {what} {value!r}")
        seen.add(value)


# ---------------------------------------------------------------------------
# score tables and seed/target selection
# ---------------------------------------------------------------------------

def parse_score_table(text: str) -> dict[str, float]:
    """Parse a two-column ``label<TAB>p-value`` table.

    Comment lines start with ``#``; blank lines are skipped.  Any run of
    whitespace separates the columns.  Duplicate labels and unparseable
    values or values outside [0, 1] are rejected with the offending line
    number.
    """
    fields, _, p = read_table(
        text, (2,), "label value", "score table",
        sep=None, number=(1, "p-value", 1.0), unique=True,
    )
    return dict(zip(fields[:, 0].tolist(), p.tolist()))


def read_score_table(path) -> dict[str, float]:
    """Read a ``label<TAB>p-value`` table (UTF-8) from ``path``."""
    return parse_score_table(read_text(path))


@dataclass(frozen=True)
class SeedTargetSets:
    """Significance-filtered seed and target gene sets.

    Genes passing both filters are kept as seeds and removed from the
    targets, so the two sets are disjoint.
    """

    seeds: tuple[str, ...]
    targets: tuple[str, ...]
    intersection_removed: int


def build_seed_target_sets(
    scores: dict[str, float],
    seed_thresh: float,
    target_table: dict[str, float],
    target_thresh: float,
) -> SeedTargetSets:
    """Select seeds and targets by strict p-value thresholds.

    A gene is a seed when its score satisfies ``p < seed_thresh`` and a
    target when ``p < target_thresh`` in the target table; genes in both
    filtered sets stay seeds only.
    """
    if not scores or not target_table:
        raise ValueError("score tables must be nonempty")
    for name, thresh in (("seed_thresh", seed_thresh), ("target_thresh", target_thresh)):
        if not thresh > 0:  # NaN fails this test too
            raise ValueError(f"{name} must be positive, got {thresh:g}")
    seeds = {label for label, p in scores.items() if p < seed_thresh}
    raw_targets = {label for label, p in target_table.items() if p < target_thresh}
    if not seeds:
        raise ValueError(
            f"no seeds pass the threshold p < {seed_thresh:g}"
        )
    overlap = seeds & raw_targets
    targets = raw_targets - overlap
    if not targets:
        raise ValueError(
            f"no targets outside the seed set pass the threshold p < {target_thresh:g}"
        )
    logger.info(
        "selected %d seeds (p < %g) and %d targets (p < %g, %d overlapping removed)",
        len(seeds), seed_thresh, len(targets), target_thresh, len(overlap),
    )
    return SeedTargetSets(
        seeds=tuple(sorted(seeds)),
        targets=tuple(sorted(targets)),
        intersection_removed=len(overlap),
    )


# ---------------------------------------------------------------------------
# prioritization sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One prioritization run: data paths, walker, grid, and evaluation.

    Continuous walkers sweep ``t = 0, t_step, ..., t_max``; discrete
    walkers sweep ``1..steps_max`` steps.  The restart walk has one grid
    point, the steady state of the restart equation.
    """

    graph_path: str
    scores_path: str
    targets_path: str
    walker: str = "ctqrw"
    hamiltonian: str = "adjacency"
    alpha: float = 0.85
    t_max: float = 10.0
    t_step: float = 0.1
    steps_max: int = 20
    collapse_times: tuple[float, ...] = ()
    k_list: tuple[int, ...] = (20, 50, 100)
    seed_thresh: float = 0.01
    target_thresh: float = 5e-8
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.walker not in WALKERS:
            raise ValueError(f"unknown walker {self.walker!r}; expected {WALKERS}")
        if self.hamiltonian not in ctqrw.HAMILTONIAN_KINDS:
            raise ValueError(f"unknown hamiltonian {self.hamiltonian!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        object.__setattr__(self, "rng_seed", as_int(self.rng_seed, "rng_seed"))
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        for name in ("t_max", "t_step"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_step <= 0 or self.t_max < 0:
            raise ValueError("time grid requires t_step > 0 and t_max >= 0")
        object.__setattr__(self, "steps_max", as_int(self.steps_max, "steps_max"))
        if self.steps_max < 1:
            raise ValueError("steps_max must be >= 1")
        # bound the grid before grid_points builds it; the float ratio catches inf
        kind = SWEEPS[self.walker][0]
        if kind == "time" and self.t_max / self.t_step + 1 > MAX_GRID_POINTS:
            raise ValueError(f"t_max / t_step gives more than {MAX_GRID_POINTS} grid points")
        if kind == "steps" and self.steps_max > MAX_GRID_POINTS:
            raise ValueError(f"steps_max gives more than {MAX_GRID_POINTS} grid points")
        k_list = tuple(as_int(k, "K value") for k in _as_tuple(self.k_list, "k_list"))
        object.__setattr__(self, "k_list", k_list)
        if not k_list or any(k < 1 for k in k_list):
            raise ValueError("k_list must be nonempty with every K >= 1")
        # a repeated K would repeat its report columns and collapse its summary key
        _reject_repeats(k_list, "K value")
        collapses = _as_tuple(self.collapse_times, "collapse_times")
        if collapses and self.walker != "ctqrw":
            raise ValueError("a collapse schedule requires walker='ctqrw'")
        # normalize the path fields and validate the collapse schedule
        for name in ("graph_path", "scores_path", "targets_path"):
            object.__setattr__(self, name, str(getattr(self, name)))
        sched = ctqrw.CollapseSchedule(collapses)
        object.__setattr__(self, "collapse_times", sched.times)
        # a collapse at or past the last grid time would act on no grid point
        sched.validate_horizon(self.grid_points()[1][-1])

    def grid_points(self) -> tuple[str, tuple]:
        """(kind, values) of the sweep grid for the configured walker."""
        kind = SWEEPS[self.walker][0]
        if kind == "time":
            count = int(np.floor(self.t_max / self.t_step + 1e-9))
            return kind, tuple(round(i * self.t_step, 10) for i in range(count + 1))
        if kind == "steps":
            return kind, tuple(range(1, self.steps_max + 1))
        return kind, (0.0,)


@dataclass(frozen=True)
class GridRecord:
    """Evaluation of one grid point: AP@K and P@K per configured K."""

    grid_value: float
    ap: tuple[float, ...]
    prec: tuple[float, ...]
    ranking_sha256: str
    top_labels: tuple[str, ...]


@dataclass(frozen=True)
class SweepResult:
    """Full sweep output plus the metadata needed to reproduce it."""

    config: ExperimentConfig
    grid_kind: str
    records: tuple[GridRecord, ...]
    graph_summary: dict
    module_summary: dict

    def summary(self) -> dict:
        """Per-K maxima and means over the grid."""
        per_k = {}
        for i, k in enumerate(self.config.k_list):
            series = np.array([r.ap[i] for r in self.records])
            best = int(np.argmax(series))
            per_k[str(k)] = {
                "max_ap": float(series[best]),
                "argmax_grid_value": float(self.records[best].grid_value),
                "mean_ap": float(series.mean()),
            }
        return {
            "walker": self.config.walker,
            "grid_kind": self.grid_kind,
            "n_grid_points": len(self.records),
            "per_k": per_k,
        }


def run_prioritization(config: ExperimentConfig) -> SweepResult:
    """Execute one prioritization sweep end to end.

    The graph is restricted to its greatest component before any walk;
    seeds outside the component are dropped with a warning, and the
    ranking never contains a seed.
    """
    g = read_edge_list(config.graph_path)
    stats = graph_stats(g)
    gc = greatest_component(g)
    st = build_seed_target_sets(
        read_score_table(config.scores_path),
        config.seed_thresh,
        read_score_table(config.targets_path),
        config.target_thresh,
    )
    seeds_in_gc = [s for s in st.seeds if s in gc]
    dropped = len(st.seeds) - len(seeds_in_gc)
    if dropped:
        logger.warning(
            "%d of %d seeds fall outside the greatest component and are dropped",
            dropped, len(st.seeds),
        )
    if not seeds_in_gc:
        raise ValueError("no seed genes fall inside the greatest component")
    targets_in_gc = [t for t in st.targets if t in gc]
    if not targets_in_gc:
        raise ValueError("no target genes fall inside the greatest component")

    # seeds and targets are disjoint, and some seed lies in the component
    seeds_in_graph = sum(1 for s in st.seeds if s in g)
    targets_in_graph = sum(1 for t in st.targets if t in g)
    module_summary = {
        "seeds_total": len(st.seeds),
        "targets_total": len(st.targets),
        "intersection_removed": st.intersection_removed,
        "seeds_in_graph": seeds_in_graph,
        "seeds_in_gc": len(seeds_in_gc),
        "targets_in_graph": targets_in_graph,
        "targets_in_gc": len(targets_in_gc),
        "gc_module_fraction": (
            (len(seeds_in_gc) + len(targets_in_gc)) / (seeds_in_graph + targets_in_graph)
        ),
    }
    # the walk reads only the component, so the input graph need not outlive it
    del g

    seed_nodes = [gc.index(s) for s in seeds_in_gc]
    p0 = np.zeros(gc.n)
    p0[seed_nodes] = 1.0
    p0 /= p0.sum()
    relevance = set(targets_in_gc)
    grid_kind, grid = config.grid_points()
    sweep = SWEEPS[config.walker][1]
    records = []
    for grid_value, p in zip(grid, sweep(gc, p0, grid, config)):
        if config.walker in _EXACT_TIE_WALKERS:
            ranking = _rank(p, gc.labels, seed_nodes, 0.0, 0.0)
        else:
            ranking = rank_by_probability(p, labels=gc.labels, exclude=seed_nodes)
        digest = hashlib.sha256("\n".join(ranking.items).encode()).hexdigest()
        records.append(
            GridRecord(
                grid_value=float(grid_value),
                ap=tuple(
                    average_precision_at_k(ranking, relevance, k)
                    for k in config.k_list
                ),
                prec=tuple(
                    precision_at_k(ranking, relevance, k) for k in config.k_list
                ),
                ranking_sha256=digest,
                top_labels=ranking.items[:_DIGEST_TOP],
            )
        )
    return SweepResult(
        config=config,
        grid_kind=grid_kind,
        records=tuple(records),
        # gc is one component, so its stats need no second labelling
        graph_summary={"graph": stats, "gc": {
            "nodes": gc.n, "edges": gc.edge_count, "fragments": 1,
            "gc_nodes": gc.n, "gc_edges": gc.edge_count}},
        module_summary=module_summary,
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _csv_cell(text: str) -> str:
    """``text`` as one field of a row that ``csv.writer`` writes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def emit_reports(result: SweepResult, out_dir) -> list[Path]:
    """Write ``sweep.csv``, ``summary.json`` and ``manifest.json``.

    Outputs are deterministic: the same result writes byte-identical
    files.
    """
    if not result.records:
        raise ValueError("refusing to emit reports for an empty grid")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k_list = result.config.k_list

    sweep_path = out / SWEEP_CSV
    with sweep_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["walker", "grid_kind", "grid_value"]
            + [f"ap_at_{k}" for k in k_list]
            + [f"p_at_{k}" for k in k_list]
            + ["ranking_sha256", "top_nodes"]
        )
        for rec in result.records:
            writer.writerow(
                [result.config.walker, result.grid_kind, _fmt(rec.grid_value)]
                + [_fmt(v) for v in rec.ap]
                + [_fmt(v) for v in rec.prec]
                + [rec.ranking_sha256, "|".join(rec.top_labels)]
            )

    summary_path = out / SUMMARY_JSON
    _write_json(summary_path, result.summary())

    manifest_path = out / MANIFEST_JSON
    _write_json(
        manifest_path,
        {
            "config": asdict(result.config),
            "graph": result.graph_summary,
            "module": result.module_summary,
            "outputs": [SWEEP_CSV, SUMMARY_JSON, MANIFEST_JSON],
        },
    )
    return [sweep_path, summary_path, manifest_path]


# ---------------------------------------------------------------------------
# CCI analysis
# ---------------------------------------------------------------------------

#: walker -> ``profiles(g, steps)``, which yields ``(nodes, block)`` pairs whose column ``c``
#: is the distribution after ``steps`` from ``nodes[c]``; it decides which nodes launch.
PROFILES = {"dtrw": classical.dtrw_profiles, "dtqrw": dtqrw.profiles}

_DISTANCE_ROWS = 64  # ``emit_cci_reports`` makes the distances this many rows at a time


@dataclass(frozen=True)
class CciConfig:
    """One CCI run: data paths, step count, targets and threshold."""

    nodes_path: str
    edges_path: str
    steps: int = 5
    targets: tuple[str, ...] = ()
    epsilon: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", as_int(self.steps, "steps"))
        if not 1 <= self.steps <= MAX_GRID_POINTS:
            raise ValueError(f"steps must lie in [1, {MAX_GRID_POINTS}], got {self.steps}")
        object.__setattr__(self, "targets", _as_tuple(self.targets, "targets"))
        if not self.targets:
            raise ValueError("at least one target node label is required")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        object.__setattr__(self, "nodes_path", str(self.nodes_path))
        object.__setattr__(self, "edges_path", str(self.edges_path))
        _reject_repeats(self.targets, "target")


@dataclass(frozen=True)
class CciWalkerOutput:
    """Profiles and support subgraph for one walker; ``emit_cci_reports``
    writes the profiles' pairwise distances in row blocks."""

    profiles: np.ndarray
    support: LabeledGraph
    zero_rows: tuple[str, ...]


@dataclass(frozen=True)
class CciResult:
    config: CciConfig
    cci: PartitionedCciGraph
    walkers: dict


def run_cci_analysis(config: CciConfig) -> CciResult:
    """Run every walker of ``PROFILES`` over a CCI graph and compare profiles.

    Each walker produces an ``n x n`` matrix of transition profiles
    after ``config.steps`` steps on the symmetrized view (row = start
    node) and the communication subgraph supported at ``config.epsilon``.
    A node that the walker does not launch from, for the coined walker a
    node of degree 0, keeps a zero row, which is flagged.  Any walker
    error propagates.
    """
    cci = build_cci_graph(
        parse_node_layers(read_text(config.nodes_path)),
        parse_label_pairs(read_text(config.edges_path)),
    )
    for t in config.targets:
        cci.graph.index(t)  # raises KeyError for unknown labels
    sym = symmetrized_view(cci)
    walkers = {}
    for walker, blocks in PROFILES.items():
        profiles = np.zeros((sym.n, sym.n))
        for nodes, block in blocks(sym, config.steps):
            profiles[nodes] = block.T
        walkers[walker] = CciWalkerOutput(
            profiles=profiles,
            support=walk_support_subgraph(cci, profiles, config.targets, config.epsilon),
            zero_rows=tuple(sym.labels[j] for j in np.flatnonzero(~profiles.any(axis=1))),
        )
    return CciResult(config=config, cci=cci, walkers=walkers)


def _write_walker_reports(paths: dict, output: CciWalkerOutput, labels) -> None:
    """Write one walker's profiles, distances and support files to ``paths[kind]``."""
    # each row is its csv-quoted label and the entries as _fmt writes them
    row_cells = [_csv_cell(label) + "," for label in labels]
    row_values = ",".join(["%.17g"] * len(labels)) + "\n"
    prof = output.profiles
    distance_blocks = (
        pairwise_distance_matrix(prof[lo : lo + _DISTANCE_ROWS], prof)
        for lo in range(0, prof.shape[0], _DISTANCE_ROWS)
    )
    for path, blocks in ((paths["profiles"], [prof]), (paths["distances"], distance_blocks)):
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(["node"] + list(labels))
            # one row of Python floats at a time keeps the peak memory flat
            fh.writelines(
                cell + row_values % tuple(row.tolist())
                for cell, row in zip(row_cells, chain.from_iterable(blocks))
            )
    with paths["support"].open("w", encoding="utf-8") as fh:
        fh.write("# directed support edges: tail<TAB>head\n")
        for j, k in output.support.edges:
            fh.write(f"{labels[j]}\t{labels[k]}\n")


def _fork(write, *args) -> tuple[int, int]:
    """Run ``write(*args)`` in a forked child; return its pid and the read end
    of a pipe on which it sends its exception, pickled, if it raises one."""
    read_fd, write_fd = os.pipe()
    if pid := os.fork():
        os.close(write_fd)
        return pid, read_fd
    # the child never returns to the caller, flushes its stdio or runs its exit handlers
    try:
        write(*args)
        os._exit(0)
    except BaseException as exc:
        with os.fdopen(write_fd, "wb") as fh:  # loops over partial writes
            fh.write(pickle.dumps(exc))
    finally:
        os._exit(1)


def emit_cci_reports(result: CciResult, out_dir) -> list[Path]:
    """Write per-walker profile/distance CSVs, support TSVs, and a manifest; each walker but
    the last by name in a forked child, where ``os.fork`` exists, with the same bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = result.cci.graph.labels
    jobs = [(walker, {kind: out / f"cci_{walker}_{kind}.{ext}" for kind, ext in
                      (("profiles", "csv"), ("distances", "csv"), ("support", "tsv"))}, output)
            for walker, output in sorted(result.walkers.items())]
    importlib.import_module("scipy.spatial.distance")  # once, for every child to inherit
    children, ended = [], []
    try:
        for walker, paths, output in jobs[:-1] if hasattr(os, "fork") else ():
            children.append((walker, *_fork(_write_walker_reports, paths, output, labels)))
        for _, paths, output in jobs[len(children):]:
            _write_walker_reports(paths, output, labels)
    finally:
        for walker, pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as fh:
                ended.append((walker, fh.read(), os.waitpid(pid, 0)[1]))
    for walker, sent, status in ended:
        if sent or status:  # a child that dies before it sends its exception exits nonzero
            code = os.waitstatus_to_exitcode(status)
            raise pickle.loads(sent) if sent else ChildProcessError(
                f"the {walker} report writer exited with status {code}")
    manifest_walkers = {
        walker: {kind: path.name for kind, path in paths.items()}
        | {"support_edges": int(output.support.edge_count), "zero_rows": list(output.zero_rows)}
        for walker, paths, output in jobs
    }
    manifest_path = out / CCI_MANIFEST_JSON
    _write_json(
        manifest_path,
        {
            "config": asdict(result.config),
            "layers": {
                layer: int(count)
                for layer, count in result.cci.layer_counts().items()
            },
            "graph": {
                "nodes": int(result.cci.graph.n),
                "edges": int(result.cci.graph.edge_count),
            },
            "walkers": manifest_walkers,
        },
    )
    return [*(path for _, paths, _ in jobs for path in paths.values()), manifest_path]
