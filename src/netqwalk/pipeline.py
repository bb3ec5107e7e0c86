"""Experiment drivers: prioritization sweeps and CCI walk analysis.

The prioritization driver loads an interactome, restricts it to the
greatest connected component, seeds a walker from significance-filtered
genes, sweeps the walk parameter (time, steps, or restart iterations),
and scores the resulting rankings against a held-out target set with
precision@K and average precision@K.  The cell-cell-interaction driver
runs discrete walkers over a symmetrized multipartite graph, compares
per-node transition profiles through their pairwise distances, and
extracts the communication subgraph supported by the walk.  Both
drivers emit deterministic CSV/JSON reports.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import classical, ctqrw, dtqrw
from .expm import as_hermitian, real_expm_action
from .graphs import (
    LabeledGraph,
    PartitionedCciGraph,
    build_cci_graph,
    degree_vector,
    graph_stats,
    greatest_component,
    laplacian,
    parse_label_pairs,
    parse_node_layers,
    parse_nonnegative,
    read_edge_list,
    symmetrized_view,
    table_rows,
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

WALKERS = ("rwr", "ctrw", "dtrw", "ctqrw", "dtqrw")
CONTINUOUS_WALKERS = ("ctrw", "ctqrw")
DISCRETE_WALKERS = ("dtrw", "dtqrw")
RWR_MODES = ("steady", "iterations")

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
_EXACT_TIE_WALKERS = DISCRETE_WALKERS


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
    table: dict[str, float] = {}
    for lineno, (label, value) in table_rows(
        text, (2,), "label value", "score table", sep=None
    ):
        if label in table:
            raise ValueError(f"line {lineno}: duplicate label {label!r}")
        table[label] = parse_nonnegative(value, lineno, "p-value", 1.0)
    return table


def read_score_table(path) -> dict[str, float]:
    """Read a ``label<TAB>p-value`` table from ``path``."""
    return parse_score_table(Path(path).read_text())


@dataclass(frozen=True)
class SeedTargetSets:
    """Significance-filtered seed and target gene sets.

    Genes passing both filters are kept as seeds and removed from the
    targets, so the two sets are disjoint.
    """

    seeds: tuple[str, ...]
    targets: tuple[str, ...]
    seed_thresh: float
    target_thresh: float
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
    if seed_thresh <= 0 or target_thresh <= 0:
        raise ValueError("thresholds must be positive")
    seeds = {label for label, p in scores.items() if p < seed_thresh}
    raw_targets = {label for label, p in target_table.items() if p < target_thresh}
    if not seeds:
        raise ValueError(
            f"no seeds pass the threshold p < {seed_thresh:g}"
        )
    overlap = seeds & raw_targets
    targets = raw_targets - overlap
    logger.info(
        "selected %d seeds (p < %g) and %d targets (p < %g, %d overlapping removed)",
        len(seeds), seed_thresh, len(targets), target_thresh, len(overlap),
    )
    return SeedTargetSets(
        seeds=tuple(sorted(seeds)),
        targets=tuple(sorted(targets)),
        seed_thresh=float(seed_thresh),
        target_thresh=float(target_thresh),
        intersection_removed=len(overlap),
    )


# ---------------------------------------------------------------------------
# prioritization sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One prioritization run: data paths, walker, grid, and evaluation.

    Continuous walkers sweep ``t = 0, t_step, ..., t_max``; discrete
    walkers sweep ``1..steps_max`` steps.  Restart walks default to the
    single steady state of the restart equation; ``rwr_mode =
    'iterations'`` instead sweeps truncated iteration counts, since a
    time axis for restart walks can be read either way.
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
    rwr_mode: str = "steady"

    def __post_init__(self) -> None:
        if self.walker not in WALKERS:
            raise ValueError(f"unknown walker {self.walker!r}; expected {WALKERS}")
        if self.hamiltonian not in ctqrw.HAMILTONIAN_KINDS:
            raise ValueError(f"unknown hamiltonian {self.hamiltonian!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.t_step <= 0 or self.t_max < 0:
            raise ValueError("time grid requires t_step > 0 and t_max >= 0")
        if self.steps_max < 1:
            raise ValueError("steps_max must be >= 1")
        if not self.k_list or any(k < 1 for k in self.k_list):
            raise ValueError("k_list must be nonempty with every K >= 1")
        if self.rwr_mode not in RWR_MODES:
            raise ValueError(f"rwr_mode must be one of {RWR_MODES}")
        if self.collapse_times and self.walker != "ctqrw":
            raise ValueError("a collapse schedule requires walker='ctqrw'")
        # normalize path and sequence fields and validate the collapse schedule
        for name in ("graph_path", "scores_path", "targets_path"):
            object.__setattr__(self, name, str(getattr(self, name)))
        object.__setattr__(self, "k_list", tuple(int(k) for k in self.k_list))
        # a repeated K would repeat its report columns and collapse its summary key
        _reject_repeats(self.k_list, "K value")
        sched = ctqrw.CollapseSchedule(tuple(self.collapse_times))
        object.__setattr__(self, "collapse_times", sched.times)
        # a collapse at or past the last grid time would act on no grid point
        sched.validate_horizon(self.grid_points()[1][-1])

    def grid_points(self) -> tuple[str, tuple]:
        """(kind, values) of the sweep grid for the configured walker."""
        if self.walker in CONTINUOUS_WALKERS:
            count = int(np.floor(self.t_max / self.t_step + 1e-9))
            return "time", tuple(round(i * self.t_step, 10) for i in range(count + 1))
        if self.walker in DISCRETE_WALKERS:
            return "steps", tuple(range(1, self.steps_max + 1))
        if self.rwr_mode == "steady":
            return "steady", (0.0,)
        return "iterations", tuple(range(1, self.steps_max + 1))


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


def _sweep_distributions(config: ExperimentConfig, gc: LabeledGraph, p0, grid):
    """Yield one node-probability vector per grid value."""
    walker = config.walker
    if walker == "rwr":
        if config.rwr_mode == "steady":
            yield classical.rwr_steady_state(gc, p0, config.alpha)
        else:
            for n in grid:
                yield classical.rwr_iterate(gc, p0, config.alpha, n)
    elif walker == "ctrw":
        # wrap the Laplacian once so its eigendecomposition is reused
        lap = as_hermitian(laplacian(gc))
        for t in grid:
            yield real_expm_action(lap, p0, t)
    elif walker == "dtrw":
        # each grid point continues from the previous one
        p, done = p0, 0
        for n in grid:
            p, done = classical.dtrw_evolve(gc, p, n - done), n
            yield p
    elif walker == "ctqrw":
        chiral = config.hamiltonian == "chiral"
        phases = ctqrw.random_chiral_phases(gc, config.rng_seed) if chiral else None
        h = ctqrw.build_hamiltonian(gc, config.hamiltonian, phases)
        # continue from the state right after the latest collapse before t,
        # which repeats the operations of replaying the schedule from 0;
        # evolving from the previous grid point would change the rounding
        psi, start = ctqrw.initial_state_from_scores(p0), 0.0
        pending = list(config.collapse_times)
        for t in grid:
            while pending and pending[0] < t:
                tc = pending.pop(0)
                psi = ctqrw.collapse(ctqrw.evolve_with_collapses(h, psi, tc - start))
                start = tc
            yield ctqrw.measure(ctqrw.evolve_with_collapses(h, psi, t - start))
    else:  # dtqrw
        arcs = dtqrw.arc_basis(gc)
        psi, done = dtqrw.arc_state_from_scores(arcs, p0), 0
        for n in grid:
            psi, done = dtqrw.evolve(arcs, psi, n - done), n
            yield dtqrw.node_probabilities(arcs, psi)


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
    gc_labels = set(gc.labels)
    graph_labels = set(g.labels)
    seeds_in_gc = [s for s in st.seeds if s in gc_labels]
    dropped = len(st.seeds) - len(seeds_in_gc)
    if dropped:
        logger.warning(
            "%d of %d seeds fall outside the greatest component and are dropped",
            dropped, len(st.seeds),
        )
    if not seeds_in_gc:
        raise ValueError("no seed genes fall inside the greatest component")
    targets_in_gc = [t for t in st.targets if t in gc_labels]
    if not targets_in_gc:
        raise ValueError("no target genes fall inside the greatest component")

    module = set(st.seeds) | set(st.targets)
    module_in_graph = module & graph_labels
    module_in_gc = module & gc_labels
    module_summary = {
        "seeds_total": len(st.seeds),
        "targets_total": len(st.targets),
        "intersection_removed": st.intersection_removed,
        "seeds_in_graph": sum(1 for s in st.seeds if s in graph_labels),
        "seeds_in_gc": len(seeds_in_gc),
        "targets_in_graph": sum(1 for t in st.targets if t in graph_labels),
        "targets_in_gc": len(targets_in_gc),
        "gc_module_fraction": (
            len(module_in_gc) / len(module_in_graph) if module_in_graph else 0.0
        ),
    }

    seed_nodes = [gc.index(s) for s in seeds_in_gc]
    p0 = np.zeros(gc.n)
    p0[seed_nodes] = 1.0
    p0 /= p0.sum()
    relevance = set(targets_in_gc)
    grid_kind, grid = config.grid_points()
    records = []
    for grid_value, p in zip(grid, _sweep_distributions(config, gc, p0, grid)):
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
        graph_summary={"graph": stats, "gc": graph_stats(gc)},
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
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
    with sweep_path.open("w", newline="") as fh:
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

CCI_WALKERS = ("dtrw", "dtqrw")

#: Start nodes that one walker call evolves together in ``run_cci_analysis``.
#: On a 600-node graph with 3,576 arcs (2-vCPU x86 host) 32 columns gave the
#: fastest coined walk, and 64 raised the peak RSS by 2 MB over per-node walks.
_CCI_CHUNK = 32


@dataclass(frozen=True)
class CciConfig:
    """One CCI run: data paths, step count, targets and threshold."""

    nodes_path: str
    edges_path: str
    steps: int = 5
    targets: tuple[str, ...] = ()
    epsilon: float = 0.05

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.targets:
            raise ValueError("at least one target node label is required")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        object.__setattr__(self, "nodes_path", str(self.nodes_path))
        object.__setattr__(self, "edges_path", str(self.edges_path))
        object.__setattr__(self, "targets", tuple(self.targets))
        _reject_repeats(self.targets, "target")


@dataclass(frozen=True)
class CciWalkerOutput:
    """Profiles, distances and support subgraph for one walker."""

    profiles: np.ndarray
    distances: np.ndarray
    support: LabeledGraph
    zero_rows: tuple[str, ...]


@dataclass(frozen=True)
class CciResult:
    config: CciConfig
    cci: PartitionedCciGraph
    walkers: dict


def run_cci_analysis(config: CciConfig) -> CciResult:
    """Run both discrete walkers over a CCI graph and compare profiles.

    Each walker produces an ``n x n`` matrix of transition profiles
    after ``config.steps`` steps on the symmetrized view (row = start
    node), the pairwise distance matrix of those profiles, and the
    communication subgraph supported at ``config.epsilon``.  The coined
    walker cannot start from nodes of degree 0 in the symmetrized view;
    they get zero rows, which are flagged.  Any other walker error
    propagates.

    All start nodes evolve together, as column blocks of ``_CCI_CHUNK``
    states: the dtrw profiles are the rows of ``P**steps``, from one walk
    on identity columns, and the dtqrw profiles come from blocks of
    uniform arc states, which are real and evolve in float64.  Every
    column sees the same floating-point operations as a walk from that
    node alone, so the rows equal ``classical.dtrw_transition_profile``
    and ``dtqrw.transition_profile`` exactly.
    """
    cci = build_cci_graph(
        parse_node_layers(Path(config.nodes_path).read_text()),
        parse_label_pairs(Path(config.edges_path).read_text()),
    )
    for t in config.targets:
        cci.graph.index(t)  # raises KeyError for unknown labels
    sym = symmetrized_view(cci)
    n = sym.n
    isolated = degree_vector(sym) == 0
    arcs = dtqrw.arc_basis(sym)
    starts = {"dtrw": np.arange(n), "dtqrw": np.flatnonzero(~isolated)}
    walkers = {}
    for walker in CCI_WALKERS:
        profiles = np.zeros((n, n))
        for lo in range(0, starts[walker].size, _CCI_CHUNK):
            chunk = starts[walker][lo : lo + _CCI_CHUNK]
            if walker == "dtrw":
                delta = np.zeros((n, chunk.size))
                delta[chunk, np.arange(chunk.size)] = 1.0
                block = classical.dtrw_evolve(sym, delta, config.steps)
            else:
                psi = dtqrw.initial_arc_block(arcs, chunk)
                block = dtqrw.node_probabilities(arcs, dtqrw.evolve(arcs, psi, config.steps))
            profiles[chunk] = block.T
        unlaunched = np.setdiff1d(np.arange(n), starts[walker])
        walkers[walker] = CciWalkerOutput(
            profiles=profiles,
            distances=pairwise_distance_matrix(profiles),
            support=walk_support_subgraph(
                cci, profiles, config.targets, config.epsilon
            ),
            zero_rows=tuple(sym.labels[j] for j in unlaunched),
        )
    return CciResult(config=config, cci=cci, walkers=walkers)


def emit_cci_reports(result: CciResult, out_dir) -> list[Path]:
    """Write per-walker profile/distance CSVs, support TSVs, and a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = result.cci.graph.labels
    # each row is its csv-quoted label and the entries as _fmt writes them
    row_cells = [_csv_cell(label) + "," for label in labels]
    row_values = ",".join(["%.17g"] * len(labels)) + "\n"
    written = []
    manifest_walkers = {}
    for walker, output in sorted(result.walkers.items()):
        prof_path = out / f"cci_{walker}_profiles.csv"
        dist_path = out / f"cci_{walker}_distances.csv"
        supp_path = out / f"cci_{walker}_support.tsv"
        for path, matrix in ((prof_path, output.profiles), (dist_path, output.distances)):
            with path.open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerow(["node"] + list(labels))
                # one row of Python floats at a time keeps the peak memory flat
                fh.writelines(
                    cell + row_values % tuple(row.tolist())
                    for cell, row in zip(row_cells, matrix)
                )
        with supp_path.open("w") as fh:
            fh.write("# directed support edges: tail<TAB>head\n")
            for j, k in output.support.edges:
                fh.write(f"{labels[j]}\t{labels[k]}\n")
        written += [prof_path, dist_path, supp_path]
        manifest_walkers[walker] = {
            "profiles": prof_path.name,
            "distances": dist_path.name,
            "support": supp_path.name,
            "support_edges": int(output.support.edge_count),
            "zero_rows": list(output.zero_rows),
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
    written.append(manifest_path)
    return written
